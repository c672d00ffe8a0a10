"""Table III reproduction: top-1 accuracy of BERT / BERT-mini / LSTM under
centralized, standalone and federated training.

One call to :func:`run_table3` regenerates the whole table on the synthetic
clopidogrel cohort; :func:`run_table3_cell` runs one (scheme, model) cell.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..data import (
    CohortSpec,
    EhrTokenizer,
    PAPER_IMBALANCED_RATIOS,
    encode_cohort,
    generate_cohort,
    partition_by_ratios,
    train_valid_split,
)
from ..flare import set_console_level
from ..models import build_classifier
from ..training import run_centralized, run_federated, run_standalone
from .configs import ExperimentScale, TABLE3_PAPER_ACCURACY, get_scale
from .report import format_table

__all__ = ["Table3Result", "run_table3", "run_table3_cell", "prepare_table3_data"]

SCHEMES = ("centralized", "standalone", "fl")


@dataclass
class Table3Result:
    """Accuracy (percent) per scheme × model, plus the paper's reference."""

    accuracy: dict[str, dict[str, float]] = field(default_factory=dict)
    scale_name: str = "bench"

    def set_cell(self, scheme: str, model: str, value: float) -> None:
        self.accuracy.setdefault(scheme, {})[model] = value

    def get_cell(self, scheme: str, model: str) -> float:
        return self.accuracy[scheme][model]

    def to_text(self) -> str:
        models = sorted({m for row in self.accuracy.values() for m in row})
        rows = []
        for scheme in SCHEMES:
            if scheme not in self.accuracy:
                continue
            row = [scheme] + [f"{self.accuracy[scheme].get(m, float('nan')):.1f}"
                              for m in models]
            paper_row = TABLE3_PAPER_ACCURACY.get(scheme, {})
            row += [f"(paper: {paper_row[m]:.1f})" if m in paper_row else ""
                    for m in models]
            rows.append(row)
        headers = ["scheme"] + models + [f"paper {m}" for m in models]
        return format_table(headers, rows,
                            title=f"Table III — top-1 accuracy [%] (scale={self.scale_name})")

    def shape_checks(self) -> dict[str, bool]:
        """The qualitative claims of Table III, evaluated on this run.

        - federated roughly matches centralized for every model,
        - standalone is clearly worse than federated,
        - the LSTM is the strongest model in centralized and FL.
        """
        checks: dict[str, bool] = {}
        for model in self.accuracy.get("fl", {}):
            cent = self.accuracy.get("centralized", {}).get(model)
            fl = self.accuracy.get("fl", {}).get(model)
            alone = self.accuracy.get("standalone", {}).get(model)
            if cent is not None and fl is not None:
                checks[f"{model}: fl within 5pts of centralized"] = fl >= cent - 5.0
            if alone is not None and fl is not None:
                checks[f"{model}: standalone below fl"] = alone < fl
        fl_row = self.accuracy.get("fl", {})
        if "lstm" in fl_row and len(fl_row) > 1:
            checks["lstm strongest under fl"] = fl_row["lstm"] == max(fl_row.values())
        return checks


def prepare_table3_data(scale: ExperimentScale, seed: int = 7):
    """Cohort → encode → split → imbalanced 8-way shards.

    Returns ``(train, valid, shards, vocab_size)``.
    """
    cohort = generate_cohort(CohortSpec(n_patients=scale.cohort_size, seed=seed))
    tokenizer = EhrTokenizer(cohort.vocab, max_len=scale.max_seq_len)
    dataset = encode_cohort(cohort, tokenizer)
    train_idx, valid_idx = train_valid_split(len(dataset), valid_fraction=0.2, seed=seed)
    train, valid = dataset.subset(train_idx), dataset.subset(valid_idx)
    shard_indices = partition_by_ratios(len(train), PAPER_IMBALANCED_RATIOS, seed=seed)
    shards = {f"site-{i + 1}": train.subset(s) for i, s in enumerate(shard_indices)}
    return train, valid, shards, len(cohort.vocab)


def classifier_factory(model_name: str, vocab_size: int, scale: ExperimentScale,
                       seed: int):
    """A zero-argument builder of the named classifier at this scale."""
    overrides = {"max_seq_len": scale.max_seq_len} if model_name.startswith("bert") else {}
    return lambda: build_classifier(model_name, vocab_size=vocab_size, seed=seed,
                                    **overrides)


def run_table3_cell(scheme: str, model_name: str,
                    scale: ExperimentScale | None = None, seed: int = 7,
                    quiet: bool = True) -> float:
    """Run one (scheme, model) cell; returns top-1 accuracy in percent."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    scale = scale or get_scale()
    if quiet:
        set_console_level(logging.WARNING)
    train, valid, shards, vocab_size = prepare_table3_data(scale, seed=seed)
    # cost-sensitive loss for the 21%-positive ADR task; applied identically
    # in every scheme so the Table III comparison stays apples-to-apples
    positive = max(train.positive_rate, 1e-6)
    class_weights = np.array([1.0, (1.0 - positive) / positive])
    factory = classifier_factory(model_name, vocab_size, scale, seed)

    if scheme == "centralized":
        result = run_centralized(factory, train, valid,
                                 epochs=scale.centralized_epochs,
                                 batch_size=scale.batch_size, lr=scale.lr, seed=seed,
                                 class_weights=class_weights)
        return 100.0 * result.best_acc
    if scheme == "standalone":
        result = run_standalone(factory, shards, valid,
                                epochs=scale.centralized_epochs,
                                batch_size=scale.batch_size, lr=scale.lr, seed=seed,
                                class_weights=class_weights)
        return 100.0 * result.mean_acc
    fed = run_federated(factory, shards, valid, num_rounds=scale.num_rounds,
                        local_epochs=scale.local_epochs,
                        batch_size=scale.batch_size, lr=scale.lr, seed=seed,
                        job_name=f"table3-{model_name}",
                        class_weights=class_weights)
    return 100.0 * fed.best_acc


def run_table3(scale: ExperimentScale | None = None, seed: int = 7,
               models: tuple[str, ...] | None = None,
               schemes: tuple[str, ...] = SCHEMES, quiet: bool = True) -> Table3Result:
    """Regenerate the full Table III."""
    scale = scale or get_scale()
    result = Table3Result(scale_name=scale.name)
    for model_name in (models or scale.models):
        for scheme in schemes:
            value = run_table3_cell(scheme, model_name, scale=scale, seed=seed,
                                    quiet=quiet)
            result.set_cell(scheme, model_name, value)
    return result
