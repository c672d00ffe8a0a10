"""Fig. 2 reproduction: MLM pretraining loss under four data regimes.

The paper compares BERT MLM pretraining on
1) centralized data (upper bound),
2) a small dataset (lower bound),
3) federated, imbalanced client shards,
4) federated, balanced client shards,
and reports that regimes 1/3/4 converge to a common low loss while the
small-data regime plateaus higher (paper: 10.7 → 3.5 vs 4.4; our absolute
values differ because the synthetic vocabulary is smaller — the initial MLM
loss is ~ln(vocab) — but the regime ordering is the reproduced result).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field


from ..data import (
    MlmCollator,
    PAPER_IMBALANCED_RATIOS,
    SequenceDataset,
    build_clinical_vocab,
    EhrTokenizer,
    generate_pretraining_corpus,
    partition_balanced,
    partition_by_ratios,
    small_subset,
)
from ..flare import set_console_level
from ..models import build_mlm_model
from ..training import run_centralized_mlm, run_federated_mlm
from .configs import ExperimentScale, get_scale
from .report import ascii_plot, format_series

__all__ = ["Fig2Result", "run_fig2", "REGIMES", "prepare_fig2_data"]

REGIMES = ("centralized", "small", "fl-imbalanced", "fl-balanced")


@dataclass
class Fig2Result:
    """MLM-loss trajectories per regime."""

    curves: dict[str, list[float]] = field(default_factory=dict)
    scale_name: str = "bench"

    def final_loss(self, regime: str) -> float:
        return self.curves[regime][-1]

    def to_text(self) -> str:
        lines = [f"Fig. 2 — MLM loss trajectories (scale={self.scale_name})"]
        lines += [format_series(name, values) for name, values in sorted(self.curves.items())]
        lines.append(ascii_plot(self.curves, title="MLM loss vs. round/epoch"))
        return "\n".join(lines)

    def shape_checks(self) -> dict[str, bool]:
        """The paper's Fig. 2 claims on this run's curves."""
        checks: dict[str, bool] = {}
        finals = {name: values[-1] for name, values in self.curves.items()}
        if "small" in finals:
            others = [finals[k] for k in finals if k != "small"]
            if others:
                checks["small-data regime plateaus highest"] = finals["small"] > max(others)
        for name, values in self.curves.items():
            # "improves at some point" — the small-data regime can tick up
            # late from overfitting, which the paper's own curve also shows
            checks[f"{name}: loss decreases"] = min(values) < values[0] + 1e-9
        if "centralized" in finals and "fl-imbalanced" in finals:
            checks["fl-imbalanced near centralized"] = (
                abs(finals["fl-imbalanced"] - finals["centralized"])
                < 0.35 * max(finals["centralized"], 1e-9) + 0.35)
        if "fl-balanced" in finals and "fl-imbalanced" in finals:
            checks["balanced ~ imbalanced"] = (
                abs(finals["fl-balanced"] - finals["fl-imbalanced"])
                < 0.35 * max(finals["fl-imbalanced"], 1e-9) + 0.35)
        return checks


def prepare_fig2_data(scale: ExperimentScale, seed: int = 11):
    """Corpus → encode → (train, valid) SequenceDatasets + vocab + collator."""
    vocab = build_clinical_vocab()
    tokenizer = EhrTokenizer(vocab, max_len=scale.max_seq_len)
    corpus = generate_pretraining_corpus(scale.pretrain_sequences + scale.pretrain_valid,
                                         seed=seed)
    ids, mask = tokenizer.encode_batch(corpus)
    train = SequenceDataset(ids[:scale.pretrain_sequences], mask[:scale.pretrain_sequences])
    valid = SequenceDataset(ids[scale.pretrain_sequences:], mask[scale.pretrain_sequences:])
    return train, valid, vocab, _collator(vocab, seed)


def _collator(vocab, seed: int) -> MlmCollator:
    # the masking RNG advances on every batch, so each regime starts a fresh
    # one: a regime's curve must not depend on the regimes run before it
    return MlmCollator(vocab, mask_prob=0.15, seed=seed)


def run_fig2(scale: ExperimentScale | None = None, seed: int = 11,
             model_name: str | None = None, regimes: tuple[str, ...] = REGIMES,
             n_clients: int = 8, quiet: bool = True) -> Fig2Result:
    """Regenerate the Fig. 2 loss curves."""
    scale = scale or get_scale()
    model_name = model_name or scale.mlm_model
    if quiet:
        set_console_level(logging.WARNING)
    train, valid, vocab, _ = prepare_fig2_data(scale, seed=seed)
    result = Fig2Result(scale_name=scale.name)

    def factory():
        return build_mlm_model(model_name, vocab_size=len(vocab), seed=seed,
                               max_seq_len=scale.max_seq_len)

    for regime in regimes:
        collator = _collator(vocab, seed)
        if regime == "centralized":
            history = run_centralized_mlm(factory, train, valid, collator,
                                          epochs=scale.mlm_epochs,
                                          batch_size=scale.batch_size,
                                          lr=scale.mlm_lr, seed=seed)
            result.curves[regime] = [m.valid_loss if m.valid_loss is not None
                                     else m.train_loss for m in history]
        elif regime == "small":
            subset = train.subset(small_subset(len(train), fraction=0.02, seed=seed,
                                               minimum=16))
            history = run_centralized_mlm(factory, subset, valid, collator,
                                          epochs=scale.mlm_epochs,
                                          batch_size=scale.batch_size,
                                          lr=scale.mlm_lr, seed=seed)
            result.curves[regime] = [m.valid_loss if m.valid_loss is not None
                                     else m.train_loss for m in history]
        elif regime in ("fl-imbalanced", "fl-balanced"):
            if regime == "fl-imbalanced":
                ratios = PAPER_IMBALANCED_RATIOS[:n_clients]
                shard_indices = partition_by_ratios(len(train), ratios, seed=seed)
            else:
                shard_indices = partition_balanced(len(train), n_clients, seed=seed)
            shards = {f"site-{i + 1}": train.subset(s)
                      for i, s in enumerate(shard_indices)}
            losses, _sim = run_federated_mlm(
                factory, shards, valid, collator,
                num_rounds=scale.mlm_epochs, local_epochs=1,
                batch_size=scale.batch_size, lr=scale.mlm_lr, seed=seed,
                job_name=f"fig2-{regime}")
            result.curves[regime] = losses
        else:
            raise ValueError(f"unknown regime {regime!r}")
    return result
