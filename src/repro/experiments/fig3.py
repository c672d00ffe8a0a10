"""Fig. 3 reproduction: the federated fine-tuning demonstration transcript.

Runs a (scaled) BERT fine-tuning job through the simulator and checks that
the captured log contains every stage the paper's screenshot shows:

1. server/client initialisation with join tokens,
2. per-site local-epoch lines with train loss and validation accuracy,
3. per-round contribution acceptance and aggregation of 8 updates,
4. model persistence on the server and round advance,
plus the "sec/local epoch" training-cost figure.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

from ..flare import set_console_level
from ..training import run_federated
from .configs import ExperimentScale, get_scale
from .table3 import classifier_factory, prepare_table3_data

__all__ = ["Fig3Result", "run_fig3", "TRANSCRIPT_STAGES"]

TRANSCRIPT_STAGES: dict[str, str] = {
    "client_registration": r"New client site-\d+@.+ joined\. Sent token: [0-9a-f-]{36}",
    "registration_ack": r"Successfully registered client:site-\d+",
    "local_epoch": r"Local epoch site-\d+: \d+/\d+ \(lr=.+\), train_loss=\d+\.\d+, valid_acc=\d+\.\d+",
    "training_cost": r"Training cost: \d+\.\d sec/local epoch",
    "contribution_accepted": r"Contribution from site-\d+ ACCEPTED by the aggregator at round \d+",
    "aggregation": r"aggregating \d+ update\(s\) at round \d+",
    "end_aggregation": r"End aggregation\.",
    "persist_start": r"Start persist model on server\.",
    "persist_end": r"End persist model on server\.",
    "round_finished": r"Round \d+ finished\.",
    "round_started": r"Round \d+ started\.",
}


@dataclass
class Fig3Result:
    """The captured transcript and which Fig. 3 stages it contains."""

    transcript: str
    stages_found: dict[str, bool] = field(default_factory=dict)
    seconds_per_local_epoch: float = 0.0
    final_acc: float = 0.0
    tokens: dict[str, str] = field(default_factory=dict)

    def all_stages_present(self) -> bool:
        return all(self.stages_found.values())

    def to_text(self) -> str:
        lines = ["Fig. 3 — demonstration transcript stages:"]
        for stage, found in self.stages_found.items():
            lines.append(f"  [{'x' if found else ' '}] {stage}")
        lines.append(f"Training cost: {self.seconds_per_local_epoch:.1f} sec/local epoch "
                     f"(paper: 12.7 on BERT/GPU)")
        return "\n".join(lines)


def run_fig3(scale: ExperimentScale | None = None, seed: int = 7,
             model_name: str | None = None, n_clients: int = 8,
             quiet: bool = True) -> Fig3Result:
    """Run the demonstration job and analyse its transcript."""
    scale = scale or get_scale()
    model_name = model_name or scale.demo_model
    if quiet:
        set_console_level(logging.WARNING)
    _train, valid, shards, vocab_size = prepare_table3_data(scale, seed=seed)
    if len(shards) != n_clients:
        # table3 shards always use the paper's 8 ratios; re-label defensively
        shards = dict(sorted(shards.items())[:n_clients])

    factory = classifier_factory(model_name, vocab_size, scale, seed)
    fed = run_federated(factory, shards, valid, num_rounds=scale.num_rounds,
                        local_epochs=scale.local_epochs, batch_size=scale.batch_size,
                        lr=scale.lr, seed=seed, job_name="fig3-demo")
    transcript = fed.simulation.log_text
    stages = {stage: re.search(pattern, transcript) is not None
              for stage, pattern in TRANSCRIPT_STAGES.items()}
    return Fig3Result(
        transcript=transcript,
        stages_found=stages,
        seconds_per_local_epoch=fed.simulation.stats.mean_seconds_per_local_epoch()
        / max(scale.local_epochs, 1),
        final_acc=fed.final_acc,
        tokens=fed.simulation.tokens,
    )
