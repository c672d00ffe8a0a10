"""Centralized / standalone / federated schemes (tiny integration runs)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import partition_balanced
from repro.models import build_classifier, build_mlm_model
from repro.training import (
    run_centralized,
    run_centralized_mlm,
    run_federated,
    run_federated_mlm,
    run_standalone,
)


@pytest.fixture(scope="module")
def setup(tiny_split, vocab_size):
    train, valid = tiny_split
    shards = {f"site-{i + 1}": train.subset(s)
              for i, s in enumerate(partition_balanced(len(train), 3, seed=0))}

    def factory():
        return build_classifier("lstm-tiny", vocab_size=vocab_size, seed=4)

    return train, valid, shards, factory


class TestClassificationSchemes:
    def test_centralized(self, setup):
        train, valid, _, factory = setup
        result = run_centralized(factory, train, valid, epochs=2, lr=1e-2)
        assert 0 <= result.final_acc <= 1
        assert result.best_acc >= result.final_acc
        assert len(result.history) == 2

    def test_standalone(self, setup):
        _, valid, shards, factory = setup
        result = run_standalone(factory, shards, valid, epochs=1)
        assert set(result.site_accs) == set(shards)
        assert 0 <= result.mean_acc <= 1
        assert result.best_acc >= result.mean_acc

    def test_federated(self, setup, tmp_path):
        _, valid, shards, factory = setup
        result = run_federated(factory, shards, valid, num_rounds=2,
                               local_epochs=1, run_dir=tmp_path)
        assert 0 <= result.final_acc <= 1
        assert result.simulation.stats.num_rounds == 2
        assert len(result.simulation.tokens) == 3

    def test_federated_sequential_mode(self, setup, tmp_path):
        _, valid, shards, factory = setup
        result = run_federated(factory, shards, valid, num_rounds=1,
                               local_epochs=1, threads=False, run_dir=tmp_path)
        assert result.simulation.stats.num_rounds == 1


class TestMlmSchemes:
    def test_centralized_mlm(self, tiny_sequences, tiny_collator, vocab_size):
        def factory():
            return build_mlm_model("bert-tiny", vocab_size=vocab_size, seed=0,
                                   max_seq_len=24)

        history = run_centralized_mlm(factory, tiny_sequences, tiny_sequences,
                                      tiny_collator, epochs=2, lr=1e-3)
        assert len(history) == 2
        assert history[-1].valid_loss is not None

    def test_federated_mlm(self, tiny_sequences, tiny_collator, vocab_size):
        def factory():
            return build_mlm_model("bert-tiny", vocab_size=vocab_size, seed=0,
                                   max_seq_len=24)

        shards = {f"site-{i + 1}": tiny_sequences.subset(s)
                  for i, s in enumerate(partition_balanced(len(tiny_sequences), 2,
                                                           seed=0))}
        losses, simulation = run_federated_mlm(factory, shards, tiny_sequences,
                                               tiny_collator, num_rounds=2,
                                               local_epochs=1, lr=1e-3)
        assert len(losses) == 2
        assert all(np.isfinite(losses))
        assert simulation.stats.num_rounds == 2


HASH_SEED_SCRIPT = """
import hashlib
from repro.data import (CohortSpec, EhrTokenizer, encode_cohort, generate_cohort,
                        partition_balanced)
from repro.models import build_classifier
from repro.training import run_federated

cohort = generate_cohort(CohortSpec(n_patients=48, seed=5))
data = encode_cohort(cohort, EhrTokenizer(cohort.vocab, max_len=24))
shards = {f"site-{i + 1}": data.subset(rows)
          for i, rows in enumerate(partition_balanced(len(data), 2, seed=0))}
result = run_federated(
    lambda: build_classifier("lstm-tiny", vocab_size=len(cohort.vocab), seed=4),
    shards, data, num_rounds=1, local_epochs=1, batch_size=8, threads=False)
digest = hashlib.sha256()
for key, value in sorted(result.simulation.final_weights.items()):
    digest.update(value.tobytes())
print(digest.hexdigest())
"""


def test_federated_repeats_across_interpreter_hash_seeds():
    """Site seeds come from the site's place in the sorted site list, not
    from ``hash(name)``, which every interpreter salts differently."""
    src = Path(__file__).resolve().parents[2] / "src"
    digests = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr[-2000:]
        digests.append(done.stdout.strip().splitlines()[-1])
    assert digests[0] == digests[1]
