"""Array-backed datasets and batching.

Both datasets batch through one index generator, :func:`_index_batches`:
shuffled epochs are *length-bucketed* and every batch is *trimmed* to its own
longest row, so a step costs the batch's tokens and not ``max_len`` columns
(docs/PERFORMANCE.md, "PR 20", has the measured padding table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .ehr import ClinicalCohort
from .tokenizer import EhrTokenizer

__all__ = ["ClassificationDataset", "SequenceDataset", "train_valid_split", "encode_cohort"]

# A shuffled epoch is sorted by length inside pools of this many batches.
# Computed cells per sample (mean record 24 tokens, batch 32, max_len 40) on
# the e2e benchmark's 160-sample shards: pool 1 -> 33.8, 2 -> 29.9, 4 -> 28.0,
# 8 -> 26.1 (a full sort there); on paper-scale 866-sample shards 4 -> 26.5,
# 8 -> 25.5, full sort 24.4.  A constant, not an option: changing it changes
# every training run's batches.
POOL_BATCHES = 8


def valid_lengths(attention_mask: np.ndarray) -> np.ndarray:
    """Per row, one past its last valid column (0 for an all-padding row)."""
    mask = np.asarray(attention_mask, dtype=bool)
    return np.where(mask, np.arange(1, mask.shape[1] + 1), 0).max(axis=1)


def _index_batches(attention_mask: np.ndarray, batch_size: int, shuffle: bool,
                   rng: np.random.Generator | None, drop_last: bool
                   ) -> Iterator[tuple[np.ndarray, int]]:
    """Yield ``(row indices, width)`` per batch; every row at most once.

    ``shuffle=False`` keeps dataset order.  ``shuffle=True`` permutes the rows
    with ``rng``, stable-sorts them by valid length inside pools of
    ``POOL_BATCHES`` batches, cuts the batches and shuffles *their* order with
    the same ``rng``: same seed, same batches, and batch-mates are of similar
    length.  ``width`` is the batch's longest valid row (at least 1): the
    columns beyond it are padding for the whole batch.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    lengths = valid_lengths(attention_mask)
    order = np.arange(len(lengths))
    if shuffle:
        rng = rng or np.random.default_rng()
        rng.shuffle(order)
        pool_size = POOL_BATCHES * batch_size
        for start in range(0, len(order), pool_size):
            pool = order[start:start + pool_size]
            pool[:] = pool[np.argsort(lengths[pool], kind="stable")]
    stop = len(order) - (len(order) % batch_size if drop_last else 0)
    batches = [order[start:start + batch_size] for start in range(0, stop, batch_size)]
    if shuffle:
        batches = [batches[index] for index in rng.permutation(len(batches))]
    for rows in batches:
        yield rows, max(1, int(lengths[rows].max()))


@dataclass
class ClassificationDataset:
    """Token ids + attention masks + integer labels."""

    input_ids: np.ndarray       # (n, seq) int64
    attention_mask: np.ndarray  # (n, seq) bool
    labels: np.ndarray          # (n,) int64

    def __post_init__(self) -> None:
        n = self.input_ids.shape[0]
        if self.attention_mask.shape[0] != n or self.labels.shape[0] != n:
            raise ValueError("dataset arrays disagree on length")

    def __len__(self) -> int:
        return int(self.input_ids.shape[0])

    @property
    def positive_rate(self) -> float:
        return float(self.labels.mean()) if len(self) else 0.0

    def subset(self, indices: np.ndarray) -> "ClassificationDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return ClassificationDataset(self.input_ids[indices],
                                     self.attention_mask[indices],
                                     self.labels[indices])

    def iter_batches(self, batch_size: int, shuffle: bool = False,
                     rng: np.random.Generator | None = None,
                     drop_last: bool = False
                     ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(input_ids, attention_mask, labels)`` batches, each trimmed
        to its longest valid row; shuffled epochs are length-bucketed (see
        :func:`_index_batches`)."""
        for rows, width in _index_batches(self.attention_mask, batch_size,
                                          shuffle, rng, drop_last):
            yield (self.input_ids[rows, :width], self.attention_mask[rows, :width],
                   self.labels[rows])

    def sorted_by_length(self) -> "ClassificationDataset":
        """Rows in ascending valid length: unshuffled batches of it carry the
        least padding (the order the evaluators walk)."""
        return self.subset(np.argsort(valid_lengths(self.attention_mask), kind="stable"))


@dataclass
class SequenceDataset:
    """Unlabeled token sequences (MLM pretraining input)."""

    input_ids: np.ndarray       # (n, seq) int64
    attention_mask: np.ndarray  # (n, seq) bool

    def __len__(self) -> int:
        return int(self.input_ids.shape[0])

    def subset(self, indices: np.ndarray) -> "SequenceDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return SequenceDataset(self.input_ids[indices], self.attention_mask[indices])

    def iter_batches(self, batch_size: int, shuffle: bool = False,
                     rng: np.random.Generator | None = None,
                     drop_last: bool = False
                     ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(input_ids, attention_mask)`` batches, bucketed and trimmed as
        :meth:`ClassificationDataset.iter_batches` does."""
        for rows, width in _index_batches(self.attention_mask, batch_size,
                                          shuffle, rng, drop_last):
            yield self.input_ids[rows, :width], self.attention_mask[rows, :width]

    def sorted_by_length(self) -> "SequenceDataset":
        """As :meth:`ClassificationDataset.sorted_by_length`."""
        return self.subset(np.argsort(valid_lengths(self.attention_mask), kind="stable"))


def encode_cohort(cohort: ClinicalCohort, tokenizer: EhrTokenizer) -> ClassificationDataset:
    """Encode every cohort record into a :class:`ClassificationDataset`."""
    input_ids, attention_mask = tokenizer.encode_batch(cohort.texts())
    return ClassificationDataset(input_ids, attention_mask, cohort.labels)


def train_valid_split(n: int, valid_fraction: float = 0.2,
                      seed: int = 13) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled index split; the paper uses an 80/20 split (6,927 / 1,732)."""
    if not 0.0 < valid_fraction < 1.0:
        raise ValueError("valid_fraction must be in (0, 1)")
    order = np.random.default_rng(seed).permutation(n)
    n_valid = max(1, int(round(n * valid_fraction)))
    return np.sort(order[n_valid:]), np.sort(order[:n_valid])
