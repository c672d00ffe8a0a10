"""Datasets and batching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    ClassificationDataset,
    CohortSpec,
    EhrTokenizer,
    SequenceDataset,
    encode_cohort,
    generate_cohort,
    partition_balanced,
    train_valid_split,
)


def make_dataset(n=20, seq=6):
    rng = np.random.default_rng(0)
    return ClassificationDataset(
        input_ids=rng.integers(0, 9, size=(n, seq)),
        attention_mask=np.ones((n, seq), dtype=bool),
        labels=rng.integers(0, 2, size=n),
    )


class TestClassificationDataset:
    def test_len(self):
        assert len(make_dataset(13)) == 13

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            ClassificationDataset(np.zeros((3, 4), dtype=np.int64),
                                  np.ones((3, 4), dtype=bool),
                                  np.zeros(2, dtype=np.int64))

    def test_subset(self):
        ds = make_dataset(10)
        sub = ds.subset(np.array([1, 3, 5]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.labels, ds.labels[[1, 3, 5]])

    def test_batches_cover_everything(self):
        ds = make_dataset(10)
        seen = sum(len(labels) for _, _, labels in ds.iter_batches(3))
        assert seen == 10

    def test_drop_last(self):
        ds = make_dataset(10)
        batches = list(ds.iter_batches(3, drop_last=True))
        assert all(len(b[2]) == 3 for b in batches)
        assert len(batches) == 3

    def test_shuffle_changes_order_but_not_content(self):
        ds = make_dataset(32)
        plain = np.concatenate([ids[:, 0] for ids, _, _ in ds.iter_batches(8)])
        shuffled = np.concatenate([
            ids[:, 0] for ids, _, _ in ds.iter_batches(8, shuffle=True,
                                                       rng=np.random.default_rng(1))])
        assert sorted(plain.tolist()) == sorted(shuffled.tolist())
        assert not np.array_equal(plain, shuffled)

    def test_shuffle_deterministic_with_rng(self):
        ds = make_dataset(16)
        a = [l.tolist() for _, _, l in ds.iter_batches(4, shuffle=True,
                                                       rng=np.random.default_rng(5))]
        b = [l.tolist() for _, _, l in ds.iter_batches(4, shuffle=True,
                                                       rng=np.random.default_rng(5))]
        assert a == b

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(make_dataset().iter_batches(0))

    def test_positive_rate(self):
        ds = ClassificationDataset(np.zeros((4, 2), dtype=np.int64),
                                   np.ones((4, 2), dtype=bool),
                                   np.array([1, 1, 0, 0]))
        assert ds.positive_rate == 0.5


class TestSequenceDataset:
    def test_batching(self):
        ds = SequenceDataset(np.zeros((7, 4), dtype=np.int64),
                             np.ones((7, 4), dtype=bool))
        sizes = [len(ids) for ids, _ in ds.iter_batches(3)]
        assert sizes == [3, 3, 1]

    def test_subset(self):
        ds = SequenceDataset(np.arange(12).reshape(6, 2),
                             np.ones((6, 2), dtype=bool))
        sub = ds.subset(np.array([0, 5]))
        assert len(sub) == 2


def build(kind, ids, mask):
    if kind is SequenceDataset:
        return SequenceDataset(ids, mask)
    return ClassificationDataset(ids, mask, np.arange(len(ids)))


def ragged(kind, n=70, seq=12, seed=0):
    """Right-padded rows of random length 1..seq; column 0 holds the row's
    index + 1, so a batch says which rows it carries."""
    rng = np.random.default_rng(seed)
    mask = np.arange(seq)[None, :] < rng.integers(1, seq + 1, size=n)[:, None]
    ids = np.where(mask, rng.integers(1, 9, size=(n, seq)), 0)
    ids[:, 0] = np.arange(1, n + 1)
    return build(kind, ids, mask)


def rows_of(batches):
    return [(batch[0][:, 0] - 1).tolist() for batch in batches]


@pytest.mark.parametrize("kind", [ClassificationDataset, SequenceDataset])
class TestBucketedTrimmedBatches:
    """The sampler both datasets share: seeded length buckets, trimmed width."""

    # batch 8 -> pools of 64 rows: 70 leaves a ragged last pool and batch
    @pytest.mark.parametrize("n", [70, 64, 5, 0])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_epoch_covers_every_row_once(self, kind, n, shuffle):
        ds = ragged(kind, n)
        seen = rows_of(ds.iter_batches(8, shuffle=shuffle,
                                       rng=np.random.default_rng(3)))
        assert sorted(sum(seen, [])) == list(range(n))
        assert [len(rows) for rows in seen].count(8) == n // 8

    @pytest.mark.parametrize("n", [70, 64, 5, 0])
    def test_drop_last_drops_only_the_short_batch(self, kind, n):
        seen = rows_of(ragged(kind, n).iter_batches(
            8, shuffle=True, rng=np.random.default_rng(3), drop_last=True))
        flat = sum(seen, [])
        assert all(len(rows) == 8 for rows in seen) and len(seen) == n // 8
        assert len(set(flat)) == len(flat)

    def test_same_seed_same_batches_and_epochs_differ(self, kind):
        ds = ragged(kind)

        def epochs(seed, count=2):
            rng = np.random.default_rng(seed)
            return [[[part.tolist() for part in batch]
                     for batch in ds.iter_batches(8, shuffle=True, rng=rng)]
                    for _ in range(count)]

        first, second = epochs(5)
        assert [first, second] == epochs(5)
        assert first != second
        assert first != epochs(6, count=1)[0]

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_width_is_the_longest_valid_row(self, kind, shuffle):
        ds = ragged(kind)
        for batch in ds.iter_batches(8, shuffle=shuffle, rng=np.random.default_rng(1)):
            ids, mask = batch[0], batch[1]
            rows = ids[:, 0] - 1
            assert ids.shape == mask.shape == (len(rows), ds.attention_mask[rows].sum(1).max())
            np.testing.assert_array_equal(ids, ds.input_ids[rows, :ids.shape[1]])
            np.testing.assert_array_equal(mask, ds.attention_mask[rows, :ids.shape[1]])
            assert ds.attention_mask[rows].sum() == mask.sum()   # no token lost

    def test_unshuffled_keeps_dataset_order(self, kind):
        assert sum(rows_of(ragged(kind, 20).iter_batches(8)), []) == list(range(20))

    def test_only_columns_that_pad_every_row_are_cut(self, kind):
        mask = np.zeros((4, 10), dtype=bool)
        mask[0, 4:7] = True          # left-padded
        mask[1, [0, 1, 5]] = True    # interior holes
        mask[2, :3] = True           # right-padded
        ds = build(kind, np.arange(1, 41).reshape(4, 10), mask)   # row 3: all padding
        for shuffle in (False, True):
            (batch,) = ds.iter_batches(4, shuffle=shuffle, rng=np.random.default_rng(0))
            assert batch[0].shape == (4, 7)     # last valid column is 6, in row 0
            assert sorted(batch[0][:, 0].tolist()) == [1, 11, 21, 31]
            assert batch[1].sum() == mask.sum()

    def test_all_padding_batch_keeps_one_column(self, kind):
        ds = build(kind, np.zeros((3, 6), dtype=np.int64), np.zeros((3, 6), dtype=bool))
        for shuffle in (False, True):
            (batch,) = ds.iter_batches(8, shuffle=shuffle)
            assert batch[0].shape == batch[1].shape == (3, 1)

    def test_shuffled_batch_mates_are_of_similar_length(self, kind):
        ds = ragged(kind, n=64)   # one pool: a full sort
        spreads = []
        for batch in ds.iter_batches(8, shuffle=True, rng=np.random.default_rng(2)):
            lengths = batch[1].sum(1)
            spreads.append(lengths.max() - lengths.min())
        assert max(spreads) <= 3  # 64 lengths in 1..12 cut into 8 sorted runs

    def test_sorted_by_length(self, kind):
        ds = ragged(kind).sorted_by_length()
        lengths = ds.attention_mask.sum(1)
        assert (np.diff(lengths) >= 0).all()
        assert sorted(ds.input_ids[:, 0].tolist()) == list(range(1, 71))


class TestPaddingBudget:
    """The count behind PR 20's claim, on the benchmark's own shards: cells a
    step computes per real token (parent: 1.66 at (32, 40), 1.40 in the LSTM
    window)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cells_per_real_token(self, seed):
        cohort = generate_cohort(CohortSpec(n_patients=1600, seed=seed))
        dataset = encode_cohort(cohort, EhrTokenizer(cohort.vocab, max_len=40))
        train_idx, _ = train_valid_split(len(dataset), valid_fraction=0.2, seed=seed)
        train = dataset.subset(train_idx)
        rng = np.random.default_rng(seed)
        cells = real = 0
        for shard in partition_balanced(len(train), 8, seed=seed):
            for ids, mask, _ in train.subset(shard).iter_batches(32, shuffle=True,
                                                                 rng=rng):
                cells += ids.size
                real += int(mask.sum())
        assert real == int(train.attention_mask.sum())
        assert cells / real <= 1.10


class TestEncodeCohort:
    def test_labels_align(self, tiny_cohort, tiny_tokenizer):
        ds = encode_cohort(tiny_cohort, tiny_tokenizer)
        assert len(ds) == len(tiny_cohort)
        np.testing.assert_array_equal(ds.labels, tiny_cohort.labels)

    def test_cls_first_everywhere(self, tiny_cohort, tiny_tokenizer):
        ds = encode_cohort(tiny_cohort, tiny_tokenizer)
        assert (ds.input_ids[:, 0] == tiny_cohort.vocab.cls_id).all()


class TestSplit:
    def test_disjoint_and_complete(self):
        train, valid = train_valid_split(100, 0.2, seed=1)
        assert len(train) == 80 and len(valid) == 20
        assert not set(train) & set(valid)
        assert set(train) | set(valid) == set(range(100))

    def test_deterministic(self):
        a = train_valid_split(50, 0.3, seed=2)
        b = train_valid_split(50, 0.3, seed=2)
        np.testing.assert_array_equal(a[0], b[0])

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            train_valid_split(10, 0.0)
        with pytest.raises(ValueError):
            train_valid_split(10, 1.0)
