"""Training loops: classification and MLM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.data import IGNORE_INDEX, MlmCollator, MlmExample, SequenceDataset
from repro.models import build_classifier, build_mlm_model
from repro.training import (
    TrainConfig,
    evaluate_classifier,
    evaluate_mlm,
    train_classifier,
    train_mlm,
)


class TestTrainConfig:
    def test_defaults_match_paper(self):
        config = TrainConfig()
        assert config.epochs == 10 and config.lr == 1e-2

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestClassifierLoop:
    def test_loss_decreases(self, tiny_split, vocab_size):
        train, valid = tiny_split
        model = build_classifier("lstm-tiny", vocab_size=vocab_size, seed=0)
        history = train_classifier(model, train,
                                   TrainConfig(epochs=4, batch_size=32, lr=1e-2),
                                   valid=valid)
        assert len(history) == 4
        assert history[-1].train_loss < history[0].train_loss

    def test_history_has_validation_metrics(self, tiny_split, vocab_size):
        train, valid = tiny_split
        model = build_classifier("lstm-tiny", vocab_size=vocab_size, seed=0)
        history = train_classifier(model, train, TrainConfig(epochs=1), valid=valid)
        assert history[0].valid_acc is not None
        assert history[0].valid_loss is not None
        assert history[0].seconds > 0

    def test_learns_above_chance(self, tiny_split, vocab_size):
        """On the synthetic cohort, a trained model must beat majority vote."""
        train, valid = tiny_split
        model = build_classifier("lstm-tiny", vocab_size=vocab_size, seed=1)
        train_classifier(model, train, TrainConfig(epochs=12, batch_size=16, lr=5e-3))
        accuracy, _ = evaluate_classifier(model, train)
        majority = max(train.positive_rate, 1 - train.positive_rate)
        assert accuracy > majority

    def test_evaluate_restores_training_mode(self, tiny_split, vocab_size):
        train, valid = tiny_split
        model = build_classifier("lstm-tiny", vocab_size=vocab_size, seed=0)
        model.train()
        evaluate_classifier(model, valid)
        assert model.training

    def test_deterministic_given_seed(self, tiny_split, vocab_size):
        train, _ = tiny_split
        results = []
        for _ in range(2):
            model = build_classifier("lstm-tiny", vocab_size=vocab_size, seed=2)
            history = train_classifier(model, train,
                                       TrainConfig(epochs=1, seed=3))
            results.append(history[0].train_loss)
        assert results[0] == pytest.approx(results[1], abs=1e-6)


class TestMlmLoop:
    def test_loss_decreases(self, tiny_sequences, tiny_collator, vocab_size):
        model = build_mlm_model("bert-tiny", vocab_size=vocab_size, seed=0,
                                max_seq_len=24)
        history = train_mlm(model, tiny_sequences, tiny_collator,
                            TrainConfig(epochs=3, batch_size=32, lr=1e-3))
        assert history[-1].train_loss < history[0].train_loss

    def test_initial_loss_near_log_vocab(self, tiny_sequences, tiny_collator,
                                         vocab_size):
        """An untrained MLM's loss is ≈ ln(V) — the Fig. 2 starting point."""
        model = build_mlm_model("bert-tiny", vocab_size=vocab_size, seed=0,
                                max_seq_len=24)
        loss = evaluate_mlm(model, tiny_sequences, tiny_collator)
        assert abs(loss - np.log(vocab_size)) < 1.0

    def test_valid_loss_recorded(self, tiny_sequences, tiny_collator, vocab_size):
        model = build_mlm_model("bert-tiny", vocab_size=vocab_size, seed=0,
                                max_seq_len=24)
        history = train_mlm(model, tiny_sequences, tiny_collator,
                            TrainConfig(epochs=1, batch_size=32, lr=1e-3),
                            valid=tiny_sequences)
        assert history[0].valid_loss is not None


def build(preset, vocab_size):
    overrides = {"max_seq_len": 24} if preset.startswith("bert") else {}
    return build_classifier(preset, vocab_size=vocab_size, seed=0, **overrides)


class TestTrimmedBatchSemantics:
    """Cutting the columns that pad a whole batch changes no prediction."""

    @pytest.mark.parametrize("preset, atol", [("lstm-tiny", 0.0), ("bert-tiny", 1e-6)])
    def test_eval_logits_match_the_untrimmed_batch(self, tiny_split, vocab_size,
                                                   preset, atol):
        _, valid = tiny_split
        shortest = valid.sorted_by_length().subset(np.arange(16))
        (ids, mask, _), = shortest.iter_batches(16)
        assert ids.shape[1] < shortest.input_ids.shape[1]
        model = build(preset, vocab_size)
        model.eval()
        with no_grad():
            full = model(shortest.input_ids, attention_mask=shortest.attention_mask)
            trimmed = model(ids, attention_mask=mask)
        np.testing.assert_allclose(trimmed.data, full.data, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("preset", ["lstm-tiny", "bert-tiny"])
    def test_evaluate_classifier_ignores_dataset_order(self, tiny_split, vocab_size,
                                                       preset):
        _, valid = tiny_split
        model = build(preset, vocab_size)
        shuffled = valid.subset(np.random.default_rng(0).permutation(len(valid)))
        assert evaluate_classifier(model, shuffled, 16) == pytest.approx(
            evaluate_classifier(model, valid, 16), abs=1e-6)

    def test_evaluate_mlm_ignores_dataset_order(self, tiny_sequences, tiny_cohort,
                                                vocab_size):
        mask_id = tiny_cohort.vocab.mask_id

        def mask_second_token(ids, mask):  # a collator that draws nothing
            corrupted, labels = ids.copy(), np.full_like(ids, IGNORE_INDEX)
            labels[:, 1] = np.where(mask[:, 1], ids[:, 1], IGNORE_INDEX)
            corrupted[mask[:, 1], 1] = mask_id
            return MlmExample(corrupted, mask, labels)

        model = build_mlm_model("bert-tiny", vocab_size=vocab_size, seed=0,
                                max_seq_len=24)
        order = np.random.default_rng(0).permutation(len(tiny_sequences))
        assert evaluate_mlm(model, tiny_sequences.subset(order), mask_second_token,
                            16) == pytest.approx(
            evaluate_mlm(model, tiny_sequences, mask_second_token, 16), abs=1e-6)
