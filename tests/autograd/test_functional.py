"""Functional ops: softmax/cross-entropy/GELU/dropout correctness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, functional as F


@pytest.fixture()
def rng():
    return np.random.default_rng(3)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(4, 7)))
        probs = F.softmax(x)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(4), atol=1e-6)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(F.softmax(Tensor(x)).data,
                                   F.softmax(Tensor(x + 100.0)).data, atol=1e-6)

    def test_extreme_values_stable(self):
        x = Tensor(np.array([[1e4, -1e4, 0.0]]))
        probs = F.softmax(x)
        assert np.isfinite(probs.data).all()

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))
        check_gradients(lambda: (F.softmax(x) * w).sum(), [x])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(2, 6)))
        np.testing.assert_allclose(F.log_softmax(x).data,
                                   np.log(F.softmax(x).data), atol=1e-6)


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(5, 3))
        targets = rng.integers(0, 3, size=5)
        loss = F.cross_entropy(Tensor(logits), targets)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(5), targets].mean()
        assert np.isclose(float(loss.data), expected, atol=1e-6)

    def test_gradient(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        targets = rng.integers(0, 3, size=4)
        check_gradients(lambda: F.cross_entropy(logits, targets), [logits])

    def test_ignore_index(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        targets = np.array([0, -100, 2, -100])
        loss = F.cross_entropy(logits, targets, ignore_index=-100)
        loss.backward()
        # ignored rows receive zero gradient
        assert np.allclose(logits.grad[1], 0.0) and np.allclose(logits.grad[3], 0.0)
        assert not np.allclose(logits.grad[0], 0.0)

    def test_ignore_index_mean_divides_by_valid_count(self, rng):
        logits_np = rng.normal(size=(4, 3))
        targets = np.array([1, -100, 1, 1])
        loss = F.cross_entropy(Tensor(logits_np), targets, ignore_index=-100)
        dense = F.cross_entropy(Tensor(logits_np[[0, 2, 3]]), targets[[0, 2, 3]])
        assert np.isclose(float(loss.data), float(dense.data), atol=1e-6)

    def test_all_ignored_gives_zero(self, rng):
        logits = Tensor(rng.normal(size=(2, 3)))
        loss = F.cross_entropy(logits, np.array([-100, -100]), ignore_index=-100)
        assert float(loss.data) == 0.0

    def test_3d_logits_flattened(self, rng):
        logits = Tensor(rng.normal(size=(2, 3, 5)))
        targets = rng.integers(0, 5, size=6)
        loss = F.cross_entropy(logits, targets)
        assert loss.data.size == 1

    def test_reductions(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)))
        targets = rng.integers(0, 3, size=4)
        total = F.cross_entropy(logits, targets, reduction="sum")
        mean = F.cross_entropy(logits, targets, reduction="mean")
        per = F.cross_entropy(logits, targets, reduction="none")
        assert np.isclose(float(total.data), float(per.data.sum()), atol=1e-6)
        assert np.isclose(float(mean.data), float(per.data.mean()), atol=1e-6)

    def test_batch_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(rng.normal(size=(3, 2))), np.zeros(4, dtype=int))

    def test_unknown_reduction_rejected(self, rng):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(rng.normal(size=(2, 2))), np.zeros(2, dtype=int),
                            reduction="median")


class TestBinaryCrossEntropy:
    def test_matches_naive_formula(self, rng):
        x = rng.normal(size=(4, 2))
        t = (rng.random((4, 2)) > 0.5).astype(float)
        loss = F.binary_cross_entropy_with_logits(Tensor(x), t)
        p = 1 / (1 + np.exp(-x))
        expected = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert np.isclose(float(loss.data), expected, atol=1e-6)

    def test_stable_at_large_logits(self):
        x = Tensor(np.array([100.0, -100.0]))
        loss = F.binary_cross_entropy_with_logits(x, np.array([1.0, 0.0]))
        assert np.isfinite(float(loss.data)) and float(loss.data) < 1e-6

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        t = (rng.random((3, 2)) > 0.5).astype(float)
        check_gradients(lambda: F.binary_cross_entropy_with_logits(x, t), [x])


class TestGeluDropoutMisc:
    def test_gelu_reference_points(self):
        x = Tensor(np.array([0.0, 1.0, -1.0]))
        out = F.gelu(x).data
        assert np.isclose(out[0], 0.0)
        assert np.isclose(out[1], 0.8412, atol=1e-3)   # known GELU(1)
        assert np.isclose(out[2], -0.1588, atol=1e-3)  # known GELU(-1)

    def test_gelu_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        check_gradients(lambda: F.gelu(x).sum(), [x])

    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_dropout_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.25, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.02
        zero_fraction = (out.data == 0).mean()
        assert abs(zero_fraction - 0.25) < 0.02

    def test_dropout_bad_p(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("p", [-0.5, float("nan"), 1.0])
    def test_dropout_rejects_p_outside_unit_interval(self, p, training):
        # checked before the eval / p == 0 short-cut, like nn.Dropout
        with pytest.raises(ValueError, match=r"dropout probability must be in \[0, 1\)"):
            F.dropout(Tensor(np.ones(4)), p, training=training)

    def test_linear_matches_manual(self, rng):
        x, w, b = (Tensor(rng.normal(size=s)) for s in [(4, 3), (5, 3), (5,)])
        np.testing.assert_allclose(F.linear(x, w, b).data, x.data @ w.data.T + b.data,
                                   atol=1e-6)

    def test_embedding_lookup(self, rng):
        w = Tensor(rng.normal(size=(6, 4)))
        idx = np.array([[0, 5], [2, 2]])
        out = F.embedding(w, idx)
        assert out.shape == (2, 2, 4)
        np.testing.assert_allclose(out.data[0, 1], w.data[5])

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])
