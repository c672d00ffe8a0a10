"""LSTM cell and stacked LSTM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients
from repro.nn import LSTM, LSTMCell


@pytest.fixture()
def rng():
    return np.random.default_rng(8)


class TestCell:
    def test_step_shapes(self, rng):
        cell = LSTMCell(4, 6, rng=rng)
        h, c = cell.initial_state(3)
        h2, c2 = cell(Tensor(rng.normal(size=(3, 4))), (h, c))
        assert h2.shape == (3, 6) and c2.shape == (3, 6)

    def test_initial_state_follows_parameter_dtype(self, rng):
        cell = LSTMCell(4, 6, rng=rng)
        assert {s.dtype for s in cell.initial_state(3)} == {np.dtype(np.float32)}
        cell.weight_hh.data = cell.weight_hh.data.astype(np.float64)
        assert {s.dtype for s in cell.initial_state(3)} == {np.dtype(np.float64)}

    def test_forget_bias_initialised_to_one(self, rng):
        cell = LSTMCell(4, 6, rng=rng)
        np.testing.assert_allclose(cell.bias.data[6:12], 1.0)
        np.testing.assert_allclose(cell.bias.data[:6], 0.0)

    def test_state_bounded(self, rng):
        cell = LSTMCell(3, 5, rng=rng)
        h, c = cell.initial_state(2)
        for _ in range(20):
            h, c = cell(Tensor(rng.normal(scale=5.0, size=(2, 3))), (h, c))
        assert np.all(np.abs(h.data) <= 1.0)  # h = o * tanh(c)

    def test_gradients(self, rng):
        cell = LSTMCell(3, 2, rng=rng)
        for p in cell.parameters():
            p.data = p.data.astype(np.float64)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

        def fn():
            h, c = cell.initial_state(2)
            h1, c1 = cell(x, (h, c))
            h2, _ = cell(x, (h1, c1))
            return (h2 * h2).sum()

        check_gradients(fn, [x] + cell.parameters(), atol=3e-4)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            LSTMCell(0, 3)


class TestStack:
    def test_output_shapes(self, rng):
        lstm = LSTM(4, 6, num_layers=2, rng=rng)
        out, states = lstm(Tensor(rng.normal(size=(3, 5, 4))))
        assert out.shape == (3, 5, 6)
        assert len(states) == 2
        assert states[0][0].shape == (3, 6)

    def test_final_state_matches_last_output(self, rng):
        lstm = LSTM(3, 4, num_layers=1, rng=rng)
        out, states = lstm(Tensor(rng.normal(size=(2, 6, 3))))
        np.testing.assert_allclose(states[0][0].data, out.data[:, -1], atol=1e-6)

    def test_mask_freezes_state_on_padding(self, rng):
        """Padded steps must not change the carried state."""
        lstm = LSTM(3, 4, num_layers=2, rng=rng)
        x = rng.normal(size=(1, 6, 3)).astype(np.float32)
        mask = np.array([[True, True, True, False, False, False]])
        _, states_masked = lstm(Tensor(x), mask=mask)
        _, states_short = lstm(Tensor(x[:, :3]), mask=None)
        np.testing.assert_allclose(states_masked[-1][0].data,
                                   states_short[-1][0].data, atol=1e-5)

    def test_padding_values_irrelevant_under_mask(self, rng):
        lstm = LSTM(3, 4, rng=rng)
        x = rng.normal(size=(1, 4, 3)).astype(np.float32)
        mask = np.array([[True, True, False, False]])
        _, s1 = lstm(Tensor(x), mask=mask)
        x2 = x.copy()
        x2[0, 2:] = 99.0
        _, s2 = lstm(Tensor(x2), mask=mask)
        np.testing.assert_allclose(s1[0][0].data, s2[0][0].data, atol=1e-5)

    def test_gradients_through_time(self, rng):
        lstm = LSTM(2, 3, num_layers=2, rng=rng)
        for p in lstm.parameters():
            p.data = p.data.astype(np.float64)
        x = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)

        def fn():
            out, states = lstm(x)
            h_last, c_last = states[-1]
            return (out * out).sum() + (h_last * c_last).sum()

        assert fn().dtype == np.float64  # float64 end to end, states included
        check_gradients(fn, [x] + lstm.parameters(), atol=1e-7, rtol=1e-5)

    def test_bad_mask_shape(self, rng):
        lstm = LSTM(3, 4, rng=rng)
        with pytest.raises(ValueError, match="mask"):
            lstm(Tensor(rng.normal(size=(2, 4, 3))), mask=np.ones((2, 5), bool))

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            LSTM(3, 4, num_layers=0)
