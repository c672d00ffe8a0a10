"""Aggregators: weighted FedAvg semantics and FedOpt."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flare import (
    DXO,
    DataKind,
    FLContext,
    FedOptAggregator,
    InTimeAccumulateWeightedAggregator,
    MetaKey,
)
from repro.flare.filters import topk_gaps


def ctx():
    c = FLContext(identity="server")
    c.set_prop("current_round", 0)
    return c


def weights_dxo(value: float, steps: float = 1.0, kind=DataKind.WEIGHTS):
    return DXO(kind, data={"w": np.full(3, value, dtype=np.float64)},
               meta={MetaKey.NUM_STEPS_CURRENT_ROUND: steps})


class TestWeightedAggregator:
    def test_equal_weights_is_mean(self):
        agg = InTimeAccumulateWeightedAggregator()
        agg.reset()
        agg.accept(weights_dxo(1.0), "a", ctx())
        agg.accept(weights_dxo(3.0), "b", ctx())
        out = agg.aggregate(ctx())
        np.testing.assert_allclose(out.data["w"], 2.0)

    def test_weighted_mean(self):
        agg = InTimeAccumulateWeightedAggregator()
        agg.reset()
        agg.accept(weights_dxo(0.0, steps=3.0), "a", ctx())
        agg.accept(weights_dxo(4.0, steps=1.0), "b", ctx())
        np.testing.assert_allclose(agg.aggregate(ctx()).data["w"], 1.0)

    def test_duplicate_contributor_rejected(self):
        agg = InTimeAccumulateWeightedAggregator()
        agg.reset()
        assert agg.accept(weights_dxo(1.0), "a", ctx())
        assert not agg.accept(weights_dxo(2.0), "a", ctx())
        np.testing.assert_allclose(agg.aggregate(ctx()).data["w"], 1.0)

    def test_wrong_kind_rejected(self):
        agg = InTimeAccumulateWeightedAggregator(expected_data_kind=DataKind.WEIGHTS)
        agg.reset()
        assert not agg.accept(weights_dxo(1.0, kind=DataKind.WEIGHT_DIFF), "a", ctx())

    def test_nonpositive_weight_rejected(self):
        agg = InTimeAccumulateWeightedAggregator()
        agg.reset()
        assert not agg.accept(weights_dxo(1.0, steps=0.0), "a", ctx())

    def test_mismatched_keys_rejected(self):
        agg = InTimeAccumulateWeightedAggregator()
        agg.reset()
        agg.accept(weights_dxo(1.0), "a", ctx())
        other = DXO(DataKind.WEIGHTS, data={"v": np.ones(3)},
                    meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 1})
        assert not agg.accept(other, "b", ctx())

    def test_empty_aggregate_raises(self):
        agg = InTimeAccumulateWeightedAggregator()
        agg.reset()
        with pytest.raises(RuntimeError):
            agg.aggregate(ctx())

    def test_reset_clears(self):
        agg = InTimeAccumulateWeightedAggregator()
        agg.accept(weights_dxo(1.0), "a", ctx())
        agg.reset()
        assert agg.contributors == []
        with pytest.raises(RuntimeError):
            agg.aggregate(ctx())

    def test_output_float32(self):
        agg = InTimeAccumulateWeightedAggregator()
        agg.reset()
        agg.accept(weights_dxo(1.0), "a", ctx())
        assert agg.aggregate(ctx()).data["w"].dtype == np.float32

    def test_invalid_expected_kind(self):
        with pytest.raises(ValueError):
            InTimeAccumulateWeightedAggregator(expected_data_kind=DataKind.METRICS)

    def test_fold_through_one_scratch_keeps_every_bit(self):
        """The fold is ``sums += weight * float64(value)`` for float32, float16
        and read-only inputs of mixed shapes — computed in float64 through
        one reused buffer, with no per-tensor float64 copy of the update."""
        rng = np.random.default_rng(3)
        shapes = {"a": (7, 5), "b": (33,), "c": (), "d": (2, 3, 4)}
        agg = InTimeAccumulateWeightedAggregator()
        agg.reset()
        expected = {key: np.zeros(shape) for key, shape in shapes.items()}
        for index, dtype in enumerate((np.float32, np.float16, np.float32)):
            data = {key: rng.standard_normal(shape).astype(dtype)
                    for key, shape in shapes.items()}
            for value in data.values():
                value.flags.writeable = False  # like views of a receive buffer
            weight = 3.0 + index / 7
            for key, value in data.items():
                expected[key] += weight * np.asarray(value, dtype=np.float64)
            assert agg.accept(DXO(DataKind.WEIGHTS, data=data,
                                  meta={MetaKey.NUM_STEPS_CURRENT_ROUND: weight}),
                              f"site-{index}", ctx())
        scratch = agg._scratch
        assert scratch.dtype == np.float64 and scratch.size == 35
        for key in shapes:
            assert agg._sums[key].dtype == np.float64
            assert agg._sums[key].shape == shapes[key]
            assert agg._sums[key].tobytes() == expected[key].tobytes()
        agg.reset()
        agg.accept(weights_dxo(1.0), "a", ctx())
        assert agg._scratch is scratch and agg._scratch.size == 35

    def test_scratch_is_kept_across_windows(self):
        """Each window folds through the buffer of the one before, bit-equal
        to ``sums += weight * float64(value)``; only a larger tensor grows it."""
        rng = np.random.default_rng(5)
        agg = InTimeAccumulateWeightedAggregator(DataKind.WEIGHT_DIFF)
        buffers = []
        for window, shapes in enumerate(({"a": (6, 5), "b": (4,)},) * 2
                                        + ({"a": (6, 5), "b": (40,)},)):
            agg.reset()
            expected = {key: np.zeros(shape) for key, shape in shapes.items()}
            for site in range(3):
                data = {key: rng.standard_normal(shape).astype(np.float32)
                        for key, shape in shapes.items()}
                weight = 1.5 + site
                for key, value in data.items():
                    expected[key] += weight * np.asarray(value, dtype=np.float64)
                assert agg.accept(DXO(DataKind.WEIGHT_DIFF, data=data,
                                      meta={MetaKey.NUM_STEPS_CURRENT_ROUND: weight}),
                                  f"site-{site}", ctx())
            for key in shapes:
                assert agg._sums[key].tobytes() == expected[key].tobytes(), window
            buffers.append(agg._scratch)
        assert buffers[0] is buffers[1] and buffers[0].size == 30
        assert buffers[2] is not buffers[1] and buffers[2].size == 40

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(0.1, 50)),
                    min_size=1, max_size=8))
    def test_property_weighted_mean(self, contributions):
        agg = InTimeAccumulateWeightedAggregator()
        agg.reset()
        for index, (value, weight) in enumerate(contributions):
            agg.accept(weights_dxo(value, steps=weight), f"c{index}", ctx())
        expected = (sum(v * w for v, w in contributions)
                    / sum(w for _, w in contributions))
        np.testing.assert_allclose(agg.aggregate(ctx()).data["w"],
                                   expected, rtol=1e-4, atol=1e-4)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-50, 50), st.integers(2, 6))
    def test_property_identical_inputs_fixed_point(self, value, n):
        agg = InTimeAccumulateWeightedAggregator()
        agg.reset()
        for index in range(n):
            agg.accept(weights_dxo(value), f"c{index}", ctx())
        np.testing.assert_allclose(agg.aggregate(ctx()).data["w"], value,
                                   rtol=1e-5, atol=1e-5)


class TestFedOpt:
    def test_requires_diff_kind(self):
        agg = FedOptAggregator()
        agg.reset()
        assert not agg.accept(weights_dxo(1.0, kind=DataKind.WEIGHTS), "a", ctx())

    def test_first_step_magnitude_is_server_lr(self):
        agg = FedOptAggregator(server_lr=0.5)
        agg.reset()
        agg.accept(weights_dxo(2.0, kind=DataKind.WEIGHT_DIFF), "a", ctx())
        out = agg.aggregate(ctx())
        assert out.data_kind == DataKind.WEIGHT_DIFF
        np.testing.assert_allclose(out.data["w"], 0.5, atol=1e-4)

    def test_direction_follows_mean_diff(self):
        agg = FedOptAggregator(server_lr=1.0)
        agg.reset()
        agg.accept(weights_dxo(-3.0, kind=DataKind.WEIGHT_DIFF), "a", ctx())
        out = agg.aggregate(ctx())
        assert np.all(out.data["w"] < 0)

    def test_bad_server_lr(self):
        with pytest.raises(ValueError):
            FedOptAggregator(server_lr=0.0)


class TestAcceptIsAtomic:
    """A rejected update leaves the sums and the total weight untouched."""

    @staticmethod
    def folded(data, weight=1.0, **meta):
        agg = InTimeAccumulateWeightedAggregator()
        assert agg.accept(DXO(DataKind.WEIGHTS,
                              data={"a": np.ones(4), "b": np.ones(3)}), "x", ctx())
        before = {key: value.copy() for key, value in agg._sums.items()}
        accepted = agg.accept(DXO(DataKind.WEIGHTS, data=data, meta={
            MetaKey.NUM_STEPS_CURRENT_ROUND: weight, **meta}), "y", ctx())
        unchanged = all(agg._sums[key].tobytes() == before[key].tobytes()
                        for key in before) and agg._total_weight == 1.0
        return accepted, unchanged

    def test_broadcastable_shape_is_rejected(self):
        assert self.folded({"a": np.ones(1), "b": np.ones(3)}) == (False, True)

    def test_later_key_shape_mismatch_folds_nothing(self):
        assert self.folded({"a": np.ones(4), "b": np.ones(5)}) == (False, True)

    @pytest.mark.parametrize("weight", [float("inf"), float("nan"), 0.0, -1.0])
    def test_weight_must_be_finite_and_positive(self, weight):
        assert self.folded({"a": np.ones(4), "b": np.ones(3)},
                           weight=weight) == (False, True)

    # wire forms (first index, then gaps), each malformed for its own reason
    @pytest.mark.parametrize("gaps,values", [
        (np.array([2, 2], np.uint8), [1.0, 1.0]),  # past the end: indices 2, 4
        (np.array([1, 0], np.uint8), [1.0, 1.0]),  # repeated: a zero gap
        ([2, -2], [1.0, 1.0]),                     # not increasing: indices 2, 0
        ([0, 1, 1], [1.0, 1.0]),                   # length mismatch
        ([-1, 1], [1.0, 1.0]),                     # negative first index
    ], ids=["range", "repeat", "order", "length", "negative"])
    def test_malformed_topk_is_rejected(self, gaps, values):
        data = {"a@topk_idx": np.array(gaps), "a@topk_val": np.array(values),
                "b": np.ones(3)}
        spec = {"a": {"shape": [4], "dtype": "<f8"}}
        assert self.folded(data, **{MetaKey.TOPK_SPEC: spec}) == (False, True)

    def test_wellformed_topk_folds_at_its_indices(self):
        data = {"a@topk_idx": topk_gaps(np.array([0, 3], dtype=np.uint32)),
                "a@topk_val": np.array([5.0, 2.0]), "b": np.ones(3)}
        spec = {"a": {"shape": [4], "dtype": "<f8"}}
        assert self.folded(data, **{MetaKey.TOPK_SPEC: spec}) == (True, False)
