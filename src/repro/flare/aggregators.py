"""Server-side aggregators.

``InTimeAccumulateWeightedAggregator`` is NVFlare's default (and the one the
paper's ScatterAndGather uses): client contributions are accumulated as they
arrive, weighted by the number of local steps/samples, and the weighted mean
is produced at the end of the round — i.e. FedAvg.  A FedOpt-style server
optimiser is included as an ablation.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import DataKind
from .dxo import DXO, MetaKey
from .events import FLComponent
from .filters import dense_tensors, topk_tensors
from .fl_context import FLContext

__all__ = ["Aggregator", "InTimeAccumulateWeightedAggregator", "FedOptAggregator",
           "CoordinateMedianAggregator", "TrimmedMeanAggregator",
           "TreeAggregator", "MaterializationTracker"]


class MaterializationTracker:
    """Counts decoded client updates that are alive at the same instant.

    The massive-cohort memory guarantee ("a 1,000-client round never holds
    more than k decoded updates") is asserted against this counter: the
    controller acquires around its decode-and-fold window, and stash-based
    aggregators account every update (or partial) they keep alive beyond
    that window.  ``peak`` is the high-water mark for the run.
    """

    def __init__(self) -> None:
        self.live = 0
        self.peak = 0

    def acquire(self, n: int = 1) -> None:
        self.live += n
        if self.live > self.peak:
            self.peak = self.live

    def release(self, n: int = 1) -> None:
        self.live = max(0, self.live - n)


class Aggregator(FLComponent):
    """Accumulate client DXOs during a round, then emit the aggregate.

    ``tracker`` is optionally installed by the controller; aggregators that
    *stash* whole updates (rather than folding them into running sums) must
    account the stashed copies through it so the bounded-materialization
    guarantee stays honest.
    """

    tracker: MaterializationTracker | None = None

    def accept(self, dxo: DXO, contributor: str, fl_ctx: FLContext) -> bool:
        raise NotImplementedError

    def aggregate(self, fl_ctx: FLContext) -> DXO:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def _track(self, n: int = 1) -> None:
        if self.tracker is not None and n:
            self.tracker.acquire(n)

    def _untrack(self, n: int = 1) -> None:
        if self.tracker is not None and n:
            self.tracker.release(n)


class InTimeAccumulateWeightedAggregator(Aggregator):
    """Weighted running mean of client weight (or weight-diff) dictionaries.

    Weights default to each contribution's ``NUM_STEPS_CURRENT_ROUND`` meta
    (sample/step counts), reducing to plain FedAvg over examples.  The
    float64 sums are its only model-sized state.  A top-k update folds at
    its kept indices, bit-equal to its densified form: the sums never hold
    -0.0, so adding ``w * 0.0`` elsewhere is the identity.
    """

    def __init__(self, expected_data_kind: str = DataKind.WEIGHTS,
                 name: str | None = None) -> None:
        super().__init__(name=name)
        if expected_data_kind not in (DataKind.WEIGHTS, DataKind.WEIGHT_DIFF):
            raise ValueError(f"cannot aggregate data kind {expected_data_kind!r}")
        self.expected_data_kind = expected_data_kind
        self._sums: dict[str, np.ndarray] | None = None
        self._scratch = np.empty(0)  # float64, as long as the largest tensor yet
        self._total_weight = 0.0
        self._contributors: list[str] = []

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._sums = None
        self._total_weight = 0.0
        self._contributors = []

    @property
    def contributors(self) -> list[str]:
        return list(self._contributors)

    def accept(self, dxo: DXO, contributor: str, fl_ctx: FLContext) -> bool:
        """Fold one update, or reject it (kind, names, shapes, top-k
        indices, a finite positive weight) with the sums untouched."""
        if dxo.data_kind != self.expected_data_kind:
            self.log_error("rejecting %s from %s: expected %s",
                           dxo.data_kind, contributor, self.expected_data_kind)
            return False
        if contributor in self._contributors:
            self.log_warning("duplicate contribution from %s ignored", contributor)
            return False
        weight = float(dxo.get_meta_prop(MetaKey.NUM_STEPS_CURRENT_ROUND, 1.0))
        if not (math.isfinite(weight) and weight > 0):
            self.log_error("weight %.3f from %s rejected: not finite and positive",
                           weight, contributor)
            return False
        try:
            tensors = topk_tensors(dxo)
        except ValueError as error:
            self.log_error("malformed update from %s rejected: %s", contributor, error)
            return False
        if self._sums is None:
            self._sums = {key: np.zeros(shape, dtype=np.float64)
                          for key, (_, _, shape) in tensors.items()}
            largest = max(map(np.size, self._sums.values()), default=0)
            if largest > self._scratch.size:  # kept across windows
                self._scratch = np.empty(largest)
        if set(self._sums) != set(tensors) or any(
                self._sums[key].shape != shape for key, (_, _, shape) in tensors.items()):
            self.log_error("parameter-name or shape mismatch from %s rejected",
                           contributor)
            return False
        for key, (values, indices, _) in tensors.items():
            # weight * float64(value), as ever, but through one reused buffer
            scaled = np.multiply(values, weight, dtype=np.float64,
                                 out=self._scratch[:values.size].reshape(values.shape))
            if indices is None:
                self._sums[key] += scaled
            else:
                np.add.at(self._sums[key].reshape(-1), indices, scaled)
        self._total_weight += weight
        self._contributors.append(contributor)
        round_number = fl_ctx.get_prop("current_round", 0)
        self.log_info("Contribution from %s ACCEPTED by the aggregator at round %s.",
                      contributor, round_number)
        return True

    def aggregate(self, fl_ctx: FLContext) -> DXO:
        """The float32 mean; each sum is dropped as its mean is emitted."""
        if self._sums is None or self._total_weight <= 0:
            raise RuntimeError("nothing to aggregate")
        self.log_info("aggregating %d update(s) at round %s",
                      len(self._contributors), fl_ctx.get_prop("current_round", 0))
        sums, self._sums = self._sums, None
        mean = {key: (sums.pop(key) / self._total_weight).astype(np.float32)
                for key in list(sums)}
        return DXO(data_kind=self.expected_data_kind, data=mean,
                   meta={"contributors": list(self._contributors)})


class FedOptAggregator(InTimeAccumulateWeightedAggregator):
    """Server-side adaptive step on the averaged weight diff (FedOpt/FedAdam).

    Expects WEIGHT_DIFF contributions; maintains Adam-style moments over the
    averaged diff and emits a WEIGHT_DIFF scaled by the adaptive step, so the
    shareable generator can apply it exactly like plain FedAvg output.
    """

    def __init__(self, server_lr: float = 1.0, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 name: str | None = None) -> None:
        super().__init__(expected_data_kind=DataKind.WEIGHT_DIFF, name=name)
        if server_lr <= 0:
            raise ValueError("server_lr must be positive")
        self.server_lr = server_lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._step = 0

    def aggregate(self, fl_ctx: FLContext) -> DXO:
        averaged = super().aggregate(fl_ctx)
        self._step += 1
        adjusted: dict[str, np.ndarray] = {}
        for key, diff in averaged.data.items():
            diff64 = np.asarray(diff, dtype=np.float64)
            m = self._m.setdefault(key, np.zeros_like(diff64))
            v = self._v.setdefault(key, np.zeros_like(diff64))
            m[...] = self.beta1 * m + (1 - self.beta1) * diff64
            v[...] = self.beta2 * v + (1 - self.beta2) * diff64 * diff64
            m_hat = m / (1 - self.beta1 ** self._step)
            v_hat = v / (1 - self.beta2 ** self._step)
            adjusted[key] = (self.server_lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(np.float32)
        return DXO(data_kind=DataKind.WEIGHT_DIFF, data=adjusted, meta=averaged.meta)


class CoordinateMedianAggregator(Aggregator):
    """Coordinate-wise median of client updates (Byzantine-robust).

    Unlike the weighted mean, a minority of arbitrarily corrupted client
    updates cannot move the aggregate far — useful when some sites may ship
    broken or adversarial weights.  Contribution weights are ignored.
    """

    def __init__(self, expected_data_kind: str = DataKind.WEIGHTS,
                 name: str | None = None) -> None:
        super().__init__(name=name)
        if expected_data_kind not in (DataKind.WEIGHTS, DataKind.WEIGHT_DIFF):
            raise ValueError(f"cannot aggregate data kind {expected_data_kind!r}")
        self.expected_data_kind = expected_data_kind
        self._stash: list[dict[str, np.ndarray]] = []
        self._contributors: list[str] = []

    def reset(self) -> None:
        self._untrack(len(self._stash))
        self._stash = []
        self._contributors = []

    @property
    def contributors(self) -> list[str]:
        return list(self._contributors)

    def accept(self, dxo: DXO, contributor: str, fl_ctx: FLContext) -> bool:
        if dxo.data_kind != self.expected_data_kind:
            self.log_error("rejecting %s from %s", dxo.data_kind, contributor)
            return False
        if contributor in self._contributors:
            self.log_warning("duplicate contribution from %s ignored", contributor)
            return False
        data = dense_tensors(dxo)
        if self._stash and set(self._stash[0]) != set(data):
            self.log_error("parameter-name mismatch from %s rejected", contributor)
            return False
        self._stash.append({key: np.asarray(value, dtype=np.float64)
                            for key, value in data.items()})
        self._track()  # the stashed copy outlives the caller's decode window
        self._contributors.append(contributor)
        self.log_info("Contribution from %s ACCEPTED by the aggregator at round %s.",
                      contributor, fl_ctx.get_prop("current_round", 0))
        return True

    def _combine(self, stacked: np.ndarray) -> np.ndarray:
        return np.median(stacked, axis=0)

    def aggregate(self, fl_ctx: FLContext) -> DXO:
        if not self._stash:
            raise RuntimeError("nothing to aggregate")
        self.log_info("aggregating %d update(s) at round %s",
                      len(self._stash), fl_ctx.get_prop("current_round", 0))
        combined = {
            key: self._combine(np.stack([entry[key] for entry in self._stash]))
            .astype(np.float32)
            for key in self._stash[0]
        }
        return DXO(data_kind=self.expected_data_kind, data=combined,
                   meta={"contributors": list(self._contributors)})


class TrimmedMeanAggregator(CoordinateMedianAggregator):
    """Coordinate-wise trimmed mean: drop the k highest and k lowest values.

    ``trim`` is the number of extremes removed per side; with ``trim=0`` this
    reduces to an unweighted mean.  Requires at least ``2*trim + 1`` clients.
    """

    def __init__(self, trim: int = 1, expected_data_kind: str = DataKind.WEIGHTS,
                 name: str | None = None) -> None:
        super().__init__(expected_data_kind=expected_data_kind, name=name)
        if trim < 0:
            raise ValueError("trim must be non-negative")
        self.trim = trim

    def _combine(self, stacked: np.ndarray) -> np.ndarray:
        n = stacked.shape[0]
        if n <= 2 * self.trim:
            raise RuntimeError(
                f"trimmed mean needs > {2 * self.trim} contributions, got {n}")
        if self.trim == 0:
            return stacked.mean(axis=0)
        ordered = np.sort(stacked, axis=0)
        return ordered[self.trim:n - self.trim].mean(axis=0)


class _TreeLevel:
    """One level of the reduction tree: a node aggregator plus fill state."""

    __slots__ = ("agg", "count", "weight")

    def __init__(self, agg: Aggregator) -> None:
        self.agg = agg
        self.count = 0
        self.weight = 0.0


class TreeAggregator(Aggregator):
    """Arity-``k`` hierarchical reduction over any node aggregator.

    A flat fan-in over ``n`` clients either folds serially through one
    accumulator or (for stash-based aggregators like the coordinate median)
    materializes all ``n`` decoded updates at once.  The tree composes the
    existing :class:`Aggregator` family into nodes of at most ``arity``
    children: whenever a node fills, it is folded into a *partial* DXO —
    weighted by the subtree's total contribution weight, so weighted means
    compose exactly — and pushed one level up.  At any instant only the
    currently-filling node per level holds data, so peak materialization is
    O(``arity`` · log\\ :sub:`arity` ``n``) instead of O(``n``), and each
    ``aggregate()`` call touches O(``arity``) inputs instead of O(``n``).

    ``node_factory`` builds every tree node (default: the weighted-FedAvg
    accumulator, for which the tree result equals the flat result up to
    float association).  For order-statistic nodes (median/trimmed mean)
    the tree computes a median-of-medians style *approximation* — document
    the trade before swapping it in.
    """

    def __init__(self, node_factory=None, arity: int = 16,
                 expected_data_kind: str = DataKind.WEIGHTS,
                 name: str | None = None) -> None:
        super().__init__(name=name)
        if arity < 2:
            raise ValueError("arity must be at least 2")
        self.arity = arity
        self.expected_data_kind = expected_data_kind
        self.node_factory = node_factory or (
            lambda: InTimeAccumulateWeightedAggregator(
                expected_data_kind=expected_data_kind))
        self._levels: list[_TreeLevel] = []
        self._contributors: list[str] = []
        self._folds = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        for level in self._levels:
            level.agg.reset()
        self._levels = []
        self._contributors = []
        self._folds = 0

    @property
    def contributors(self) -> list[str]:
        return list(self._contributors)

    @property
    def depth(self) -> int:
        """Levels currently allocated (≈ ceil(log_arity(n)) after n accepts)."""
        return len(self._levels)

    def _level(self, index: int) -> _TreeLevel:
        while len(self._levels) <= index:
            node = self.node_factory()
            node.tracker = self.tracker
            self._levels.append(_TreeLevel(node))
        return self._levels[index]

    # ------------------------------------------------------------------
    def accept(self, dxo: DXO, contributor: str, fl_ctx: FLContext) -> bool:
        if contributor in self._contributors:
            self.log_warning("duplicate contribution from %s ignored", contributor)
            return False
        weight = float(dxo.get_meta_prop(MetaKey.NUM_STEPS_CURRENT_ROUND, 1.0))
        leaf = self._level(0)
        if not leaf.agg.accept(dxo, contributor, fl_ctx):
            return False
        leaf.count += 1
        leaf.weight += max(weight, 0.0)
        self._contributors.append(contributor)
        if leaf.count >= self.arity:
            self._fold(0, fl_ctx)
        return True

    def _fold(self, index: int, fl_ctx: FLContext) -> None:
        """Collapse level ``index`` into a partial and push it one level up."""
        level = self._levels[index]
        partial = level.agg.aggregate(fl_ctx)
        # the partial stands in for its whole subtree at the parent: weight
        # it by the subtree's total so the weighted mean composes exactly
        partial.set_meta_prop(MetaKey.NUM_STEPS_CURRENT_ROUND,
                              level.weight if level.weight > 0 else level.count)
        subtree_weight = level.weight
        level.agg.reset()
        level.count = 0
        level.weight = 0.0
        self._folds += 1
        parent = self._level(index + 1)
        if not parent.agg.accept(partial, f"tree:l{index}:{self._folds}", fl_ctx):
            raise RuntimeError(
                f"tree level {index + 1} rejected a partial aggregate")
        parent.count += 1
        parent.weight += subtree_weight
        if parent.count >= self.arity:
            self._fold(index + 1, fl_ctx)

    def aggregate(self, fl_ctx: FLContext) -> DXO:
        if not any(level.count for level in self._levels):
            raise RuntimeError("nothing to aggregate")
        # flush upward: every level that has company above it folds into the
        # next level, leaving exactly one node holding the whole tree
        index = 0
        while index < len(self._levels):
            level = self._levels[index]
            above = any(entry.count for entry in self._levels[index + 1:])
            if level.count and above:
                self._fold(index, fl_ctx)
            index += 1
        top = max(i for i, level in enumerate(self._levels) if level.count)
        self.log_info("tree-aggregating %d update(s) through %d level(s) "
                      "(arity %d) at round %s", len(self._contributors),
                      top + 1, self.arity, fl_ctx.get_prop("current_round", 0))
        result = self._levels[top].agg.aggregate(fl_ctx)
        result.meta["contributors"] = list(self._contributors)
        return result
