"""Client-sampling schedulers for massive-cohort rounds.

A production federation has thousands of registered sites but tasks only a
fraction each round (NVFlare calls this the *client selection* policy; the
FedBuff/FedScale literature calls it the participation schedule).  The
:class:`ClientSampler` seam extracts that policy out of the controllers:

- :class:`UniformSampler` — every eligible site equally likely (the
  historical ``clients_per_round`` behaviour).
- :class:`WeightedSampler` — inclusion probability proportional to site
  size, so large hospitals are tasked more often and the aggregate sees
  data in proportion to where it lives.
- :class:`StratifiedSampler` — sites are bucketed by size quantile and the
  draw is allocated across buckets proportionally (every non-empty bucket
  gets at least one pick when the budget allows), so a cohort dominated by
  small clinics still hears from its few large centres every round.

Every sampler is a pure function of ``(seed, round_number)``: the per-round
RNG is re-derived from both, so sampling is deterministic, independent of
call history, and bit-reproducible across re-runs and resumed jobs —
required by the buffered policy's reproducibility gate.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = ["ClientSampler", "UniformSampler", "WeightedSampler",
           "StratifiedSampler", "make_sampler"]


class ClientSampler:
    """Pluggable per-round cohort selection.

    Subclasses implement :meth:`_draw`; :meth:`sample` handles validation
    and the trivial n >= population case, and returns clients in their
    original (registration) order so logs and fold orders stay stable.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def sample(self, clients: Sequence[str], n: int,
               round_number: int) -> list[str]:
        """Choose ``n`` distinct participants for ``round_number``."""
        if n <= 0:
            raise ValueError("sample size must be positive")
        clients = list(clients)
        if n >= len(clients):
            return clients
        chosen = self._draw(clients, n, self._round_rng(round_number))
        index = {name: position for position, name in enumerate(clients)}
        return sorted(chosen, key=index.__getitem__)

    # ------------------------------------------------------------------
    def _round_rng(self, round_number: int) -> np.random.Generator:
        """A fresh generator derived from ``(seed, round)`` — stateless, so
        the round-r draw never depends on which rounds ran before it."""
        return np.random.default_rng((self.seed, int(round_number)))

    def _draw(self, clients: list[str], n: int,
              rng: np.random.Generator) -> list[str]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class UniformSampler(ClientSampler):
    """Uniform draw without replacement — every site equally likely."""

    def _draw(self, clients: list[str], n: int,
              rng: np.random.Generator) -> list[str]:
        picks = rng.choice(len(clients), size=n, replace=False)
        return [clients[int(i)] for i in picks]


class _SizedSampler(ClientSampler):
    """Shared site-size handling: unknown sites count as size 1."""

    def __init__(self, site_sizes: Mapping[str, float] | None = None,
                 seed: int = 0) -> None:
        super().__init__(seed=seed)
        self.site_sizes = dict(site_sizes or {})
        for name, size in self.site_sizes.items():
            if size <= 0:
                raise ValueError(f"site size for {name!r} must be positive, "
                                 f"got {size}")

    def _size(self, client: str) -> float:
        return float(self.site_sizes.get(client, 1.0))


class WeightedSampler(_SizedSampler):
    """Inclusion probability proportional to site size, without replacement."""

    def _draw(self, clients: list[str], n: int,
              rng: np.random.Generator) -> list[str]:
        sizes = np.array([self._size(name) for name in clients], dtype=np.float64)
        picks = rng.choice(len(clients), size=n, replace=False,
                           p=sizes / sizes.sum())
        return [clients[int(i)] for i in picks]


class StratifiedSampler(_SizedSampler):
    """Proportional allocation across site-size quantile buckets.

    Eligible sites are sorted by size and split into ``n_strata`` contiguous
    buckets; the budget is allocated to buckets by largest remainder on
    their populations, with every non-empty bucket guaranteed at least one
    pick whenever ``n >= number of non-empty buckets``.  Draws within a
    bucket are uniform.
    """

    def __init__(self, site_sizes: Mapping[str, float] | None = None,
                 n_strata: int = 4, seed: int = 0) -> None:
        super().__init__(site_sizes=site_sizes, seed=seed)
        if n_strata <= 0:
            raise ValueError("n_strata must be positive")
        self.n_strata = n_strata

    def _strata(self, clients: list[str]) -> list[list[str]]:
        by_size = sorted(clients, key=lambda name: (self._size(name), name))
        parts = np.array_split(np.arange(len(by_size)),
                               min(self.n_strata, len(by_size)))
        return [[by_size[int(i)] for i in part] for part in parts if len(part)]

    def _draw(self, clients: list[str], n: int,
              rng: np.random.Generator) -> list[str]:
        strata = self._strata(clients)
        quotas = self._allocate(n, [len(s) for s in strata])
        chosen: list[str] = []
        for stratum, quota in zip(strata, quotas):
            if quota >= len(stratum):
                chosen.extend(stratum)
            elif quota > 0:
                picks = rng.choice(len(stratum), size=quota, replace=False)
                chosen.extend(stratum[int(i)] for i in picks)
        return chosen

    @staticmethod
    def _allocate(n: int, populations: list[int]) -> list[int]:
        """Largest-remainder proportional allocation, min 1 where possible."""
        total = sum(populations)
        raw = [n * pop / total for pop in populations]
        quotas = [int(q) for q in raw]
        # floor-one guarantee first: no non-empty stratum draws empty as
        # long as the budget covers the stratum count
        if n >= len(populations):
            quotas = [max(q, 1) for q in quotas]
        quotas = [min(q, pop) for q, pop in zip(quotas, populations)]
        remainders = sorted(range(len(raw)),
                            key=lambda i: (raw[i] - int(raw[i]), -populations[i]),
                            reverse=True)
        index = 0
        while sum(quotas) < n:
            i = remainders[index % len(remainders)]
            if quotas[i] < populations[i]:
                quotas[i] += 1
            index += 1
        while sum(quotas) > n:
            i = remainders[index % len(remainders)]
            if quotas[i] > 1 or (sum(quotas) - quotas[i]) >= n:
                quotas[i] = max(0, quotas[i] - 1)
            index += 1
        return quotas

    def describe(self) -> str:
        return f"StratifiedSampler(n_strata={self.n_strata})"


def make_sampler(spec: "ClientSampler | str | None", *,
                 site_sizes: Mapping[str, float] | None = None,
                 seed: int = 0) -> ClientSampler | None:
    """Build a sampler from a job-config spec string.

    Accepted specs: ``"uniform"``, ``"weighted"``, ``"stratified"`` or
    ``"stratified:<n_strata>"``.  ``None`` passes through (the controller
    falls back to its default uniform draw); a :class:`ClientSampler`
    instance passes through unchanged.
    """
    if spec is None or isinstance(spec, ClientSampler):
        return spec
    name, _, arg = str(spec).partition(":")
    name = name.strip().lower()
    if name == "uniform":
        return UniformSampler(seed=seed)
    if name == "weighted":
        return WeightedSampler(site_sizes=site_sizes, seed=seed)
    if name == "stratified":
        n_strata = int(arg) if arg else 4
        return StratifiedSampler(site_sizes=site_sizes, n_strata=n_strata,
                                 seed=seed)
    raise ValueError(f"unknown sampler spec {spec!r} "
                     "(choose uniform, weighted, or stratified[:n])")
