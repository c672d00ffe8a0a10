"""The cohort draw: ``Barrier``'s ``clients_per_round`` sites and every
``Buffered`` refill come from :class:`UniformSampler`, seeded with the job's
``sampling_seed``.  The draw is a pure function of ``(seed, wave)``, so it
is independent of call history and bit-reproducible across re-runs — which
the buffered policy's reproducibility gate requires.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["UniformSampler"]


class UniformSampler:
    """Uniform draw without replacement — every site equally likely."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def sample(self, clients: Sequence[str], n: int,
               round_number: int) -> list[str]:
        """Choose ``n`` distinct participants for ``round_number``, in
        their original (registration) order so logs and fold orders stay
        stable; ``n >= len(clients)`` returns everyone."""
        if n <= 0:
            raise ValueError("sample size must be positive")
        clients = list(clients)
        if n >= len(clients):
            return clients
        # a fresh generator per (seed, round): the round-r draw never
        # depends on which rounds ran before it
        rng = np.random.default_rng((self.seed, int(round_number)))
        picks = rng.choice(len(clients), size=n, replace=False)
        return [clients[int(i)] for i in sorted(picks)]
