"""Fermionic Fock bases as occupation bitmasks.

A basis state for one spinless-fermion species on ``L`` sites is an integer
whose bit ``i`` is set iff site ``i`` is occupied.  Bases are enumerated in
ascending unsigned integer order, so ``configs[0]`` is the mask with the
lowest ``particles`` sites occupied.  Each basis builds its per-site
occupation table once, on first use, and shares it read-only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAX_SITES = 63  # one machine word per mask


@dataclass(frozen=True)
class FockBasis:
    """Ordered set of occupation masks for (sites, particles)."""

    sites: int
    particles: int
    configs: tuple[int, ...] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.configs)

    @cached_property
    def occupations(self) -> np.ndarray:
        """Read-only (dim, sites) float64 table, 1.0 where config k occupies site i."""
        occ = ((np.array(self.configs)[:, None] >> np.arange(self.sites)) & 1
               ).astype(np.float64)
        occ.flags.writeable = False
        return occ


def enumerate_basis(sites: int, particles: int) -> FockBasis:
    """All ``C(sites, particles)`` occupation masks in ascending order."""
    if not 0 <= sites <= MAX_SITES:
        raise ValueError(f"sites must be in [0, {MAX_SITES}], got {sites}")
    if not 0 <= particles <= sites:
        raise ValueError(f"particles must be in [0, {sites}], got {particles}")
    configs = sorted(
        sum(1 << i for i in occ)
        for occ in itertools.combinations(range(sites), particles)
    )
    return FockBasis(sites=sites, particles=particles, configs=tuple(configs))

