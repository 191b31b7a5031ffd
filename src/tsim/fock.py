"""Fermionic Fock bases as occupation bitmasks, with a combinatorial rank.

A basis state for one spinless-fermion species on ``L`` sites is an integer
whose bit ``i`` is set iff site ``i`` is occupied.  Bases are enumerated in
ascending unsigned integer order, which for fixed particle number coincides
with colexicographic order on the occupied-site tuples; ranks are therefore
computable by combinatorial counting, and ``configs[k]`` is the mask of rank
k.  Each basis builds its per-site occupation table once, on first use, and
shares it read-only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

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

    def rank(self, mask: int) -> int:
        """Position of ``mask`` in canonical (ascending) order.

        Uses the colex rank: sum over the j-th lowest set bit p_j of C(p_j, j).
        """
        self._check_member(mask)
        occupied = [p for p in range(self.sites) if (mask >> p) & 1]
        return sum(comb(p, j) for j, p in enumerate(occupied, start=1))

    @cached_property
    def occupations(self) -> np.ndarray:
        """Read-only (dim, sites) float64 table, 1.0 where config k occupies site i."""
        occ = ((np.array(self.configs)[:, None] >> np.arange(self.sites)) & 1
               ).astype(np.float64)
        occ.flags.writeable = False
        return occ

    def _check_member(self, mask: int) -> None:
        if mask < 0 or mask >> self.sites:
            raise ValueError(f"mask {mask:#x} has bits outside {self.sites} sites")
        if bin(mask).count("1") != self.particles:
            raise ValueError(
                f"mask {mask:#x} has {bin(mask).count('1')} particles, "
                f"expected {self.particles}"
            )


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

