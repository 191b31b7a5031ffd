"""Fermionic Fock bases as occupation bitmasks, with rank/unrank.

A basis state for one spinless-fermion species on ``L`` sites is an integer
whose bit ``i`` is set iff site ``i`` is occupied.  Bases are enumerated in
ascending unsigned integer order, which for fixed particle number coincides
with colexicographic order on the occupied-site tuples; ranks are therefore
computable by combinatorial counting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

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
        r = 0
        j = 0
        m = mask
        while m:
            p = (m & -m).bit_length() - 1
            j += 1
            r += comb(p, j)
            m &= m - 1
        return r

    def unrank(self, index: int) -> int:
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} out of range [0, {self.dim})")
        return self.configs[index]

    def occupancy(self, mask: int) -> tuple[int, ...]:
        """Per-site 0/1 occupation of ``mask``."""
        return tuple((mask >> i) & 1 for i in range(self.sites))

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

