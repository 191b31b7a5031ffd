"""Fermionic Fock bases as occupation bitmasks.

A basis state for one spinless-fermion species on ``L`` sites is an integer
whose bit ``i`` is set iff site ``i`` is occupied.  A basis holds its masks
as one read-only int64 array in ascending order, so ``configs[0]`` is the
mask with the lowest ``particles`` sites occupied, and compares and hashes
by ``(sites, particles)``.  It builds its per-site occupation table once,
on first use, and shares it read-only.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

MAX_SITES = 63  # one int64 per mask
# the machine's physical memory in bytes, the most any basis or gamma can take
_PHYSICAL_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True)
class FockBasis:
    """Ordered set of occupation masks for (sites, particles)."""

    sites: int
    particles: int
    configs: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.configs)

    @cached_property
    def occupations(self) -> np.ndarray:
        """Read-only (dim, sites) float64 table, 1.0 where config k occupies site i."""
        occ = ((self.configs[:, None] >> np.arange(self.sites)) & 1).astype(np.float64)
        occ.flags.writeable = False
        return occ


def enumerate_basis(sites: int, particles: int) -> FockBasis:
    """All ``C(sites, particles)`` occupation masks in ascending order."""
    if not 0 <= sites <= MAX_SITES:
        raise ValueError(f"sites must be in [0, {MAX_SITES}], got {sites}")
    if not 0 <= particles <= sites:
        raise ValueError(f"particles must be in [0, {sites}], got {particles}")
    # refused before enumerating: 8 bytes a mask, all that the enumeration holds
    if (size := 8 * (dim := comb(sites, particles))) > _PHYSICAL_BYTES:
        raise ValueError(f"sites: the basis takes {size} bytes, more than "
                         f"the {_PHYSICAL_BYTES} bytes of physical memory")
    configs = np.fromiter((sum(1 << i for i in occ) for occ in
                           itertools.combinations(range(sites), particles)),
                          np.int64, dim)
    configs.sort()
    configs.flags.writeable = False
    return FockBasis(sites=sites, particles=particles, configs=configs)
