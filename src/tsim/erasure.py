"""Phase-erasure operations: diagonal unitaries over one species' Fock configs.

Both operations are diagonal in the composite basis and therefore leave every
configuration probability |gamma_{m,n}|^2 — and hence all configuration
entropies and the Schmidt spectrum — unchanged at the instant they act.  Their
effect appears only through the subsequent evolution, whose interference
pattern they scramble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockBasis
from .model import SPECIES, UPSILON

RANDOM_PHASE = "random-phase"
SITE_PHASE = "site-phase"
KINDS = (RANDOM_PHASE, SITE_PHASE)


@dataclass(frozen=True)
class ErasureSpec:
    """Configuration template for the per-cycle erasure operation."""

    kind: str = RANDOM_PHASE
    species: str = UPSILON
    site: int | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind: must be one of {KINDS}, got {self.kind!r}")
        if self.species not in SPECIES:
            raise ValueError(f"species: must be one of {SPECIES}, got {self.species!r}")
        if self.theta is not None and not np.isfinite(self.theta):
            raise ValueError("theta: must be finite")
        if self.kind == SITE_PHASE:
            if self.site is None or self.theta is None:
                raise ValueError("kind: site-phase erasure needs both site and theta")
        elif self.site is not None or self.theta is not None:
            raise ValueError("kind: random-phase erasure takes neither site nor theta")


def apply_random_phases(gamma: np.ndarray, species: str,
                        phases: np.ndarray) -> np.ndarray:
    """Multiply each Fock component of ``species`` by exp(i*theta_k).

    ``species`` names an axis of gamma in ``SPECIES`` order: tau rows are
    scaled, or upsilon columns; the result is a new array.
    """
    if species not in SPECIES:
        raise ValueError(f"species must be one of {SPECIES}, got {species!r}")
    axis = SPECIES.index(species)
    d = gamma.shape[axis]
    phases = np.asarray(phases, dtype=np.float64)
    if phases.shape != (d,):
        raise ValueError(f"need {d} phases for {species}, got {phases.shape}")
    factors = np.exp(1j * phases)
    # tau rows take one factor each, upsilon columns broadcast over the last axis
    return np.multiply(gamma, factors[:, None] if axis == 0 else factors, order="C")


def site_phase_sequence(basis: FockBasis, site: int, theta: float) -> np.ndarray:
    """Per-config phases equivalent to a single-site phase gate:
    theta on configs occupying ``site``, zero elsewhere."""
    if not 0 <= site < basis.sites:
        raise ValueError(f"site {site} out of range [0, {basis.sites})")
    return theta * basis.occupations[:, site]


def draw_phases(master_seed: int, cycle: int, d: int) -> np.ndarray:
    """Deterministic uniform phases on [0, 2*pi), independent across cycles."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(cycle,))
    rng = np.random.Generator(np.random.PCG64(seq))
    return rng.random(d) * 2.0 * np.pi


def erasure_phases(spec: ErasureSpec, basis: FockBasis, master_seed: int,
                   cycle: int) -> np.ndarray:
    """Resolve the phase sequence a template applies on a given cycle."""
    if spec.kind == SITE_PHASE:
        return site_phase_sequence(basis, spec.site, spec.theta)
    return draw_phases(master_seed, cycle, basis.dim)
