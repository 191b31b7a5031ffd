"""Equilibrium diagnostics: configuration entropies, entanglement entropy,
occupation densities, fidelity.

All entropies are in nats.  Probabilities below 1e-300 are treated as exact
zeros (the 0*ln 0 = 0 convention) so the logarithm never sees a zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockBasis
from .model import SPECIES, TAU
from .propagate import ManyBodyState

_P_FLOOR = 1e-300


def _entropy(p: np.ndarray) -> float:
    p = p[p > _P_FLOOR]
    s = float(-(p * np.log(p)).sum())
    # clamp a roundoff tail a few ulps below 0, and an empty sum's -0.0
    return s if s > 0.0 else 0.0


def shannon_entropies(gamma: np.ndarray) -> tuple[float, float, float]:
    """(S_tau, S_upsilon, S_total) of the |gamma|^2 distribution and its marginals."""
    p = np.abs(gamma) ** 2
    return _entropy(p.sum(axis=1)), _entropy(p.sum(axis=0)), _entropy(p.reshape(-1))


def schmidt_spectrum(gamma: np.ndarray) -> np.ndarray:
    """Descending squared singular values of gamma."""
    return np.linalg.svd(gamma, compute_uv=False) ** 2


def entanglement_entropy(gamma: np.ndarray) -> float:
    """Von Neumann entropy of the species bipartition, from the Schmidt
    spectrum: -sum sigma_k^2 ln sigma_k^2 over singular values of gamma."""
    try:
        return _entropy(schmidt_spectrum(gamma))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("Schmidt decomposition failed") from exc


def occupation_density(state: ManyBodyState, basis: FockBasis,
                       species: str) -> tuple[float, ...]:
    """Expected per-site occupancy of one species; entries sum to its particle
    number."""
    if species not in SPECIES:
        raise ValueError(f"species must be one of {SPECIES}, got {species!r}")
    p = np.abs(state.gamma()) ** 2
    marginal = p.sum(axis=1) if species == TAU else p.sum(axis=0)
    if basis.dim != marginal.shape[0]:
        raise ValueError(
            f"basis dim {basis.dim} does not match state axis {marginal.shape[0]}"
        )
    return tuple((marginal @ basis.occupations).tolist())


def fidelity(a: ManyBodyState, b: ManyBodyState) -> float:
    """|<a|b>|^2; insensitive to global phases."""
    if a.amplitudes.shape != b.amplitudes.shape:
        raise ValueError(
            f"state lengths differ: {a.amplitudes.shape} vs {b.amplitudes.shape}"
        )
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


@dataclass(frozen=True)
class EntropyReport:
    """All diagnostics for one recorded stage."""

    s_tau: float
    s_upsilon: float
    s_total: float
    s_ent: float
    densities_tau: tuple[float, ...]
    densities_upsilon: tuple[float, ...]
    fidelity_to_initial: float


def measure(state: ManyBodyState, basis_tau: FockBasis, basis_upsilon: FockBasis,
            initial: ManyBodyState) -> EntropyReport:
    """Assemble the full report for one state from one pass over |gamma|^2."""
    g = state.gamma()
    p = np.abs(g) ** 2
    p_tau, p_upsilon = p.sum(axis=1), p.sum(axis=0)
    return EntropyReport(
        s_tau=_entropy(p_tau),
        s_upsilon=_entropy(p_upsilon),
        s_total=_entropy(p.reshape(-1)),
        s_ent=entanglement_entropy(g),
        densities_tau=tuple((p_tau @ basis_tau.occupations).tolist()),
        densities_upsilon=tuple((p_upsilon @ basis_upsilon.occupations).tolist()),
        fidelity_to_initial=fidelity(initial, state),
    )
