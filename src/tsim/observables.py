"""Equilibrium diagnostics: configuration entropies, entanglement entropy,
occupation densities, fidelity.

All entropies are in nats.  Probabilities below 1e-300 are treated as exact
zeros (the 0*ln 0 = 0 convention) so the logarithm never sees a zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockBasis

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


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 of two coefficient matrices; insensitive to global phases."""
    if a.shape != b.shape:
        raise ValueError(f"state shapes differ: {a.shape} vs {b.shape}")
    return float(np.abs(np.vdot(a, b)) ** 2)


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


def measure(gamma: np.ndarray, basis_tau: FockBasis, basis_upsilon: FockBasis,
            initial: np.ndarray) -> EntropyReport:
    """Assemble the full report for one state from one pass over |gamma|^2;
    the densities are the expected per-site occupancies of each species."""
    p = np.abs(gamma) ** 2
    p_tau, p_upsilon = p.sum(axis=1), p.sum(axis=0)
    return EntropyReport(
        s_tau=_entropy(p_tau),
        s_upsilon=_entropy(p_upsilon),
        s_total=_entropy(p.reshape(-1)),
        s_ent=entanglement_entropy(gamma),
        densities_tau=tuple((p_tau @ basis_tau.occupations).tolist()),
        densities_upsilon=tuple((p_upsilon @ basis_upsilon.occupations).tolist()),
        fidelity_to_initial=fidelity(initial, gamma),
    )
