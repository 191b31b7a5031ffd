"""Equilibrium diagnostics: configuration entropies, entanglement entropy,
occupation densities, fidelity.

All entropies are in nats.  Probabilities below 1e-300 are treated as exact
zeros (the 0*ln 0 = 0 convention) so the logarithm never sees a zero; a NaN
or infinite probability raises ``ValueError``.

The Schmidt weights are the eigenvalues, by ``np.linalg.eigvalsh``, of the
Hermitian Gram matrix g g^dagger on gamma's smaller side (g = gamma, or
gamma^T when d_y < d_x), not an SVD of gamma.  Their absolute error is
about 1e-17 per weight, so weights below about 1e-16 are noise, some of them
negative; the 1e-300 floor drops the negative ones.  On dense low-rank states
the noise weights add up: against an SVD, S_ent moves by up to about 5e-13
at L <= 12 (a rank-1 gamma: 1.3e-13 at 70 x 70, 3.0e-13 at 252 x 252 and
5.5e-13 at 924 x 924).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .fock import FockBasis

_P_FLOOR = 1e-300


def _entropy(p: np.ndarray) -> float:
    # NaN passes the floor, so a NaN or infinite p makes the sum non-finite
    p = p[~(p <= _P_FLOOR)]
    s = float(-(p * np.log(p)).sum())
    if not isfinite(s):
        raise ValueError("entropy: probabilities are not finite")
    # clamp a roundoff tail a few ulps below 0, and an empty sum's -0.0
    return s if s > 0.0 else 0.0


def schmidt_spectrum(gamma: np.ndarray) -> np.ndarray:
    """Descending Schmidt weights of gamma, min(d_x, d_y) of them: the
    eigenvalues of the Gram matrix g g^dagger on gamma's smaller side, its
    squared singular values.  Weights below about 1e-16 are roundoff noise
    and may be slightly negative."""
    g = gamma if gamma.shape[0] <= gamma.shape[1] else gamma.T
    return np.linalg.eigvalsh(g @ g.conj().T)[::-1]


def entanglement_entropy(gamma: np.ndarray) -> float:
    """Von Neumann entropy of the species bipartition, from the Schmidt
    spectrum: -sum sigma_k^2 ln sigma_k^2 over singular values of gamma;
    the 1e-300 floor drops the spectrum's negative noise weights.  A gamma
    with NaN or infinite entries raises ``ValueError``: numpy's
    ``LinAlgError`` if the eigensolve does not converge, else the entropy's
    own."""
    return _entropy(schmidt_spectrum(gamma))


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
