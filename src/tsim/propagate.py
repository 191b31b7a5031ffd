"""Time evolution exp(-i*H*t) applied to state vectors.

Operators are :class:`~tsim.model.Hamiltonian` pieces (hop_x, hop_y, D)
acting on the coefficient matrix gamma.  Small blocks are solved exactly: on
the blockwise path, a stepwise operator with blocks of at most
``dense_threshold`` (the mobile species' hop matrix plus one column of D for
H1, one row for H2) has them all stacked and factored by one cached
``np.linalg.eigh`` call on first use.  Each stage propagator U(|t|) is cached
too, serves t and -t, and is one batched matmul on the columns or rows of
gamma.  Everything else runs the Chebyshev expansion of Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967 (1984), on the whole of gamma through the structured
apply, over the operator's Gershgorin interval, in one expansion for any t
with a term count fixed a priori.  No step renormalizes its output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .model import Hamiltonian

_PROP_CACHE_MAX = 8
# Chebyshev terms end at the last Bessel coefficient above _CHEB_CUTOFF
_CHEB_CUTOFF = 1e-15


@dataclass(frozen=True)
class PropagatorSettings:
    """``dense_threshold`` is the largest block factored exactly: a stepwise
    operator whose blocks have at most that many configurations takes the
    cached block eigendecomposition in :func:`evolve_blockwise`."""

    dense_threshold: int = 512

    def __post_init__(self):
        if self.dense_threshold <= 0:
            raise ValueError("dense_threshold must be positive")


DEFAULT_SETTINGS = PropagatorSettings()


@dataclass(frozen=True)
class ManyBodyState:
    """Normalized amplitude vector over the composite (tau, upsilon) basis."""

    amplitudes: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        d_x, d_y = self.dims
        object.__setattr__(self, "dims", (int(d_x), int(d_y)))
        if amps.shape != (d_x * d_y,):
            raise ValueError(
                f"amplitude length {amps.shape} does not match dims {self.dims}"
            )

    @classmethod
    def normalized(cls, amplitudes, dims) -> "ManyBodyState":
        amps = np.asarray(amplitudes, dtype=np.complex128)
        nrm = np.linalg.norm(amps)
        if nrm == 0.0 or not np.isfinite(nrm):
            raise ValueError("amplitudes are not normalizable")
        return cls(amplitudes=amps / nrm, dims=tuple(dims))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def gamma(self) -> np.ndarray:
        """Coefficient matrix view: gamma[m, n] over (tau, upsilon) configs."""
        return self.amplitudes.reshape(self.dims)


def _eigensystem(op: Hamiltonian):
    """(eigenvalues, eigenvectors, stage propagators by |t|) of the stacked
    blocks of a stepwise operator: one per column of gamma for H1, per row
    for H2."""
    if "blocks" not in op._cache:
        # block k is the mobile hop matrix plus the diagonal of D's row k
        hop, diag = (op.hop_x, op.D.T) if op.hop_y is None else (op.hop_y, op.D)
        stack = np.repeat(hop.toarray()[None], len(diag), axis=0)
        i = np.arange(hop.shape[0])
        stack[:, i, i] += diag
        op._cache["blocks"] = (*np.linalg.eigh(stack), {})
    return op._cache["blocks"]


def _apply_eigen(op: Hamiltonian, amps: np.ndarray, t: float) -> np.ndarray:
    w, v, props = _eigensystem(op)
    key = abs(t)
    if key not in props:
        if len(props) >= _PROP_CACHE_MAX:
            props.pop(next(iter(props)))
        # V diag(exp(-i*w*t)) V^T by real matmuls, which copy no V to complex
        u = np.empty(v.shape, dtype=np.complex128)
        u.real = (v * np.cos(key * w)[:, None, :]) @ v.swapaxes(1, 2)
        u.imag = (v * -np.sin(key * w)[:, None, :]) @ v.swapaxes(1, 2)
        props[key] = u
    # the blocks of H1 act on the columns of gamma, those of H2 on its rows
    by_column = op.hop_y is None
    g = amps.reshape(-1, len(w)).T if by_column else amps.reshape(len(w), -1)
    # V is real, so U(-t) x = conj(U(t) conj(x)) and one propagator serves both
    sub = np.ascontiguousarray(g if t > 0 else g.conj())
    sub = (props[key] @ sub[..., None])[..., 0]
    if t < 0:
        sub = sub.conj()
    return (sub.T if by_column else sub).ravel()


def _chebyshev_apply(op: Hamiltonian, amps: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*t*H) amps as sum_k c_k T_k((H - b)/a) amps on the spectral
    interval [b - a, b + a], with c_k = (2 - delta_k0) (-i)^k J_k(a*t)
    exp(-i*b*t), in one expansion however long t is."""
    lo, hi = op.spectral_bounds()
    # a point interval means H = b, and then any half-width bounds it
    a, b = (hi - lo) / 2 or 1.0, (hi + lo) / 2
    # J_k(x) falls off faster than exponentially once k exceeds |x|
    bessel = jv(np.arange(2 * int(a * abs(t)) + 40), a * t)
    n = max(2, np.flatnonzero(np.abs(bessel) > _CHEB_CUTOFF)[-1] + 1)
    coef = (np.array([2, -2j, -2, 2j])[np.arange(n) % 4] * bessel[:n]
            * np.exp(-1j * b * t))
    coef[0] /= 2
    g = amps.reshape(op.D.shape)
    prev, cur = g, (op.apply(g) - b * g) / a
    out = coef[0] * prev + coef[1] * cur
    for c in coef[2:]:
        prev, cur = cur, 2 / a * (op.apply(cur) - b * cur) - prev
        out += c * cur
    return out.ravel()


def evolve(state: ManyBodyState, op: Hamiltonian, t: float) -> ManyBodyState:
    """exp(-i*op*t) applied to ``state``; negative t reverses the evolution."""
    return _evolve(state, op, t, _chebyshev_apply)


def evolve_blockwise(state: ManyBodyState, op: Hamiltonian, t: float,
                     settings: PropagatorSettings = DEFAULT_SETTINGS) -> ManyBodyState:
    """Blockwise exp(-i*op*t) for a stepwise operator: each block (one per
    configuration of the frozen species) evolves independently, exactly when
    the blocks fit in ``settings.dense_threshold``.  Identical to
    :func:`evolve` up to rounding."""
    if (op.hop_x is None) == (op.hop_y is None):
        raise ValueError("blockwise evolution needs exactly one mobile species")
    mobile = op.hop_x if op.hop_y is None else op.hop_y
    exact = mobile.shape[0] <= settings.dense_threshold
    return _evolve(state, op, t, _apply_eigen if exact else _chebyshev_apply)


def _evolve(state: ManyBodyState, op: Hamiltonian, t: float,
            method) -> ManyBodyState:
    if op.D.shape != state.dims:
        raise ValueError(
            f"operator dims {op.D.shape} do not match state dims {state.dims}"
        )
    if t == 0.0:
        return ManyBodyState(state.amplitudes.copy(), state.dims)
    return ManyBodyState(method(op, state.amplitudes, t), state.dims)
