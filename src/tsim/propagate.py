"""Time evolution exp(-i*H*t) applied to state vectors.

Operators are :class:`~tsim.model.Hamiltonian` pieces (hop_x, hop_y, D)
acting on the coefficient matrix gamma.  :func:`evolve` picks the method from
the operator alone.  A stepwise operator (exactly one mobile species, hop
matrix of dimension b) whose factorization work dim * b**2 is at most
``_EIGEN_WORK_MAX`` = 2**28 is solved exactly: its blocks (the mobile hop
matrix plus one column of D for H1, one row for H2) are stacked and factored
by one cached ``np.linalg.eigh`` call on first use, and each stage propagator
U(|t|), at most 16 * dim * b bytes, is cached too, serves t and -t, and is one
batched matmul on the columns or rows of gamma.  Every other operator runs the
Chebyshev expansion of Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984), on
the whole of gamma through the structured apply, over the operator's
Gershgorin interval, in one expansion for any t with a term count fixed a
priori.  No step renormalizes its output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .model import Hamiltonian

# the eigen path costs n_blocks * b**3 = dim * b**2 to factor and caches each
# complex U(|t|) in 16 * dim * b bytes; a larger operator takes Chebyshev
_EIGEN_WORK_MAX = 2**28
_PROP_CACHE_MAX = 8
# Chebyshev terms end at the last Bessel coefficient above _CHEB_CUTOFF
_CHEB_CUTOFF = 1e-15


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
        # scaled by the largest modulus first, the sum of squares cannot overflow
        peak = np.abs(amps).max(initial=0.0)
        if not 0.0 < peak < np.inf:
            raise ValueError("amplitudes are not normalizable")
        amps = amps / peak
        return cls(amplitudes=amps / np.linalg.norm(amps), dims=tuple(dims))

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
    """exp(-i*op*t) applied to ``state``; negative t reverses the evolution.
    Cached block eigen for a small stepwise operator, Chebyshev otherwise."""
    if op.D.shape != state.dims:
        raise ValueError(
            f"operator dims {op.D.shape} do not match state dims {state.dims}"
        )
    if t == 0.0:
        return ManyBodyState(state.amplitudes.copy(), state.dims)
    # the block path needs exactly one mobile species, with a b x b hop matrix
    b = [h.shape[0] for h in (op.hop_x, op.hop_y) if h is not None]
    exact = len(b) == 1 and op.dim * b[0] ** 2 <= _EIGEN_WORK_MAX
    method = _apply_eigen if exact else _chebyshev_apply
    return ManyBodyState(method(op, state.amplitudes, t), state.dims)
