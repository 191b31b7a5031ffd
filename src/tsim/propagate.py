"""Time evolution exp(-i*H*t) of a state, the coefficient matrix gamma.

A state is a C-contiguous complex128 array gamma[m, n] over (tau config,
upsilon config).  Operators are :class:`~tsim.model.Hamiltonian` pieces
(hop_x, hop_y, D) acting on gamma.  :func:`evolve` returns a new gamma,
never its input, and picks the method from the operator alone.  A stepwise
operator (exactly one mobile species, hop matrix of dimension b) whose
factorization work dim * b**2 is at most ``_EIGEN_WORK_MAX`` = 2**28 is
solved exactly: its blocks (the mobile hop matrix plus one column of D for
H1, one row for H2) are stacked and factored by one cached
``np.linalg.eigh`` call on first use, and each stage propagator U(|t|), at
most 16 * dim * b bytes, is cached too, serves t and -t, and is one batched
matmul on the columns or rows of gamma.  Every other operator runs the
Chebyshev expansion of Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984), on
the whole of gamma through the structured apply, over the operator's
Gershgorin interval, in one expansion for any t with a term count fixed a
priori.  No step renormalizes its output.
"""

from __future__ import annotations

import numpy as np
from scipy.special import jv

from .model import Hamiltonian

# the eigen path costs n_blocks * b**3 = dim * b**2 to factor and caches each
# complex U(|t|) in 16 * dim * b bytes; a larger operator takes Chebyshev
_EIGEN_WORK_MAX = 2**28
_PROP_CACHE_MAX = 8
# Chebyshev terms end at the last Bessel coefficient above _CHEB_CUTOFF
_CHEB_CUTOFF = 1e-15


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


def _apply_eigen(op: Hamiltonian, gamma: np.ndarray, t: float) -> np.ndarray:
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
    g = gamma.T if by_column else gamma
    # V is real, so U(-t) x = conj(U(t) conj(x)) and one propagator serves both
    sub = np.ascontiguousarray(g if t > 0 else g.conj())
    sub = (props[key] @ sub[..., None])[..., 0]
    if t < 0:
        sub = sub.conj()
    # a copy, not the transposed view, so later marginals sum in row order
    return np.ascontiguousarray(sub.T) if by_column else sub


def _chebyshev_apply(op: Hamiltonian, g: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*t*H) g as sum_k c_k T_k((H - b)/a) g on the spectral
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
    # H x is taken as a view, so numpy does not reuse its buffer in place:
    # with that reuse glibc malloc returns heap pages to the kernel and
    # faults them back, twice as many faults per term (an L=10, 5+5 Trotter
    # step about 25% slower on 2 CPUs with OpenBLAS)
    prev, cur = g, (op.apply(g).view() - b * g) / a
    out = coef[0] * prev + coef[1] * cur
    for c in coef[2:]:
        prev, cur = cur, 2 / a * (op.apply(cur).view() - b * cur) - prev
        out += c * cur
    return out


def evolve(gamma: np.ndarray, op: Hamiltonian, t: float) -> np.ndarray:
    """exp(-i*op*t) applied to the coefficient matrix ``gamma``, as a new
    C-contiguous complex array; negative t reverses the evolution.  Cached
    block eigen for a small stepwise operator, Chebyshev otherwise."""
    if gamma.shape != op.D.shape:
        raise ValueError(
            f"operator dims {op.D.shape} do not match state dims {gamma.shape}"
        )
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t == 0.0:
        return np.array(gamma, dtype=np.complex128)
    # the block path needs exactly one mobile species, with a b x b hop matrix
    b = [h.shape[0] for h in (op.hop_x, op.hop_y) if h is not None]
    exact = len(b) == 1 and op.dim * b[0] ** 2 <= _EIGEN_WORK_MAX
    method = _apply_eigen if exact else _chebyshev_apply
    return method(op, gamma, t)
