"""Time evolution exp(-i*H*t) of a state, the coefficient matrix gamma.

A state is a C-contiguous complex128 array gamma[m, n] over (tau config,
upsilon config).  Operators are :class:`~tsim.model.Hamiltonian` pieces
(hop_x, hop_y, D) acting on gamma.  :func:`evolve` returns a new gamma,
never its input, and picks the method from the operator alone.  A stepwise
operator (exactly one mobile species, hop matrix of dimension b) whose
factorization work dim * b**2 is at most ``_EIGEN_WORK_MAX`` = 2**28 is
solved exactly: building its stage propagator U(|t|) stacks its blocks (the
mobile hop matrix plus one column of D for H1, one row for H2), factors them
by one ``np.linalg.eigh`` call and keeps only U, 16 * dim * b bytes, rebuilt
with its factorization when |t| changes.  U serves t and -t, which is all a
cycle asks of H1 and H2, and is one batched matmul on the columns or rows of
gamma.  Every other operator runs the Chebyshev expansion of Tal-Ezer &
Kosloff, J. Chem. Phys. 81, 3967 (1984), with a term count fixed a priori,
in place on three buffers shaped like gamma.  Its interval is
``Hamiltonian.spectral_bounds``, taken from the operator's one-body parts:
exact for H1 and H2, a Weyl bound for a sum of parts, and padded outward by
``model._SPECTRAL_PAD`` of the norm bound.  It is computed and folded into
the operator on the operator's first Chebyshev call.  The operator is real,
so each product runs in real arithmetic on gamma's float64 view inside
``Hamiltonian.apply`` (Kosloff, J. Phys. Chem. 92, 2087 (1988)), which adds
the hop_x product into its output buffer in place; the full H's hop_y
product still allocates.  No step renormalizes its output.
"""

from __future__ import annotations

import numpy as np
from scipy.special import jv

from .model import Hamiltonian

# the eigen path costs n_blocks * b**3 = dim * b**2 to factor and caches its
# one complex U(|t|) in 16 * dim * b bytes; a larger operator takes Chebyshev
_EIGEN_WORK_MAX = 2**28
# Chebyshev terms end at the last Bessel coefficient above _CHEB_CUTOFF
_CHEB_CUTOFF = 1e-15


def _apply_eigen(op: Hamiltonian, gamma: np.ndarray, t: float) -> np.ndarray:
    # the blocks of H1 act on the columns of gamma, those of H2 on its rows
    by_column = op.hop_y is None
    key, u = op._cache.get("stage", (None, None))
    if key != abs(t):
        # block k is the mobile hop matrix plus the diagonal of D's column k
        # (H1) or row k (H2); its eigenvectors are dropped once U is built
        hop, diag = (op.hop_x, op.D.T) if by_column else (op.hop_y, op.D)
        stack = np.repeat(hop.toarray()[None], len(diag), axis=0)
        i = np.arange(hop.shape[0])
        stack[:, i, i] += diag
        w, v = np.linalg.eigh(stack)
        key = abs(t)
        # V diag(exp(-i*w*t)) V^T by real matmuls, which copy no V to complex
        u = np.empty(v.shape, dtype=np.complex128)
        u.real = (v * np.cos(key * w)[:, None, :]) @ v.swapaxes(1, 2)
        u.imag = (v * -np.sin(key * w)[:, None, :]) @ v.swapaxes(1, 2)
        op._cache["stage"] = key, u
    g = gamma.T if by_column else gamma
    # V is real, so U(-t) x = conj(U(t) conj(x)) and one propagator serves both
    sub = np.ascontiguousarray(g if t > 0 else g.conj())
    sub = (u @ sub[..., None])[..., 0]
    if t < 0:
        sub = sub.conj()
    # a copy, not the transposed view, so later marginals sum in row order
    return np.ascontiguousarray(sub.T) if by_column else sub


def _chebyshev_apply(op: Hamiltonian, g: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*t*H) g as exp(-i*b*t) sum_k c_k T_k((H - b)/a) g on the
    operator's spectral interval [b - a, b + a], with c_k = (2 - delta_k0)
    (-i)^k J_k(a*t), in one expansion however long t is.  The interval is
    computed here, on the operator's first call, never for an eigen-path
    operator.  T_k = H~ T_(k-1) - T_(k-2), with H~ = 2(H - b)/a cached per
    operator, runs on g (on g^T for H2, so the hop acts on axis 0) in three
    rotating buffers."""
    if "chebyshev" not in op._cache:
        lo, hi = op.spectral_bounds()
        # a point interval means H = b, and then any half-width bounds it
        a, b = (hi - lo) / 2 or 1.0, (hi + lo) / 2
        flip = op.hop_x is None
        hops, D = ((op.hop_y, None), op.D.T) if flip else ((op.hop_x, op.hop_y), op.D)
        D = np.subtract(D, b, order="C")
        D *= 2 / a
        # the folded copy only applies, so it needs no one-body parts
        h = Hamiltonian(*[None if x is None else 2 / a * x for x in hops], D, ())
        op._cache["chebyshev"] = h, flip, a, b
    h, flip, a, b = op._cache["chebyshev"]
    # J_k(x) falls off faster than exponentially once k exceeds |x|
    bessel = jv(np.arange(2 * int(a * abs(t)) + 40), a * t)
    n = max(2, np.flatnonzero(np.abs(bessel) > _CHEB_CUTOFF)[-1] + 1)
    c = np.array([2, -2j, -2, 2j])[np.arange(n) % 4] * bessel[:n]
    c[0] /= 2
    # the call's own C-order copy of g (of g^T for H2)
    prev = np.array(g.T if flip else g, dtype=np.complex128, order="C")
    cur = h.apply(prev)
    cur *= 0.5  # T_1 = (H - b)/a g
    acc, tmp = c[0] * prev, np.empty_like(prev)
    for k in range(1, n):
        if k > 1:  # T_k over T_(k-2)
            np.subtract(h.apply(cur, out=tmp), prev, out=prev)
            prev, cur = cur, prev
        acc += np.multiply(cur, c[k], out=tmp)
    acc *= np.exp(-1j * b * t)
    return np.ascontiguousarray(acc.T) if flip else acc


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
