"""Time evolution exp(-i*H*t) of a state, the coefficient matrix gamma.

:func:`evolve` returns a new C-contiguous complex128 gamma, never its input,
and picks the method from the operator alone.  Both methods see one layout,
H1's.  A stepwise operator moves one species, so it is block-diagonal over
the frozen one, and ``_in_h1_layout`` hands H2 over as its hop on gamma^T:
a one-hop operator's blocks are always the columns of the method's source.

A stepwise operator whose factorization work dim * b**2 (b the dimension of
its hop) is at most ``_EIGEN_WORK_MAX`` is solved exactly by one cached
U(|t|): its blocks are factored by one batched ``np.linalg.eigh`` call, and
only U is kept, rebuilt when |t| changes.  U serves t and -t, which is all a
cycle asks of H1 and H2.  The eigen path stays on the calling thread: at its
sizes a thread handoff costs more than the batched matmul it would split.

Every other operator runs the Chebyshev expansion of Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967 (1984), with a term count fixed a priori, on the
interval of ``Hamiltonian.spectral_bounds``: exact for H1 and H2, a Weyl
bound for the full H.  The operator is real, so each product runs in real
arithmetic on gamma's float64 view inside ``Hamiltonian.apply`` (Kosloff,
J. Phys. Chem. 92, 2087 (1988)).  A one-hop operator's columns evolve on
their own, so they run as up to ``_THREADS`` = min(2, usable CPUs)
contiguous slabs on one pool, built at import, whose threads start on the
first split.  The sparse product accumulates each entry in the same order
at any slab width, so the result is bit-identical at any slab count.  The
full H couples both axes and runs as one slab.  No step renormalizes its
output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import jv

from .model import Hamiltonian

# the eigen path costs n_blocks * b**3 = dim * b**2 to factor and caches its
# one complex U(|t|) in 16 * dim * b bytes; a larger operator takes Chebyshev
_EIGEN_WORK_MAX = 2**28
# Chebyshev terms end at the last Bessel coefficient above _CHEB_CUTOFF
_CHEB_CUTOFF = 1e-15
# the most slabs a one-hop Chebyshev stage splits into, one thread each of a
# pool built at import, whose threads start on the first split
_THREADS = min(2, len(os.sched_getaffinity(0)))


def _eigen(op: Hamiltonian, hop, _, D: np.ndarray, src: np.ndarray,
           t: float) -> np.ndarray:
    key, u = op._cache.get("stage", (None, None))
    if key != abs(t):
        # block k is the hop matrix plus the diagonal of D's column k; its
        # eigenvectors are dropped once U is built
        stack = np.repeat(hop.toarray()[None], D.shape[1], axis=0)
        i = np.arange(hop.shape[0])
        stack[:, i, i] += D.T
        w, v = np.linalg.eigh(stack)
        key = abs(t)
        # V diag(exp(-i*w*t)) V^T by real matmuls, which copy no V to complex
        u = np.empty(v.shape, dtype=np.complex128)
        u.real = (v * np.cos(key * w)[:, None, :]) @ v.swapaxes(1, 2)
        u.imag = (v * -np.sin(key * w)[:, None, :]) @ v.swapaxes(1, 2)
        op._cache["stage"] = key, u
    # V is real, so U(-t) x = conj(U(t) conj(x)) and one propagator serves both
    sub = np.ascontiguousarray(src.T if t > 0 else src.T.conj())
    sub = (u @ sub[..., None])[..., 0]
    if t < 0:
        sub = sub.conj()
    return sub.T


def _recurrence(h: Hamiltonian, src: np.ndarray, c: np.ndarray,
                phase: complex) -> np.ndarray:
    """phase * sum_k c_k T_k(h) src with T_k = h T_(k-1) - T_(k-2), T_1 =
    h src / 2, in three rotating buffers and an accumulator, each shaped
    like src and allocated by the thread that runs it: a slab thread's heap
    reuses the buffers it freed, while at L=10 the calling thread's go back
    to the system and fault in again on every call."""
    prev = np.array(src, dtype=np.complex128, order="C")
    cur = h.apply(prev)
    cur *= 0.5
    acc, tmp = c[0] * prev, np.empty_like(prev)
    for k in range(1, len(c)):
        if k > 1:  # T_k over T_(k-2)
            np.subtract(h.apply(cur, out=tmp), prev, out=prev)
            prev, cur = cur, prev
        acc += np.multiply(cur, c[k], out=tmp)
    acc *= phase
    return acc


def _new_pool() -> None:
    # a forked child inherits the pool but not its threads, so work it
    # queued there would wait forever; it gets a pool of its own
    global _pool
    _pool = ThreadPoolExecutor(_THREADS, thread_name_prefix="tsim-slab")


_new_pool()
os.register_at_fork(after_in_child=_new_pool)


def _chebyshev(op: Hamiltonian, hop_x, hop_y, D: np.ndarray, src: np.ndarray,
               t: float) -> np.ndarray:
    """exp(-i*t*H) src as exp(-i*b*t) sum_k c_k T_k((H - b)/a) src on the
    operator's spectral interval [b - a, b + a], with c_k = (2 - delta_k0)
    (-i)^k J_k(a*t), in one expansion however long t is.  The interval is
    computed here, on the operator's first call, never for an eigen-path
    operator, and folded into a copy of the operator.  A one-hop operator's
    columns evolve independently, so they run as up to ``_THREADS``
    contiguous slabs on the pool's threads, each writing its columns of the
    result."""
    if "chebyshev" not in op._cache:
        lo, hi = op.spectral_bounds()
        # a point interval means H = b, and then any half-width bounds it
        a, b = (hi - lo) / 2 or 1.0, (hi + lo) / 2
        D = np.subtract(D, b, order="C")
        D *= 2 / a
        # the folded copy only applies, so it needs no one-body parts
        h = Hamiltonian(*[None if x is None else 2 / a * x for x in (hop_x, hop_y)], D, ())
        op._cache["chebyshev"] = h, a, b
    h, a, b = op._cache["chebyshev"]
    # J_k(x) falls off faster than exponentially once k exceeds |x|
    bessel = jv(np.arange(2 * int(a * abs(t)) + 40), a * t)
    n = max(2, np.flatnonzero(np.abs(bessel) > _CHEB_CUTOFF)[-1] + 1)
    c = np.array([2, -2j, -2, 2j])[np.arange(n) % 4] * bessel[:n]
    c[0] /= 2
    phase = np.exp(-1j * b * t)
    cols = src.shape[1]
    # the full H's second hop couples the columns, so it runs as one slab
    slabs = min(_THREADS, cols) if h.hop_y is None else 1
    if slabs == 1:
        return _recurrence(h, src, c, phase)
    # in src's memory order, so H2's slabs write rows of gamma
    out = np.empty_like(src, dtype=np.complex128)

    def run(j: int) -> None:
        s = np.s_[:, cols * j // slabs:cols * (j + 1) // slabs]
        out[s] = _recurrence(Hamiltonian(h.hop_x, None, h.D[s], ()), src[s], c, phase)

    # reading each result raises the first error a slab met
    list(_pool.map(run, range(slabs)))
    return out


def _in_h1_layout(method, op: Hamiltonian, gamma: np.ndarray, t: float) -> np.ndarray:
    """``method`` run with a one-hop operator's blocks on the columns of its
    source: H2 hands it (hop_y, None, D^T, gamma^T) and gets its result
    transposed back, in a C-order copy only where the method did not already
    write gamma's order."""
    flip = op.hop_x is None
    args = (op.hop_y, None, op.D.T, gamma.T) if flip else (op.hop_x, op.hop_y, op.D, gamma)
    out = method(op, *args, t)
    return np.ascontiguousarray(out.T if flip else out)


def _chebyshev_apply(op: Hamiltonian, g: np.ndarray, t: float) -> np.ndarray:
    """The Chebyshev method on any operator, whatever evolve would pick."""
    return _in_h1_layout(_chebyshev, op, g, t)


def evolve(gamma: np.ndarray, op: Hamiltonian, t: float) -> np.ndarray:
    """exp(-i*op*t) applied to the coefficient matrix ``gamma``, as a new
    C-contiguous complex array; negative t reverses the evolution.  Cached
    block eigen for a small stepwise operator, Chebyshev otherwise."""
    if gamma.shape != op.D.shape:
        raise ValueError(f"operator dims {op.D.shape} do not match state "
                         f"dims {gamma.shape}")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t == 0.0:
        return np.array(gamma, dtype=np.complex128, order="C")
    # the block path needs exactly one mobile species, with a b x b hop matrix
    b = [h.shape[0] for h in (op.hop_x, op.hop_y) if h is not None]
    exact = len(b) == 1 and op.dim * b[0] ** 2 <= _EIGEN_WORK_MAX
    return _in_h1_layout(_eigen if exact else _chebyshev, op, gamma, t)
