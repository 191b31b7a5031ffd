"""Time evolution exp(-i*H*t) of a state, the coefficient matrix gamma.

:func:`evolve` returns a new C-contiguous complex128 gamma, never its input,
and is the one place that decides a stage: right after its input checks it
lays the operator out, picks the method from the operator alone and, for
Chebyshev, the slab count, and hands the method what it decided.  Both
methods see one layout, H1's.  A stepwise operator moves one species, so it
is block-diagonal over the frozen one, and H2's stage is (hop_y, None, D^T)
on gamma^T: a one-hop operator's blocks are always the columns of the
method's source.

A stepwise operator with D.size * b**2 (b its hop's dimension) at most
``_EIGEN_WORK_MAX`` is solved exactly by one cached U(|t|), rebuilt when |t|
changes: block k of U is the n-th compound of exp(-i*h_k*|t|), for h_k its
part's L x L one-body block (Thouless, Nucl. Phys. 21, 225 (1960)).  h_k is
real, so each block is complex symmetric, U^T = U: each size's minors are
formed on the triangle S <= A alone and mirrored into U, a chunk of blocks at
a time whose last triangles take at most ``_CHUNK_BYTES``.  U is a
function of the part (hop, pot, n) and |t| alone, so operators that share
both share one array while any of them holds it: H2 takes H1's U when the
species are interchangeable and t1 = t2.  U serves t and -t, all a cycle
asks of H1 and H2, on the calling thread, where a handoff would cost more
than the matmul.

Every other operator runs the Chebyshev expansion of Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967 (1984), with a term count fixed a priori, on the
interval of ``_spectral_interval``: exact for H1 and H2, a Weyl bound for
the full H.  The operator is real, so each product runs in real arithmetic
on gamma's float64 view inside ``_product``, the one place that computes
H gamma (Kosloff, J. Phys. Chem. 92, 2087 (1988)): both hops, ``model.CSR``
arrays in scipy's canonical order, go through scipy's ``csr_matvecs``
kernel.  scipy loads at the first Chebyshev call, the full H's or a
stepwise operator's past ``_EIGEN_WORK_MAX``, so a run that takes only the
eigen path never imports it.  A one-hop operator's columns evolve on their
own, so ``evolve`` runs them as up to ``_THREADS`` = min(2, usable CPUs)
contiguous slabs on one pool, built at import, whose threads start on the
first split.  The sparse product accumulates each entry in the same order at
any slab width, so the result is bit-identical at any slab count.  The full
H couples both axes and runs as one slab.  No step renormalizes its output.
What either method derives from an operator, U(|t|) or the folded interval,
lives in ``_DERIVED`` for as long as the operator.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import cache, lru_cache

import numpy as np

from .fock import _PHYSICAL_BYTES, enumerate_basis
from .model import Hamiltonian

# a stepwise operator with a larger D.size * b**2 takes Chebyshev, a boundary
# kept so that every operator keeps its method; U takes 16 * D.size * b bytes
_EIGEN_WORK_MAX = 2**28
# U is built a chunk of blocks at a time, whose triangles of n x n minors
# take at most this many bytes: at L=8, 4+4 the build peaks at 1.37 U
_CHUNK_BYTES = 7 * 2**16
# each live U(|t|) by its one-body part (hop, pot, n) and |t|, for operators
# that share both to share one array; it lives while an operator holds it
_STAGE_U = weakref.WeakValueDictionary()
# what propagation derives from each live operator, by identity: the eigen
# path's (|t|, U) as "stage", the Chebyshev fold as "chebyshev"
_DERIVED = weakref.WeakKeyDictionary()
# Chebyshev terms end at the last Bessel coefficient above _CHEB_CUTOFF
_CHEB_CUTOFF = 1e-15
# outward pad of the spectral interval, relative to H's norm bound: the
# eigenvalues of a dense H fall up to about 4e-16 of its norm outside the
# unpadded exact interval
_SPECTRAL_PAD = 1e-12
# the most slabs a one-hop Chebyshev stage splits into, one thread each of a
# pool built at import, whose threads start on the first split: the usable
# CPUs where the platform reports them (macOS does not), else all CPUs
_THREADS = min(2, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _pair(s: np.ndarray, a: np.ndarray, count: int) -> np.ndarray:
    """The index of the pair of r-set indices (s, a) on the triangle of
    pairs (S, A) with S <= A of ``count`` r-sets, row by row, looked up as
    (min, max), since det u[S, A] = det u[A, S] for a symmetric u."""
    lo, hi = np.minimum(s, a), np.maximum(s, a)
    return lo * count - lo * (lo - 1) // 2 + hi - lo


@lru_cache(maxsize=None)
def _minor_tables(sites: int, n: int) -> tuple:
    """Tables of the n x n minors det u[S, A] of a symmetric L x L u over
    ``enumerate_basis(sites, n)``'s masks, on the triangle S <= A of each
    size r = 1..m: per pair and term of the expansion along A's lowest site,
    its (r - 1)-pair and its entry of the flattened u; then each entry's pair
    on the last triangle; past half filling, (-1)^(sum S), for Jacobi's
    det u[S, A] = (-1)^(sum S + sum A) det u conj(det u[S^c, A^c]) of a
    unitary u, m = L - n, complements reversed."""
    m = min(n, sites - n)
    levels, prev = [], np.zeros(1, np.int64)
    for r in range(1, m + 1):
        basis = enumerate_basis(sites, r)
        pick = np.nonzero(basis.occupations)[1].reshape(-1, r)
        rest = np.searchsorted(prev, basis.configs[:, None] ^ (1 << pick))
        s, a = np.triu_indices(basis.dim)
        levels.append((_pair(rest[s], rest[a, :1], len(prev)).T.copy(),
                       (pick[s] * sites + pick[a, :1]).T.copy()))
        prev = basis.configs
    full = _pair(*np.indices((len(prev),) * 2), len(prev))
    if m == n:
        return levels, full, None
    occ = enumerate_basis(sites, n).occupations
    return levels, full[::-1, ::-1].copy(), 1 - 2 * (occ @ np.arange(sites) % 2)


def _minors(u: np.ndarray, levels, full, sign, out: np.ndarray) -> np.ndarray:
    """The minors det u[S, A] of a stack of symmetric unitary u, written
    into ``out``: formed on the triangle S <= A by Laplace expansion along
    A's lowest site, stack last so that each gather takes whole rows, then
    mirrored into the square."""
    flat, minors = u.reshape(len(u), -1).T.copy(), np.ones((1, len(u)), u.dtype)
    for pairs, entries in levels:
        prev = minors
        minors = prev.take(pairs[0], axis=0)
        minors *= flat.take(entries[0], axis=0)
        for q in range(1, len(pairs)):
            term = prev.take(pairs[q], axis=0)
            term *= flat.take(entries[q], axis=0)
            (np.subtract if q % 2 else np.add)(minors, term, out=minors)
    # "clip" writes straight into out, which "raise" would buffer
    np.take(minors.T, full, axis=1, out=out, mode="clip")
    if sign is not None:
        np.conjugate(out, out=out)
        out *= np.linalg.det(u)[:, None, None]
        out *= np.outer(sign, sign)
    return out


def _eigen(op: Hamiltonian, src: np.ndarray, t: float) -> np.ndarray:
    derived = _DERIVED.setdefault(op, {})
    key, u = derived.get("stage", (None, None))
    if key != abs(t):
        hop, pot, n = op.parts[0]
        part = (abs(t), n, pot.shape, hop.tobytes(), pot.tobytes())
        u = _STAGE_U.get(part)
        if u is None:
            w, phi = np.linalg.eigh(hop + pot[:, :, None] * np.eye(len(hop)))
            one = (phi * np.exp(-1j * abs(t) * w)[:, None, :]) @ phi.swapaxes(1, 2)
            u = np.empty((len(one), len(src), len(src)), dtype=np.complex128)
            # a block's triangle holds C (C + 1) / 2 complex minors
            step = max(1, _CHUNK_BYTES // (8 * len(src) * (len(src) + 1)))
            for i in range(0, len(u), step):
                _minors(one[i:i + step], *_minor_tables(len(hop), n), u[i:i + step])
            u.flags.writeable = False  # shared by every operator of the part
            _STAGE_U[part] = u
        derived["stage"] = abs(t), u
    # h is real, so U(-t) = conj(U(t)) and one propagator serves both
    sub = np.ascontiguousarray(src.T if t > 0 else src.T.conj())
    sub = (u @ sub[..., None])[..., 0]
    return (sub.conj() if t < 0 else sub).T


@cache
def _scipy() -> tuple:
    """scipy's private ``csr_matvecs``, the kernel behind ``csr_array @
    dense``, and ``jv``, imported by the first Chebyshev call on the calling
    thread, before any slab starts."""
    from scipy.sparse._sparsetools import csr_matvecs
    from scipy.special import jv
    return csr_matvecs, jv


def _product(hop_x, hop_y, D: np.ndarray, g: np.ndarray, out: np.ndarray,
             pair: np.ndarray | None):
    """H g into ``out``, for g and out C-contiguous complex128 of D's shape.
    The hops are real, so they act on g's float64 view (rows, 2*cols)
    through ``csr_matvecs``, which adds its product into its output in place:
    hop_x's straight into ``out``.  hop_y acts on the real and then the
    imaginary columns, each copied transposed into ``pair[0]``, its product
    made from zero in ``pair[1]`` and added back, as scipy's ``hop_y @``
    computed it; ``pair`` is two float64 buffers of D^T's shape, None
    without hop_y."""
    csr_matvecs = _scipy()[0]
    np.multiply(D, g, out=out)
    gf, of = g.view(np.float64), out.view(np.float64)
    csr_matvecs(*hop_x.shape, gf.shape[1], hop_x.indptr, hop_x.indices,
                hop_x.data, gf.ravel(), of.ravel())
    if hop_y is not None:
        src, dst = pair
        for c in range(2):
            np.copyto(src, gf[:, c::2].T)
            dst.fill(0.0)
            csr_matvecs(*hop_y.shape, src.shape[1], hop_y.indptr,
                        hop_y.indices, hop_y.data, src.ravel(), dst.ravel())
            of[:, c::2] += dst.T
    return out


def _recurrence(h: tuple, src: np.ndarray, c: np.ndarray,
                phase: complex) -> np.ndarray:
    """phase * sum_k c_k T_k(h) src with T_k = h T_(k-1) - T_(k-2), T_1 =
    h src / 2, for h the folded (hop_x, hop_y, D), in three rotating buffers
    and an accumulator, each shaped like src, and with hop_y the pair of
    float64 buffers of src^T's shape that its products share, all allocated
    by the thread that runs it: a slab thread's heap reuses the buffers it
    freed, while at L=10 the calling thread's go back to the system and
    fault in again."""
    prev = np.array(src, dtype=np.complex128, order="C")
    pair = None if h[1] is None else np.empty((2, *prev.shape[::-1]))
    cur = _product(*h, prev, np.empty_like(prev), pair)
    cur *= 0.5
    acc, tmp = c[0] * prev, np.empty_like(prev)
    for k in range(1, len(c)):
        if k > 1:  # T_k over T_(k-2)
            np.subtract(_product(*h, cur, tmp, pair), prev, out=prev)
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


def _spectral_interval(op: Hamiltonian) -> tuple[float, float]:
    """Interval [lo, hi] that holds every eigenvalue of ``op``: each part
    adds the extreme sums of n eigenvalues of its h_k (exact for one part, a
    Weyl bound for several), padded outward by ``_SPECTRAL_PAD`` times the
    norm bound sum(n * max_k ||h_k||)."""
    lo = hi = norm = 0.0
    for hop, pot, n in op.parts:
        w = np.linalg.eigvalsh(hop + pot[:, :, None] * np.eye(len(hop)))
        lo += w[:, :n].sum(axis=1).min()
        hi += w[:, w.shape[1] - n:].sum(axis=1).max()
        norm += n * np.abs(w).max()
    pad = _SPECTRAL_PAD * norm
    return float(lo - pad), float(hi + pad)


def _chebyshev(op: Hamiltonian, stage: tuple, src: np.ndarray, t: float,
               slabs: int) -> np.ndarray:
    """exp(-i*t*H) src as exp(-i*b*t) sum_k c_k T_k((H - b)/a) src on the
    operator's spectral interval [b - a, b + a], with c_k = (2 - delta_k0)
    (-i)^k J_k(a*t), in one expansion however long t is.  ``evolve`` hands
    over the stage (hop, other, D) in H1's layout, other the full H's second
    hop or None, and the count of slabs it runs as.  The interval is computed
    here, on the operator's first call, never for an eigen-path operator, and
    folded into copies of the stage's hops and D; src has D's shape, which
    ``evolve`` checks, and each hop matches D's side, which ``Hamiltonian``
    checks; ``csr_matvecs`` checks neither.  t is refused, naming a and t,
    before any term is built when a*|t| reaches 2**52, where a phase keeps
    no significant bit, or when the coefficients would outgrow physical
    memory.  More than one slab splits src into contiguous column slabs on
    the pool's threads, each writing its columns of the result."""
    jv = _scipy()[1]
    derived = _DERIVED.setdefault(op, {})
    if "chebyshev" not in derived:
        lo, hi = _spectral_interval(op)
        # a point interval means H = b, and then any half-width bounds it
        a, b = (hi - lo) / 2 or 1.0, (hi + lo) / 2
        *hops, D = stage
        D = np.subtract(D, b, order="C")
        D *= 2 / a
        h = (*[None if x is None else replace(x, data=2 / a * x.data)
               for x in hops], D)
        derived["chebyshev"] = h, a, b
    h, a, b = derived["chebyshev"]
    # the Bessel and coefficient arrays take 24 bytes a term
    if not a * abs(t) < 2**52 or 24 * (2 * int(a * abs(t)) + 40) > _PHYSICAL_BYTES:
        raise ValueError(f"t = {t}: the Chebyshev expansion over the spectral "
                         f"half-width a = {a} needs too many terms")
    # J_k(x) falls off faster than exponentially once k exceeds |x|
    bessel = jv(np.arange(2 * int(a * abs(t)) + 40), a * t)
    n = max(2, np.flatnonzero(np.abs(bessel) > _CHEB_CUTOFF)[-1] + 1)
    c = np.array([2, -2j, -2, 2j])[np.arange(n) % 4] * bessel[:n]
    c[0] /= 2
    phase = np.exp(-1j * b * t)
    if slabs == 1:
        return _recurrence(h, src, c, phase)
    (hop, _, D), cols = h, src.shape[1]
    # in src's memory order, so H2's slabs write rows of gamma
    out = np.empty_like(src, dtype=np.complex128)

    def run(j: int) -> None:
        s = np.s_[:, cols * j // slabs:cols * (j + 1) // slabs]
        out[s] = _recurrence((hop, None, D[s]), src[s], c, phase)

    # reading each result raises the first error a slab met
    list(_pool.map(run, range(slabs)))
    return out


def evolve(gamma: np.ndarray, op: Hamiltonian, t: float) -> np.ndarray:
    """exp(-i*op*t) applied to the coefficient matrix ``gamma``, as a new
    C-contiguous complex array; negative t reverses the evolution.  Past the
    input checks it decides the stage: H2's layout on gamma^T, the method,
    cached block eigen for a small stepwise operator or Chebyshev, and
    Chebyshev's slab count; either runs only on a state of op's shape."""
    if gamma.shape != op.D.shape:
        raise ValueError(f"operator dims {op.D.shape} do not match state "
                         f"dims {gamma.shape}")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t == 0.0:
        return np.array(gamma, dtype=np.complex128, order="C")
    # H2 runs in H1's layout, on gamma^T: its hop first, with D^T
    flip = op.hop_x is None
    hop, other, D = (op.hop_y, None, op.D.T) if flip else (op.hop_x, op.hop_y, op.D)
    src = gamma.T if flip else gamma
    # the block path needs exactly one mobile hop, of dimension b
    if other is None and D.size * hop.shape[0] ** 2 <= _EIGEN_WORK_MAX:
        out = _eigen(op, src, t)
    else:
        # the full H's second hop couples the columns, so it runs as one slab
        slabs = 1 if other is not None else min(_THREADS, D.shape[1])
        out = _chebyshev(op, (hop, other, D), src, t, slabs)
    return np.ascontiguousarray(out.T if flip else out)
