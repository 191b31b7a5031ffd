"""Time evolution exp(-i*H*t) of a state, the coefficient matrix gamma.

:func:`evolve` returns a new C-contiguous complex128 gamma, never its input,
and, as the one caller of both methods, picks one from the operator alone.
Both see one layout, H1's.  A stepwise operator moves one species, so it is
block-diagonal over the frozen one, and H2's method runs on gamma^T: a
one-hop operator's blocks are always the columns of the method's source.

A stepwise operator with dim * b**2 (b its hop's dimension) at most
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
interval of ``Hamiltonian.spectral_bounds``: exact for H1 and H2, a Weyl
bound for the full H.  The operator is real, so each product runs in real
arithmetic on gamma's float64 view inside ``_product``, the one place that
computes H gamma (Kosloff, J. Phys. Chem. 92, 2087 (1988)).  A one-hop
operator's columns evolve on their own, so they run as up to ``_THREADS`` =
min(2, usable CPUs) contiguous slabs on one pool, built at import, whose
threads start on the first split.  The sparse product accumulates each
entry in the same order at any slab width, so the result is bit-identical
at any slab count.  The full H couples both axes and runs as one slab.  No
step renormalizes its output.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
from scipy.sparse._sparsetools import csr_matvecs
from scipy.special import jv

from .fock import enumerate_basis
from .model import Hamiltonian

# a stepwise operator with a larger dim * b**2 takes Chebyshev, a boundary
# kept so that every operator keeps its method; U(|t|) takes 16 * dim * b bytes
_EIGEN_WORK_MAX = 2**28
# U is built a chunk of blocks at a time, whose triangles of n x n minors
# take at most this many bytes: at L=8, 4+4 the build peaks at 1.37 U
_CHUNK_BYTES = 7 * 2**16
# each live U(|t|) by its one-body part (hop, pot, n) and |t|, for operators
# that share both to share one array; it lives while an operator holds it
_STAGE_U = weakref.WeakValueDictionary()
# Chebyshev terms end at the last Bessel coefficient above _CHEB_CUTOFF
_CHEB_CUTOFF = 1e-15
# the most slabs a one-hop Chebyshev stage splits into, one thread each of a
# pool built at import, whose threads start on the first split
_THREADS = min(2, len(os.sched_getaffinity(0)))


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
        masks = np.array(basis.configs, dtype=np.int64)
        pick = np.nonzero(basis.occupations)[1].reshape(-1, r)
        rest = np.searchsorted(prev, masks[:, None] ^ (1 << pick))
        s, a = np.triu_indices(len(masks))
        levels.append((_pair(rest[s], rest[a, :1], len(prev)).T.copy(),
                       (pick[s] * sites + pick[a, :1]).T.copy()))
        prev = masks
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
    key, u = op._cache.get("stage", (None, None))
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
        op._cache["stage"] = abs(t), u
    # h is real, so U(-t) = conj(U(t)) and one propagator serves both
    sub = np.ascontiguousarray(src.T if t > 0 else src.T.conj())
    sub = (u @ sub[..., None])[..., 0]
    if t < 0:
        sub = sub.conj()
    return sub.T


def _product(hop_x, hop_y, D: np.ndarray, g: np.ndarray, out: np.ndarray):
    """H g into ``out``, for g and out C-contiguous complex128 of D's shape.
    The hops are real, so they act on g's float64 view (rows, 2*cols): hop_x
    adds its product into ``out`` in place through scipy's private
    ``csr_matvecs`` (the kernel behind ``csr_array @ dense``), and hop_y acts
    on the real and the imaginary columns, a new array per product."""
    np.multiply(D, g, out=out)
    gf, of = g.view(np.float64), out.view(np.float64)
    csr_matvecs(*hop_x.shape, gf.shape[1], hop_x.indptr, hop_x.indices,
                hop_x.data, gf.ravel(), of.ravel())
    if hop_y is not None:
        for c in range(2):
            of[:, c::2] += (hop_y @ gf[:, c::2].T).T
    return out


def _recurrence(h: tuple, src: np.ndarray, c: np.ndarray,
                phase: complex) -> np.ndarray:
    """phase * sum_k c_k T_k(h) src with T_k = h T_(k-1) - T_(k-2), T_1 =
    h src / 2, for h the folded (hop_x, hop_y, D), in three rotating buffers
    and an accumulator, each shaped like src and allocated by the thread
    that runs it: a slab thread's heap reuses the buffers it freed, while at
    L=10 the calling thread's go back to the system and fault in again."""
    prev = np.array(src, dtype=np.complex128, order="C")
    cur = _product(*h, prev, np.empty_like(prev))
    cur *= 0.5
    acc, tmp = c[0] * prev, np.empty_like(prev)
    for k in range(1, len(c)):
        if k > 1:  # T_k over T_(k-2)
            np.subtract(_product(*h, cur, tmp), prev, out=prev)
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


def _chebyshev(op: Hamiltonian, src: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*t*H) src as exp(-i*b*t) sum_k c_k T_k((H - b)/a) src on the
    operator's spectral interval [b - a, b + a], with c_k = (2 - delta_k0)
    (-i)^k J_k(a*t), in one expansion however long t is.  The interval is
    computed here, on the operator's first call, never for an eigen-path
    operator, and folded into copies of the hops and D in H1's layout, H2's
    as (hop_y, None, D^T); src has D's shape, which ``evolve`` checks and
    ``csr_matvecs`` does not.  A one-hop operator's columns evolve on their
    own, so they run as up to ``_THREADS`` contiguous slabs on the pool's
    threads, each writing its columns of the result."""
    if "chebyshev" not in op._cache:
        lo, hi = op.spectral_bounds()
        # a point interval means H = b, and then any half-width bounds it
        a, b = (hi - lo) / 2 or 1.0, (hi + lo) / 2
        hops, D = ((op.hop_y, None), op.D.T) if op.hop_x is None else (
            (op.hop_x, op.hop_y), op.D)
        D = np.subtract(D, b, order="C")
        D *= 2 / a
        h = (*[None if x is None else 2 / a * x for x in hops], D)
        op._cache["chebyshev"] = h, a, b
    h, a, b = op._cache["chebyshev"]
    hop_x, hop_y, D = h
    # J_k(x) falls off faster than exponentially once k exceeds |x|
    bessel = jv(np.arange(2 * int(a * abs(t)) + 40), a * t)
    n = max(2, np.flatnonzero(np.abs(bessel) > _CHEB_CUTOFF)[-1] + 1)
    c = np.array([2, -2j, -2, 2j])[np.arange(n) % 4] * bessel[:n]
    c[0] /= 2
    phase = np.exp(-1j * b * t)
    cols = src.shape[1]
    # the full H's second hop couples the columns, so it runs as one slab
    slabs = min(_THREADS, cols) if hop_y is None else 1
    if slabs == 1:
        return _recurrence(h, src, c, phase)
    # in src's memory order, so H2's slabs write rows of gamma
    out = np.empty_like(src, dtype=np.complex128)

    def run(j: int) -> None:
        s = np.s_[:, cols * j // slabs:cols * (j + 1) // slabs]
        out[s] = _recurrence((hop_x, None, D[s]), src[s], c, phase)

    # reading each result raises the first error a slab met
    list(_pool.map(run, range(slabs)))
    return out


def evolve(gamma: np.ndarray, op: Hamiltonian, t: float) -> np.ndarray:
    """exp(-i*op*t) applied to the coefficient matrix ``gamma``, as a new
    C-contiguous complex array; negative t reverses the evolution.  Cached
    block eigen for a small stepwise operator, Chebyshev otherwise, H2's on
    gamma^T; either runs only on a state of the operator's shape."""
    if gamma.shape != op.D.shape:
        raise ValueError(f"operator dims {op.D.shape} do not match state "
                         f"dims {gamma.shape}")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    b = [h.shape[0] for h in (op.hop_x, op.hop_y) if h is not None]
    if len(op.parts) != len(b):  # both methods read the spectrum from them
        raise ValueError(f"operator has {len(op.parts)} one-body parts for {len(b)} hops")
    if t == 0.0:
        return np.array(gamma, dtype=np.complex128, order="C")
    # the block path needs exactly one mobile species, with a b x b hop matrix
    exact = len(b) == 1 and op.dim * b[0] ** 2 <= _EIGEN_WORK_MAX
    flip = op.hop_x is None
    out = (_eigen if exact else _chebyshev)(op, gamma.T if flip else gamma, t)
    return np.ascontiguousarray(out.T if flip else out)
