"""Time evolution exp(-i*H*t) of a state, the coefficient matrix gamma.

:func:`evolve` returns a new C-contiguous complex128 gamma, never its input.
Past its input checks it lays the operator out and asks :func:`stage_rule`,
the one place that decides and refuses a stage, for the method, the thread
count and the Bessel array's length, and does what the rule returns;
``ProtocolConfig`` asks the same rule about every stage of a run before any
basis exists.  Both methods see one layout, H1's.  A stepwise operator
moves one species, so it is block-diagonal over the frozen one, and H2's
stage is (hop_y, None, D^T) on gamma^T: a one-hop operator's blocks are
always the columns of the method's source.

A stepwise operator with D.size * b**2 (b its hop's dimension) at most
``_EIGEN_WORK_MAX`` is solved exactly by one cached U(|t|), rebuilt when |t|
changes: block k of U is the n-th compound of exp(-i*h_k*|t|), for h_k its
part's L x L one-body block (Thouless, Nucl. Phys. 21, 225 (1960)).  h_k is
real, so each block is complex symmetric, U^T = U: each size's minors are
formed on the triangle S <= A alone and mirrored into U, a chunk of blocks at
a time whose last triangles take at most ``_CHUNK_BYTES``.  U, and the
half-width a of the eigenvalues it is built from, are a function of the
part (hop, pot, n) and |t| alone, so operators that share both share one
array while any of them holds it: H2 takes H1's U when the
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
H couples both axes, but it is real, so T_k(H)(x + iy) = T_k(H) x +
i T_k(H) y: its expansion runs as two real halves, on gamma's real and
imaginary parts, that never exchange data.  Past the bound at which a
one-hop stage leaves the eigen path, D.size * b**2 > ``_EIGEN_WORK_MAX``
with b the first hop's dimension, the halves run on two of the pool's
threads, and below it in turn on the calling thread, so desk and L=8 runs
start no thread; each half does the same arithmetic either way, so the
result is bit-identical at any thread count.  Every buffer a slab or a half
computes in is allocated by the calling thread and handed to it as
C-contiguous views, so a pool thread allocates nothing the size of gamma
and its malloc arena keeps no freed buffer.  No step renormalizes its
output.
What either method derives from an operator, U(|t|) with its a or the
folded interval, lives in ``_DERIVED`` for as long as the operator.
"""

from __future__ import annotations

import math
import os
import weakref
from bisect import bisect_left
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
# each live [|t|, U(|t|), a] by its one-body part (hop, pot, n) and |t|, for
# operators that share both to share one array; it lives while one holds it
_STAGE_U = weakref.WeakValueDictionary()
# what propagation derives from each live operator, by identity: the eigen
# path's [|t|, U, a] as "stage", the Chebyshev fold (h, a, b) as "chebyshev"
_DERIVED = weakref.WeakKeyDictionary()
# Chebyshev terms end at the last Bessel coefficient above _CHEB_CUTOFF
_CHEB_CUTOFF = 1e-15
# outward pad of the spectral interval, relative to H's norm bound: the
# eigenvalues of a dense H fall up to about 4e-16 of its norm outside the
# unpadded exact interval
_SPECTRAL_PAD = 1e-12
# the most slabs a one-hop Chebyshev stage splits into, and the threads the
# full H's two halves take, one thread each of a pool built at import, whose
# threads start on the first split: the usable CPUs where the platform
# reports them (macOS does not), else all CPUs
_THREADS = min(2, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


class _Stage(list):
    """[|t|, U(|t|), a], U the (w, phi) of the part's one eigh until
    ``_eigen`` builds it: a list, which unlike a tuple takes a weak reference."""


def _bessel_length(x: float) -> int:
    """K, the Bessel array's length at x: the first k >= max(2, |x|/2) at
    which (|x|/2)**k / k!, a bound on |J_k(x)| that falls with k past |x|/2,
    is at most ``_CHEB_CUTOFF``, bisected up to 2*int(|x|) + 40."""
    h = abs(x) / 2
    ks = range(max(2, math.ceil(h)), 2 * int(abs(x)) + 41)
    return ks[bisect_left(ks, True, key=lambda k: h == 0 or k * math.log(h)
                          - math.lgamma(k + 1) <= math.log(_CHEB_CUTOFF))]


def stage_rule(shape: tuple, b: int, coupled: bool, width, t: float
               ) -> tuple[str, int, int]:
    """The method, thread count and Bessel array length K of a stage in H1's
    layout, D's ``shape`` and b its mobile hop's dimension, ``coupled`` when
    a second hop couples the columns, at t; ``width(method)`` gives the
    half-width a that the method derives, or a bound on it.  One hop with
    D.size * b**2 at most ``_EIGEN_WORK_MAX`` takes the eigen path on the
    calling thread; else Chebyshev, a one-hop stage on up to ``_THREADS``
    column slabs, the full H's halves on the pool past that bound.  Refused:
    an a that is not finite, or a*|t| of 2**52 or more, where a phase keeps
    no significant bit; 24*K bytes of Bessel and coefficient arrays past
    physical memory.  It allocates no array."""
    big = shape[0] * shape[1] * b * b > _EIGEN_WORK_MAX
    method = "chebyshev" if coupled or big else "eigen"
    a = width(method)
    x = a * abs(t)  # not below 2**52 when a is inf or nan
    terms = _bessel_length(x) if method == "chebyshev" and x < 2**52 else 0
    if not x < 2**52 or 24 * terms > _PHYSICAL_BYTES:
        raise ValueError(f"t = {t}: " + (
            f"no phase resolves the spectral half-width a = {a}" if method == "eigen"
            else f"the Chebyshev expansion over the spectral half-width a = {a} "
            "needs too many terms"))
    return method, (_THREADS if coupled else min(_THREADS, shape[1])) if big else 1, terms


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


def _eigen_stage(op: Hamiltonian, t: float) -> _Stage:
    """op's [|t|, U, a]: its own, a live one of its part, else a new one in
    ``_STAGE_U`` from the one eigh of the part's blocks, which lives while
    its caller holds it."""
    found = _DERIVED.setdefault(op, {}).get("stage")
    if found is None or found[0] != abs(t):
        hop, pot, n = op.parts[0]
        part = (abs(t), n, pot.shape, hop.tobytes(), pot.tobytes())
        if (found := _STAGE_U.get(part)) is None:
            w, phi = np.linalg.eigh(hop + pot[:, :, None] * np.eye(len(hop)))
            lo, hi = _interval([(w, n)])
            found = _STAGE_U[part] = _Stage([abs(t), (w, phi), (hi - lo) / 2])
    return found


def _eigen(op: Hamiltonian, src: np.ndarray, t: float) -> np.ndarray:
    stage = _eigen_stage(op, t)
    if isinstance(u := stage[1], tuple):  # U is built from the part's eigh
        w, phi = u
        one = (phi * np.exp(-1j * abs(t) * w)[:, None, :]) @ phi.swapaxes(1, 2)
        u = np.empty((len(one), len(src), len(src)), dtype=np.complex128)
        # a block's triangle holds C (C + 1) / 2 complex minors
        step = max(1, _CHUNK_BYTES // (8 * len(src) * (len(src) + 1)))
        for i in range(0, len(u), step):
            _minors(one[i:i + step], *_minor_tables(w.shape[1], op.parts[0][2]),
                    u[i:i + step])
        u.flags.writeable = False  # shared by every operator of the part
        stage[1] = u
    _DERIVED[op]["stage"] = stage
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


def _scratch(shape: tuple, buf: np.ndarray) -> tuple:
    """A real half's scratch for ``_product``, views of the caller's float64
    ``buf`` of rows*cols + cols entries: D*g's (rows, cols) and, for each
    half of the rows, their transposed copy and hop_y's product of it, side
    by side."""
    rows, cols = shape
    step, pieces = (rows + 1) // 2, []
    for r in range(0, rows, step):
        n = min(step, rows - r)
        halves = buf[:2 * cols * n].reshape(2, cols, n)
        pieces.append((np.s_[r:r + n], *halves))
    return buf[:rows * cols].reshape(shape), pieces


def _product(hop_x, hop_y, D: np.ndarray, g: np.ndarray, out: np.ndarray,
             scratch: tuple | None = None):
    """H g into ``out``, for g and out C-contiguous of D's shape; given a
    ``_scratch``, H g less what ``out`` held, the recurrence's T_k over
    T_(k-2).  The hops are real, so they act on g's float64 view (rows,
    2*cols) through ``csr_matvecs``, which adds its product into its output
    in place: hop_x's straight into ``out``.  hop_y reaches only a real g,
    with the scratch, which holds D*g, then, for half of g's rows at a time,
    their transposed copy and hop_y's product of it, made from zero and
    added back, as scipy's ``hop_y @`` computed it."""
    csr_matvecs = _scipy()[0]
    if scratch is None:
        np.multiply(D, g, out=out)
    else:
        np.subtract(np.multiply(D, g, out=scratch[0]), out, out=out)
    gf, of = g.view(np.float64), out.view(np.float64)
    csr_matvecs(*hop_x.shape, gf.shape[1], hop_x.indptr, hop_x.indices,
                hop_x.data, gf, of)
    if hop_y is not None:
        for rows, src, dst in scratch[1]:
            np.copyto(src, g[rows].T)
            dst.fill(0.0)
            csr_matvecs(*hop_y.shape, src.shape[1], hop_y.indptr,
                        hop_y.indices, hop_y.data, src, dst)
            out[rows] += dst.T
    return out


def _recurrence(h: tuple, src: np.ndarray, c: np.ndarray, phase: complex,
                work) -> np.ndarray:
    """phase * sum_k c_k T_k(h) src with T_k = h T_(k-1) - T_(k-2), T_1 =
    h src / 2, for h a one-hop stage's folded (hop, None, D), into the last
    of ``work``, four C-contiguous complex buffers shaped like src that the
    caller allocated: three rotating ones, the first a copy of src, and the
    accumulator, which it returns.  It allocates no buffer of its own, so a
    slab thread's heap holds nothing once the slab is done."""
    prev, cur, tmp, acc = work
    np.copyto(prev, src)
    _product(*h, prev, cur)
    cur *= 0.5
    np.multiply(c[0], prev, out=acc)
    for k in range(1, len(c)):
        if k > 1:  # T_k over T_(k-2)
            np.subtract(_product(*h, cur, tmp), prev, out=prev)
            prev, cur = cur, prev
        acc += np.multiply(cur, c[k], out=tmp)
    acc *= phase
    return acc


def _half(h: tuple, x: np.ndarray, c: np.ndarray, even: np.ndarray,
          odd: np.ndarray, work: np.ndarray) -> None:
    """The full H's expansion of a real x: sum_k Re(c_k) T_k(h) x over even
    k into ``even`` and sum_k Im(c_k) T_k(h) x over odd k into ``odd``,
    since c_k is real for even k and imaginary for odd k.  ``work`` is the
    caller's float64 buffer of 3*rows*cols + cols entries: T_k is written
    over T_(k-2) in its first two thirds, and the rest is the ``_scratch``
    that each product takes, which also holds each term's weighted copy."""
    prev, cur = work[:2 * x.size].reshape(2, *x.shape)
    np.copyto(prev, x)
    scratch = _scratch(x.shape, work[2 * x.size:])
    cur.fill(0.0)
    _product(*h, prev, cur, scratch)
    cur *= 0.5
    np.multiply(prev, c[0].real, out=even)
    np.multiply(cur, c[1].imag, out=odd)
    term = scratch[0]
    for k in range(2, len(c)):
        _product(*h, cur, prev, scratch)
        prev, cur = cur, prev
        if k % 2:
            odd += np.multiply(cur, c[k].imag, out=term)
        else:
            even += np.multiply(cur, c[k].real, out=term)


def _new_pool() -> None:
    # a forked child inherits the pool but not its threads, so work it
    # queued there would wait forever; it gets a pool of its own
    global _pool
    _pool = ThreadPoolExecutor(_THREADS, thread_name_prefix="tsim-slab")


_new_pool()
os.register_at_fork(after_in_child=_new_pool)


def _interval(spectra) -> tuple[float, float]:
    """Interval [lo, hi] that holds every eigenvalue of an operator whose
    one-body parts have the pairs (w, n) of ``spectra``, w the ascending
    eigenvalues of each h_k, a row per block: each part adds the extreme
    sums of n eigenvalues of its h_k (exact for one part, a Weyl bound for
    several), padded outward by ``_SPECTRAL_PAD`` times the norm bound
    sum(n * max_k ||h_k||)."""
    lo = hi = norm = 0.0
    for w, n in spectra:
        lo += w[:, :n].sum(axis=1).min()
        hi += w[:, w.shape[1] - n:].sum(axis=1).max()
        norm += n * np.abs(w).max()
    pad = _SPECTRAL_PAD * norm
    return float(lo - pad), float(hi + pad)


def _spectral_interval(op: Hamiltonian) -> tuple[float, float]:
    """The ``_interval`` of ``op``'s one-body parts."""
    return _interval((np.linalg.eigvalsh(hop + pot[:, :, None] * np.eye(len(hop))), n)
                     for hop, pot, n in op.parts)


def _fold(op: Hamiltonian, stage: tuple) -> tuple:
    """op's Chebyshev fold (h, a, b): its interval [b - a, b + a], computed
    on op's first call, never for an eigen-path operator, and folded into
    copies of the stage's hops and D as h."""
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
    return derived["chebyshev"]


def _chebyshev(op: Hamiltonian, src: np.ndarray, t: float, threads: int,
               terms: int) -> np.ndarray:
    """exp(-i*t*H) src as exp(-i*b*t) sum_k c_k T_k((H - b)/a) src on the
    operator's spectral interval [b - a, b + a], with c_k = (2 - delta_k0)
    (-i)^k J_k(a*t) up to the last J_k above ``_CHEB_CUTOFF`` of the first
    ``terms``, in one expansion however long t is, on the ``_fold`` (h, a,
    b) of the stage (hop, other, D) in H1's layout, other the full H's
    second hop or None.  src has D's shape, which ``evolve`` checks, and each hop matches D's
    side, which ``Hamiltonian`` checks; ``csr_matvecs`` checks neither.
    More than one thread splits a one-hop stage's src into contiguous column
    slabs on the pool, each writing its columns of the result, and gives the
    full H's two ``_halves`` to the pool.  Every buffer of the recurrence is
    allocated here, on the calling thread: on one thread four arrays, the
    accumulator the result; on slabs one block that holds each slab's four
    side by side."""
    jv = _scipy()[1]
    h, a, b = _DERIVED[op]["chebyshev"]
    bessel = jv(np.arange(terms), a * t)
    n = max(2, np.flatnonzero(np.abs(bessel) > _CHEB_CUTOFF)[-1] + 1)
    c = np.array([2, -2j, -2, 2j])[np.arange(n) % 4] * bessel[:n]
    c[0] /= 2
    phase = np.exp(-1j * b * t)
    if h[1] is not None:
        return _halves(h, src, c, phase, threads)
    if threads == 1:
        # four arrays of gamma's size, the accumulator the result: a block of
        # the other three, mmapped at L=12, reuses no chunk the main heap
        # keeps, and peaked 20 MiB higher there
        prev, cur, acc, tmp = (np.empty(src.shape, np.complex128) for _ in range(4))
        return _recurrence(h, src, c, phase, (prev, cur, tmp, acc))
    (hop, _, D), (rows, cols) = h, src.shape
    # in src's memory order, so H2's slabs write rows of gamma
    out = np.empty_like(src, dtype=np.complex128)
    # one block, which at L=10 stays in the main heap between calls, where
    # arrays of a slab's size go back to the system and fault in again
    work = np.empty(4 * src.size, np.complex128)

    def run(j: int) -> None:
        lo, hi = cols * j // threads, cols * (j + 1) // threads
        s = np.s_[:, lo:hi]
        out[s] = _recurrence((hop, None, D[s]), src[s], c, phase,
                             work[4 * rows * lo:4 * rows * hi].reshape(4, rows, hi - lo))

    # reading each result raises the first error a slab met
    list(_pool.map(run, range(threads)))
    return out


def _halves(h: tuple, src: np.ndarray, c: np.ndarray, phase: complex,
            threads: int) -> np.ndarray:
    """The full H's expansion as two real halves that never exchange data,
    on src's real and imaginary parts, on the pool when ``threads`` > 1,
    else in turn; its four sums give Re = E_x - O_y and Im = E_y + O_x.
    The sums and a set of buffers per thread are allocated here, on the
    calling thread, so halves in turn share one set."""
    sums = np.empty((2, 2, *src.shape))
    parts = (src.real, src.imag)
    work = np.empty((threads, 3 * src.size + src.shape[1]))

    def run(j: int) -> None:
        _half(h, parts[j], c, *sums[j], work[j % threads])

    # reading each result raises the first error a half met
    list((_pool.map if threads > 1 else map)(run, range(2)))
    del work  # before the result is allocated
    (even_x, odd_x), (even_y, odd_y) = sums
    out = np.empty(src.shape, np.complex128)
    out.real = np.subtract(even_x, odd_y, out=even_x)
    out.imag = np.add(even_y, odd_x, out=even_y)
    out *= phase
    return out


def evolve(gamma: np.ndarray, op: Hamiltonian, t: float) -> np.ndarray:
    """exp(-i*op*t) applied to the coefficient matrix ``gamma``, as a new
    C-contiguous complex array; negative t reverses the evolution.  Past the
    input checks it lays the stage out, H2's on gamma^T, asks ``stage_rule``
    once, with the a that the chosen method derives, and runs what the rule
    returns, only ever on a state of op's shape."""
    if gamma.shape != op.D.shape:
        raise ValueError(f"operator dims {op.D.shape} do not match state "
                         f"dims {gamma.shape}")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t == 0.0:
        return np.array(gamma, dtype=np.complex128, order="C")
    # H2 runs in H1's layout, on gamma^T: its hop first, with D^T
    flip = op.hop_x is None
    stage = (op.hop_y, None, op.D.T) if flip else (op.hop_x, op.hop_y, op.D)
    src = gamma.T if flip else gamma
    # what the method derives, with the a it asks about, held until it runs:
    # the eigen path's stage, which _eigen finds again, holds its eigh
    held = []

    def width(method: str) -> float:
        held.append(_fold(op, stage) if method == "chebyshev" else _eigen_stage(op, t))
        return held[0][1 if method == "chebyshev" else 2]

    method, threads, terms = stage_rule(stage[2].shape, stage[0].shape[0],
                                        stage[1] is not None, width, t)
    out = (_eigen(op, src, t) if method == "eigen"
           else _chebyshev(op, src, t, threads, terms))
    return np.ascontiguousarray(out.T if flip else out)
