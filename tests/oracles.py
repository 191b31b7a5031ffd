"""Independent reference constructions, shared by the test suite and by
``scripts/calibrate_saturation.py``, the brute-force run that calibrates
acceptance criterion 4.  Nothing here imports tsim.

Everything here is deliberately built the slow, explicit way: creation and
annihilation matrices on the full 2^L one-species space, restricted to a
fixed particle-number sector per species, then term-by-term Kronecker
products of those sector matrices for the two-species Hamiltonians; one
sparse single-species sector Hamiltonian is built mask by mask from the same
Jordan-Wigner strings, for lattices where 2^L dense matrices are too slow.
No code is shared with the package paths under test; ``to_dense`` only lays
out a package operator's own matrices densely, for comparison with these.
Criterion 4's monotone rule, ``smoothed_monotone``, is defined here too, so
the suite and its calibration apply one rule.

Term order matters for the entry-identical comparisons: tau hops per edge,
upsilon hops per edge, tau potential per site, upsilon potential per site,
cross coupling per site — the same accumulation order the builders use.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
from scipy.special import stdtrit

# Family-wise level of criterion 4's "never decreases" check.  Neither the
# paper nor the README fixes one; this is the choice made here, the same 1%
# that criterion 3 uses.
MONOTONE_LEVEL = 0.01


def annihilation_matrix(sites: int, site: int) -> np.ndarray:
    """c_site on the full 2^sites space, with the low-bit-first parity string."""
    dim = 1 << sites
    out = np.zeros((dim, dim), dtype=np.complex128)
    for mask in range(dim):
        if (mask >> site) & 1:
            below = mask & ((1 << site) - 1)
            sign = -1.0 if bin(below).count("1") % 2 else 1.0
            out[mask ^ (1 << site), mask] = sign
    return out


def creation_matrix(sites: int, site: int) -> np.ndarray:
    return annihilation_matrix(sites, site).conj().T


def number_matrix(sites: int, site: int) -> np.ndarray:
    dim = 1 << sites
    out = np.zeros((dim, dim), dtype=np.complex128)
    for mask in range(dim):
        if (mask >> site) & 1:
            out[mask, mask] = 1.0
    return out


def _hop_matrix(sites, edges, j):
    dim = 1 << sites
    hop = np.zeros((dim, dim), dtype=np.complex128)
    for i, k in edges:
        ci, ck = annihilation_matrix(sites, i), annihilation_matrix(sites, k)
        hop += j * (ci.conj().T @ ck)
        hop += j * (ck.conj().T @ ci)
    return hop


def hop_sign(mask: int, i: int, j: int) -> int:
    """Fermionic parity sign for a hop between sites i and j of ``mask``:
    -1 when an odd number of sites strictly between the endpoints is
    occupied; the endpoints themselves do not contribute."""
    if i > j:
        i, j = j, i
    between = (1 << j) - (1 << (i + 1))
    return -1 if bin(mask & between).count("1") & 1 else 1


def sector_masks(sites: int, particles: int) -> list[int]:
    return sorted(
        sum(1 << i for i in occ)
        for occ in itertools.combinations(range(sites), particles)
    )


def sector_hamiltonian(sites, edges, n_tau, n_upsilon, j_tau, j_upsilon,
                       u_tau, u_upsilon, u_cross, terms=None) -> np.ndarray:
    """Term-by-term Hamiltonian on the (n_tau, n_upsilon) sector, accumulated
    one per-site term at a time so diagonal rounding matches scalar
    accumulation.

    Each species conserves its particle number, so every 2^sites one-species
    factor is restricted to its sector before the Kronecker product; the
    result is entry for entry the 4^sites product restricted to the sector.
    Composite index m*d_y + n over ascending masks, as in the package.
    """
    if terms is None:
        terms = ("hop_tau", "hop_upsilon", "u_tau", "u_upsilon", "cross")
    sel_x, sel_y = sector_masks(sites, n_tau), sector_masks(sites, n_upsilon)

    def tau(a):
        return np.kron(a[np.ix_(sel_x, sel_x)],
                       np.eye(len(sel_y), dtype=np.complex128))

    def upsilon(a):
        return np.kron(np.eye(len(sel_x), dtype=np.complex128),
                       a[np.ix_(sel_y, sel_y)])

    full = np.zeros((len(sel_x) * len(sel_y),) * 2, dtype=np.complex128)
    if "hop_tau" in terms:
        full += tau(_hop_matrix(sites, edges, j_tau))
    if "hop_upsilon" in terms:
        full += upsilon(_hop_matrix(sites, edges, j_upsilon))
    if "u_tau" in terms:
        for i in range(sites):
            full += u_tau[i] * tau(number_matrix(sites, i))
    if "u_upsilon" in terms:
        for i in range(sites):
            full += u_upsilon[i] * upsilon(number_matrix(sites, i))
    if "cross" in terms:
        for i in range(sites):
            n_i = number_matrix(sites, i)
            full += u_cross * np.kron(n_i[np.ix_(sel_x, sel_x)],
                                      n_i[np.ix_(sel_y, sel_y)])
    return full


def to_dense(h) -> np.ndarray:
    """A package ``Hamiltonian`` (hop_x, hop_y, D) as a dense matrix over
    the flat composite index k = m*d_y + n."""
    d_x, d_y = h.D.shape
    out = np.diag(h.D.ravel())
    if h.hop_x is not None:
        out += np.kron(h.hop_x.toarray(), np.eye(d_y))
    if h.hop_y is not None:
        out += np.kron(np.eye(d_x), h.hop_y.toarray())
    return out


def species_sector_hamiltonian(sites, edges, particles, j, u) -> np.ndarray:
    """One species with hopping j and per-site potential u, restricted to
    ``particles`` particles over ascending masks.  With u = base potential +
    u_cross * occupancy of a frozen configuration of the other species, this
    is one diagonal block of a stepwise Hamiltonian."""
    h = _hop_matrix(sites, edges, j)
    for i in range(sites):
        h += u[i] * number_matrix(sites, i)
    sel = sector_masks(sites, particles)
    return h[np.ix_(sel, sel)]


def stepwise_spectral_extremes(sites, edges, n_mobile, n_frozen, j, u,
                               u_cross) -> tuple[float, float]:
    """Lowest and highest eigenvalue over all diagonal blocks of a stepwise
    Hamiltonian: one :func:`species_sector_hamiltonian` block per config of
    the frozen species, its mobile species with hopping j and potential
    u + u_cross * occupancy of that config, each by dense ``eigvalsh``."""
    lo, hi = np.inf, -np.inf
    for frozen in sector_masks(sites, n_frozen):
        eff = [u[i] + u_cross * ((frozen >> i) & 1) for i in range(sites)]
        w = np.linalg.eigvalsh(
            species_sector_hamiltonian(sites, edges, n_mobile, j, eff))
        lo, hi = min(lo, w[0]), max(hi, w[-1])
    return lo, hi


def sparse_species_hamiltonian(sites, edges, particles, j, u) -> sp.csr_array:
    """:func:`species_sector_hamiltonian` built sparse, for lattices too
    large for 2^sites dense matrices: every mask of the sector gets the hop
    c_dst^dagger c_src along each edge in both directions, signed by the
    Jordan-Wigner strings of c_src on the mask and of c_dst^dagger on the
    mask with src emptied, plus the potential of its occupied sites."""
    masks = [m for m in range(1 << sites) if bin(m).count("1") == particles]
    index = {m: r for r, m in enumerate(masks)}
    rows, cols, vals = [], [], []
    for col, mask in enumerate(masks):
        rows.append(col)
        cols.append(col)
        vals.append(sum(u[i] for i in range(sites) if (mask >> i) & 1))
        for a, b in edges:
            for dst, src in ((a, b), (b, a)):
                if not (mask >> src) & 1 or (mask >> dst) & 1:
                    continue
                emptied = mask ^ (1 << src)
                below = (bin(mask & ((1 << src) - 1)).count("1")
                         + bin(emptied & ((1 << dst) - 1)).count("1"))
                rows.append(index[emptied | (1 << dst)])
                cols.append(col)
                vals.append(-j if below % 2 else j)
    return sp.csr_array((vals, (rows, cols)), shape=(len(masks), len(masks)))


def two_site_hop_amplitudes(j: float, t: float) -> tuple[complex, complex]:
    """Closed form for H = [[0, J], [J, 0]] starting from (1, 0):
    amplitudes (cos Jt, -i sin Jt)."""
    return np.cos(j * t), -1j * np.sin(j * t)


def shannon(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-300]
    return float(-(p * np.log(p)).sum()) if p.size else 0.0


def entanglement_from_vector(vec: np.ndarray, d_x: int, d_y: int) -> float:
    s = np.linalg.svd(vec.reshape(d_x, d_y), compute_uv=False)
    return shannon(s**2)


def densities(gamma: np.ndarray, masks_tau, masks_upsilon,
              sites: int) -> tuple[list[float], list[float]]:
    """Per-site occupancies of each species, summed configuration by
    configuration over the bits of the masks."""
    tau, upsilon = [0.0] * sites, [0.0] * sites
    for m, x in enumerate(masks_tau):
        for n, y in enumerate(masks_upsilon):
            p = abs(gamma[m, n]) ** 2
            for i in range(sites):
                tau[i] += p * ((x >> i) & 1)
                upsilon[i] += p * ((y >> i) & 1)
    return tau, upsilon


def smoothed_monotone(curves):
    """Decide whether the seed-averaged curve, smoothed over 5 points, never
    decreases by more than the seed ensemble can resolve.

    Once an entropy curve saturates, consecutive smoothed values differ by
    zero-mean sampling noise (of order 5e-3 on the desk), so a zero-tolerance
    "never decreases" fails for any realization of these dynamics.  A
    decrease therefore counts only when the ensemble resolves it.

    ``curves`` holds one curve per row, one row per seed.  Each seed's curve
    is smoothed and differenced; the mean of those per-seed differences is
    the difference of the smoothed mean curve.  A mean difference is a
    decrease when it lies more than z standard errors of the mean below zero,
    where z is the one-sided Student-t quantile (n_seeds - 1 degrees of
    freedom) at MONOTONE_LEVEL family-wise over all differences (Bonferroni).
    A difference all seeds share exactly has no spread; it counts as +-inf
    standard errors by its sign, or 0 if it is 0 (one state cannot move).

    Returns (monotone, min mean difference, worst standardized difference,
    bound), the last two in standard errors.
    """
    n_seeds = curves.shape[0]
    kernel = np.ones(5) / 5
    smooth = np.array([np.convolve(c, kernel, mode="valid") for c in curves])
    per_seed = np.diff(smooth, axis=1)
    diffs = per_seed.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        standardized = diffs / (per_seed.std(axis=0, ddof=1) / np.sqrt(n_seeds))
    standardized[np.isnan(standardized)] = 0.0
    # the Student-t quantile scipy.stats.t.ppf computes, without its import
    bound = -float(stdtrit(n_seeds - 1, 1 - MONOTONE_LEVEL / diffs.size))
    worst = float(standardized.min())
    return worst >= bound, float(diffs.min()), worst, bound
