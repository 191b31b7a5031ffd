"""Independent reference constructions used to check the package.

Everything here is deliberately built the slow, explicit way: creation and
annihilation matrices on the full 2^L one-species space, term-by-term dense
Hamiltonians on the 4^L two-species product space, then projection onto a
fixed particle-number sector.  No code is shared with the package paths
under test.

Term order matters for the entry-identical comparisons: tau hops per edge,
upsilon hops per edge, tau potential per site, upsilon potential per site,
cross coupling per site — the same accumulation order the builders use.
"""

from __future__ import annotations

import itertools

import numpy as np


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


def dense_hamiltonian(sites, edges, j_tau, j_upsilon, u_tau, u_upsilon, u_cross,
                      terms=("hop_tau", "hop_upsilon", "u_tau", "u_upsilon", "cross")):
    """Term-by-term Hamiltonian on the 4^sites product space, accumulated one
    per-site term at a time so diagonal rounding matches scalar accumulation.

    Composite index K = X * 2^sites + Y for tau mask X and upsilon mask Y.
    """
    dim = 1 << sites
    eye = np.eye(dim, dtype=np.complex128)
    full = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    if "hop_tau" in terms:
        full += np.kron(_hop_matrix(sites, edges, j_tau), eye)
    if "hop_upsilon" in terms:
        full += np.kron(eye, _hop_matrix(sites, edges, j_upsilon))
    if "u_tau" in terms:
        for i in range(sites):
            full += u_tau[i] * np.kron(number_matrix(sites, i), eye)
    if "u_upsilon" in terms:
        for i in range(sites):
            full += u_upsilon[i] * np.kron(eye, number_matrix(sites, i))
    if "cross" in terms:
        for i in range(sites):
            full += u_cross * np.kron(number_matrix(sites, i),
                                      number_matrix(sites, i))
    return full


def sector_masks(sites: int, particles: int) -> list[int]:
    return sorted(
        sum(1 << i for i in occ)
        for occ in itertools.combinations(range(sites), particles)
    )


def project_sector(full: np.ndarray, sites: int, n_tau: int,
                   n_upsilon: int) -> np.ndarray:
    """Restrict a 4^sites matrix to the (n_tau, n_upsilon) sector, ordered to
    match the flat composite index m*d_y + n over ascending masks."""
    dim = 1 << sites
    sel = [x * dim + y
           for x in sector_masks(sites, n_tau)
           for y in sector_masks(sites, n_upsilon)]
    return full[np.ix_(sel, sel)]


def sector_hamiltonian(sites, edges, n_tau, n_upsilon, j_tau, j_upsilon,
                       u_tau, u_upsilon, u_cross, terms=None) -> np.ndarray:
    kwargs = {} if terms is None else {"terms": terms}
    full = dense_hamiltonian(sites, edges, j_tau, j_upsilon, u_tau, u_upsilon,
                             u_cross, **kwargs)
    return project_sector(full, sites, n_tau, n_upsilon)


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
