"""Lattice Hamiltonians for the two-species fermion model.

A state is the coefficient matrix gamma[m, n] over tau configs m and upsilon
configs n; only the state dump format uses the flat composite index
k = m*d_y + n.  Every operator of the model has one form,
:class:`Hamiltonian` (hop_x, hop_y, D), and acts on gamma as

    H gamma = hop_x @ gamma + (hop_y @ gamma^T)^T + D * gamma

with hop_x (d_x x d_x) and hop_y (d_y x d_y) the single-species hopping
matrices and D the real (d_x, d_y) diagonal of potentials and cross coupling.
A hop is a :class:`CSR`: its entries in compressed sparse rows, in scipy's
canonical order, which scipy's kernel reads as they are.  This module
imports no scipy; ``propagate`` loads it at the first Chebyshev stage, the
full H's or a stepwise operator's past the eigen bound.
Construction checks those shapes; what propagation derives from an operator,
such as its spectral interval, belongs to ``propagate``.

All three operators come from one builder told which species are mobile:
each mobile species contributes its hopping matrix and its on-site
potential, a frozen one neither, and the on-site inter-species
density-density coupling is always in D.

* ``build_full``     — (hop_x, hop_y, D): both species mobile.
* ``build_h1``       — (hop_x, None, D1): tau mobile, upsilon frozen.
                       Block-diagonal over upsilon configs: block n is
                       hop_x + diag(D1[:, n]).
* ``build_h2``       — (None, hop_y, D2): mirror image, upsilon mobile, tau
                       frozen; block m is hop_y + diag(D2[m, :]).

Hopping is intra-species with amplitude +J per bond direction and carries the
fermionic parity sign of the occupied sites strictly between the bond
endpoints (site order fixed by the bit convention).  Cross-species operators
commute: the two species are distinguishable, and since the only inter-species
term is density-density, no cross-species sign convention can affect any
matrix element.

The parity signs are the Jordan-Wigner ones, so with one species frozen each
block is the second quantization of an L x L single-particle matrix (Lieb,
Schultz & Mattis, Ann. Phys. 16, 407 (1961)): see ``Hamiltonian.parts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import MAX_SITES, FockBasis

TAU = "tau"
UPSILON = "upsilon"
SPECIES = (TAU, UPSILON)  # the axis order of gamma


@dataclass(frozen=True)
class LatticeSpec:
    """Site count plus an undirected nearest-neighbor bond list."""

    sites: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError("sites: must be a positive integer")
        if self.sites > MAX_SITES:
            raise ValueError(f"sites: must be at most {MAX_SITES}")
        norm = {}  # each bond as (low, high), in the order given
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"edges: self-loop edge ({i}, {j})")
            if not (0 <= i < self.sites and 0 <= j < self.sites):
                raise ValueError(f"edges: edge ({i}, {j}) outside [0, {self.sites})")
            if (key := (min(i, j), max(i, j))) in norm:
                raise ValueError(f"edges: duplicate edge ({i}, {j})")
            norm[key] = None
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def chain(cls, sites: int) -> "LatticeSpec":
        """Open 1D chain: bonds (i, i+1)."""
        # lazy, so the site rules reject an oversized chain before it is built
        return cls(sites=sites, edges=((i, i + 1) for i in range(sites - 1)))


@dataclass(frozen=True)
class ModelParams:
    """Couplings: hopping energies, per-site potentials, on-site cross coupling."""

    j_tau: float
    j_upsilon: float
    u_tau: tuple[float, ...]
    u_upsilon: tuple[float, ...]
    u_cross: float

    def __post_init__(self):
        for name in ("j_tau", "j_upsilon", "u_cross"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite")
        for name in ("u_tau", "u_upsilon"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{name}: entries must be finite")
            object.__setattr__(self, name, vals)

    @classmethod
    def defaults(cls, sites: int) -> "ModelParams":
        """J = 1 for both species, zero potentials, unit cross coupling."""
        zeros = (0.0,) * sites
        return cls(j_tau=1.0, j_upsilon=1.0, u_tau=zeros, u_upsilon=zeros, u_cross=1.0)


@dataclass(frozen=True, eq=False)
class CSR:
    """A real sparse matrix in compressed sparse rows: row r holds the
    entries data[indptr[r]:indptr[r + 1]] in the columns of the same slice
    of ``indices``, ascending and unique within the row, as in scipy's
    canonical format; ``indptr`` and ``indices`` share one index dtype."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """H = hop_x (x) 1 + 1 (x) hop_y + diag(D) over the composite basis.

    ``hop_x`` and ``hop_y`` are the real single-species hopping matrices
    (None for a frozen species) and ``D`` is the real (d_x, d_y) diagonal.
    ``parts`` writes H as a sum of one-body parts, each a triple
    (hop, pot, n): the L x L single-particle hopping matrix, a (k, L) array
    of on-site potentials, and the particle number n of the species the part
    moves.  Block k of a part is the second quantization of the
    single-particle matrix h_k = hop + diag(pot[k]) on n fermions, so its
    spectrum is the sums of n distinct eigenvalues of h_k.  Immutable, and
    refused unless each hop is square with D's side on its axis, at least one
    is present and ``parts`` holds one part per hop: the propagation kernels
    index gamma by the hops' shapes and check none of them.
    """

    hop_x: CSR | None
    hop_y: CSR | None
    D: np.ndarray
    parts: tuple[tuple[np.ndarray, np.ndarray, int], ...]

    def __post_init__(self):
        if np.ndim(self.D) != 2:
            raise ValueError(f"D: must be 2-D, got shape {np.shape(self.D)}")
        hops = [h for h in (self.hop_x, self.hop_y) if h is not None]
        for name, hop, side in zip(("hop_x", "hop_y"), (self.hop_x, self.hop_y),
                                   self.D.shape):
            if hop is not None and hop.shape != (side, side):
                raise ValueError(f"{name}: shape {hop.shape} does not match "
                                 f"D of shape {self.D.shape}")
        if not hops:
            raise ValueError("operator has no hop")
        if len(self.parts) != len(hops):
            raise ValueError(f"operator has {len(self.parts)} one-body parts "
                             f"for {len(hops)} hops")


def _hop_matrix(basis: FockBasis, lo: np.ndarray, hi: np.ndarray,
                j: float) -> CSR:
    """Single-species hopping over the bonds (lo[e], hi[e]), lo[e] < hi[e]:
    entry (target, source) is j times the parity sign of the hop from config
    ``source`` to config ``target``, -1 when an odd number of sites strictly
    between the bond's ends is occupied.  All (config, bond) pairs are built
    at once, in the order source, then bond, so a stable sort by target
    leaves each row's sources ascending; distinct bonds flip distinct pairs
    of sites, so no two entries share a target and a source."""
    configs, occ = basis.configs, basis.occupations == 1
    # a hop needs exactly one occupied end
    cols, e = np.nonzero(occ[:, lo] != occ[:, hi])
    lo, hi = lo[e], hi[e]
    # occupied sites in (lo, hi): the count through hi - 1 less that through lo
    count = np.cumsum(occ, axis=1)
    odd = (count[cols, hi - 1] - count[cols, lo]) & 1
    rows = np.searchsorted(configs, configs[cols] ^ (1 << lo) ^ (1 << hi))
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(basis.dim + 1, np.intp)
    np.cumsum(np.bincount(rows, minlength=basis.dim), out=indptr[1:])
    return CSR(indptr, cols[order], j * np.where(odd, -1.0, 1.0)[order],
               (basis.dim, basis.dim))


def _build(lattice: LatticeSpec, params: ModelParams, basis_tau: FockBasis,
           basis_upsilon: FockBasis, tau: bool, upsilon: bool) -> Hamiltonian:
    """Hopping and on-site potential of each mobile species, plus the cross
    coupling.  D is accumulated per site in a fixed term order: tau
    potential, upsilon potential, cross coupling.  Each mobile species gives
    one part, j times the adjacency plus its potential; the first also takes
    the cross coupling set by each config of the other species."""
    if basis_tau.sites != lattice.sites or basis_upsilon.sites != lattice.sites:
        raise ValueError(f"bases on {basis_tau.sites}/{basis_upsilon.sites} "
                         f"sites do not match lattice with {lattice.sites}")
    if len(params.u_tau) != lattice.sites or len(params.u_upsilon) != lattice.sites:
        raise ValueError("potential sequences must have one entry per site")
    occ_x, occ_y = (b.occupations == 1 for b in (basis_tau, basis_upsilon))
    # every bond low end first, as ``LatticeSpec`` stores it
    lo, hi = np.array(lattice.edges, dtype=np.intp).reshape(-1, 2).T
    adjacency = np.zeros((lattice.sites, lattice.sites))
    adjacency[lo, hi] = adjacency[hi, lo] = 1.0
    diag = np.zeros((basis_tau.dim, basis_upsilon.dim))
    hops, parts = [], []
    for mobile, basis, other, occ, j, u, axis in (
            (tau, basis_tau, basis_upsilon, occ_x, params.j_tau, params.u_tau,
             np.s_[:, None]),
            (upsilon, basis_upsilon, basis_tau, occ_y, params.j_upsilon,
             params.u_upsilon, np.s_[None, :])):
        hops.append(_hop_matrix(basis, lo, hi, j) if mobile else None)
        if mobile:
            cross = np.zeros((1, lattice.sites)) if parts else other.occupations
            pot = np.asarray(u) + params.u_cross * cross
            parts.append((j * adjacency, pot, basis.particles))
        for i, ui in enumerate(u if mobile else ()):
            diag += np.where(occ[:, i], ui, 0.0)[axis]
    for i in range(lattice.sites):
        diag += np.where(np.outer(occ_x[:, i], occ_y[:, i]), params.u_cross, 0.0)
    return Hamiltonian(*hops, diag, tuple(parts))


def build_full(lattice: LatticeSpec, params: ModelParams,
               basis_tau: FockBasis, basis_upsilon: FockBasis) -> Hamiltonian:
    """Full Hamiltonian: both hoppings, both potentials, cross coupling."""
    return _build(lattice, params, basis_tau, basis_upsilon, tau=True, upsilon=True)


def build_h1(lattice: LatticeSpec, params: ModelParams,
             basis_tau: FockBasis, basis_upsilon: FockBasis) -> Hamiltonian:
    """First-step Hamiltonian: tau mobile, upsilon frozen.

    Block-diagonal over upsilon configs; block n acts on column n of gamma
    and is hop_x + diag(D[:, n]), the tau Hamiltonian with potential
    u_tau + u_cross*occupancy(y_n).
    """
    return _build(lattice, params, basis_tau, basis_upsilon, tau=True, upsilon=False)


def build_h2(lattice: LatticeSpec, params: ModelParams,
             basis_tau: FockBasis, basis_upsilon: FockBasis) -> Hamiltonian:
    """Second-step Hamiltonian: upsilon mobile, tau frozen.

    Block-diagonal over tau configs; block m acts on row m of gamma and is
    hop_y + diag(D[m, :]).
    """
    return _build(lattice, params, basis_tau, basis_upsilon, tau=False, upsilon=True)
