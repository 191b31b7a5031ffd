"""Lattice Hamiltonians for the two-species fermion model.

A state is the coefficient matrix gamma[m, n] over tau configs m and upsilon
configs n.  Only ``Hamiltonian.to_dense`` and the state dump format use the
flat composite index k = m*d_y + n.  Every operator of the model has one
form, :class:`Hamiltonian` (hop_x, hop_y, D), and acts on gamma as

    H gamma = hop_x @ gamma + (hop_y @ gamma^T)^T + D * gamma

with hop_x (d_x x d_x) and hop_y (d_y x d_y) the single-species hopping
matrices and D the real (d_x, d_y) diagonal of potentials and cross coupling.

* ``build_full``     — (hop_x, hop_y, D): both hopping terms, both on-site
                       potentials, and the on-site inter-species
                       density-density coupling.
* ``build_h1``       — (hop_x, None, D1): tau mobile, upsilon frozen; tau
                       potential + cross coupling.  Block-diagonal over
                       upsilon configs: block n is hop_x + diag(D1[:, n]).
* ``build_h2``       — (None, hop_y, D2): mirror image, upsilon mobile, tau
                       frozen; block m is hop_y + diag(D2[m, :]).

Hopping is intra-species with amplitude +J per bond direction and carries the
fermionic parity sign of the occupied sites strictly between the bond
endpoints (site order fixed by the bit convention).  Cross-species operators
commute: the two species are distinguishable, and since the only inter-species
term is density-density, no cross-species sign convention can affect any
matrix element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis

TAU = "tau"
UPSILON = "upsilon"
SPECIES = (TAU, UPSILON)


@dataclass(frozen=True)
class LatticeSpec:
    """Site count plus an undirected nearest-neighbor bond list."""

    sites: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sites <= 0:
            raise ValueError(f"sites must be positive, got {self.sites}")
        seen = set()
        norm = []
        for e in self.edges:
            i, j = e
            if i == j:
                raise ValueError(f"self-loop edge ({i}, {j})")
            if not (0 <= i < self.sites and 0 <= j < self.sites):
                raise ValueError(f"edge ({i}, {j}) outside [0, {self.sites})")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def chain(cls, sites: int) -> "LatticeSpec":
        """Open 1D chain: bonds (i, i+1)."""
        return cls(sites=sites, edges=tuple((i, i + 1) for i in range(sites - 1)))


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
                raise ValueError(f"{name} must be finite")
        for name in ("u_tau", "u_upsilon"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{name} entries must be finite")
            object.__setattr__(self, name, vals)

    @classmethod
    def defaults(cls, sites: int) -> "ModelParams":
        """J = 1 for both species, zero potentials, unit cross coupling."""
        zeros = (0.0,) * sites
        return cls(j_tau=1.0, j_upsilon=1.0, u_tau=zeros, u_upsilon=zeros, u_cross=1.0)


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """H = hop_x (x) 1 + 1 (x) hop_y + diag(D) over the composite basis.

    ``hop_x`` and ``hop_y`` are the real single-species hopping matrices
    (None for a frozen species) and ``D`` is the real (d_x, d_y) diagonal.
    Immutable; ``_cache`` holds the propagators derived from it.
    """

    hop_x: sp.csr_array | None
    hop_y: sp.csr_array | None
    D: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.D.size

    def apply(self, g: np.ndarray) -> np.ndarray:
        """H gamma for the coefficient matrix gamma[m, n]."""
        out = self.D * g
        if self.hop_x is not None:
            out += self.hop_x @ g
        if self.hop_y is not None:
            out += (self.hop_y @ g.T).T
        return out

    def spectral_bounds(self) -> tuple[float, float]:
        """Gershgorin interval [lo, hi] that holds every eigenvalue: D plus
        or minus the absolute row sums of the hop matrices."""
        r = np.zeros(self.D.shape)
        if self.hop_x is not None:
            r = r + abs(self.hop_x).sum(axis=1)[:, None]
        if self.hop_y is not None:
            r = r + abs(self.hop_y).sum(axis=1)[None, :]
        return float((self.D - r).min()), float((self.D + r).max())

    def to_dense(self) -> np.ndarray:
        """H as a dense matrix over the flat index k = m*d_y + n."""
        d_x, d_y = self.D.shape
        out = np.diag(self.D.ravel())
        if self.hop_x is not None:
            out += np.kron(self.hop_x.toarray(), np.eye(d_y))
        if self.hop_y is not None:
            out += np.kron(np.eye(d_x), self.hop_y.toarray())
        return out


def hop_sign(mask: int, i: int, j: int) -> int:
    """Fermionic parity sign for a hop between sites i and j of ``mask``.

    Counts occupied sites strictly between the endpoints under the fixed
    site order; the endpoints themselves do not contribute.
    """
    if i > j:
        i, j = j, i
    between = (1 << j) - (1 << (i + 1))
    return -1 if bin(mask & between).count("1") & 1 else 1


def _hop_matrix(basis: FockBasis, edges, j: float) -> sp.csr_array:
    """Single-species hopping: entry (target, source) is j times the parity
    sign of the hop from config ``source`` to config ``target``."""
    index = {c: r for r, c in enumerate(basis.configs)}
    rows, cols, vals = [], [], []
    for r, mask in enumerate(basis.configs):
        for i, k in edges:
            if (mask >> i) & 1 != (mask >> k) & 1:
                rows.append(index[mask ^ (1 << i) ^ (1 << k)])
                cols.append(r)
                vals.append(j * hop_sign(mask, i, k))
    return sp.csr_array((np.array(vals, dtype=float), (rows, cols)),
                        shape=(basis.dim, basis.dim))


def _check_geometry(lattice: LatticeSpec, params: ModelParams,
                    basis_tau: FockBasis, basis_upsilon: FockBasis) -> None:
    if basis_tau.sites != lattice.sites or basis_upsilon.sites != lattice.sites:
        raise ValueError(
            f"bases on {basis_tau.sites}/{basis_upsilon.sites} sites do not "
            f"match lattice with {lattice.sites}"
        )
    if len(params.u_tau) != lattice.sites or len(params.u_upsilon) != lattice.sites:
        raise ValueError("potential sequences must have one entry per site")


def _diag_entries(basis_tau, basis_upsilon, params, include) -> np.ndarray:
    """Diagonal over (m, n) as a (d_x, d_y) array, accumulated per site in a
    fixed term order: tau potential, upsilon potential, cross coupling (as
    selected)."""
    occ_x, occ_y = (b.occupations == 1 for b in (basis_tau, basis_upsilon))
    diag = np.zeros((basis_tau.dim, basis_upsilon.dim))
    if "u_tau" in include:
        for i, u in enumerate(params.u_tau):
            diag += np.where(occ_x[:, i], u, 0.0)[:, None]
    if "u_upsilon" in include:
        for i, u in enumerate(params.u_upsilon):
            diag += np.where(occ_y[:, i], u, 0.0)[None, :]
    if "cross" in include:
        for i in range(basis_tau.sites):
            diag += np.where(np.outer(occ_x[:, i], occ_y[:, i]), params.u_cross, 0.0)
    return diag


def build_full(lattice: LatticeSpec, params: ModelParams,
               basis_tau: FockBasis, basis_upsilon: FockBasis) -> Hamiltonian:
    """Full Hamiltonian: both hoppings, both potentials, cross coupling."""
    _check_geometry(lattice, params, basis_tau, basis_upsilon)
    return Hamiltonian(
        _hop_matrix(basis_tau, lattice.edges, params.j_tau),
        _hop_matrix(basis_upsilon, lattice.edges, params.j_upsilon),
        _diag_entries(basis_tau, basis_upsilon, params,
                      ("u_tau", "u_upsilon", "cross")),
    )


def build_h1(lattice: LatticeSpec, params: ModelParams,
             basis_tau: FockBasis, basis_upsilon: FockBasis) -> Hamiltonian:
    """First-step Hamiltonian: tau mobile, upsilon frozen.

    Block-diagonal over upsilon configs; block n acts on column n of gamma
    and is hop_x + diag(D[:, n]), the tau Hamiltonian with potential
    u_tau + u_cross*occupancy(y_n).
    """
    _check_geometry(lattice, params, basis_tau, basis_upsilon)
    return Hamiltonian(
        _hop_matrix(basis_tau, lattice.edges, params.j_tau), None,
        _diag_entries(basis_tau, basis_upsilon, params, ("u_tau", "cross")),
    )


def build_h2(lattice: LatticeSpec, params: ModelParams,
             basis_tau: FockBasis, basis_upsilon: FockBasis) -> Hamiltonian:
    """Second-step Hamiltonian: upsilon mobile, tau frozen.

    Block-diagonal over tau configs; block m acts on row m of gamma and is
    hop_y + diag(D[m, :]).
    """
    _check_geometry(lattice, params, basis_tau, basis_upsilon)
    return Hamiltonian(
        None, _hop_matrix(basis_upsilon, lattice.edges, params.j_upsilon),
        _diag_entries(basis_tau, basis_upsilon, params, ("u_upsilon", "cross")),
    )
