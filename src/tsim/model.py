"""Sparse Hermitian lattice Hamiltonians for the two-species fermion model.

Three operators are assembled over the composite basis (tau config m, upsilon
config n) with flat index k = m*d_y + n:

* ``build_full``     — both hopping terms, both on-site potentials, and the
                       on-site inter-species density-density coupling.
* ``build_h1``       — tau mobile, upsilon frozen: tau hopping + tau potential
                       + cross coupling.  Block-diagonal over upsilon configs.
* ``build_h2``       — mirror image: upsilon mobile, tau frozen.

Hopping is intra-species with amplitude +J per bond direction and carries the
fermionic parity sign of the occupied sites strictly between the bond
endpoints (site order fixed by the bit convention).  Cross-species operators
commute: the two species are distinguishable, and since the only inter-species
term is density-density, no cross-species sign convention can affect any
matrix element.

Block tags are (start, stride, count, frozen_mask) index slices into the flat
composite ordering: stride 1 for frozen-tau blocks, stride d_y for
frozen-upsilon blocks.  Together the slices partition [0, d_x*d_y).
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


@dataclass(frozen=True)
class BlockSlice:
    """One diagonal block: flat indices start + stride*[0, count)."""

    start: int
    stride: int
    count: int
    frozen_mask: int

    def indices(self) -> np.ndarray:
        return self.start + self.stride * np.arange(self.count, dtype=np.int64)


@dataclass(eq=False)
class SparseHermitianOperator:
    """Hermitian matrix in coordinate form, optionally tagged with diagonal blocks.

    Immutable after construction; the private fields cache derived data.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    blocks: tuple[BlockSlice, ...] | None = None

    _csr: sp.csr_matrix | None = field(default=None, repr=False)
    _dense: np.ndarray | None = field(default=None, repr=False)
    _norm_bound: float | None = field(default=None, repr=False)
    _prop_cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_entries(cls, dim, rows, cols, vals, blocks=None) -> "SparseHermitianOperator":
        """Canonicalize entries: row-major order, duplicates summed, exact zeros dropped."""
        coo = sp.coo_matrix(
            (np.asarray(vals, dtype=np.complex128),
             (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
            shape=(dim, dim),
        )
        csr = coo.tocsr()
        csr.sum_duplicates()
        csr.eliminate_zeros()
        out = csr.tocoo()
        return cls(
            dim=dim,
            rows=out.row.astype(np.int64),
            cols=out.col.astype(np.int64),
            vals=out.data.astype(np.complex128),
            blocks=blocks,
        )

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def to_csr(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.vals, (self.rows, self.cols)), shape=(self.dim, self.dim)
            )
        return self._csr

    def to_dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = self.to_csr().toarray()
        return self._dense

    def expectation(self, v: np.ndarray) -> float:
        return float(np.vdot(v, self.to_csr() @ v).real)

    def norm_bound(self) -> float:
        """Gershgorin bound on the spectral radius: max absolute row sum."""
        if self._norm_bound is None:
            if self.nnz == 0:
                self._norm_bound = 0.0
            else:
                sums = np.zeros(self.dim)
                np.add.at(sums, self.rows, np.abs(self.vals))
                self._norm_bound = float(sums.max())
        return self._norm_bound

    def is_hermitian(self) -> bool:
        """Exact check: entry list equals its conjugate transpose, no tolerance."""
        a = self.to_csr()
        diff = (a - a.conjugate().transpose().tocsr()).tocoo()
        return diff.nnz == 0 or bool(np.all(diff.data == 0))

    def extract_block(self, block: BlockSlice) -> np.ndarray:
        """Dense submatrix of one tagged block."""
        idx = block.indices()
        return self.to_csr()[idx][:, idx].toarray()

    def validate_blocks(self) -> None:
        """Check that block slices partition [0, dim) and confine every entry."""
        if self.blocks is None:
            raise ValueError("operator has no block tags")
        all_idx = np.concatenate([b.indices() for b in self.blocks])
        if not np.array_equal(np.sort(all_idx), np.arange(self.dim)):
            raise ValueError("block slices do not partition the index space")
        owner = np.empty(self.dim, dtype=np.int64)
        for b_id, b in enumerate(self.blocks):
            owner[b.indices()] = b_id
        if self.nnz and np.any(owner[self.rows] != owner[self.cols]):
            raise ValueError("entry couples two different blocks")

    def to_coordinate_text(self) -> str:
        """Export as text: header 'dim nnz', then 'row col re im' per entry."""
        lines = [f"{self.dim} {self.nnz}"]
        for r, c, v in zip(self.rows, self.cols, self.vals):
            lines.append(f"{r} {c} {v.real:.17g} {v.imag:.17g}")
        return "\n".join(lines) + "\n"


def hop_sign(mask: int, i: int, j: int) -> int:
    """Fermionic parity sign for a hop between sites i and j of ``mask``.

    Counts occupied sites strictly between the endpoints under the fixed
    site order; the endpoints themselves do not contribute.
    """
    if i > j:
        i, j = j, i
    between = (1 << j) - (1 << (i + 1))
    return -1 if bin(mask & between).count("1") & 1 else 1


def _hop_table(basis: FockBasis, edges) -> list[list[tuple[int, int]]]:
    """Per config index, the list of (target index, parity sign) single hops."""
    index = {c: r for r, c in enumerate(basis.configs)}
    table: list[list[tuple[int, int]]] = []
    for mask in basis.configs:
        hops = []
        for i, j in edges:
            bi = (mask >> i) & 1
            bj = (mask >> j) & 1
            if bi == bj:
                continue
            target = mask ^ (1 << i) ^ (1 << j)
            hops.append((index[target], hop_sign(mask, i, j)))
        table.append(hops)
    return table


def effective_potential(frozen_mask: int, params: ModelParams, species: str) -> tuple[float, ...]:
    """Per-site potential seen by the mobile ``species`` given the other
    species frozen in ``frozen_mask``: base potential plus u_cross on each
    occupied site of the frozen config."""
    if species == TAU:
        base = params.u_tau
    elif species == UPSILON:
        base = params.u_upsilon
    else:
        raise ValueError(f"species must be one of {SPECIES}, got {species!r}")
    sites = len(base)
    if frozen_mask < 0 or frozen_mask >> sites:
        raise ValueError(f"mask {frozen_mask:#x} has bits outside {sites} sites")
    return tuple(
        base[i] + (params.u_cross if (frozen_mask >> i) & 1 else 0.0)
        for i in range(sites)
    )


def _check_geometry(lattice: LatticeSpec, params: ModelParams,
                    basis_tau: FockBasis, basis_upsilon: FockBasis) -> None:
    if basis_tau.sites != lattice.sites or basis_upsilon.sites != lattice.sites:
        raise ValueError(
            f"bases on {basis_tau.sites}/{basis_upsilon.sites} sites do not "
            f"match lattice with {lattice.sites}"
        )
    if len(params.u_tau) != lattice.sites or len(params.u_upsilon) != lattice.sites:
        raise ValueError("potential sequences must have one entry per site")


def _hop_entries_tau(table, j, d_y, rows, cols, vals):
    # tau hop m -> m2 appears once per frozen upsilon index n
    n_idx = np.arange(d_y, dtype=np.int64)
    for m, hops in enumerate(table):
        for m2, sign in hops:
            rows.append(m2 * d_y + n_idx)
            cols.append(m * d_y + n_idx)
            vals.append(np.full(d_y, j * sign, dtype=np.complex128))


def _hop_entries_upsilon(table, j, d_x, d_y, rows, cols, vals):
    m_idx = np.arange(d_x, dtype=np.int64) * d_y
    for n, hops in enumerate(table):
        for n2, sign in hops:
            rows.append(m_idx + n2)
            cols.append(m_idx + n)
            vals.append(np.full(d_x, j * sign, dtype=np.complex128))


def _diag_entries(basis_tau, basis_upsilon, params, include, rows, cols, vals):
    """Diagonal part over (m, n), accumulated per site in a fixed term order:
    tau potential, upsilon potential, cross coupling (as selected)."""
    occ_x, occ_y = ((np.array(b.configs)[:, None] >> np.arange(b.sites)) & 1 == 1
                    for b in (basis_tau, basis_upsilon))
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
    k = np.flatnonzero(diag)
    rows.append(k)
    cols.append(k)
    vals.append(diag.ravel()[k].astype(np.complex128))


def _assemble(dim, rows, cols, vals, blocks=None) -> SparseHermitianOperator:
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        v = np.concatenate(vals)
    else:
        r = np.empty(0, dtype=np.int64)
        c = np.empty(0, dtype=np.int64)
        v = np.empty(0, dtype=np.complex128)
    return SparseHermitianOperator.from_entries(dim, r, c, v, blocks=blocks)


def build_full(lattice: LatticeSpec, params: ModelParams,
               basis_tau: FockBasis, basis_upsilon: FockBasis) -> SparseHermitianOperator:
    """Full Hamiltonian: both hoppings, both potentials, cross coupling."""
    _check_geometry(lattice, params, basis_tau, basis_upsilon)
    d_x, d_y = basis_tau.dim, basis_upsilon.dim
    rows, cols, vals = [], [], []
    _hop_entries_tau(_hop_table(basis_tau, lattice.edges), params.j_tau, d_y,
                     rows, cols, vals)
    _hop_entries_upsilon(_hop_table(basis_upsilon, lattice.edges), params.j_upsilon,
                         d_x, d_y, rows, cols, vals)
    _diag_entries(basis_tau, basis_upsilon, params,
                  ("u_tau", "u_upsilon", "cross"), rows, cols, vals)
    return _assemble(d_x * d_y, rows, cols, vals)


def build_h1(lattice: LatticeSpec, params: ModelParams,
             basis_tau: FockBasis, basis_upsilon: FockBasis) -> SparseHermitianOperator:
    """First-step Hamiltonian: tau mobile, upsilon frozen.

    Block-diagonal over upsilon configs; block n acts on indices n + d_y*[0, d_x)
    and is the tau Hamiltonian with potential u_tau + u_cross*occupancy(y_n).
    """
    _check_geometry(lattice, params, basis_tau, basis_upsilon)
    d_x, d_y = basis_tau.dim, basis_upsilon.dim
    rows, cols, vals = [], [], []
    _hop_entries_tau(_hop_table(basis_tau, lattice.edges), params.j_tau, d_y,
                     rows, cols, vals)
    _diag_entries(basis_tau, basis_upsilon, params, ("u_tau", "cross"),
                  rows, cols, vals)
    blocks = tuple(
        BlockSlice(start=n, stride=d_y, count=d_x, frozen_mask=y)
        for n, y in enumerate(basis_upsilon.configs)
    )
    return _assemble(d_x * d_y, rows, cols, vals, blocks=blocks)


def build_h2(lattice: LatticeSpec, params: ModelParams,
             basis_tau: FockBasis, basis_upsilon: FockBasis) -> SparseHermitianOperator:
    """Second-step Hamiltonian: upsilon mobile, tau frozen.

    Block-diagonal over tau configs; block m acts on the contiguous range
    [m*d_y, (m+1)*d_y).
    """
    _check_geometry(lattice, params, basis_tau, basis_upsilon)
    d_x, d_y = basis_tau.dim, basis_upsilon.dim
    rows, cols, vals = [], [], []
    _hop_entries_upsilon(_hop_table(basis_upsilon, lattice.edges), params.j_upsilon,
                         d_x, d_y, rows, cols, vals)
    _diag_entries(basis_tau, basis_upsilon, params, ("u_upsilon", "cross"),
                  rows, cols, vals)
    blocks = tuple(
        BlockSlice(start=m * d_y, stride=1, count=d_y, frozen_mask=x)
        for m, x in enumerate(basis_tau.configs)
    )
    return _assemble(d_x * d_y, rows, cols, vals, blocks=blocks)


def weighted_sum(ops: list[SparseHermitianOperator],
                 weights: list[float]) -> SparseHermitianOperator:
    """Real-weighted sum of operators on a common index space (blocks dropped)."""
    if not ops or len(ops) != len(weights):
        raise ValueError("need matching, nonempty operator and weight lists")
    dim = ops[0].dim
    if any(op.dim != dim for op in ops):
        raise ValueError("operator dimensions differ")
    acc = sum((w * op.to_csr() for op, w in zip(ops, weights)),
              sp.csr_matrix((dim, dim), dtype=np.complex128))
    coo = acc.tocoo()
    return SparseHermitianOperator.from_entries(dim, coo.row, coo.col, coo.data)
