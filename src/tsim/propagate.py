"""Time evolution exp(-i*H*t) applied to state vectors.

Real operators up to ``dense_threshold`` in dimension, and block-tagged ones
with blocks that small, are stacked into blocks (the whole operator is one
block) and factored by one cached ``np.linalg.eigh`` call on first use; each
stage propagator, cached too, serves t and -t, and a stage is one batched
matmul on the state's blocks.  Larger operators, and larger blocks one at a
time, go through a Lanczos Krylov projection with full reorthogonalization,
adaptive subspace growth, and time substepping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import SparseHermitianOperator

_PROP_CACHE_MAX = 8


class PropagationError(RuntimeError):
    """Krylov iteration failed to reach the requested accuracy."""

    def __init__(self, message: str, *, subspace_dim: int, substeps: int,
                 residual: float):
        super().__init__(
            f"{message} (subspace_dim={subspace_dim}, substeps={substeps}, "
            f"residual={residual:.3e})"
        )
        self.subspace_dim = subspace_dim
        self.substeps = substeps
        self.residual = residual


@dataclass(frozen=True)
class PropagatorSettings:
    dense_threshold: int = 512
    krylov_tol: float = 1e-10
    krylov_max_dim: int = 48
    substep_cap: float = 16.0  # max |t| * ||H|| handled by one Krylov solve

    def __post_init__(self):
        if self.dense_threshold <= 0 or self.krylov_max_dim <= 0:
            raise ValueError("dimension settings must be positive")
        if self.substep_cap <= 0:
            raise ValueError("substep_cap must be positive")
        if self.krylov_tol < 1e-14:
            raise ValueError("krylov_tol below 1e-14 is not achievable")


DEFAULT_SETTINGS = PropagatorSettings()


@dataclass(frozen=True)
class ManyBodyState:
    """Normalized amplitude vector over the composite (tau, upsilon) basis."""

    amplitudes: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        d_x, d_y = self.dims
        object.__setattr__(self, "dims", (int(d_x), int(d_y)))
        if amps.shape != (d_x * d_y,):
            raise ValueError(
                f"amplitude length {amps.shape} does not match dims {self.dims}"
            )

    @classmethod
    def normalized(cls, amplitudes, dims) -> "ManyBodyState":
        amps = np.asarray(amplitudes, dtype=np.complex128)
        nrm = np.linalg.norm(amps)
        if nrm == 0.0 or not np.isfinite(nrm):
            raise ValueError("amplitudes are not normalizable")
        return cls(amplitudes=amps / nrm, dims=tuple(dims))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def gamma(self) -> np.ndarray:
        """Coefficient matrix view: gamma[m, n] over (tau, upsilon) configs."""
        return self.amplitudes.reshape(self.dims)


def _eigensystem(op: SparseHermitianOperator, blockwise: bool):
    """(gather index, eigenvalues, eigenvectors, stage propagators by |t|);
    row k of the (n_blocks, b) gather index lists the indices of block k."""
    kind = "blocks" if blockwise else "flat"
    if kind not in op._prop_cache:
        if op.vals.imag.any():
            raise ValueError("exact propagation needs a real symmetric operator")
        if blockwise:
            op.validate_blocks()
            idx = np.array([blk.indices() for blk in op.blocks])
        else:
            idx = np.arange(op.dim)[None, :]
        b = idx.shape[1]
        pos = np.argsort(idx.ravel())  # flat index -> position in the stack
        stack = np.zeros((len(idx), b, b))
        np.add.at(stack, (pos[op.rows] // b, pos[op.rows] % b, pos[op.cols] % b),
                  op.vals.real)
        op._prop_cache[kind] = (idx, *np.linalg.eigh(stack), {})
    return op._prop_cache[kind]


def _apply_eigen(op: SparseHermitianOperator, amps: np.ndarray, t: float,
                 blockwise: bool) -> np.ndarray:
    idx, w, v, props = _eigensystem(op, blockwise)
    key = abs(t)
    if key not in props:
        if len(props) >= _PROP_CACHE_MAX:
            props.pop(next(iter(props)))
        # V diag(exp(-i*w*t)) V^T by real matmuls, which copy no V to complex
        u = np.empty(v.shape, dtype=np.complex128)
        u.real = (v * np.cos(key * w)[:, None, :]) @ v.swapaxes(1, 2)
        u.imag = (v * -np.sin(key * w)[:, None, :]) @ v.swapaxes(1, 2)
        props[key] = u
    # V is real, so U(-t) x = conj(U(t) conj(x)) and one propagator serves both
    sub = amps[idx] if t > 0 else amps[idx].conj()
    sub = (props[key] @ sub[..., None])[..., 0]
    out = np.empty_like(amps)
    out[idx] = sub if t > 0 else sub.conj()
    return out


def _lanczos_expv(op: SparseHermitianOperator, v: np.ndarray, t: float,
                  tol: float, max_dim: int) -> tuple[np.ndarray, int, float]:
    """One Krylov solve: w ~= exp(-i*t*H) v, with v assumed unit norm.

    Returns (w, subspace size, residual estimate).  The residual combines the
    beta * |last component of exp(-i*t*T) e1| a posteriori bound with the
    norm of the change between successive approximants.
    """
    csr = op.to_csr()
    basis = [v]
    alphas: list[float] = []
    betas: list[float] = []
    residual = np.inf
    prev_small = None
    for j in range(max_dim):
        w = csr @ basis[j]
        a = float(np.vdot(basis[j], w).real)
        alphas.append(a)
        w -= a * basis[j]
        if j > 0:
            w -= betas[j - 1] * basis[j - 1]
        # full reorthogonalization; subspaces are small
        for u in basis:
            w -= np.vdot(u, w) * u
        b = float(np.linalg.norm(w))
        evals, evecs = eigh_tridiagonal(np.array(alphas), np.array(betas))
        small = evecs @ (np.exp(-1j * t * evals) * evecs[0])
        if b < 1e-14 * max(1.0, abs(a)):
            # invariant subspace: the projected solution is exact
            return np.stack(basis, axis=1) @ small, j + 1, 0.0
        residual = abs(b * small[-1]) * max(1.0, abs(t))
        if prev_small is not None:
            # orthonormal columns: approximant change is computable in T-space
            change = float(np.linalg.norm(small[:-1] - prev_small)) + abs(small[-1])
            residual = max(residual, change)
            if residual < tol:
                return np.stack(basis, axis=1) @ small, j + 1, residual
        prev_small = small
        betas.append(b)
        basis.append(w / b)
    raise PropagationError(
        "Krylov subspace cap reached without convergence",
        subspace_dim=max_dim, substeps=1, residual=residual,
    )


def _krylov_apply(op: SparseHermitianOperator, amps: np.ndarray, t: float,
                  settings: PropagatorSettings) -> np.ndarray:
    scale = abs(t) * op.norm_bound()
    steps = max(1, int(np.ceil(scale / settings.substep_cap)))
    tol = settings.krylov_tol / (2 * steps)
    out = amps
    for _ in range(steps):
        nrm = np.linalg.norm(out)
        w, _, _ = _lanczos_expv(op, out / nrm, t / steps, tol,
                                settings.krylov_max_dim)
        out = nrm * w
    return out


def evolve(state: ManyBodyState, op: SparseHermitianOperator, t: float,
           settings: PropagatorSettings = DEFAULT_SETTINGS) -> ManyBodyState:
    """exp(-i*op*t) applied to ``state``; negative t reverses the evolution."""
    if op.dim != state.amplitudes.shape[0]:
        raise ValueError(
            f"operator dim {op.dim} does not match state length "
            f"{state.amplitudes.shape[0]}"
        )
    if t == 0.0:
        return ManyBodyState(state.amplitudes.copy(), state.dims)
    if op.dim <= settings.dense_threshold:
        out = _apply_eigen(op, state.amplitudes, t, blockwise=False)
    else:
        out = _krylov_apply(op, state.amplitudes, t, settings)
    out /= np.linalg.norm(out)
    return ManyBodyState(out, state.dims)


def evolve_blockwise(state: ManyBodyState, op: SparseHermitianOperator, t: float,
                     settings: PropagatorSettings = DEFAULT_SETTINGS) -> ManyBodyState:
    """Blockwise exp(-i*op*t): each frozen-configuration block evolves
    independently.  Identical to :func:`evolve` with the flat operator up to
    the Krylov tolerance."""
    if op.blocks is None:
        raise ValueError("operator carries no block tags")
    if op.dim != state.amplitudes.shape[0]:
        raise ValueError(
            f"operator dim {op.dim} does not match state length "
            f"{state.amplitudes.shape[0]}"
        )
    if t == 0.0:
        return ManyBodyState(state.amplitudes.copy(), state.dims)
    if max(b.count for b in op.blocks) <= settings.dense_threshold:
        out = _apply_eigen(op, state.amplitudes, t, blockwise=True)
    else:
        out = state.amplitudes.copy()
        for b in op.blocks:
            idx = b.indices()
            sub = out[idx]
            if not np.any(sub):
                continue
            sub_op = SparseHermitianOperator.from_entries(
                b.count, *_local_entries(op, b)
            )
            out[idx] = _krylov_apply(sub_op, sub, t, settings)
    out /= np.linalg.norm(out)
    return ManyBodyState(out, state.dims)


def _local_entries(op: SparseHermitianOperator, b):
    inside = np.zeros(op.dim, dtype=bool)
    local = np.zeros(op.dim, dtype=np.int64)
    idx = b.indices()
    inside[idx] = True
    local[idx] = np.arange(b.count)
    sel = inside[op.rows] & inside[op.cols]
    return local[op.rows[sel]], local[op.cols[sel]], op.vals[sel]
