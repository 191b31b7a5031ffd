"""Time evolution exp(-i*H*t) applied to state vectors.

Operators are :class:`~tsim.model.Hamiltonian` pieces (hop_x, hop_y, D)
acting on the coefficient matrix gamma.  Small problems are solved exactly
by one cached ``np.linalg.eigh`` call per operator on first use: an operator
of dimension up to ``dense_threshold`` is factored whole, and a stepwise one
with blocks that small has all its blocks (the mobile species' hop matrix
plus one column of D for H1, one row for H2) stacked and factored together.
Each stage propagator U(|t|) is cached too and serves t and -t, and a stage
is one batched matmul on the columns or rows of gamma.  Larger operators,
and stepwise ones with larger blocks, go through a Lanczos Krylov projection
on the whole of gamma, using the structured apply, with full
reorthogonalization, adaptive subspace growth, and time substepping.  No
step renormalizes its output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import Hamiltonian

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


def _eigensystem(op: Hamiltonian, blockwise: bool):
    """(eigenvalues, eigenvectors, stage propagators by |t|) of the stacked
    blocks: one per column of gamma for H1, per row for H2, or the whole
    operator as one block."""
    kind = "blocks" if blockwise else "flat"
    if kind not in op._cache:
        if not blockwise:
            stack = op.to_dense()[None]
        else:
            # block k is the mobile hop matrix plus the diagonal of D's row k
            hop, diag = (op.hop_x, op.D.T) if op.hop_y is None else (op.hop_y, op.D)
            stack = np.repeat(hop.toarray()[None], len(diag), axis=0)
            i = np.arange(hop.shape[0])
            stack[:, i, i] += diag
        op._cache[kind] = (*np.linalg.eigh(stack), {})
    return op._cache[kind]


def _apply_eigen(op: Hamiltonian, amps: np.ndarray, t: float,
                 blockwise: bool) -> np.ndarray:
    w, v, props = _eigensystem(op, blockwise)
    key = abs(t)
    if key not in props:
        if len(props) >= _PROP_CACHE_MAX:
            props.pop(next(iter(props)))
        # V diag(exp(-i*w*t)) V^T by real matmuls, which copy no V to complex
        u = np.empty(v.shape, dtype=np.complex128)
        u.real = (v * np.cos(key * w)[:, None, :]) @ v.swapaxes(1, 2)
        u.imag = (v * -np.sin(key * w)[:, None, :]) @ v.swapaxes(1, 2)
        props[key] = u
    # the blocks of H1 act on the columns of gamma, all others on its rows
    by_column = blockwise and op.hop_y is None
    g = amps.reshape(-1, len(w)).T if by_column else amps.reshape(len(w), -1)
    # V is real, so U(-t) x = conj(U(t) conj(x)) and one propagator serves both
    sub = np.ascontiguousarray(g if t > 0 else g.conj())
    sub = (props[key] @ sub[..., None])[..., 0]
    if t < 0:
        sub = sub.conj()
    return (sub.T if by_column else sub).ravel()


def _lanczos_expv(op: Hamiltonian, v: np.ndarray, t: float,
                  tol: float, max_dim: int) -> tuple[np.ndarray, int, float]:
    """One Krylov solve: w ~= exp(-i*t*H) v, with v assumed unit norm.

    Returns (w, subspace size, residual estimate).  The residual combines the
    beta * |last component of exp(-i*t*T) e1| a posteriori bound with the
    norm of the change between successive approximants.
    """
    basis = [v]
    alphas: list[float] = []
    betas: list[float] = []
    residual = np.inf
    prev_small = None
    for j in range(max_dim):
        w = op.apply(basis[j])
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


def _krylov_apply(op: Hamiltonian, amps: np.ndarray, t: float,
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


def evolve(state: ManyBodyState, op: Hamiltonian, t: float,
           settings: PropagatorSettings = DEFAULT_SETTINGS) -> ManyBodyState:
    """exp(-i*op*t) applied to ``state``; negative t reverses the evolution."""
    return _evolve(state, op, t, settings, blockwise=False)


def evolve_blockwise(state: ManyBodyState, op: Hamiltonian, t: float,
                     settings: PropagatorSettings = DEFAULT_SETTINGS) -> ManyBodyState:
    """Blockwise exp(-i*op*t) for a stepwise operator: each block (one per
    configuration of the frozen species) evolves independently.  Identical
    to :func:`evolve` with the flat operator up to the Krylov tolerance."""
    if (op.hop_x is None) == (op.hop_y is None):
        raise ValueError("blockwise evolution needs exactly one mobile species")
    return _evolve(state, op, t, settings, blockwise=True)


def _evolve(state: ManyBodyState, op: Hamiltonian, t: float,
            settings: PropagatorSettings, blockwise: bool) -> ManyBodyState:
    if op.D.shape != state.dims:
        raise ValueError(
            f"operator dims {op.D.shape} do not match state dims {state.dims}"
        )
    if t == 0.0:
        return ManyBodyState(state.amplitudes.copy(), state.dims)
    # a block of a stepwise operator has the size of its mobile hop matrix
    mobile = op.hop_x if op.hop_y is None else op.hop_y
    block = mobile.shape[0] if blockwise else op.dim
    if block <= settings.dense_threshold:
        out = _apply_eigen(op, state.amplitudes, t, blockwise)
    else:
        out = _krylov_apply(op, state.amplitudes, t, settings)
    return ManyBodyState(out, state.dims)
