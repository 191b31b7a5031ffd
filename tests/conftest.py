import numpy as np
import pytest
import scipy.sparse as sp

from tsim import propagate
from tsim.fock import enumerate_basis
from tsim.model import Hamiltonian, LatticeSpec, ModelParams
from tsim.observables import measure
from tsim.propagate import _product


@pytest.fixture
def desk_lattice():
    return LatticeSpec.chain(6)


@pytest.fixture
def desk_params():
    return ModelParams.defaults(6)


@pytest.fixture
def desk_bases():
    return enumerate_basis(6, 2), enumerate_basis(6, 2)


def random_state(dims, seed) -> np.ndarray:
    """A normalized random coefficient matrix gamma of shape ``dims``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    g /= np.abs(g).max()
    return g / np.linalg.norm(g)


def shannon_entropies(gamma) -> tuple[float, float, float]:
    """(S_tau, S_upsilon, S_total) of gamma as ``measure`` reports them, over
    one-particle bases whose dimensions are gamma's."""
    d_x, d_y = gamma.shape
    report = measure(gamma, enumerate_basis(d_x, 1), enumerate_basis(d_y, 1),
                     gamma)
    return report.s_tau, report.s_upsilon, report.s_total


def stepwise_generator(ctx) -> Hamiltonian:
    """Generator of the small-step limit of the alternating (Trotter)
    scheme: the duration-weighted mean of a prepared context's two stepwise
    Hamiltonians."""
    t1, t2 = ctx.config.t1, ctx.config.t2
    w1, w2 = t1 / (t1 + t2), t2 / (t1 + t2)
    return Hamiltonian(w1 * ctx.h1.hop_x, w2 * ctx.h2.hop_y,
                       w1 * ctx.h1.D + w2 * ctx.h2.D,
                       tuple((w * hop, w * pot, n)
                             for w, op in ((w1, ctx.h1), (w2, ctx.h2))
                             for hop, pot, n in op.parts))


def apply(op: Hamiltonian, g) -> np.ndarray:
    """H gamma by the Chebyshev recurrence's product, into a fresh buffer.
    A frozen tau species takes an empty hop, which adds nothing, so H2's
    hop_y acts on the real and the imaginary columns, as the full H's does."""
    d_x = op.D.shape[0]
    hop_x = sp.csr_array((d_x, d_x)) if op.hop_x is None else op.hop_x
    g = np.ascontiguousarray(g, np.complex128)
    return _product(hop_x, op.hop_y, op.D, g, np.empty(op.D.shape, np.complex128))


def chebyshev(gamma, op: Hamiltonian, t: float) -> np.ndarray:
    """``evolve`` by the Chebyshev expansion, whichever method it would pick
    for ``op``: the eigen path's work bound is patched below every
    operator's for the call, which fails unless ``_chebyshev`` ran."""
    runs, method = [], propagate._chebyshev

    def counting(*args):
        runs.append(1)
        return method(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_EIGEN_WORK_MAX", 0)
        mp.setattr(propagate, "_chebyshev", counting)
        out = propagate.evolve(gamma, op, t)
    assert runs, "evolve did not run the Chebyshev method"
    return out
