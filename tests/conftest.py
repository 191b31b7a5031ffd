import numpy as np
import pytest

from tsim.fock import enumerate_basis
from tsim.model import Hamiltonian, LatticeSpec, ModelParams
from tsim.observables import measure


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
