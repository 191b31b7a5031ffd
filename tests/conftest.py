import numpy as np
import pytest

from tsim.fock import enumerate_basis
from tsim.model import LatticeSpec, ModelParams


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
