import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsim.fock import enumerate_basis


def test_dimension_small():
    assert enumerate_basis(4, 2).dim == 6


def test_vacuum_single_empty_mask():
    basis = enumerate_basis(3, 0)
    assert basis.configs == (0,)
    assert basis.dim == 1


def test_single_particle_order():
    basis = enumerate_basis(3, 1)
    assert basis.configs == (0b001, 0b010, 0b100)


def test_rank_matches_enumerate_and_sort_oracle():
    basis = enumerate_basis(4, 2)
    expected = sorted(
        sum(1 << i for i in occ) for occ in itertools.combinations(range(4), 2)
    )
    assert list(basis.configs) == expected == [0b0011, 0b0101, 0b0110, 0b1001,
                                               0b1010, 0b1100]
    for pos, mask in enumerate(expected):
        assert basis.rank(mask) == pos


def test_minimal_mask_has_rank_zero():
    basis = enumerate_basis(7, 3)
    assert basis.rank(0b0000111) == 0


def test_round_trip_l5_n2():
    basis = enumerate_basis(5, 2)
    for mask in basis.configs:
        assert basis.configs[basis.rank(mask)] == mask
    for idx in range(basis.dim):
        assert basis.rank(basis.configs[idx]) == idx


def test_invalid_arguments():
    with pytest.raises(ValueError):
        enumerate_basis(4, 5)
    with pytest.raises(ValueError):
        enumerate_basis(-1, 0)
    with pytest.raises(ValueError):
        enumerate_basis(64, 2)
    basis = enumerate_basis(4, 2)
    with pytest.raises(ValueError):
        basis.rank(0b0111)  # wrong particle count
    with pytest.raises(ValueError):
        basis.rank(0b10011)  # stray bit beyond 4 sites


@given(st.integers(min_value=0, max_value=8), st.data())
def test_enumeration_properties(sites, data):
    particles = data.draw(st.integers(min_value=0, max_value=sites))
    basis = enumerate_basis(sites, particles)
    assert basis.dim == comb(sites, particles)
    assert len(set(basis.configs)) == basis.dim
    assert all(bin(c).count("1") == particles for c in basis.configs)
    assert list(basis.configs) == sorted(basis.configs)
    for idx, mask in enumerate(basis.configs):
        assert basis.rank(mask) == idx



@pytest.mark.parametrize("sites", range(9))
def test_occupation_table(sites):
    for particles in range(sites + 1):
        basis = enumerate_basis(sites, particles)
        occ = basis.occupations
        assert occ.shape == (basis.dim, sites)
        assert occ.dtype == np.float64
        expected = [[(c >> i) & 1 for i in range(sites)] for c in basis.configs]
        assert np.array_equal(occ, np.array(expected, dtype=np.float64))
        assert basis.occupations is occ
        with pytest.raises(ValueError, match="read-only"):
            occ[:] = 0.5
