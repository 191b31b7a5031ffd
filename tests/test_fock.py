import itertools
import tracemalloc
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
    assert basis.configs.tolist() == [0]
    assert basis.dim == 1


def test_single_particle_order():
    basis = enumerate_basis(3, 1)
    assert basis.configs.tolist() == [0b001, 0b010, 0b100]


def test_configs_match_enumerate_and_sort_oracle():
    basis = enumerate_basis(4, 2)
    expected = sorted(
        sum(1 << i for i in occ) for occ in itertools.combinations(range(4), 2)
    )
    assert list(basis.configs) == expected == [0b0011, 0b0101, 0b0110, 0b1001,
                                               0b1010, 0b1100]


def test_minimal_mask_has_rank_zero():
    basis = enumerate_basis(7, 3)
    assert basis.configs[0] == 0b0000111
    assert basis.configs.tolist().index(0b0000111) == 0


def test_configs_is_one_read_only_int64_array():
    basis = enumerate_basis(7, 3)
    configs = basis.configs
    assert isinstance(configs, np.ndarray)
    assert configs.dtype == np.int64 and configs.shape == (comb(7, 3),)
    assert configs.flags.c_contiguous and not configs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        configs[0] = 0


def test_bases_compare_and_hash_by_counts():
    a, b = enumerate_basis(6, 2), enumerate_basis(6, 2)
    assert a.configs is not b.configs
    assert a == b and hash(a) == hash(b)
    assert len({a, b, enumerate_basis(6, 3), enumerate_basis(5, 2)}) == 3


def test_enumeration_peaks_at_its_masks():
    # the masks take 8 bytes each; enumerating them may take little more
    tracemalloc.start()
    try:
        basis = enumerate_basis(20, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.dim == 184_756
    assert peak <= 9 * basis.dim


def test_invalid_arguments():
    with pytest.raises(ValueError):
        enumerate_basis(4, 5)
    with pytest.raises(ValueError):
        enumerate_basis(-1, 0)
    with pytest.raises(ValueError):
        enumerate_basis(64, 2)


@given(st.integers(min_value=0, max_value=8), st.data())
def test_enumeration_properties(sites, data):
    particles = data.draw(st.integers(min_value=0, max_value=sites))
    basis = enumerate_basis(sites, particles)
    assert basis.dim == comb(sites, particles)
    assert len(set(basis.configs)) == basis.dim
    assert all(bin(c).count("1") == particles for c in basis.configs)
    assert list(basis.configs) == sorted(basis.configs)
    # the domain-wall initial state is configs[0] of each species
    assert basis.configs[0] == (1 << particles) - 1


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
