import numpy as np
import pytest

import oracles
from tsim.fock import enumerate_basis
from tsim.model import (LatticeSpec, ModelParams, build_full, build_h1,
                        build_h2, effective_potential, weighted_sum)


def _params(sites, rng=None, **overrides):
    if rng is None:
        base = ModelParams.defaults(sites)
    else:
        base = ModelParams(
            j_tau=float(rng.uniform(0.5, 1.5)),
            j_upsilon=float(rng.uniform(0.5, 1.5)),
            u_tau=tuple(rng.uniform(-1, 1, sites)),
            u_upsilon=tuple(rng.uniform(-1, 1, sites)),
            u_cross=float(rng.uniform(0.5, 2.0)),
        )
    if overrides:
        from dataclasses import replace
        base = replace(base, **overrides)
    return base


def _operators(sites, n_tau, n_upsilon, params, edges=None):
    lattice = LatticeSpec.chain(sites) if edges is None else LatticeSpec(sites, edges)
    bt, bu = enumerate_basis(sites, n_tau), enumerate_basis(sites, n_upsilon)
    return lattice, bt, bu, params


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeSpec(4, ((0, 0),))
    with pytest.raises(ValueError):
        LatticeSpec(4, ((0, 4),))
    with pytest.raises(ValueError):
        LatticeSpec(4, ((0, 1), (1, 0)))
    assert LatticeSpec.chain(4).edges == ((0, 1), (1, 2), (2, 3))


def test_two_site_single_hop():
    lattice, bt, bu, params = _operators(2, 1, 0, _params(2, u_cross=0.0))
    h = build_full(lattice, params, bt, bu)
    assert np.array_equal(h.to_dense(), np.array([[0, 1], [1, 0]], dtype=complex))


def test_single_doubly_occupied_site_energy():
    params = ModelParams(j_tau=0.0, j_upsilon=0.0, u_tau=(0.0, 0.0),
                         u_upsilon=(0.0, 0.0), u_cross=2.0)
    lattice, bt, bu, _ = _operators(2, 1, 1, params)
    h = build_full(lattice, params, bt, bu)
    k = bt.rank(0b01) * bu.dim + bu.rank(0b01)  # both species on site 0
    assert h.to_dense()[k, k] == 2.0


def test_full_matches_dense_oracle_random_params():
    rng = np.random.default_rng(11)
    lattice, bt, bu, params = _operators(4, 1, 1, _params(4, rng))
    h = build_full(lattice, params, bt, bu)
    oracle = oracles.sector_hamiltonian(4, lattice.edges, 1, 1, params.j_tau,
                                        params.j_upsilon, params.u_tau,
                                        params.u_upsilon, params.u_cross)
    assert np.array_equal(h.to_dense(), oracle)


@pytest.mark.parametrize("sites,n_tau,n_upsilon,seed", [
    (2, 1, 1, 0), (3, 1, 2, 1), (3, 2, 2, 2), (4, 2, 1, 3), (4, 2, 2, 4),
    (4, 3, 2, 5),
])
def test_all_operators_match_dense_oracle(sites, n_tau, n_upsilon, seed):
    rng = np.random.default_rng(seed)
    lattice, bt, bu, params = _operators(sites, n_tau, n_upsilon, _params(sites, rng))
    common = (sites, lattice.edges, n_tau, n_upsilon, params.j_tau,
              params.j_upsilon, params.u_tau, params.u_upsilon, params.u_cross)
    pairs = [
        (build_full(lattice, params, bt, bu),
         oracles.sector_hamiltonian(*common)),
        (build_h1(lattice, params, bt, bu),
         oracles.sector_hamiltonian(*common, terms=("hop_tau", "u_tau", "cross"))),
        (build_h2(lattice, params, bt, bu),
         oracles.sector_hamiltonian(*common, terms=("hop_upsilon", "u_upsilon", "cross"))),
    ]
    for op, oracle in pairs:
        assert np.array_equal(op.to_dense(), oracle)
        assert op.is_hermitian()


def test_effective_potential_examples():
    params = ModelParams(j_tau=1.0, j_upsilon=1.0, u_tau=(0.0,) * 4,
                         u_upsilon=(0.0,) * 4, u_cross=2.0)
    assert effective_potential(0b0000, params, "tau") == (0.0, 0.0, 0.0, 0.0)
    assert effective_potential(0b0101, params, "tau") == (2.0, 0.0, 2.0, 0.0)
    u = 3.5
    params = ModelParams(j_tau=1.0, j_upsilon=1.0, u_tau=(0.0,) * 4,
                         u_upsilon=(0.0,) * 4, u_cross=u)
    assert effective_potential(0b1111, params, "tau") == (u, u, u, u)
    params = ModelParams(j_tau=1.0, j_upsilon=1.0, u_tau=(0.0,) * 4,
                         u_upsilon=(1.0, 1.0, 1.0, 1.0), u_cross=3.0)
    assert effective_potential(0b0110, params, "upsilon") == (1.0, 4.0, 4.0, 1.0)


def test_h1_block_diagonal_structure():
    rng = np.random.default_rng(21)
    lattice, bt, bu, params = _operators(4, 2, 2, _params(4, rng))
    h1 = build_h1(lattice, params, bt, bu)
    h1.validate_blocks()
    assert len(h1.blocks) == bu.dim
    # expanded block view is entry-identical to the flat form
    dense = h1.to_dense()
    rebuilt = np.zeros_like(dense)
    for b in h1.blocks:
        idx = b.indices()
        rebuilt[np.ix_(idx, idx)] = h1.extract_block(b)
    assert np.array_equal(dense, rebuilt)
    # each block carries the effective potential of its frozen config
    for b in h1.blocks:
        blk = h1.extract_block(b)
        eff = effective_potential(b.frozen_mask, params, "tau")
        for m, x in enumerate(bt.configs):
            expected = sum(eff[i] for i in range(4) if (x >> i) & 1)
            assert blk[m, m] == pytest.approx(expected, abs=1e-12)


def test_h2_block_count_and_vacuum_reduction():
    rng = np.random.default_rng(22)
    lattice, bt, bu, params = _operators(4, 0, 2, _params(4, rng))
    h2 = build_h2(lattice, params, bt, bu)
    h2.validate_blocks()
    assert len(h2.blocks) == bt.dim == 1
    free = oracles.sector_hamiltonian(4, lattice.edges, 0, 2, params.j_tau,
                                      params.j_upsilon, params.u_tau,
                                      params.u_upsilon, params.u_cross,
                                      terms=("hop_upsilon", "u_upsilon"))
    assert np.array_equal(h2.to_dense(), free)


def test_term_bookkeeping_h1_plus_h2():
    rng = np.random.default_rng(23)
    lattice, bt, bu, params = _operators(4, 1, 1, _params(4, rng))
    h1 = build_h1(lattice, params, bt, bu)
    h2 = build_h2(lattice, params, bt, bu)
    full = build_full(lattice, params, bt, bu)
    cross = oracles.sector_hamiltonian(4, lattice.edges, 1, 1, params.j_tau,
                                       params.j_upsilon, params.u_tau,
                                       params.u_upsilon, params.u_cross,
                                       terms=("cross",))
    lhs = h1.to_dense() + h2.to_dense() - cross
    assert np.allclose(lhs, full.to_dense(), atol=1e-12, rtol=0)


def test_number_conservation():
    rng = np.random.default_rng(24)
    lattice, bt, bu, params = _operators(4, 2, 1, _params(4, rng))
    h = build_full(lattice, params, bt, bu)
    # applying H to any basis vector stays inside the sector by construction;
    # the operator is defined on the sector, so check it mixes nothing outside
    # by verifying hop targets preserve popcounts via the dense oracle match
    # and the matrix is defined on the full sector dimension.
    assert h.dim == bt.dim * bu.dim


def test_dimension_mismatch_rejected():
    lattice = LatticeSpec.chain(4)
    params = ModelParams.defaults(4)
    bt = enumerate_basis(3, 1)
    bu = enumerate_basis(4, 1)
    with pytest.raises(ValueError):
        build_full(lattice, params, bt, bu)
    with pytest.raises(ValueError):
        build_full(lattice, ModelParams.defaults(5), enumerate_basis(4, 1), bu)


def test_weighted_sum():
    rng = np.random.default_rng(25)
    lattice, bt, bu, params = _operators(3, 1, 1, _params(3, rng))
    h1 = build_h1(lattice, params, bt, bu)
    h2 = build_h2(lattice, params, bt, bu)
    mix = weighted_sum([h1, h2], [0.25, 0.75])
    assert np.allclose(mix.to_dense(),
                       0.25 * h1.to_dense() + 0.75 * h2.to_dense(), atol=1e-15)


def test_coordinate_text_export():
    lattice, bt, bu, params = _operators(2, 1, 0, _params(2))
    h = build_full(lattice, params, bt, bu)
    text = h.to_coordinate_text()
    lines = text.strip().split("\n")
    dim, nnz = (int(x) for x in lines[0].split())
    assert dim == 2 and nnz == len(lines) - 1
    rebuilt = np.zeros((dim, dim), dtype=complex)
    for line in lines[1:]:
        r, c, re, im = line.split()
        rebuilt[int(r), int(c)] = float(re) + 1j * float(im)
    assert np.array_equal(rebuilt, h.to_dense())


@pytest.mark.parametrize("sites,n_tau,n_upsilon", [(7, 3, 2), (8, 4, 4)])
def test_diagonal_matches_scalar_accumulation(sites, n_tau, n_upsilon):
    # the scalar per-(m, n), per-site loop in the builders' term order is the
    # reference at sizes the dense oracle cannot reach
    rng = np.random.default_rng(sites)
    lattice, bt, bu, params = _operators(sites, n_tau, n_upsilon, _params(sites, rng))
    terms = {"full": ("u_tau", "u_upsilon", "cross"), "h1": ("u_tau", "cross"),
             "h2": ("u_upsilon", "cross")}
    for name, build in (("full", build_full), ("h1", build_h1), ("h2", build_h2)):
        got = build(lattice, params, bt, bu).to_csr().diagonal()
        expected = np.zeros(bt.dim * bu.dim, dtype=complex)
        for m, x in enumerate(bt.configs):
            for n, y in enumerate(bu.configs):
                diag = 0.0
                for i in range(sites):
                    if "u_tau" in terms[name] and (x >> i) & 1:
                        diag += params.u_tau[i]
                for i in range(sites):
                    if "u_upsilon" in terms[name] and (y >> i) & 1:
                        diag += params.u_upsilon[i]
                for i in range(sites):
                    if ((x & y) >> i) & 1:
                        diag += params.u_cross
                expected[m * bu.dim + n] = diag
        assert np.array_equal(got, expected)
