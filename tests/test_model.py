import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tsim.fock import enumerate_basis
from tsim.model import (LatticeSpec, ModelParams, build_full, build_h1,
                        build_h2, hop_sign)
from tsim.protocol import ProtocolConfig, prepare, stepwise_generator


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
        dense = op.to_dense()
        assert np.array_equal(dense, oracle)
        assert np.array_equal(dense, dense.conj().T)


def _effective_potential(frozen, params, species):
    """Per-site potential one mobile particle of ``species`` sees with the
    other species frozen in ``frozen`` on a 4-site chain: the diagonal of
    that frozen configuration's block of the stepwise Hamiltonian."""
    lattice, others = LatticeSpec.chain(4), bin(frozen).count("1")
    if species == "tau":
        bt, bu = enumerate_basis(4, 1), enumerate_basis(4, others)
        return tuple(build_h1(lattice, params, bt, bu).D[:, bu.rank(frozen)])
    bt, bu = enumerate_basis(4, others), enumerate_basis(4, 1)
    return tuple(build_h2(lattice, params, bt, bu).D[bt.rank(frozen), :])


def test_effective_potential_examples():
    params = ModelParams(j_tau=1.0, j_upsilon=1.0, u_tau=(0.0,) * 4,
                         u_upsilon=(0.0,) * 4, u_cross=2.0)
    assert _effective_potential(0b0000, params, "tau") == (0.0, 0.0, 0.0, 0.0)
    assert _effective_potential(0b0101, params, "tau") == (2.0, 0.0, 2.0, 0.0)
    u = 3.5
    params = ModelParams(j_tau=1.0, j_upsilon=1.0, u_tau=(0.0,) * 4,
                         u_upsilon=(0.0,) * 4, u_cross=u)
    assert _effective_potential(0b1111, params, "tau") == (u, u, u, u)
    params = ModelParams(j_tau=1.0, j_upsilon=1.0, u_tau=(0.0,) * 4,
                         u_upsilon=(1.0, 1.0, 1.0, 1.0), u_cross=3.0)
    assert _effective_potential(0b0110, params, "upsilon") == (1.0, 4.0, 4.0, 1.0)


def test_h1_block_diagonal_structure():
    rng = np.random.default_rng(21)
    lattice, bt, bu, params = _operators(4, 2, 2, _params(4, rng))
    dense = build_h1(lattice, params, bt, bu).to_dense()
    d_x, d_y = bt.dim, bu.dim
    rebuilt = np.zeros_like(dense)
    for n, y in enumerate(bu.configs):
        # block n acts on column n of gamma, flat indices n + d_y*[0, d_x), and
        # is the tau Hamiltonian with the effective potential of y
        idx = np.ix_(n + d_y * np.arange(d_x), n + d_y * np.arange(d_x))
        eff = [params.u_tau[i] + params.u_cross * ((y >> i) & 1) for i in range(4)]
        block = oracles.species_sector_hamiltonian(4, lattice.edges, 2,
                                                   params.j_tau, eff)
        assert np.allclose(dense[idx], block, atol=1e-12, rtol=0)
        rebuilt[idx] = dense[idx]
    # the blocks are entry-identical to the flat form, which has nothing else
    assert np.array_equal(dense, rebuilt)


def test_h2_block_count_and_vacuum_reduction():
    rng = np.random.default_rng(22)
    lattice, bt, bu, params = _operators(4, 0, 2, _params(4, rng))
    h2 = build_h2(lattice, params, bt, bu)
    # one tau configuration, so one block: the whole upsilon Hamiltonian
    assert h2.D.shape == (bt.dim, bu.dim) == (1, 6)
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
    # the Trotter generator is the duration-weighted mean of H1 and H2
    rng = np.random.default_rng(25)
    cfg = ProtocolConfig(lattice=LatticeSpec.chain(3), n_tau=1, n_upsilon=1,
                         params=_params(3, rng), t1=0.5, t2=1.5)
    ctx = prepare(cfg)
    mix = stepwise_generator(ctx)
    assert np.allclose(mix.to_dense(),
                       0.25 * ctx.h1.to_dense() + 0.75 * ctx.h2.to_dense(),
                       atol=1e-15)


@pytest.mark.parametrize("sites,n_tau,n_upsilon", [(7, 3, 2), (8, 4, 4)])
def test_diagonal_matches_scalar_accumulation(sites, n_tau, n_upsilon):
    # the scalar per-(m, n), per-site loop in the builders' term order is the
    # reference at sizes the dense oracle cannot reach
    rng = np.random.default_rng(sites)
    lattice, bt, bu, params = _operators(sites, n_tau, n_upsilon, _params(sites, rng))
    terms = {"full": ("u_tau", "u_upsilon", "cross"), "h1": ("u_tau", "cross"),
             "h2": ("u_upsilon", "cross")}
    for name, build in (("full", build_full), ("h1", build_h1), ("h2", build_h2)):
        got = build(lattice, params, bt, bu).D.ravel()
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


@st.composite
def _random_lattice(draw):
    # a random spanning tree over shuffled sites, plus random extra bonds
    sites = draw(st.integers(3, 5))
    order = draw(st.permutations(range(sites)))
    edges = {tuple(sorted((order[k], order[draw(st.integers(0, k - 1))])))
             for k in range(1, sites)}
    pairs = [(i, j) for i in range(sites) for j in range(i + 1, sites)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
    return LatticeSpec(sites, tuple(sorted(edges)))


def test_operators_match_oracle_on_random_lattices():
    signs = set()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(_random_lattice(), st.data(), st.integers(0, 2**32 - 1))
    def check(lattice, data, seed):
        sites = lattice.sites
        n_tau = data.draw(st.integers(0, sites))
        n_upsilon = data.draw(st.integers(0, sites))
        lattice, bt, bu, params = _operators(
            sites, n_tau, n_upsilon, _params(sites, np.random.default_rng(seed)),
            edges=lattice.edges)
        signs.update(hop_sign(mask, i, j) for b in (bt, bu) for mask in b.configs
                     for i, j in lattice.edges if (mask >> i) & 1 != (mask >> j) & 1)
        common = (sites, lattice.edges, n_tau, n_upsilon, params.j_tau,
                  params.j_upsilon, params.u_tau, params.u_upsilon, params.u_cross)
        v = np.random.default_rng(seed).standard_normal((bt.dim * bu.dim, 2)) @ [1, 1j]
        for build, terms in (
                (build_full, None),
                (build_h1, ("hop_tau", "u_tau", "cross")),
                (build_h2, ("hop_upsilon", "u_upsilon", "cross"))):
            op = build(lattice, params, bt, bu)
            dense = op.to_dense()
            assert np.array_equal(dense, oracles.sector_hamiltonian(*common, terms=terms))
            out = op.apply(v.reshape(bt.dim, bu.dim)).ravel()
            assert np.max(np.abs(out - dense @ v), initial=0.0) < 1e-13
            # the Chebyshev expansion diverges if the interval misses an eigenvalue
            lo, hi = op.spectral_bounds()
            eigs = np.linalg.eigvalsh(dense)
            assert lo <= eigs.min() and eigs.max() <= hi

    check()
    # some drawn bonds skip an occupied site, so the parity sign -1 was tested
    assert -1 in signs
