import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import hop_sign
from tsim.fock import enumerate_basis
from tsim.model import (_SPECTRAL_PAD, LatticeSpec, ModelParams, _hop_matrix,
                        build_full, build_h1, build_h2)
from conftest import stepwise_generator
from tsim.protocol import ProtocolConfig, prepare


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
    for sites in (0, -1):
        with pytest.raises(ValueError, match="sites: must be a positive integer"):
            LatticeSpec(sites, ())
    # one bit of a machine word per site: 64 would fail only at enumeration
    with pytest.raises(ValueError, match="sites: must be at most 63"):
        LatticeSpec.chain(64)
    assert LatticeSpec.chain(4).edges == ((0, 1), (1, 2), (2, 3))


@pytest.mark.parametrize("field, value, message", [
    ("j_tau", float("nan"), "j_tau: must be finite"),
    ("u_cross", float("-inf"), "u_cross: must be finite"),
    ("u_upsilon", (0.0, float("inf"), 0.0), "u_upsilon: entries must be finite"),
])
def test_model_params_reject_non_finite(field, value, message):
    with pytest.raises(ValueError, match=message):
        _params(3, **{field: value})


def test_hop_sign_is_symmetric_in_the_endpoints():
    # LatticeSpec stores every edge as (low, high), so no builder passes the
    # endpoints the other way round; the sign must not depend on their order
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    signs = {(mask, i, j): hop_sign(mask, i, j) for mask in range(64)
             for i, j in pairs}
    assert set(signs.values()) == {-1, 1}
    assert all(hop_sign(mask, j, i) == s for (mask, i, j), s in signs.items())


def test_two_site_single_hop():
    lattice, bt, bu, params = _operators(2, 1, 0, _params(2, u_cross=0.0))
    h = build_full(lattice, params, bt, bu)
    assert np.array_equal(oracles.to_dense(h),
                          np.array([[0, 1], [1, 0]], dtype=complex))


def test_single_doubly_occupied_site_energy():
    params = ModelParams(j_tau=0.0, j_upsilon=0.0, u_tau=(0.0, 0.0),
                         u_upsilon=(0.0, 0.0), u_cross=2.0)
    lattice, bt, bu, _ = _operators(2, 1, 1, params)
    h = build_full(lattice, params, bt, bu)
    # both species on site 0
    k = bt.configs.index(0b01) * bu.dim + bu.configs.index(0b01)
    assert oracles.to_dense(h)[k, k] == 2.0


def test_full_matches_dense_oracle_random_params():
    rng = np.random.default_rng(11)
    lattice, bt, bu, params = _operators(4, 1, 1, _params(4, rng))
    h = build_full(lattice, params, bt, bu)
    oracle = oracles.sector_hamiltonian(4, lattice.edges, 1, 1, params.j_tau,
                                        params.j_upsilon, params.u_tau,
                                        params.u_upsilon, params.u_cross)
    assert np.array_equal(oracles.to_dense(h), oracle)


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
        dense = oracles.to_dense(op)
        assert np.array_equal(dense, oracle)
        assert np.array_equal(dense, dense.conj().T)


def _effective_potential(frozen, params, species):
    """Per-site potential one mobile particle of ``species`` sees with the
    other species frozen in ``frozen`` on a 4-site chain: the diagonal of
    that frozen configuration's block of the stepwise Hamiltonian."""
    lattice, others = LatticeSpec.chain(4), bin(frozen).count("1")
    if species == "tau":
        bt, bu = enumerate_basis(4, 1), enumerate_basis(4, others)
        return tuple(build_h1(lattice, params, bt, bu).D[:, bu.configs.index(frozen)])
    bt, bu = enumerate_basis(4, others), enumerate_basis(4, 1)
    return tuple(build_h2(lattice, params, bt, bu).D[bt.configs.index(frozen), :])


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
    dense = oracles.to_dense(build_h1(lattice, params, bt, bu))
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
    assert np.array_equal(oracles.to_dense(h2), free)


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
    lhs = oracles.to_dense(h1) + oracles.to_dense(h2) - cross
    assert np.allclose(lhs, oracles.to_dense(full), atol=1e-12, rtol=0)


def test_number_conservation():
    # a ring with a chord, so bonds join non-adjacent sites and skip occupied ones
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3))
    rng = np.random.default_rng(24)
    lattice, bt, bu, params = _operators(5, 2, 3, _params(5, rng), edges=edges)
    h = build_full(lattice, params, bt, bu)
    bonds = {(1 << i) | (1 << j) for i, j in lattice.edges}
    for hop, basis in ((h.hop_x, bt), (h.hop_y, bu)):
        rows, cols = hop.nonzero()
        # every entry moves one particle along one bond, so it keeps the count
        assert all(basis.configs[r] ^ basis.configs[c] in bonds
                   for r, c in zip(rows, cols))
        # and each source config has one entry per bond it can hop across
        for c, mask in enumerate(basis.configs):
            movable = sum((mask >> i) & 1 != (mask >> j) & 1 for i, j in lattice.edges)
            assert np.count_nonzero(cols == c) == movable


@pytest.mark.parametrize("edges", [
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)),
    ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)),
], ids=["ring-with-chord", "ladder-2x3"])
def test_hop_matrix_matches_per_config_loop(edges):
    # every (target, source) entry against a loop over configs and bonds
    # that signs each hop by the oracle's parity count, at every filling
    lattice = LatticeSpec(6, edges)
    signs = set()
    for particles in range(7):
        basis = enumerate_basis(6, particles)
        hop = _hop_matrix(basis, lattice.edges, -0.8)
        assert hop.has_sorted_indices and hop.has_canonical_format
        index = {mask: r for r, mask in enumerate(basis.configs)}
        want = {}
        for c, mask in enumerate(basis.configs):
            for i, j in lattice.edges:
                if (mask >> i) & 1 != (mask >> j) & 1:
                    sign = hop_sign(mask, i, j)
                    signs.add(sign)
                    want[index[mask ^ (1 << i) ^ (1 << j)], c] = -0.8 * sign
        rows = np.repeat(np.arange(basis.dim), np.diff(hop.indptr))
        got = dict(zip(zip(rows.tolist(), hop.indices.tolist()), hop.data.tolist()))
        assert len(got) == hop.nnz and got == want
    # bonds that skip an occupied site carry the sign -1
    assert signs == {-1, 1}


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
    assert np.allclose(oracles.to_dense(mix),
                       0.25 * oracles.to_dense(ctx.h1)
                       + 0.75 * oracles.to_dense(ctx.h2), atol=1e-15)


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
            dense = oracles.to_dense(op)
            assert np.array_equal(dense, oracles.sector_hamiltonian(*common, terms=terms))
            out = op.apply(v.reshape(bt.dim, bu.dim)).ravel()
            assert np.max(np.abs(out - dense @ v), initial=0.0) < 1e-13
            # written into a given buffer, from a C-ordered complex, an
            # F-ordered and a real gamma: apply brings each to the C-ordered
            # complex128 array its float64 view needs
            g = v.reshape(bt.dim, bu.dim)
            for x, want in ((g, dense @ v), (np.asfortranarray(g), dense @ v),
                            (g.real, dense @ v.real)):
                into = np.empty(g.shape, np.complex128)
                assert op.apply(x, out=into) is into
                assert np.max(np.abs(into.ravel() - want), initial=0.0) < 1e-13
            # D * gamma lands in out before the hops read gamma, so an out
            # that shares gamma's memory is refused, not silently wrong
            with pytest.raises(ValueError, match="share memory"):
                op.apply(g, out=g)
            # the Chebyshev expansion diverges if the interval misses an eigenvalue
            lo, hi = op.spectral_bounds()
            eigs = np.linalg.eigvalsh(dense)
            assert lo <= eigs.min() and eigs.max() <= hi

    check()
    # some drawn bonds skip an occupied site, so the parity sign -1 was tested
    assert -1 in signs


def test_spectral_interval_matches_block_oracle_on_random_lattices():
    # H1 and H2 take the exact interval: the extreme eigenvalues of every
    # dense oracle block lie inside it, each within the pad of its ends; the
    # full H and the stepwise generator take Weyl sums of such intervals
    signs, hops = set(), set()
    tol = 2 * _SPECTRAL_PAD * 100  # the pad on a one-body norm bound under 100

    def within(bounds, extremes):
        (lo, hi), (want_lo, want_hi) = bounds, extremes
        assert 0 <= want_lo - lo <= tol and 0 <= hi - want_hi <= tol

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(_random_lattice(), st.data(), st.integers(0, 2**32 - 1))
    def check(lattice, data, seed):
        sites, edges = lattice.sites, lattice.edges
        n_tau = data.draw(st.integers(0, sites))
        n_upsilon = data.draw(st.integers(0, sites))
        rng = np.random.default_rng(seed)
        j_tau, j_upsilon = rng.uniform(0.5, 1.5, 2) * rng.choice([-1, 1], 2)
        params = ModelParams(j_tau=float(j_tau), j_upsilon=float(j_upsilon),
                             u_tau=tuple(rng.uniform(-1, 1, sites)),
                             u_upsilon=tuple(rng.uniform(-1, 1, sites)),
                             u_cross=float(rng.uniform(-2, 2)))
        hops.update(np.sign([j_tau, j_upsilon]))
        bt, bu = enumerate_basis(sites, n_tau), enumerate_basis(sites, n_upsilon)
        signs.update(hop_sign(mask, i, j) for b in (bt, bu) for mask in b.configs
                     for i, j in edges if (mask >> i) & 1 != (mask >> j) & 1)
        x = oracles.stepwise_spectral_extremes(
            sites, edges, n_tau, n_upsilon, j_tau, params.u_tau, params.u_cross)
        y = oracles.stepwise_spectral_extremes(
            sites, edges, n_upsilon, n_tau, j_upsilon, params.u_upsilon,
            params.u_cross)
        free_y = oracles.stepwise_spectral_extremes(
            sites, edges, n_upsilon, 0, j_upsilon, params.u_upsilon, 0.0)
        within(build_h1(lattice, params, bt, bu).spectral_bounds(), x)
        within(build_h2(lattice, params, bt, bu).spectral_bounds(), y)
        within(build_full(lattice, params, bt, bu).spectral_bounds(),
               np.add(x, free_y))
        t1, t2 = rng.uniform(0.5, 2.0, 2)
        ctx = prepare(ProtocolConfig(lattice=lattice, n_tau=n_tau,
                                     n_upsilon=n_upsilon, params=params,
                                     t1=float(t1), t2=float(t2)))
        within(stepwise_generator(ctx).spectral_bounds(),
               (t1 * np.array(x) + t2 * np.array(y)) / (t1 + t2))

    check()
    # bonds that skip an occupied site, and hoppings of both signs, occurred
    assert -1 in signs and hops == {-1.0, 1.0}


def test_apply_accumulates_through_the_private_product():
    # apply adds hop_x's product into out through scipy's private
    # csr_matvecs; a scipy that drops it or changes what it does fails here
    from scipy.sparse._sparsetools import csr_matvecs
    rng = np.random.default_rng(23)
    lattice, bt, bu, params = _operators(
        6, 2, 3, _params(6, rng), edges=LatticeSpec.chain(6).edges + ((0, 5),))
    op = build_h1(lattice, params, bt, bu)
    hop = op.hop_x
    assert hop.min() < 0  # the closing bond skips an occupied site
    x, y = rng.uniform(-0.25, 0.25, (2, bt.dim, 2 * bu.dim))
    want = hop @ x + y
    csr_matvecs(*hop.shape, x.shape[1], hop.indptr, hop.indices, hop.data,
                x.ravel(), y.ravel())
    assert np.max(np.abs(y - want)) < 1e-15
    # the product lands in out through its flat view, which any other
    # layout or dtype would copy and lose
    g = (x[:, ::2] + 1j * x[:, 1::2]).copy()
    for out in (np.empty(g.shape, np.complex128, order="F"),
                np.empty((bt.dim, 2 * bu.dim), np.complex128)[:, ::2],
                np.empty(g.shape, np.complex64)):
        with pytest.raises(ValueError, match="C-contiguous complex128"):
            op.apply(g, out=out)


@pytest.mark.parametrize("sites,particles,shape", [
    # the private product would read past this state's buffer (NaNs)
    (10, 5, (1, 252)),
    # and multiply this one, broadcast over the columns, wrongly
    (6, 2, (15, 1)),
], ids=["L10-row", "desk-column"])
@pytest.mark.parametrize("given_out", [False, True], ids=["new", "out"])
def test_apply_rejects_a_state_of_another_shape(sites, particles, shape, given_out):
    lattice, bt, bu, params = _operators(sites, particles, particles, _params(sites))
    op = build_h1(lattice, params, bt, bu)
    out = np.empty(op.D.shape, np.complex128) if given_out else None
    want = re.escape(f"state shape {shape} is not the operator's {op.D.shape}")
    with pytest.raises(ValueError, match=want):
        op.apply(np.ones(shape), out=out)
    # an out of another shape is refused too, even one gamma would fill
    for bad in (np.empty(shape, np.complex128), np.empty(op.dim, np.complex128)):
        with pytest.raises(ValueError, match=re.escape(f"of shape {op.D.shape}")):
            op.apply(np.ones(op.D.shape), out=bad)


@pytest.mark.parametrize("sites,edges,particles", [
    (3, ((0, 1), (1, 2), (0, 2)), 2),
    (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), 2),
    (6, ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)), 3),
    (8, tuple((i, (i + 1) % 8) for i in range(8)) + ((1, 6),), 4),
    (8, tuple((i, i + 1) for i in range(7)) + ((0, 5), (2, 7)), 3),
])
def test_sparse_oracle_matches_dense_oracle(sites, edges, particles):
    u = np.random.default_rng(sites + particles).uniform(-1, 1, sites)
    sparse = oracles.sparse_species_hamiltonian(sites, edges, particles, 0.8, u)
    dense = oracles.species_sector_hamiltonian(sites, edges, particles, 0.8, u)
    assert np.max(np.abs(sparse.toarray() - dense)) < 1e-14
    # bonds that skip an occupied site carry the Jordan-Wigner sign -1
    assert (sparse.toarray() - np.diag(sparse.diagonal())).min() == -0.8
