from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.linalg import expm

import oracles
from conftest import random_state, stepwise_generator
from tsim.fock import enumerate_basis
from tsim.model import (_SPECTRAL_PAD, Hamiltonian, LatticeSpec, ModelParams,
                        build_full, build_h1, build_h2, hop_sign)
from tsim.propagate import _chebyshev_apply, evolve


def chebyshev(state, op, t):
    """The Chebyshev expansion on the whole of gamma, whichever method
    ``evolve`` picks for ``op``."""
    return _chebyshev_apply(op, state, t)


def energy(op, g):
    return float(np.vdot(g, op.apply(g)).real)


def _chain_setup(sites, n_tau, n_upsilon, seed=0):
    rng = np.random.default_rng(seed)
    lattice = LatticeSpec.chain(sites)
    params = ModelParams(
        j_tau=float(rng.uniform(0.5, 1.5)),
        j_upsilon=float(rng.uniform(0.5, 1.5)),
        u_tau=tuple(rng.uniform(-0.5, 0.5, sites)),
        u_upsilon=tuple(rng.uniform(-0.5, 0.5, sites)),
        u_cross=float(rng.uniform(0.5, 1.5)),
    )
    bt, bu = enumerate_basis(sites, n_tau), enumerate_basis(sites, n_upsilon)
    return lattice, params, bt, bu


def test_zero_time_is_identity():
    _, params, bt, bu = _chain_setup(4, 1, 1)
    h = build_full(LatticeSpec.chain(4), params, bt, bu)
    psi = random_state((bt.dim, bu.dim), 3)
    out = evolve(psi, h, 0.0)
    assert np.array_equal(out, psi)
    # a time this small leaves one Bessel coefficient above the cutoff, and
    # the expansion still needs its first two terms
    out = evolve(psi, h, 1e-300)
    assert np.allclose(out, psi, rtol=0, atol=1e-15)


def test_two_site_analytic_oracle():
    j = 0.8
    lattice = LatticeSpec.chain(2)
    params = ModelParams(j_tau=j, j_upsilon=1.0, u_tau=(0.0, 0.0),
                         u_upsilon=(0.0, 0.0), u_cross=0.0)
    bt, bu = enumerate_basis(2, 1), enumerate_basis(2, 0)
    h = build_full(lattice, params, bt, bu)
    psi = np.array([[1.0], [0.0]], dtype=complex)
    for t in (0.3, 1.0, 2.7):
        out = evolve(psi, h, t)
        a0, a1 = oracles.two_site_hop_amplitudes(j, t)
        assert abs(out[0, 0] - a0) < 1e-12
        assert abs(out[1, 0] - a1) < 1e-12
    # at t = pi/(2J) the particle has fully hopped, up to phase -i
    out = evolve(psi, h, np.pi / (2 * j))
    assert abs(out[0, 0]) < 1e-12
    assert abs(out[1, 0] + 1j) < 1e-12


def test_one_configuration_evolves_by_a_phase():
    # both species fill the chain, so H is the number D, and its spectral
    # interval holds that one eigenvalue within the pad
    params = ModelParams(j_tau=1.0, j_upsilon=1.0, u_tau=(0.3, 0.0, 0.0),
                         u_upsilon=(0.0, 0.0, 0.0), u_cross=0.7)
    bt, bu = enumerate_basis(3, 3), enumerate_basis(3, 3)
    h = build_full(LatticeSpec.chain(3), params, bt, bu)
    energy = h.D[0, 0]
    assert abs(energy - 2.4) < 1e-15
    lo, hi = h.spectral_bounds()
    # H's one-body norm bound is under 100, and pads each side
    assert lo <= energy <= hi and hi - lo <= 2 * _SPECTRAL_PAD * 100
    psi = np.array([[1.0 + 0j]])
    out = evolve(psi, h, 1.3)
    assert abs(out[0, 0] - np.exp(-1j * energy * 1.3)) < 1e-15


def test_unitary_round_trip_l6():
    lattice, params, bt, bu = _chain_setup(6, 2, 2, seed=5)
    h = build_full(lattice, params, bt, bu)
    psi = random_state((bt.dim, bu.dim), 7)
    back = evolve(evolve(psi, h, 1.7), h, -1.7)
    assert np.max(np.abs(back - psi)) < 1e-10


@pytest.mark.parametrize("step", [None, chebyshev],
                         ids=["None", "chebyshev"])
def test_norm_and_energy_conservation(step):
    # None: evolve under the full H; chebyshev: the expansion under H1 and H2,
    # whose blocks evolve would solve exactly
    lattice, params, bt, bu = _chain_setup(5, 2, 1, seed=9)
    if step is None:
        ops = [build_full(lattice, params, bt, bu)]
        step = evolve
    else:
        ops = [build_h1(lattice, params, bt, bu), build_h2(lattice, params, bt, bu)]
    psi = random_state((bt.dim, bu.dim), 11)
    for h in ops:
        e0 = energy(h, psi)
        state = psi
        for t in (0.5, 1.2, -0.7):
            state = step(state, h, t)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12
            assert abs(energy(h, state) - e0) < 1e-9


def test_composition():
    lattice, params, bt, bu = _chain_setup(5, 1, 2, seed=13)
    h = build_full(lattice, params, bt, bu)
    psi = random_state((bt.dim, bu.dim), 17)
    one = evolve(evolve(psi, h, 0.6), h, 0.9)
    two = evolve(psi, h, 1.5)
    assert np.max(np.abs(one - two)) < 2e-10


def test_evolve_matches_dense_eigendecomposition():
    # the Chebyshev expansion against the dense eigendecomposition, L=5, 2+2
    lattice, params, bt, bu = _chain_setup(5, 2, 2, seed=19)
    h = build_full(lattice, params, bt, bu)
    assert h.dim <= 256
    w, v = np.linalg.eigh(oracles.to_dense(h))
    psi = random_state((bt.dim, bu.dim), 23)
    for t in (0.4, 2.0, -1.3):
        dense = v @ (np.exp(-1j * w * t) * (v.T @ psi.ravel()))
        out = evolve(psi, h, t)
        assert np.max(np.abs(dense - out.ravel())) < 1e-9


def test_evolve_matches_expm_small_dims():
    for seed, (sites, n_t, n_u) in enumerate([(3, 1, 1), (4, 1, 1), (4, 2, 1)]):
        lattice, params, bt, bu = _chain_setup(sites, n_t, n_u, seed=seed)
        h = build_full(lattice, params, bt, bu)
        assert h.dim <= 64
        psi = random_state((bt.dim, bu.dim), seed + 31)
        t = 1.1
        exact = expm(-1j * t * oracles.to_dense(h)) @ psi.ravel()
        out = evolve(psi, h, t)
        assert np.max(np.abs(out.ravel() - exact)) < 1e-9


def test_per_species_number_conservation():
    from tsim.observables import measure
    lattice, params, bt, bu = _chain_setup(6, 2, 2, seed=29)
    h = build_full(lattice, params, bt, bu)
    state = random_state((bt.dim, bu.dim), 37)
    for t in (0.8, 1.6):
        state = evolve(state, h, t)
        report = measure(state, bt, bu, state)
        assert abs(sum(report.densities_tau) - 2.0) < 1e-12
        assert abs(sum(report.densities_upsilon) - 2.0) < 1e-12


def test_blockwise_single_block_matches_evolve():
    lattice, params, bt, bu = _chain_setup(4, 0, 2, seed=41)
    h2 = build_h2(lattice, params, bt, bu)
    assert bt.dim == 1  # one tau configuration, so H2 is one block
    psi = random_state((bt.dim, bu.dim), 43)
    flat = chebyshev(psi, h2, 1.3)
    block = evolve(psi, h2, 1.3)
    assert np.max(np.abs(flat - block)) < 1e-12


def test_blockwise_matches_flat_h1_h2():
    lattice, params, bt, bu = _chain_setup(6, 2, 2, seed=47)
    h1 = build_h1(lattice, params, bt, bu)
    h2 = build_h2(lattice, params, bt, bu)
    for seed in range(5):
        psi = random_state((bt.dim, bu.dim), 100 + seed)
        for op in (h1, h2):
            for t in (0.9, -1.4):
                flat = chebyshev(psi, op, t)
                block = evolve(psi, op, t)
                assert np.max(np.abs(flat - block)) < 1e-10


def test_blockwise_zero_block_stays_zero():
    lattice, params, bt, bu = _chain_setup(4, 1, 1, seed=53)
    h1 = build_h1(lattice, params, bt, bu)
    # only the block of the first upsilon configuration, column 0 of gamma, lives
    gamma = np.zeros((bt.dim, bu.dim), dtype=complex)
    rng = np.random.default_rng(59)
    gamma[:, 0] = rng.standard_normal(bt.dim) + 1j * rng.standard_normal(bt.dim)
    out = evolve(gamma / np.linalg.norm(gamma), h1, 2.2)
    assert np.all(out[:, 1:] == 0)


def test_dimension_mismatch_rejected():
    lattice, params, bt, bu = _chain_setup(4, 1, 1)
    h = build_full(lattice, params, bt, bu)
    bad = random_state((2, 3), 67)
    with pytest.raises(ValueError):
        evolve(bad, h, 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", [build_h1, build_full], ids=["eigen", "chebyshev"])
def test_non_finite_time_rejected(build, t):
    lattice, params, bt, bu = _chain_setup(6, 2, 2, seed=61)
    op = build(lattice, params, bt, bu)
    psi = random_state((bt.dim, bu.dim), 63)
    evolve(psi, op, 1.0)

    def cache(op):
        # the eigen path caches only U(|t|), keyed by |t|
        return {k: v[0] if k == "stage" else v for k, v in op._cache.items()}

    before = cache(op)
    with pytest.raises(ValueError, match="t must be finite"):
        evolve(psi, op, t)
    assert cache(op) == before


def test_long_time_matches_eigendecomposition():
    # a*|t| is about 2,550 at t = 400 and 19,100 at t = 3000, each one
    # expansion with the a-priori term count; a count cut short of the Bessel
    # tail fails well above 1e-10
    lattice, params, bt, bu = _chain_setup(6, 2, 2, seed=71)
    h = build_full(lattice, params, bt, bu)
    w, v = np.linalg.eigh(oracles.to_dense(h))
    psi = random_state((bt.dim, bu.dim), 73)
    for t in (400.0, -400.0, 3000.0):
        exact = v @ (np.exp(-1j * w * t) * (v.T @ psi.ravel()))
        out = evolve(psi, h, t)
        assert np.max(np.abs(out.ravel() - exact)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(-2.5, 2.5))
def test_unitarity_property(seed, t):
    lattice, params, bt, bu = _chain_setup(4, 2, 1, seed=3)
    h = build_full(lattice, params, bt, bu)
    psi = random_state((bt.dim, bu.dim), seed)
    out = evolve(psi, h, t)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def _ring(sites):
    return LatticeSpec(sites, tuple((i, (i + 1) % sites) for i in range(sites)))


def _ladder(rungs):
    # sites r and r + rungs form rung r; legs run along each row
    legs = [(r, r + 1) for r in range(rungs - 1)]
    legs += [(rungs + r, rungs + r + 1) for r in range(rungs - 1)]
    return LatticeSpec(2 * rungs, tuple(legs + [(r, r + rungs) for r in range(rungs)]))


@pytest.mark.parametrize("lattice,n_tau,n_upsilon,step,tol", [
    pytest.param(_ring(6), 3, 2, evolve, 1e-12, id="lattice0-3-2"),
    pytest.param(_ladder(3), 2, 3, evolve, 1e-12, id="lattice1-2-3"),
    # Chebyshev on the whole of gamma, at criterion 8's iterative-vs-dense
    # bound
    pytest.param(_ring(6), 3, 2, chebyshev, 1e-9, id="lattice0-3-2-chebyshev"),
    pytest.param(_ladder(3), 2, 3, chebyshev, 1e-9, id="lattice1-2-3-chebyshev"),
])
def test_blockwise_matches_per_block_expm_off_chain(lattice, n_tau, n_upsilon,
                                                    step, tol):
    sites = lattice.sites
    rng = np.random.default_rng(sites + n_tau)
    params = ModelParams(j_tau=0.9, j_upsilon=1.2,
                         u_tau=tuple(rng.uniform(-1, 1, sites)),
                         u_upsilon=tuple(rng.uniform(-1, 1, sites)),
                         u_cross=1.3)
    bt, bu = enumerate_basis(sites, n_tau), enumerate_basis(sites, n_upsilon)
    # bonds that skip an occupied site carry a fermionic sign of -1
    assert any(hop_sign(mask, i, j) == -1
               for basis in (bt, bu) for mask in basis.configs
               for i, j in lattice.edges if (mask >> i) & 1 != (mask >> j) & 1)

    def block(frozen, n_mobile, j, u):
        eff = [u[i] + params.u_cross * ((frozen >> i) & 1) for i in range(sites)]
        return oracles.species_sector_hamiltonian(sites, lattice.edges, n_mobile,
                                                  j, eff)

    # (slice of gamma, dense block) of every frozen-configuration block: the
    # columns of gamma for H1, its rows for H2
    blocks = {
        "h1": [(np.s_[:, n], block(y, n_tau, params.j_tau, params.u_tau))
               for n, y in enumerate(bu.configs)],
        "h2": [(np.s_[m, :], block(x, n_upsilon, params.j_upsilon, params.u_upsilon))
               for m, x in enumerate(bt.configs)],
    }
    ops = {"h1": build_h1(lattice, params, bt, bu),
           "h2": build_h2(lattice, params, bt, bu)}
    psi = random_state((bt.dim, bu.dim), 79)
    for name, op in ops.items():
        for t in (1.7, -1.7):
            expected = np.empty_like(psi)
            for idx, h in blocks[name]:
                expected[idx] = expm(-1j * t * h) @ psi[idx]
            out = step(psi, op, t)
            assert np.max(np.abs(out - expected)) < tol


def test_factorization_is_lazy_and_shared(monkeypatch):
    from tsim.protocol import ProtocolConfig, prepare, run_cycle
    calls, builds = [], []
    eigh, cos = np.linalg.eigh, np.cos

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    def counting_cos(x):
        # in a cycle only the build of a stage propagator U(|t|) calls np.cos
        builds.append(np.shape(x))
        return cos(x)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np, "cos", counting_cos)
    cfg = ProtocolConfig(lattice=LatticeSpec.chain(6), n_tau=2, n_upsilon=2,
                         params=ModelParams.defaults(6), t1=1.5, t2=2.5)
    ctx = prepare(cfg)
    assert calls == [] and builds == []
    run_cycle(ctx.initial, ctx, 1)
    # fwd1/rev1 share one factorization of H1, fwd2/rev2 one of H2
    assert calls == [(15, 15, 15), (15, 15, 15)]
    # and the reverse stage reuses the forward propagator
    assert builds == [(15, 15), (15, 15)]
    run_cycle(ctx.initial, ctx, 2)
    assert len(calls) == 2 and len(builds) == 2


@pytest.mark.parametrize("build", [build_h1, build_h2], ids=["h1", "h2"])
def test_stage_propagator_follows_abs_t(build):
    # one cached U(|t|) per operator: a new |t| rebuilds it, a stale U fails
    lattice, params, bt, bu = _chain_setup(6, 2, 2, seed=57)
    op = build(lattice, params, bt, bu)
    w, v = np.linalg.eigh(oracles.to_dense(op))
    psi = random_state((bt.dim, bu.dim), 61)
    for t in (1.1, 2.3, -1.1, -2.3, 2.3):
        dense = v @ (np.exp(-1j * w * t) * (v.T @ psi.ravel()))
        assert np.max(np.abs(evolve(psi, op, t).ravel() - dense)) < 1e-12


def test_method_follows_operator_size(monkeypatch):
    # block eigen exactly when one species is mobile and dim * b**2 <= 2**28
    from tsim.protocol import ProtocolConfig, prepare, run_trotter
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    def config(sites, n):
        return ProtocolConfig(lattice=LatticeSpec.chain(sites), n_tau=n,
                              n_upsilon=n, params=ModelParams.defaults(sites))

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    # desk and L=8, 4+4: dim * b**2 is 5.1e4 and 2.4e7, so H1 and H2 factor
    # once each; the full H and the stepwise generator have two mobile species
    for sites, n, b in ((6, 2, 15), (8, 4, 70)):
        ctx = prepare(config(sites, n))
        h_full = build_full(ctx.config.lattice, ctx.config.params,
                            ctx.basis_tau, ctx.basis_upsilon)
        for op in (ctx.h1, ctx.h2, ctx.h1, ctx.h2, h_full,
                   stepwise_generator(ctx)):
            evolve(ctx.initial, op, 0.5)
        assert calls == [(b, b, b)] * 2
        calls.clear()
    # L=10, 5+5: dim * b**2 is 4.0e9, so H1 and H2 take Chebyshev
    ctx = prepare(config(10, 5))
    for op in (ctx.h1, ctx.h2):
        evolve(ctx.initial, op, 0.01)
    assert calls == []
    # the Trotter run takes the same method as the cycles
    run_trotter(replace(config(6, 2), trotter_steps=4))
    assert calls == [(15, 15, 15)] * 2


@pytest.mark.parametrize("layout", ["h1", "h2", "full", "generator"])
def test_chebyshev_matches_dense_eigendecomposition(layout):
    # every layout of the recurrence: H1 runs on gamma with its hop on axis
    # 0, H2 runs on gamma^T, and the full H and the stepwise generator apply
    # their second hop to the real and the imaginary columns of gamma's
    # float64 view
    from tsim.protocol import ProtocolConfig, prepare
    lattice = LatticeSpec(6, _ring(6).edges + ((0, 3),))
    rng = np.random.default_rng(83)
    params = ModelParams(j_tau=0.9, j_upsilon=1.2,
                         u_tau=tuple(rng.uniform(-1, 1, 6)),
                         u_upsilon=tuple(rng.uniform(-1, 1, 6)), u_cross=1.3)
    ctx = prepare(ProtocolConfig(lattice=lattice, n_tau=3, n_upsilon=2,
                                 params=params, t1=1.3, t2=0.7))
    assert any(hop_sign(mask, i, j) == -1
               for basis in (ctx.basis_tau, ctx.basis_upsilon)
               for mask in basis.configs for i, j in lattice.edges
               if (mask >> i) & 1 != (mask >> j) & 1)
    op = {"h1": ctx.h1, "h2": ctx.h2,
          "full": build_full(lattice, params, ctx.basis_tau, ctx.basis_upsilon),
          "generator": stepwise_generator(ctx)}[layout]
    w, v = np.linalg.eigh(oracles.to_dense(op))
    # (20, 15): rows and columns of gamma cannot be mistaken for each other
    psi = random_state(op.D.shape, 89)
    assert np.all(psi.imag != 0)
    for t in (1.9, -2.6):
        exact = v @ (np.exp(-1j * w * t) * (v.T @ psi.ravel()))
        out = _chebyshev_apply(op, psi, t)
        assert np.max(np.abs(out.ravel() - exact)) < 1e-12


@pytest.mark.parametrize("mobile", ["h1", "h2"])
def test_chebyshev_matches_sparse_oracle_blocks_at_l12(mobile):
    # L=12, 6+6 is where whole-gamma Chebyshev is the default for H1 and H2.
    # Column n of gamma under H1 (row m under H2) evolves by its own block,
    # which the sparse oracle builds from the masks alone; a slice of the
    # operator to a few columns (rows), with the potentials of its one-body
    # blocks sliced the same way, keeps the check cheap
    lattice = _ring(12)
    rng = np.random.default_rng(131)
    params = ModelParams(j_tau=0.9, j_upsilon=1.2,
                         u_tau=tuple(rng.uniform(-1, 1, 12)),
                         u_upsilon=tuple(rng.uniform(-1, 1, 12)), u_cross=1.3)
    basis = enumerate_basis(12, 6)
    picks = rng.choice(basis.dim, 3, replace=False)
    if mobile == "h1":
        op = build_h1(lattice, params, basis, basis)
        (hop, pot, n), = op.parts
        part = Hamiltonian(op.hop_x, None, op.D[:, picks], ((hop, pot[picks], n),))
        j, u = params.j_tau, params.u_tau
    else:
        op = build_h2(lattice, params, basis, basis)
        (hop, pot, n), = op.parts
        part = Hamiltonian(None, op.hop_y, op.D[picks, :], ((hop, pot[picks], n),))
        j, u = params.j_upsilon, params.u_upsilon
    psi = random_state(part.D.shape, 137)
    blocks = []
    for frozen in (basis.configs[p] for p in picks):
        eff = [u[i] + params.u_cross * ((frozen >> i) & 1) for i in range(12)]
        h = oracles.sparse_species_hamiltonian(12, lattice.edges, 6, j, eff)
        # the ring's closing bond skips occupied sites, so the sign -1 occurs
        assert (h - sp.diags(h.diagonal())).min() == -j
        blocks.append(np.linalg.eigh(h.toarray()))
    for t in (2.0, -2.0):
        out = evolve(psi, part, t)
        for k, (w, v) in enumerate(blocks):
            idx = np.s_[:, k] if mobile == "h1" else np.s_[k, :]
            exact = v @ (np.exp(-1j * w * t) * (v.T @ psi[idx]))
            assert np.max(np.abs(out[idx] - exact)) < 1e-12
    assert "chebyshev" in part._cache and "stage" not in part._cache


@pytest.mark.parametrize("t", [0.5, 20.0])
@pytest.mark.parametrize("build", [build_h1, build_h2, build_full],
                         ids=["h1", "h2", "full"])
def test_chebyshev_peak_memory(build, t):
    # three rotating buffers and one accumulator, each the size of gamma,
    # plus the full H's hop_y product, numpy's cast buffer of D * gamma
    # (all of gamma at this size) and H2's transposed result; the folded
    # operator is built once per operator, by the first call, and is not
    # counted
    import tracemalloc
    lattice, params, bt, bu = _chain_setup(8, 4, 4, seed=97)
    op = build(lattice, params, bt, bu)
    psi = random_state((bt.dim, bu.dim), 101)
    _chebyshev_apply(op, psi, t)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _chebyshev_apply(op, psi, t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == psi.shape
    assert peak <= 6.5 * psi.nbytes


def test_spectral_bounds_once_per_operator(monkeypatch):
    # the interval is computed on an operator's first Chebyshev call, once,
    # and never for an operator that the eigen path serves
    calls = []
    bounds = Hamiltonian.spectral_bounds

    def counting_bounds(self):
        calls.append(self)
        return bounds(self)

    monkeypatch.setattr(Hamiltonian, "spectral_bounds", counting_bounds)
    lattice, params, bt, bu = _chain_setup(5, 2, 2, seed=103)
    full, h2 = build_full(lattice, params, bt, bu), build_h2(lattice, params, bt, bu)
    psi = random_state((bt.dim, bu.dim), 107)
    times = (0.8, -0.8, 2.5, -0.1)
    for t in times:
        evolve(psi, h2, t)
    assert calls == [] and "bounds" not in h2._cache
    for op in (full, h2):
        for t in times:
            evolve(psi, op, t)
            _chebyshev_apply(op, psi, t)
    assert calls == [full, h2]
