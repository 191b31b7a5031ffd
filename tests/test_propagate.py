import gc
import os
import re
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.linalg import expm

import oracles
from oracles import hop_sign
from conftest import apply, chebyshev, random_state, stepwise_generator
from tsim import propagate
from tsim.fock import enumerate_basis
from tsim.model import (Hamiltonian, LatticeSpec, ModelParams, build_full,
                        build_h1, build_h2)
from tsim.propagate import _SPECTRAL_PAD, _spectral_interval, evolve


def energy(op, g):
    return float(np.vdot(g, apply(op, g)).real)


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
    lo, hi = _spectral_interval(h)
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
    assert h.D.size <= 256
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
        assert h.D.size <= 64
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


def test_chebyshev_single_block_matches_eigen_path():
    lattice, params, bt, bu = _chain_setup(4, 0, 2, seed=41)
    h2 = build_h2(lattice, params, bt, bu)
    assert bt.dim == 1  # one tau configuration, so H2 is one block
    psi = random_state((bt.dim, bu.dim), 43)
    cheb = chebyshev(psi, h2, 1.3)
    eigen = evolve(psi, h2, 1.3)
    assert np.max(np.abs(cheb - eigen)) < 1e-12


def test_chebyshev_matches_eigen_path_h1_h2():
    lattice, params, bt, bu = _chain_setup(6, 2, 2, seed=47)
    h1 = build_h1(lattice, params, bt, bu)
    h2 = build_h2(lattice, params, bt, bu)
    for seed in range(5):
        psi = random_state((bt.dim, bu.dim), 100 + seed)
        for op in (h1, h2):
            for t in (0.9, -1.4):
                cheb = chebyshev(psi, op, t)
                eigen = evolve(psi, op, t)
                assert np.max(np.abs(cheb - eigen)) < 1e-10


def test_eigen_path_zero_block_stays_zero():
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


@pytest.mark.parametrize("sites,n_tau,n_upsilon,shape,build", [
    # past evolve's check, numpy would refuse these two, since D does not
    # broadcast into buffers shaped like the state, but with a message that
    # names neither operator nor state
    (10, 5, 5, (1, 252), build_h1),
    (6, 2, 2, (15, 1), build_h1),
    # and take this one: the one-row D broadcasts over all three rows, and
    # the 1 x 1 hop reads and writes only the first
    (4, 0, 2, (3, 6), build_h1),
    # H2 refuses it before it lays out its stage on gamma^T
    (6, 2, 2, (1, 15), build_h2),
], ids=["L10-row", "desk-column", "one-row", "desk-h2-row"])
def test_state_of_another_shape_rejected(sites, n_tau, n_upsilon, shape,
                                         build):
    lattice, params, bt, bu = _chain_setup(sites, n_tau, n_upsilon)
    op = build(lattice, params, bt, bu)
    bad = np.ones(shape, np.complex128)
    # evolve checks the shape before either method runs
    for run in (evolve, chebyshev):
        with pytest.raises(ValueError, match=re.escape(
                f"operator dims {op.D.shape} do not match state dims {shape}")):
            run(bad, op, 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", [build_h1, build_full], ids=["eigen", "chebyshev"])
def test_non_finite_time_rejected(build, t):
    lattice, params, bt, bu = _chain_setup(6, 2, 2, seed=61)
    op = build(lattice, params, bt, bu)
    psi = random_state((bt.dim, bu.dim), 63)
    evolve(psi, op, 1.0)

    def cache(op):
        # the eigen path caches only U(|t|), keyed by |t|
        return {k: v[0] if k == "stage" else v
                for k, v in propagate._DERIVED[op].items()}

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


@pytest.mark.parametrize("t", [1e308, 1e300, -1e15])
def test_chebyshev_term_count_past_its_limits_is_refused(t):
    # at L=4, 1+1 the full H's half-width a is about 3.4: a*|t| passes 2**52
    # at 1e308 and 1e300, which raised OverflowError and numpy's "Maximum
    # allowed size exceeded"; at 1e15 it stays below 2**52, and the Bessel
    # and coefficient arrays alone would outgrow physical memory
    lattice, params, bt, bu = _chain_setup(4, 1, 1, seed=79)
    h = build_full(lattice, params, bt, bu)
    with pytest.raises(ValueError, match=re.escape(f"t = {t}: ") + r"the Chebyshev "
                       r"expansion over the spectral half-width a = \S+ needs "
                       "too many terms$"):
        evolve(random_state(h.D.shape, 83), h, t)
    a = propagate._DERIVED[h]["chebyshev"][1]
    assert (a * abs(t) < 2**52) == (abs(t) == 1e15)


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
def test_both_methods_match_per_block_expm_off_chain(lattice, n_tau, n_upsilon,
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

    def dense_block(frozen, n_mobile, j, u):
        return oracles.species_sector_hamiltonian(
            sites, lattice.edges, n_mobile, j,
            oracles.frozen_potential(u, params.u_cross, frozen))

    # (slice of gamma, dense block) of every frozen-configuration block: the
    # columns of gamma for H1, its rows for H2
    blocks = {
        "h1": [(np.s_[:, n], dense_block(y, n_tau, params.j_tau, params.u_tau))
               for n, y in enumerate(bu.configs)],
        "h2": [(np.s_[m, :], dense_block(x, n_upsilon, params.j_upsilon, params.u_upsilon))
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
    eigh, minors = np.linalg.eigh, propagate._minors

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    def counting_minors(*args):
        # the build of a stage propagator U(|t|) takes the minors a chunk of
        # blocks at a time, and a desk build is one chunk: (blocks, b)
        out = minors(*args)
        builds.append(out.shape[:2])
        return out

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(propagate, "_minors", counting_minors)
    cfg = ProtocolConfig(lattice=LatticeSpec.chain(6), n_tau=2, n_upsilon=2,
                         params=ModelParams.defaults(6), t1=1.5, t2=2.5)
    ctx = prepare(cfg)
    assert calls == [] and builds == []
    run_cycle(ctx.initial, ctx, 1)
    # fwd1/rev1 share one factorization of H1, fwd2/rev2 one of H2: one
    # eigh of the 15 one-body 6 x 6 blocks each
    assert calls == [(15, 6, 6), (15, 6, 6)]
    # and the reverse stage reuses the forward propagator
    assert builds == [(15, 15), (15, 15)]
    run_cycle(ctx.initial, ctx, 2)
    assert len(calls) == 2 and len(builds) == 2


@pytest.mark.parametrize("build", [build_h1, build_h2], ids=["h1", "h2"])
def test_eigen_path_refuses_an_unresolvable_phase(build, monkeypatch):
    # Chebyshev's rule on the eigen path: at j = 1e200 the half-width a is
    # 2.2e200 (H1) or 1.6e200 (H2), so a*|t| passes 2**52 at t = 2 and U(|t|)
    # is refused, naming t and a, before it is built; at t = 1e-190 it stays
    # below, and the U built there serves -t without a second
    # eigendecomposition
    lattice = LatticeSpec.chain(4)
    params = replace(ModelParams.defaults(4), j_tau=1e200, j_upsilon=1e200)
    op = build(lattice, params, enumerate_basis(4, 2), enumerate_basis(4, 1))
    psi = random_state(op.D.shape, 211)
    for t in (2.0, -2.0):
        with pytest.raises(ValueError, match=re.escape(f"t = {t}: ") + r"no "
                           r"phase resolves the spectral half-width a = "
                           r"\S+e\+200$"):
            evolve(psi, op, t)
    assert "stage" not in propagate._DERIVED[op]
    out = evolve(psi, op, 1e-190)
    assert np.isclose(np.linalg.norm(out), 1.0)
    monkeypatch.setattr(np.linalg, "eigh", None)
    assert np.allclose(evolve(out, op, -1e-190), psi)


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

    def config(sites, n, u_upsilon=0.0):
        params = replace(ModelParams.defaults(sites),
                         u_upsilon=(u_upsilon,) + (0.0,) * (sites - 1))
        return ProtocolConfig(lattice=LatticeSpec.chain(sites), n_tau=n,
                              n_upsilon=n, params=params)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    # desk and L=8, 4+4: dim * b**2 is 5.1e4 and 2.4e7, so H1 and H2 take
    # the eigen path; their species are interchangeable, so H2 takes H1's U
    # and the b one-body blocks are factored once; an upsilon potential
    # unlike tau's gives H2 a part of its own, factored once more; the full H
    # and the stepwise generator have two mobile species
    for sites, n, b, u, builds in ((6, 2, 15, 0.0, 1), (8, 4, 70, 0.0, 1),
                                   (6, 2, 15, 0.3, 2)):
        ctx = prepare(config(sites, n, u))
        h_full = build_full(ctx.config.lattice, ctx.config.params,
                            ctx.basis_tau, ctx.basis_upsilon)
        for op in (ctx.h1, ctx.h2, ctx.h1, ctx.h2, h_full,
                   stepwise_generator(ctx)):
            evolve(ctx.initial, op, 0.5)
        assert calls == [(b, sites, sites)] * builds
        calls.clear()
    # L=10, 5+5: dim * b**2 is 4.0e9, so H1 and H2 take Chebyshev
    ctx = prepare(config(10, 5))
    for op in (ctx.h1, ctx.h2):
        evolve(ctx.initial, op, 0.01)
    assert calls == []
    # the Trotter run takes the same method as the cycles, and its H2 steps
    # take its H1 steps' U when dt1 = dt2
    run_trotter(replace(config(6, 2), trotter_steps=4))
    assert calls == [(15, 6, 6)]


def _own_u(build, ctx, t):
    # the U of an operator built apart, from a store of its own
    with pytest.MonkeyPatch.context() as m:
        m.setattr(propagate, "_STAGE_U", weakref.WeakValueDictionary())
        op = build(ctx.config.lattice, ctx.config.params, ctx.basis_tau,
                   ctx.basis_upsilon)
        evolve(ctx.initial, op, t)
        return propagate._DERIVED[op]["stage"][1]


@pytest.mark.parametrize("sites, n", [(6, 2), (8, 4)], ids=["desk", "l8"])
def test_interchangeable_species_share_one_stage_propagator(sites, n):
    # with equal particle numbers, hopping and potentials, H2 is H1 with the
    # species' roles swapped, so at t1 = t2 it takes H1's U; the store's
    # entry goes with the last operator that holds it
    from tsim.protocol import ProtocolConfig, prepare, run_cycle
    gc.collect()
    assert len(propagate._STAGE_U) == 0
    ctx = prepare(ProtocolConfig(lattice=LatticeSpec.chain(sites), n_tau=n,
                                 n_upsilon=n, params=ModelParams.defaults(sites)))
    run_cycle(ctx.initial, ctx, 1)
    u1, u2 = (propagate._DERIVED[op]["stage"][1] for op in (ctx.h1, ctx.h2))
    assert u1 is u2
    assert np.array_equal(u2, _own_u(build_h2, ctx, ctx.config.t2))
    assert len(propagate._STAGE_U) == 1
    del ctx, u1, u2
    gc.collect()
    assert len(propagate._STAGE_U) == 0


@pytest.mark.parametrize("change", [
    {"params": replace(ModelParams.defaults(6),
                       u_upsilon=(0.3,) + (0.0,) * 5)},
    {"t1": 2.0, "t2": 1.5},
    # C(5, 2) = C(5, 3), and without the cross coupling both parts' rows are
    # the zero potential, so the particle number alone tells them apart
    {"lattice": LatticeSpec.chain(5), "n_upsilon": 3,
     "params": replace(ModelParams.defaults(5), u_cross=0.0)},
], ids=["potentials", "durations", "particles"])
def test_distinct_parts_keep_distinct_stage_propagators(change):
    from tsim.protocol import ProtocolConfig, prepare, run_cycle
    config = {"lattice": LatticeSpec.chain(6), "n_tau": 2, "n_upsilon": 2,
              "params": ModelParams.defaults(6), **change}
    ctx = prepare(ProtocolConfig(**config))
    run_cycle(ctx.initial, ctx, 1)
    u1, u2 = (propagate._DERIVED[op]["stage"][1] for op in (ctx.h1, ctx.h2))
    assert u1 is not u2 and u1.shape == u2.shape
    assert np.array_equal(u1, _own_u(build_h1, ctx, ctx.config.t1))
    assert np.array_equal(u2, _own_u(build_h2, ctx, ctx.config.t2))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("build", [build_h1, build_h2], ids=["h1", "h2"])
def test_eigen_propagator_matches_oracle_blocks(build, n):
    # U is built from the n x n minors of each block's one-body propagator,
    # past half filling (n = 4, 5, 6) from the conjugated complementary
    # minors; each block of the evolved gamma is checked against the mobile
    # species' sector Hamiltonian built from creation operators, on a ring
    # with a chord, with negative hopping amplitudes
    lattice = LatticeSpec(6, _ring(6).edges + ((0, 3),))
    rng = np.random.default_rng(151 + n)
    params = ModelParams(j_tau=-0.9, j_upsilon=-1.1,
                         u_tau=tuple(rng.uniform(-1, 1, 6)),
                         u_upsilon=tuple(rng.uniform(-1, 1, 6)), u_cross=1.3)
    mobile, frozen = enumerate_basis(6, n), enumerate_basis(6, 2)
    if build is build_h1:
        op = build_h1(lattice, params, mobile, frozen)
        j, u = params.j_tau, params.u_tau
    else:
        op = build_h2(lattice, params, frozen, mobile)
        j, u = params.j_upsilon, params.u_upsilon
    # the closing bond and the chord skip sites, so hops with sign -1 occur
    # wherever the mobile species can hop past another particle; with one
    # hole (n = 5) every skipped site is occupied, and both bonds skip an
    # even number of sites
    assert (1 < n < 5) == any(hop_sign(mask, i, k) == -1
                              for mask in mobile.configs
                              for i, k in lattice.edges
                              if (mask >> i) & 1 != (mask >> k) & 1)
    blocks = []
    for mask in frozen.configs:
        eff = oracles.frozen_potential(u, params.u_cross, mask)
        blocks.append(np.linalg.eigh(
            oracles.species_sector_hamiltonian(6, lattice.edges, n, j, eff)))
    psi = random_state(op.D.shape, 157)
    for t in (2.0, -2.0, 20.0):
        out = evolve(psi, op, t)
        for k, (w, v) in enumerate(blocks):
            idx = np.s_[:, k] if build is build_h1 else np.s_[k, :]
            exact = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi[idx]))
            assert np.max(np.abs(out[idx] - exact)) < 1e-12
    assert propagate._DERIVED[op].keys() == {"stage"}


@pytest.mark.parametrize("lattice, n, n_frozen", [
    pytest.param(LatticeSpec.chain(6), 2, 2, id="desk"),
    pytest.param(LatticeSpec.chain(8), 4, 4, id="l8"),
    pytest.param(LatticeSpec(6, _ring(6).edges + ((0, 3),)), 4, 2, id="chord-4"),
    pytest.param(LatticeSpec(6, _ring(6).edges + ((0, 3),)), 5, 2, id="chord-5"),
])
@pytest.mark.parametrize("build", [build_h1, build_h2], ids=["h1", "h2"])
def test_eigen_propagator_is_symmetric_and_matches_minors(build, lattice, n,
                                                         n_frozen):
    # h_k is real, so block k of U, the n-th compound of exp(-i h_k t), is
    # complex symmetric: U is exactly its transpose, and an entry on either
    # side of the diagonal is det exp(-i h_k t)[S, A], past half filling too
    sites, t = lattice.sites, 1.7
    rng = np.random.default_rng(191 + 10 * sites + n)
    params = ModelParams(j_tau=-0.9, j_upsilon=1.1,
                         u_tau=tuple(rng.uniform(-1, 1, sites)),
                         u_upsilon=tuple(rng.uniform(-1, 1, sites)), u_cross=1.3)
    mobile, frozen = enumerate_basis(sites, n), enumerate_basis(sites, n_frozen)
    if build is build_h1:
        op = build_h1(lattice, params, mobile, frozen)
        j, u = params.j_tau, params.u_tau
    else:
        op = build_h2(lattice, params, frozen, mobile)
        j, u = params.j_upsilon, params.u_upsilon
    evolve(random_state(op.D.shape, 197), op, t)
    big_u = propagate._DERIVED[op]["stage"][1]
    assert np.array_equal(big_u, big_u.transpose(0, 2, 1))
    hop = np.zeros((sites, sites))
    for i, k in lattice.edges:
        hop[i, k] = hop[k, i] = j
    sets = [np.flatnonzero(row) for row in mobile.occupations]
    for k in rng.choice(frozen.dim, 3, replace=False):
        mask = frozen.configs[k]
        eff = oracles.frozen_potential(u, params.u_cross, mask)
        one = expm(-1j * t * (hop + np.diag(eff)))
        for s, a in rng.integers(mobile.dim, size=(6, 2)):
            for row, col in ((s, a), (a, s)):
                minor = np.linalg.det(one[np.ix_(sets[row], sets[col])])
                assert abs(big_u[k, row, col] - minor) < 1e-13


def test_operator_without_one_body_parts_is_refused():
    # both methods read the spectrum from the parts, so an operator that
    # lacks them is refused where it is built, before any propagation
    lattice, params, bt, bu = _chain_setup(6, 2, 2, seed=163)
    op = build_h1(lattice, params, bt, bu)
    with pytest.raises(ValueError, match="^operator has 0 one-body parts for 1 hop"):
        Hamiltonian(op.hop_x, None, op.D, ())


def test_eigen_propagator_build_peak_memory():
    # the U build at L=8, 4+4 holds U beside the minors of one chunk of
    # blocks and the cached tables
    import tracemalloc
    lattice, params, bt, bu = _chain_setup(8, 4, 4, seed=173)
    op = build_h1(lattice, params, bt, bu)
    psi = random_state(op.D.shape, 179)
    propagate._minor_tables.cache_clear()
    # so that the peak is a build's, not a lookup of a live operator's U
    gc.collect()
    assert len(propagate._STAGE_U) == 0
    tracemalloc.start()
    try:
        out = evolve(psi, op, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    u = propagate._DERIVED[op]["stage"][1]
    assert u.shape == (70, 70, 70) and out.shape == psi.shape
    assert peak <= 1.5 * u.nbytes


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
        out = chebyshev(psi, op, t)
        assert np.max(np.abs(out.ravel() - exact)) < 1e-12


def test_second_hop_matches_the_public_product():
    # the full H runs as two real halves, and each half's hop_y runs through
    # csr_matvecs on a transposed copy of half of the rows at a time, in a
    # scratch buffer that the half owns; the product of gamma's real and of
    # its imaginary part must be, bit for bit, D*x + hop_x x + (hop_y x^T)^T
    # by scipy's public csr_array product.  gamma is 20 x 15, so a buffer of
    # the swapped shape cannot pass
    lattice = LatticeSpec(6, _ring(6).edges + ((0, 3),))
    rng = np.random.default_rng(191)
    params = ModelParams(j_tau=0.9, j_upsilon=1.2,
                         u_tau=tuple(rng.uniform(-1, 1, 6)),
                         u_upsilon=tuple(rng.uniform(-1, 1, 6)), u_cross=1.3)
    op = build_full(lattice, params, enumerate_basis(6, 3), enumerate_basis(6, 2))
    assert op.D.shape == (20, 15)
    assert op.hop_x.data.min() < 0 and op.hop_y.data.min() < 0
    hop_x, hop_y = (sp.csr_array((h.data, h.indices, h.indptr), shape=h.shape)
                    for h in (op.hop_x, op.hop_y))
    g = random_state(op.D.shape, 193)
    # the kernel adds hop_x's entries to D*x in place, row by row, so the
    # public product takes D*x as the first column of each row, through an
    # identity block in front of hop_x
    first = sp.hstack([sp.eye_array(20), hop_x], format="csr")
    wants = []
    for x in (g.real, g.imag):
        want = first @ np.vstack([op.D * x, x])
        want += (hop_y @ x.T).T
        wants.append(want)
    got = apply(op, g)
    assert np.array_equal(got.real, wants[0]) and np.array_equal(got.imag, wants[1])
    # T_1 = H x / 2 is each half's first term, made on its own buffers, and
    # weighted by Im(c_1) into the odd sum
    for x, want in zip((g.real, g.imag), wants):
        even, odd = np.empty((2, *op.D.shape))
        propagate._half((op.hop_x, op.hop_y, op.D), x,
                        np.array([0, 1j], np.complex128), even, odd)
        assert np.array_equal(2 * odd, want) and not even.any()


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
        eff = oracles.frozen_potential(u, params.u_cross, frozen)
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
    assert propagate._DERIVED[part].keys() == {"chebyshev"}


def _chebyshev_peak(build, sites, t):
    """Peak traced bytes of a warm ``chebyshev`` call at half filling
    of both species on a chain, and the bytes of gamma."""
    import tracemalloc
    lattice, params, bt, bu = _chain_setup(sites, sites // 2, sites // 2, seed=97)
    op = build(lattice, params, bt, bu)
    psi = random_state((bt.dim, bu.dim), 101)
    chebyshev(psi, op, t)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = chebyshev(psi, op, t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == psi.shape
    return peak, psi.nbytes


@pytest.fixture
def lockstep_slabs(monkeypatch):
    """Slabs on a pool of two threads that wait for each other before each
    product, so that both slabs' buffers are live at once however the
    threads are scheduled, on one CPU too; the calling thread never waits."""
    both, product = threading.Barrier(2, timeout=60), propagate._product

    def held(*args):
        if threading.current_thread() is not threading.main_thread():
            both.wait()
        return product(*args)

    pool = ThreadPoolExecutor(2)
    monkeypatch.setattr(propagate, "_pool", pool)
    monkeypatch.setattr(propagate, "_product", held)
    yield
    pool.shutdown()


@pytest.mark.parametrize("t", [0.5, 20.0])
@pytest.mark.parametrize("build", [build_h1, build_h2, build_full],
                         ids=["h1", "h2", "full"])
def test_chebyshev_peak_memory(build, t, monkeypatch, lockstep_slabs):
    # a one-hop stage on one slab: three rotating buffers and one
    # accumulator, each the size of gamma, plus numpy's cast buffer of D *
    # gamma (all of gamma at this size) and H2's transposed result, made once
    # the buffers are freed; on two slabs: the result, held from the start,
    # beside each slab's buffers and cast buffer, half of gamma's each, live
    # at once since the slabs run in lockstep.  The full H runs as two real
    # halves into four float64 sums that the caller holds (2 gamma), each
    # half with its own float64 buffers and scratch: traced, about 3.8 gamma
    # with the halves in turn and 5.7 gamma with both live on two threads at
    # L=8, within the bound either way.  The folded operator is built once
    # per operator, by the first call, and is not counted
    for threads in (1, 2):
        monkeypatch.setattr(propagate, "_THREADS", threads)
        peak, nbytes = _chebyshev_peak(build, 8, t)
        assert peak <= 6.5 * nbytes, threads
        if build is build_h2:
            # H2's transposed copy of its result reuses its freed buffers, and
            # its slabs write their rows of the result, so its peak is H1's;
            # at 10 sites the cast buffer no longer holds all of gamma, and a
            # copy made beside the live buffers adds a whole one
            h1, _ = _chebyshev_peak(build_h1, 10, t)
            h2, nbytes = _chebyshev_peak(build_h2, 10, t)
            assert h2 <= h1 + 0.25 * nbytes, threads


def test_spectral_bounds_once_per_operator(monkeypatch):
    # the interval is computed on an operator's first Chebyshev call, once,
    # and never for an operator that the eigen path serves
    calls = []

    def counting_bounds(op):
        calls.append(op)
        return _spectral_interval(op)

    monkeypatch.setattr(propagate, "_spectral_interval", counting_bounds)
    lattice, params, bt, bu = _chain_setup(5, 2, 2, seed=103)
    full, h2 = build_full(lattice, params, bt, bu), build_h2(lattice, params, bt, bu)
    psi = random_state((bt.dim, bu.dim), 107)
    times = (0.8, -0.8, 2.5, -0.1)
    for t in times:
        evolve(psi, h2, t)
    assert calls == [] and "chebyshev" not in propagate._DERIVED[h2]
    for op in (full, h2):
        for t in times:
            evolve(psi, op, t)
            chebyshev(psi, op, t)
    assert calls == [full, h2]


@pytest.mark.parametrize("build", [build_h1, build_full], ids=["eigen", "chebyshev"])
def test_evolve_leaves_the_operator_as_built(build):
    # what propagation derives lives in its own map, keyed by the operator
    # and gone with it; the operator holds only its four fields
    assert [f.name for f in fields(Hamiltonian)] == ["hop_x", "hop_y", "D", "parts"]
    lattice, params, bt, bu = _chain_setup(6, 2, 2, seed=109)
    op = build(lattice, params, bt, bu)
    before = dict(vars(op))
    evolve(random_state(op.D.shape, 113), op, 1.0)
    assert vars(op).keys() == before.keys()
    assert all(vars(op)[k] is v for k, v in before.items())
    assert op in propagate._DERIVED
    gc.collect()
    entries = len(propagate._DERIVED)
    del op
    assert len(propagate._DERIVED) == entries - 1


@pytest.fixture(scope="module")
def chain10():
    """H1 and H2 of an L=10, 5+5 chain with random couplings, where evolve
    takes Chebyshev, and a random gamma."""
    lattice, params, bt, bu = _chain_setup(10, 5, 5, seed=139)
    return ({"h1": build_h1(lattice, params, bt, bu),
             "h2": build_h2(lattice, params, bt, bu)},
            random_state((bt.dim, bu.dim), 149))


def _slabs_and_one_thread(monkeypatch, op, psi, t):
    """The Chebyshev result on two slabs, the column counts of the slabs
    that ran off the calling thread, and the result on one thread."""
    slabs, recurrence = [], propagate._recurrence

    def counting(h, src, c, phase):
        if threading.current_thread() is not threading.main_thread():
            slabs.append(src.shape[1])
        return recurrence(h, src, c, phase)

    monkeypatch.setattr(propagate, "_recurrence", counting)
    monkeypatch.setattr(propagate, "_THREADS", 2)
    two = chebyshev(psi, op, t)
    monkeypatch.setattr(propagate, "_THREADS", 1)
    one = chebyshev(psi, op, t)
    assert two.flags.c_contiguous and one.flags.c_contiguous
    return two, sorted(slabs), one


@pytest.mark.parametrize("t", [0.125, -0.125, 2.0, -2.0])
@pytest.mark.parametrize("mobile", ["h1", "h2"])
def test_slabs_match_one_thread_at_l10(chain10, mobile, t, monkeypatch):
    # each column of gamma (row, for H2) sees the same arithmetic in a slab
    # as in the whole, so the split is exact to the bit
    ops, psi = chain10
    two, slabs, one = _slabs_and_one_thread(monkeypatch, ops[mobile], psi, t)
    assert slabs == [126, 126]
    assert np.array_equal(two, one)


def _cheb(widths, terms):
    """A stage pinned as Chebyshev: its slab widths, and its term count at
    each of ``_STAGE_TIMES``."""
    return [("chebyshev", widths, n) for n in terms]


_EIGEN = [("eigen", [], None)] * 3
_STAGE_TIMES = (2.0, -2.0, 0.125)


@pytest.mark.parametrize("sites,n,stages", [
    (6, 2, {"h1": _EIGEN, "h2": _EIGEN,
            "full": _cheb([15, 15], (39, 39, 14))}),
    (8, 4, {"h1": _EIGEN, "h2": _EIGEN,
            "full": _cheb([70, 70], (50, 50, 15))}),
    (10, 5, {"h1": _cheb([126, 126], (40, 40, 14)),
             "h2": _cheb([126, 126], (40, 40, 14)),
             "full": _cheb([252, 252], (58, 58, 17))}),
    (12, 6, {"h1": _cheb([462, 462], (44, 44, 14)),
             "h2": _cheb([462, 462], (44, 44, 14)),
             "full": _cheb([924, 924], (65, 65, 18))}),
], ids=["desk", "L8", "L10", "L12"])
def test_each_stage_keeps_its_method_slabs_and_terms(sites, n, stages,
                                                     monkeypatch):
    # H1, H2 and the full H of each ladder chain, default params, at each t:
    # the method evolve picks, the column widths of the slabs it runs on two
    # threads, or of the full H's two halves, and the Chebyshev term count;
    # both methods are stubbed, so nothing propagates and the whole ladder
    # takes a fraction of a second
    runs = []

    def eigen(op, src, t):
        runs.append(("eigen", None, None))
        return src

    def recurrence(h, src, c, phase):
        runs.append(("chebyshev", src.shape[1], len(c)))
        return np.zeros(src.shape, np.complex128)

    def half(h, x, c, even, odd):
        runs.append(("chebyshev", x.shape[1], len(c)))
        even.fill(0.0)
        odd.fill(0.0)

    monkeypatch.setattr(propagate, "_eigen", eigen)
    monkeypatch.setattr(propagate, "_recurrence", recurrence)
    monkeypatch.setattr(propagate, "_half", half)
    monkeypatch.setattr(propagate, "_THREADS", 2)
    lattice, params = LatticeSpec.chain(sites), ModelParams.defaults(sites)
    basis = enumerate_basis(sites, n)
    gamma = np.zeros((basis.dim, basis.dim), np.complex128)
    for name, build in (("h1", build_h1), ("h2", build_h2), ("full", build_full)):
        op = build(lattice, params, basis, basis)
        got = []
        for t in _STAGE_TIMES:
            runs.clear()
            evolve(gamma, op, t)
            (method,), terms = {r[0] for r in runs}, {r[2] for r in runs}
            assert len(terms) == 1, (name, t, runs)
            got.append((method, sorted(r[1] for r in runs if r[1]), terms.pop()))
        assert got == stages[name], name


def test_bessel_length_keeps_every_term_count():
    # K, bisected from the bound (|x|/2)**k / k! with no array, is never
    # longer than the 2*int(|x|) + 40 Bessel terms the expansion took before,
    # and the cut at the last |J_k(x)| above the cutoff is the same over
    # either array, so every term count and every output stays as it was;
    # jv is elementwise, so the shorter array is the longer one's prefix
    from scipy.special import jv
    for x in np.concatenate([g := np.geomspace(1e-3, 1e4, 150), -g]):
        k, old = propagate._bessel_length(x), 2 * int(abs(x)) + 40
        assert 2 <= k <= old, x
        big = np.abs(jv(np.arange(old), x)) > propagate._CHEB_CUTOFF
        assert max(2, np.flatnonzero(big[:k])[-1] + 1) == max(
            2, np.flatnonzero(big)[-1] + 1), x


@pytest.mark.parametrize("sites,n,full_threads,stages", [
    (6, 2, 1, {"h1": _EIGEN, "h2": _EIGEN,
               "full": _cheb([15, 15], (39, 39, 14))}),
    (8, 4, 1, {"h1": _EIGEN, "h2": _EIGEN,
               "full": _cheb([70, 70], (50, 50, 15))}),
    (10, 5, 2, {"h1": _cheb([126, 126], (40, 40, 14)),
                "h2": _cheb([126, 126], (40, 40, 14)),
                "full": _cheb([252, 252], (58, 58, 17))}),
    (12, 6, 2, {"h1": _cheb([462, 462], (44, 44, 14)),
                "h2": _cheb([462, 462], (44, 44, 14)),
                "full": _cheb([924, 924], (65, 65, 18))}),
], ids=["desk", "L8", "L10", "L12"])
def test_stage_rule_returns_each_pinned_method_and_thread_count(
        sites, n, full_threads, stages, monkeypatch):
    # the rows of the stage pin, asked of the rule alone, from the stage's
    # shape in H1's layout and the operator's half-width: the method; one
    # thread on the eigen path, a thread per slab for a one-hop Chebyshev
    # stage, and the full H's two halves on the pool only past the eigen
    # path's work bound; a Bessel array whose cut is the pinned term count
    from scipy.special import jv
    monkeypatch.setattr(propagate, "_THREADS", 2)
    lattice, params = LatticeSpec.chain(sites), ModelParams.defaults(sites)
    basis = enumerate_basis(sites, n)
    for name, build in (("h1", build_h1), ("h2", build_h2), ("full", build_full)):
        lo, hi = _spectral_interval(build(lattice, params, basis, basis))
        for t, (method, widths, terms) in zip(_STAGE_TIMES, stages[name]):
            got, threads, k = propagate.stage_rule(
                (basis.dim,) * 2, basis.dim, name == "full",
                lambda m: (hi - lo) / 2, t)
            assert (got, threads) == (method, full_threads if name == "full"
                                      else max(1, len(widths))), (name, t)
            if method == "chebyshev":
                big = np.abs(jv(np.arange(k), (hi - lo) / 2 * t)) > 1e-15
                assert np.flatnonzero(big)[-1] + 1 == terms, (name, t)


def test_stage_rule_allocates_no_array():
    # the rule is arithmetic on its arguments: no array, even for a Bessel
    # array of a million terms, and none on the way to a refusal
    import tracemalloc
    stages = [((15, 15), 15, False, 3.4, 2.0), ((252, 252), 252, False, 7.5, 2.0),
              ((252, 252), 252, True, 15.0, 1e5), ((6, 4), 6, False, 4e200, 2.0),
              ((252, 252), 252, True, 15.0, 1e308)]
    propagate.stage_rule(*stages[0][:3], lambda m: 1.0, 1.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for shape, b, coupled, a, t in stages:
            try:
                propagate.stage_rule(shape, b, coupled, lambda m: a, t)
            except ValueError:
                pass
        peak = tracemalloc.get_traced_memory()[1] - base
        numpy = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    assert len(numpy.traces) == 0
    assert peak < 4096


@pytest.mark.parametrize("lattice,n_tau,n_upsilon,slabs", [
    # gamma (20, 15): H1 splits 15 columns, H2 20 rows
    pytest.param(LatticeSpec(6, _ring(6).edges + ((0, 3),)), 3, 2,
                 {"h1": [7, 8], "h2": [10, 10]}, id="ring-chord-3-2"),
    # gamma (15, 20)
    pytest.param(_ladder(3), 2, 3, {"h1": [10, 10], "h2": [7, 8]},
                 id="ladder-2-3"),
    # gamma (15, 1) and (1, 20): one column for H1, one row for H2, which
    # run on the calling thread
    pytest.param(_ladder(3), 2, 0, {"h1": [], "h2": [7, 8]}, id="ladder-2-0"),
    pytest.param(_ladder(3), 0, 3, {"h1": [10, 10], "h2": []}, id="ladder-0-3"),
])
def test_slabs_match_one_thread_off_chain(lattice, n_tau, n_upsilon, slabs,
                                          monkeypatch):
    sites = lattice.sites
    rng = np.random.default_rng(151)
    params = ModelParams(j_tau=0.8, j_upsilon=-1.1,
                         u_tau=tuple(rng.uniform(-1, 1, sites)),
                         u_upsilon=tuple(rng.uniform(-1, 1, sites)),
                         u_cross=1.7)
    bt, bu = enumerate_basis(sites, n_tau), enumerate_basis(sites, n_upsilon)
    # bonds that skip an occupied site carry a fermionic sign of -1
    assert any(hop_sign(mask, i, j) == -1
               for basis in (bt, bu) for mask in basis.configs
               for i, j in lattice.edges if (mask >> i) & 1 != (mask >> j) & 1)
    psi = random_state((bt.dim, bu.dim), 157)
    for name, build in (("h1", build_h1), ("h2", build_h2)):
        op = build(lattice, params, bt, bu)
        for t in (1.9, -0.4):
            two, ran, one = _slabs_and_one_thread(monkeypatch, op, psi, t)
            assert ran == slabs[name]
            assert np.array_equal(two, one)


def test_slab_error_reaches_caller(chain10, monkeypatch):
    # an error inside a slab thread is raised by evolve, and the pool still
    # serves the next call
    ops, psi = chain10
    monkeypatch.setattr(propagate, "_THREADS", 2)
    recurrence = propagate._recurrence

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("slab failed")
        return recurrence(*args)

    monkeypatch.setattr(propagate, "_recurrence", failing)
    with pytest.raises(RuntimeError, match="slab failed"):
        evolve(psi, ops["h1"], 0.125)
    monkeypatch.setattr(propagate, "_recurrence", recurrence)
    two = evolve(psi, ops["h1"], 0.125)
    monkeypatch.setattr(propagate, "_THREADS", 1)
    assert np.array_equal(two, evolve(psi, ops["h1"], 0.125))


@pytest.fixture(scope="module")
def full_ops():
    """The full H of an L=10, 5+5 chain with random couplings, and of a ring
    with a chord at 3+2 whose upsilon hop is negative, so that bonds that
    skip an occupied site carry -1 signs, each with a random gamma."""
    lattice, params, bt, bu = _chain_setup(10, 5, 5, seed=139)
    chain = build_full(lattice, params, bt, bu)
    lattice = LatticeSpec(6, _ring(6).edges + ((0, 3),))
    rng = np.random.default_rng(197)
    params = ModelParams(j_tau=0.8, j_upsilon=-1.1,
                         u_tau=tuple(rng.uniform(-1, 1, 6)),
                         u_upsilon=tuple(rng.uniform(-1, 1, 6)), u_cross=1.7)
    ring = build_full(lattice, params, enumerate_basis(6, 3), enumerate_basis(6, 2))
    assert ring.hop_y.data.min() < 0 < ring.hop_y.data.max()
    assert any(hop_sign(mask, i, j) == -1 for mask in enumerate_basis(6, 3).configs
               for i, j in lattice.edges if (mask >> i) & 1 != (mask >> j) & 1)
    return {name: (op, random_state(op.D.shape, 199))
            for name, op in (("chain10", chain), ("ring-chord-3-2", ring))}


def _halves_on_pool_and_in_turn(monkeypatch, op, psi, t):
    """The full H's result with two threads and with one, the bound patched
    below the operator's, and for each call whether each of its two halves
    ran on the calling thread."""
    ran, half = [], propagate._half

    def counting(*args):
        ran[-1].append(threading.current_thread() is threading.main_thread())
        return half(*args)

    monkeypatch.setattr(propagate, "_half", counting)
    results = []
    for threads in (2, 1):
        monkeypatch.setattr(propagate, "_THREADS", threads)
        ran.append([])
        results.append(chebyshev(psi, op, t))
    return (*results, ran)


@pytest.mark.parametrize("t", [2.0, -2.0, 0.125, -0.125])
@pytest.mark.parametrize("name", ["chain10", "ring-chord-3-2"])
def test_halves_match_one_thread(full_ops, name, t, monkeypatch):
    # the halves never exchange data and each does the same arithmetic on
    # the pool as on the calling thread, so the full H's result is exact to
    # the bit at either thread count
    op, psi = full_ops[name]
    two, one, ran = _halves_on_pool_and_in_turn(monkeypatch, op, psi, t)
    assert ran == [[False, False], [True, True]]
    assert two.flags.c_contiguous and one.flags.c_contiguous
    assert np.array_equal(two, one)


def test_half_error_reaches_caller(full_ops, monkeypatch):
    # an error inside either half on the pool is raised by evolve, and the
    # pool still serves the next call
    op, psi = full_ops["chain10"]
    half = propagate._half
    for failing_part in (0, 1):

        def failing(h, x, c, even, odd):
            # gamma's real part starts at its first byte, the imaginary at 8
            if (x.ctypes.data - psi.ctypes.data) // 8 == failing_part:
                raise RuntimeError("half failed")
            return half(h, x, c, even, odd)

        monkeypatch.setattr(propagate, "_half", failing)
        monkeypatch.setattr(propagate, "_THREADS", 2)
        with pytest.raises(RuntimeError, match="half failed"):
            chebyshev(psi, op, 0.125)
    monkeypatch.setattr(propagate, "_half", half)
    two = chebyshev(psi, op, 0.125)
    monkeypatch.setattr(propagate, "_THREADS", 1)
    assert np.array_equal(two, chebyshev(psi, op, 0.125))


def test_callers_share_the_pool_with_the_halves(full_ops, monkeypatch):
    # more callers than CPUs give the full H's halves to the one pool at
    # once, with the interpreter switching threads every microsecond; each
    # caller gets its own result, bit for bit the serial one
    op, psi = full_ops["ring-chord-3-2"]
    monkeypatch.setattr(propagate, "_EIGEN_WORK_MAX", 0)
    monkeypatch.setattr(propagate, "_THREADS", 2)
    times = (1.9, -0.4, 0.125)
    serial = {t: evolve(psi, op, t) for t in times}
    start, results = threading.Barrier(3, timeout=60), {}

    def caller(k):
        start.wait()
        for t in times:
            results[k, t] = evolve(psi, op, t)

    callers = [threading.Thread(target=caller, args=(k,), daemon=True)
               for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert results.keys() == {(k, t) for k in range(3) for t in times}
    for (k, t), out in results.items():
        assert np.array_equal(out, serial[t]), (k, t)


def test_two_callers_share_the_pool(chain10, monkeypatch):
    # two threads split their stages on the one pool at once, and each gets
    # its own slabs back without waiting on the other's
    ops, psi = chain10
    monkeypatch.setattr(propagate, "_THREADS", 2)
    times = (0.7, -0.7)
    serial = {(name, t): evolve(psi, op, t) for name, op in ops.items() for t in times}
    both, results = threading.Barrier(2), {}

    def caller(name):
        both.wait()
        for t in times:
            results[name, t] = evolve(psi, ops[name], t)

    callers = [threading.Thread(target=caller, args=(name,), daemon=True)
               for name in ops]
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in callers)
    assert results.keys() == serial.keys()
    for key, expected in serial.items():
        assert np.array_equal(results[key], expected), key


def test_import_starts_no_thread():
    # the pool is built at import, and its threads start on the first split
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = "import threading, tsim; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "1\n"


def test_import_without_sched_getaffinity():
    # macOS has no os.sched_getaffinity: the slab count falls back to the
    # CPU count, still at most 2, and a desk run goes through
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = """if True:
        import os
        del os.sched_getaffinity
        from tsim import propagate
        from tsim.model import LatticeSpec, ModelParams
        from tsim.protocol import ProtocolConfig, run_protocol
        run = run_protocol(ProtocolConfig(lattice=LatticeSpec.chain(6), n_tau=2,
                                          n_upsilon=2, params=ModelParams.defaults(6),
                                          cycles=2))
        print(propagate._THREADS, min(2, os.cpu_count() or 1), len(run.records))
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    threads, expected, records = map(int, out.stdout.split())
    assert threads == expected and records == 11


def test_desk_run_starts_no_thread(monkeypatch):
    # the desk's H1 and H2 take the eigen path, and its full H is below the
    # work bound, so its two halves run in turn on the calling thread: no
    # work reaches the pool and its threads never start
    from tsim.protocol import (ProtocolConfig, run_full_hamiltonian,
                               run_protocol, run_trotter)

    class NoPool:
        def map(self, *args, **kwargs):
            raise AssertionError("work reached the slab pool")

        submit = map

    monkeypatch.setattr(propagate, "_pool", NoPool())
    monkeypatch.setattr(propagate, "_THREADS", 2)
    cfg = ProtocolConfig(lattice=LatticeSpec.chain(6), n_tau=2, n_upsilon=2,
                         params=ModelParams.defaults(6), cycles=3, trotter_steps=4)
    for run in (run_protocol, run_full_hamiltonian, run_trotter):
        run(cfg)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_splits_on_its_own_pool(monkeypatch):
    # a child forked after the pool's threads started has none of them, so
    # it must build its own pool rather than queue work on the inherited one
    import signal
    import warnings
    lattice, params, bt, bu = _chain_setup(6, 3, 3, seed=163)
    op = build_h1(lattice, params, bt, bu)
    psi = random_state((bt.dim, bu.dim), 167)
    monkeypatch.setattr(propagate, "_THREADS", 2)
    expected = chebyshev(psi, op, 1.9)
    parent_pool = propagate._pool
    with warnings.catch_warnings():
        # newer Pythons warn that forking a threaded process may deadlock
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(30)  # a hung child dies by SIGALRM
            code = int(propagate._pool is parent_pool or not np.array_equal(
                chebyshev(psi, op, 1.9), expected))
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
