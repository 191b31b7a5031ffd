import gc
import itertools
import re
from dataclasses import asdict, replace
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import apply, desk_config, random_state
from tsim import observables, propagate, protocol
from tsim.config import parse_config
from tsim.erasure import ErasureSpec
from tsim.fock import enumerate_basis
from tsim.model import LatticeSpec, ModelParams, build_full
from tsim.propagate import evolve
from tsim.protocol import (STAGE_ERASE, STAGE_FWD1, STAGE_FWD2, STAGE_INIT,
                           STAGE_REV1, STAGE_REV2, StageRecord, ProtocolConfig,
                           prepare, run_cycle, run_full_hamiltonian,
                           run_protocol, run_trotter)


def _config_4_1_1(**overrides):
    return desk_config(lattice=LatticeSpec.chain(4), n_tau=1, n_upsilon=1,
                       params=ModelParams.defaults(4), **overrides)


def test_domain_wall_initial_state():
    bt, bu = enumerate_basis(6, 2), enumerate_basis(6, 2)
    psi = prepare(desk_config()).initial
    assert psi[bt.configs.tolist().index(0b000011), bu.configs.tolist().index(0b000011)] == 1.0
    assert np.count_nonzero(psi) == 1


def test_domain_wall_report_all_zero():
    ctx = prepare(desk_config())
    report = ctx.measure(ctx.initial)
    assert report.s_tau == 0.0
    assert report.s_upsilon == 0.0
    assert report.s_total == 0.0
    assert report.s_ent < 1e-12
    assert report.fidelity_to_initial == 1.0


@pytest.mark.parametrize("name", ["desk", "comparison"])
def test_product_start_has_no_entanglement(name):
    # H1 moves only tau, so from the domain wall gamma keeps its single
    # nonzero column through fwd1 and stays a product state.  Its one
    # Schmidt weight is its squared norm n, which the propagator moves by
    # about 1e-15, so S_ent is S_upsilon's -n ln n, not an exact 0
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    ctx = prepare(parse_config(path.read_text())[0])
    _, records, _ = run_cycle(ctx.initial, ctx, 1)
    fwd1 = records[0].report
    assert records[0].stage == STAGE_FWD1
    assert ctx.measure(ctx.initial).s_ent == 0.0
    assert fwd1.s_ent <= 2e-15
    assert abs(fwd1.s_ent - fwd1.s_upsilon) <= 1e-15


def test_explicit_amplitudes_passthrough():
    amps = np.zeros(16, dtype=complex)
    amps[5] = 1.0
    psi = prepare(_config_4_1_1(initial=tuple(amps))).initial
    # explicit amplitudes list gamma row-major
    assert psi.shape == (4, 4) and psi[1, 1] == 1.0
    assert np.array_equal(psi.ravel(), amps)


def test_initial_state_errors():
    with pytest.raises(ValueError, match="^initial: "):
        _config_4_1_1(initial="checkerboard")
    with pytest.raises(ValueError, match="^initial: "):
        _config_4_1_1(initial=tuple(np.zeros(7, dtype=complex)))
    with pytest.raises(ValueError, match="^initial: "):
        _config_4_1_1(initial=tuple(np.zeros(16, dtype=complex)))
    # a document cannot carry a NaN; a library caller can
    with pytest.raises(ValueError, match="^initial: amplitudes must be finite$"):
        _config_4_1_1(initial=(complex("nan"),) + (1j,) * 15)


def test_control_cycle_is_unitary_round_trip():
    cfg = desk_config(no_erasure_run=True, cycles=1)
    result = run_protocol(cfg)
    assert result.records[-1].report.fidelity_to_initial >= 1 - 1e-8
    assert result.phases == ()


def test_zero_theta_erasure_equals_disabled():
    erasure = ErasureSpec(kind="site-phase", species="upsilon", site=2, theta=0.0)
    with_phase = run_protocol(desk_config(erasure=erasure, cycles=2))
    without = run_protocol(desk_config(no_erasure_run=True, cycles=2))
    assert np.array_equal(with_phase.final_state, without.final_state)
    # the zero-phase run still records its erase stages
    erase_records = [r for r in with_phase.records if r.stage == STAGE_ERASE]
    assert len(erase_records) == 2


def test_erasure_cycle_generates_entanglement():
    result = run_protocol(desk_config(master_seed=123))
    assert result.records[0].report.s_ent < 1e-12
    assert result.records[-1].report.s_ent > 0.1


def test_trajectory_is_deterministic():
    cfg = desk_config(cycles=3, master_seed=99)
    a = run_protocol(cfg)
    b = run_protocol(cfg)
    assert a.records == b.records
    assert np.array_equal(a.final_state, b.final_state)
    assert [c for c, _ in a.phases] == [c for c, _ in b.phases] == [1, 2, 3]
    assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(a.phases, b.phases))


def test_entropies_return_on_control_run():
    cfg = desk_config(no_erasure_run=True, cycles=2)
    result = run_protocol(cfg)
    finals = [r for r in result.records if r.stage == "rev1"]
    for rec in finals:
        assert abs(rec.report.s_tau) < 1e-6
        assert abs(rec.report.s_upsilon) < 1e-6
        assert abs(rec.report.s_total) < 1e-6
        assert abs(rec.report.s_ent) < 1e-6


# a ring with a chord: hops along the chord and the closing bond skip
# occupied sites, so the hopping matrices carry -1 signs
_RING_WITH_CHORD = LatticeSpec(
    6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)))


@pytest.mark.parametrize("overrides, method", [
    (dict(cycles=3, master_seed=8), "stage"),
    (dict(lattice=LatticeSpec.chain(10), n_tau=5, n_upsilon=5,
          params=ModelParams.defaults(10)), "chebyshev"),
    (dict(lattice=_RING_WITH_CHORD, n_tau=3, n_upsilon=3, cycles=3,
          master_seed=8, erasure=ErasureSpec(species="tau")), "stage"),
], ids=["desk-eigen", "chain10-chebyshev", "ring-with-chord"])
def test_one_hop_stages_keep_the_frozen_marginals(overrides, method):
    # H1 is block-diagonal over upsilon configs, so it keeps every column
    # norm of gamma, the upsilon marginal, and H2 every row norm, the tau
    # marginal; the erase and closing phases are diagonal and keep both.  A
    # propagator that mixes blocks breaks this
    cfg = desk_config(**overrides)
    ctx = prepare(cfg)
    state = ctx.initial
    records = [StageRecord(0, STAGE_INIT, 0.0, ctx.measure(state))]
    for cycle in range(1, cfg.cycles + 1):
        state, recs, _ = run_cycle(state, ctx, cycle)
        records += recs
    assert all(method in propagate._DERIVED[op] for op in (ctx.h1, ctx.h2))
    frozen = {STAGE_FWD1: "upsilon", STAGE_REV1: "upsilon",
              STAGE_FWD2: "tau", STAGE_REV2: "tau"}
    checked = 0
    for prev, rec in zip(records, records[1:]):
        if rec.stage in frozen:
            for name in (f"s_{frozen[rec.stage]}", f"densities_{frozen[rec.stage]}"):
                np.testing.assert_allclose(getattr(rec.report, name),
                                           getattr(prev.report, name),
                                           rtol=0, atol=1e-12, err_msg=name)
            checked += 1
    assert checked == 4 * cfg.cycles


def _counting(calls, real):
    def count(*args):
        calls.append(args)
        return real(*args)
    return count


@pytest.mark.parametrize("species, no_erasure_run", [
    ("upsilon", False), ("upsilon", True), ("tau", False), ("tau", True),
], ids=["upsilon-erased", "upsilon-control", "tau-erased", "tau-control"])
def test_cycle_measure_and_evolve_counts(species, no_erasure_run, monkeypatch):
    # the erase record reuses fwd2's diagnostics; upsilon erased, each fwd1
    # after cycle 1 is derived from the previous rev2, and tau erased, each
    # rev2 from its fwd1, so a steady cycle runs 3 evolves and 3 measures
    measures, evolves = [], []
    monkeypatch.setattr(observables, "measure",
                        _counting(measures, observables.measure))
    monkeypatch.setattr(protocol, "evolve", _counting(evolves, protocol.evolve))
    c = 3
    run_protocol(desk_config(cycles=c, no_erasure_run=no_erasure_run,
                             erasure=ErasureSpec(species=species)))
    if species == "upsilon":
        assert len(measures) == 1 + 4 + 3 * (c - 1)
        assert len(evolves) == 4 + 3 * (c - 1)
    else:
        assert len(measures) == 1 + 3 * c
        assert len(evolves) == 3 * c


def _assert_records(got, want):
    """The same cycles and stages, each model time and field within 1e-12."""
    assert [(r.cycle, r.stage) for r in got] == [w[:2] for w in want]
    for rec, (cycle, stage, t, report) in zip(got, want):
        assert list(asdict(rec.report)) == list(report)
        np.testing.assert_allclose(
            np.hstack([rec.model_time, *asdict(rec.report).values()]),
            np.hstack([t, *report.values()]), rtol=0, atol=1e-12,
            err_msg=f"cycle {cycle} {stage}: model time, then {list(report)}")


@st.composite
def _runs(draw):
    """Up to 5 sites, any nonempty edge set, particle numbers, couplings,
    t1 != t2, erasure, start, 1-4 cycles and Trotter steps, and seed."""
    sites, real = draw(st.integers(2, 5)), st.floats(-2, 2)
    edges = draw(st.lists(st.sampled_from(list(itertools.combinations(
        range(sites), 2))), min_size=1, unique=True))
    n = draw(st.integers(0, sites)), draw(st.integers(0, sites))
    u = st.tuples(*[real] * sites)
    t1, t2 = draw(st.lists(st.floats(0.1, 3), min_size=2, max_size=2, unique=True))
    species = draw(st.sampled_from(["tau", "upsilon"]))
    erasure = draw(st.sampled_from([ErasureSpec(species=species), ErasureSpec(
        "site-phase", species, draw(st.integers(0, sites - 1)), draw(real))]))
    amplitude = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
    initial = st.tuples(*[amplitude] * (comb(sites, n[0]) * comb(sites, n[1])))
    return ProtocolConfig(
        LatticeSpec(sites, tuple(edges)), *n,
        ModelParams(draw(real), draw(real), draw(u), draw(u), draw(real)),
        t1, t2, draw(st.integers(1, 4)), erasure, draw(st.integers(0, 2**64)),
        draw(st.just("domain-wall") | initial.filter(any)), draw(st.booleans()),
        trotter_steps=draw(st.integers(1, 4)))


_TAU, _RING = ErasureSpec(species="tau"), dict(lattice=_RING_WITH_CHORD, n_tau=3,
                                               n_upsilon=2, master_seed=8)


def _assert_runs_match_the_reference(cfg, methods=("stage", "chebyshev")):
    # the three runs against the reference, on the eigen path and with
    # Chebyshev forced: every record, phase and state, the derived ones too
    ref = oracles.Trajectory(cfg)
    records, phases, states = ref.cycles()
    wants = [(records, states[-1]), ref.comparison(), ref.comparison(trotter=True)]
    for method in methods:
        contexts, returned = [], []
        with pytest.MonkeyPatch.context() as mp:
            if method == "chebyshev":
                mp.setattr(propagate, "_EIGEN_WORK_MAX", 0)
            mp.setattr(protocol, "prepare",
                       lambda c: contexts.append(prepare(c)) or contexts[-1])
            result = run_protocol(cfg, on_cycle=lambda c, s: returned.append(s))
            runs = [result, run_full_hamiltonian(cfg), run_trotter(cfg)]
        for ctx in contexts[::2]:  # the full run builds neither H1 nor H2
            assert (propagate._DERIVED[ctx.h1].keys()
                    == propagate._DERIVED[ctx.h2].keys() == {method})
        for run, (want, final) in zip(runs, wants, strict=True):
            _assert_records(run.records, want)
            np.testing.assert_allclose(run.final_state, final, rtol=0, atol=1e-12)
        for got, want in zip(returned, states, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert [c for c, _ in result.phases] == [c for c, _ in phases]
        assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(result.phases, phases))
        # durations in whole quarters add without rounding
        if (4 * cfg.t1).is_integer() and (4 * cfg.t2).is_integer():
            assert [r.model_time for r in result.records] == [w[2] for w in records]
        # the erase record is fwd2's, with the fidelity recomputed
        for fwd2, erase in zip(result.records, result.records[1:]):
            if erase.stage == STAGE_ERASE:
                assert replace(erase, stage=STAGE_FWD2, report=replace(
                    erase.report, fidelity_to_initial=fwd2.report.fidelity_to_initial)) == fwd2


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_runs())
def test_runs_match_the_reference(cfg):
    _assert_runs_match_the_reference(cfg)


# desk and ring-with-chord runs of 3 cycles: either species, both kinds and
# control runs; upsilon erased, each fwd1 after cycle 1 is derived from the
# previous rev2, tau erased, each rev2 from its fwd1
@pytest.mark.parametrize("overrides", [
    dict(master_seed=8),
    dict(master_seed=8, erasure=_TAU),
    dict(no_erasure_run=True),
    dict(no_erasure_run=True, erasure=_TAU),
    dict(erasure=ErasureSpec(kind="site-phase", site=2, theta=0.7)),
    _RING,
    dict(_RING, erasure=_TAU),
], ids=["upsilon", "tau", "control-upsilon", "control-tau", "site-phase-upsilon",
        "ring-with-chord-upsilon", "ring-with-chord-tau"])
@pytest.mark.parametrize("method", ["stage", "chebyshev"])
def test_derived_stages_match_direct_propagation(overrides, method):
    _assert_runs_match_the_reference(desk_config(cycles=3, **overrides), [method])


@pytest.mark.parametrize("overrides", [
    dict(master_seed=8),
    dict(erasure=ErasureSpec(kind="site-phase", species="tau", site=2, theta=0.7)),
    _RING,
], ids=["random-phase-upsilon-desk", "site-phase-tau", "ring-with-chord"])
def test_erase_record_matches_a_measure_of_the_erased_state(overrides):
    cfg = desk_config(**overrides)
    if cfg.lattice is _RING_WITH_CHORD:
        assert {-1.0, 1.0} <= set(np.sign(prepare(cfg).h1.hop_x.data))
    _assert_runs_match_the_reference(cfg)


def test_stage_order_and_single_erase_record():
    cfg = desk_config(cycles=3, master_seed=5)
    result = run_protocol(cfg)
    assert result.records[0].stage == STAGE_INIT
    cycle = [STAGE_FWD1, STAGE_FWD2, STAGE_ERASE, STAGE_REV2, STAGE_REV1]
    per_cycle = {c: [r.stage for r in result.records if r.cycle == c]
                 for c in (1, 2, 3)}
    for stages in per_cycle.values():
        assert stages == cycle
    times = [r.model_time for r in result.records]
    assert times == sorted(times)
    # control runs drop exactly the erase stage
    control = run_protocol(replace(cfg, no_erasure_run=True))
    stages = [r.stage for r in control.records if r.cycle == 1]
    assert stages == [STAGE_FWD1, STAGE_FWD2, STAGE_REV2, STAGE_REV1]
    _assert_runs_match_the_reference(cfg)
    _assert_runs_match_the_reference(replace(cfg, no_erasure_run=True))


def test_model_time_accounting():
    cfg = desk_config(t1=1.5, t2=0.5, cycles=2)
    result = run_protocol(cfg)
    expected = [0.0,
                1.5, 2.0, 2.0, 2.5, 4.0,
                5.5, 6.0, 6.0, 6.5, 8.0]
    assert [r.model_time for r in result.records] == expected
    _assert_runs_match_the_reference(cfg)


def test_phase_log_matches_draws():
    cfg = desk_config(cycles=2, master_seed=77)
    assert [c for c, _ in run_protocol(cfg).phases] == [1, 2]
    _assert_runs_match_the_reference(cfg)


def test_only_the_returned_array_takes_the_handoff(monkeypatch):
    # the next fwd1 is keyed on the array run_cycle returned, which is
    # read-only; a caller changes a copy, and any array but the returned
    # one, an equal copy too, takes the full route
    cfg = desk_config(cycles=2, master_seed=8)
    ctx = prepare(cfg)
    state, _, _ = run_cycle(ctx.initial, ctx, 1)
    for returned in (state, run_protocol(cfg).final_state):
        with pytest.raises(ValueError, match="read-only"):
            returned[0, 0] = 0.0
    evolves = []
    monkeypatch.setattr(protocol, "evolve", _counting(evolves, protocol.evolve))
    _, handed, _ = run_cycle(state, ctx, 2)
    assert len(evolves) == 3
    changed = state.copy()
    changed[:] = random_state(state.shape, 5)
    evolves.clear()
    out, records, _ = run_cycle(changed, ctx, 2)
    assert len(evolves) == 4
    want, _, (final,) = oracles.Trajectory(cfg).cycles(changed, [2])
    _assert_records(records, want)
    np.testing.assert_allclose(out, final, rtol=0, atol=1e-12)
    # the full route propagates the fwd1 that the handoff derives, so the
    # two agree to roundoff, not bit for bit
    evolves.clear()
    _, records, _ = run_cycle(state.copy(), ctx, 2)
    assert len(evolves) == 4
    assert [(r.cycle, r.stage, r.model_time) for r in records] == [
        (r.cycle, r.stage, r.model_time) for r in handed]
    for rec, want in zip(records, handed):
        for name, value in asdict(rec.report).items():
            np.testing.assert_allclose(value, getattr(want.report, name),
                                       rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("species, held_max, peak_max", [
    ("upsilon", 5.5, 11.5), ("tau", 4.5, 11.0)])
def test_cycle_memory(species, held_max, peak_max):
    # traced bytes in units of gamma at L=10, 5+5 (Chebyshev, gamma about
    # 1 MiB).  Between cycles a run holds the state, the initial gamma, H1's
    # and H2's D and Chebyshev folds, and, upsilon erased, the next fwd1; a
    # cycle binds only the stage states a later stage reads
    import tracemalloc
    cfg = desk_config(lattice=LatticeSpec.chain(10), n_tau=5, n_upsilon=5,
                      params=ModelParams.defaults(10),
                      erasure=ErasureSpec(species=species))
    held, peaks = [], []
    gc.collect()
    tracemalloc.start()
    try:
        ctx = prepare(cfg)
        state = ctx.initial
        for cycle in range(1, 5):
            tracemalloc.reset_peak()
            state, _, _ = run_cycle(state, ctx, cycle)
            peaks.append(tracemalloc.get_traced_memory()[1] / state.nbytes)
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0] / state.nbytes)
    finally:
        tracemalloc.stop()
    assert all("chebyshev" in propagate._DERIVED[op] for op in (ctx.h1, ctx.h2))
    # cycle 1 is not steady: it propagates fwd1 and builds the folds
    assert max(held[1:]) <= held_max, held
    assert max(peaks[1:]) <= peak_max, peaks


def test_upsilon_erased_fwd1_keeps_cycle_one_tau_marginal():
    # E_c^+ and U2 keep every row norm of gamma, and with upsilon erased each
    # fwd1 after cycle 1 is E_c^+ U2^+ E_c U2 of the previous one
    result = run_protocol(desk_config(cycles=20, master_seed=8))
    fwd1 = [r.report for r in result.records if r.stage == STAGE_FWD1]
    assert len(fwd1) == 20
    for rep in fwd1:
        assert abs(rep.s_tau - fwd1[0].s_tau) < 1e-12
        np.testing.assert_allclose(rep.densities_tau, fwd1[0].densities_tau,
                                   rtol=0, atol=1e-12)


def test_run_cycle_signature():
    cfg = desk_config(master_seed=3)
    ctx = prepare(cfg)
    state, records, phases = run_cycle(ctx.initial, ctx, 1)
    assert len(records) == 5
    assert phases is not None and len(phases) == 15
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_full_hamiltonian_run_conserves_energy():
    cfg = desk_config(cycles=2)
    ctx = prepare(cfg)
    h = build_full(cfg.lattice, cfg.params, ctx.basis_tau, ctx.basis_upsilon)
    e0 = np.vdot(ctx.initial, apply(h, ctx.initial)).real
    result = run_full_hamiltonian(cfg)
    assert len(result.records) == 1 + 2 * cfg.cycles
    final = result.final_state
    assert abs(np.vdot(final, apply(h, final)).real - e0) < 1e-9


def test_stepwise_operators_are_built_on_first_use(monkeypatch):
    # protocol resolves the builders in its own namespace at call time
    built = []
    for name in ("build_h1", "build_h2"):
        def build(*args, _name=name, _real=getattr(protocol, name)):
            built.append(_name)
            return _real(*args)
        monkeypatch.setattr(protocol, name, build)
    cfg = desk_config()
    ctx = prepare(cfg)
    run_full_hamiltonian(cfg)
    assert built == []
    assert ctx.h1 is ctx.h1
    assert built == ["build_h1"]
    run_protocol(cfg)
    assert built == ["build_h1", "build_h1", "build_h2"]


def test_trotter_single_step_is_one_stepwise_pass():
    cfg = desk_config(cycles=1)
    ctx = prepare(cfg)
    manual = evolve(evolve(ctx.initial, ctx.h1, cfg.t1), ctx.h2, cfg.t2)
    trot = run_trotter(replace(cfg, trotter_steps=1))
    assert np.array_equal(trot.final_state, manual)


def test_on_cycle_sees_each_cycle_state():
    cfg = desk_config(cycles=3)
    seen = []
    result = run_protocol(cfg, on_cycle=lambda cycle, state: seen.append((cycle, state)))
    assert [cycle for cycle, _ in seen] == [1, 2, 3]
    assert np.array_equal(seen[-1][1], result.final_state)


def test_config_validation():
    with pytest.raises(ValueError, match="^n_tau: "):
        desk_config(n_tau=7)
    with pytest.raises(ValueError, match="^t1: "):
        desk_config(t1=0.0)
    with pytest.raises(ValueError, match="^cycles: "):
        desk_config(cycles=0)
    with pytest.raises(ValueError, match="^trotter_steps: "):
        desk_config(trotter_steps=0)
    # numpy's SeedSequence would refuse it only at the first erase, after two
    # propagated stages, and without naming the field
    with pytest.raises(ValueError, match="master_seed"):
        desk_config(master_seed=-1)
    # each would otherwise fail in the run: the site at cycle 1's erase, the
    # potentials in prepare, neither naming its field
    chain4 = LatticeSpec.chain(4)
    with pytest.raises(ValueError, match=re.escape("site: must be in [0, 4)")):
        desk_config(lattice=chain4, params=ModelParams.defaults(4),
                    erasure=ErasureSpec(kind="site-phase", site=9, theta=0.5))
    with pytest.raises(ValueError, match="^u_tau: expected 4 entries, got 6"):
        desk_config(lattice=chain4)
