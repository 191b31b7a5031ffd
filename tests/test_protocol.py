from dataclasses import replace

import numpy as np
import pytest

from tsim.erasure import ErasureSpec
from tsim.fock import enumerate_basis
from tsim.model import LatticeSpec, ModelParams
from tsim.propagate import evolve
from tsim.protocol import (CYCLE_STAGES, STAGE_ERASE, STAGE_INIT,
                           ProtocolConfig, build_initial_state, prepare,
                           run_cycle, run_full_hamiltonian, run_protocol,
                           run_trotter)


def desk_config(**overrides):
    base = dict(lattice=LatticeSpec.chain(6), n_tau=2, n_upsilon=2,
                params=ModelParams.defaults(6), cycles=1, master_seed=0)
    base.update(overrides)
    return ProtocolConfig(**base)


def test_domain_wall_initial_state():
    bt, bu = enumerate_basis(6, 2), enumerate_basis(6, 2)
    psi = build_initial_state("domain-wall", bt, bu)
    assert psi[bt.rank(0b000011), bu.rank(0b000011)] == 1.0
    assert np.count_nonzero(psi) == 1


def test_domain_wall_report_all_zero():
    ctx = prepare(desk_config())
    report = ctx.measure(ctx.initial)
    assert report.s_tau == 0.0
    assert report.s_upsilon == 0.0
    assert report.s_total == 0.0
    assert report.s_ent < 1e-12
    assert report.fidelity_to_initial == 1.0


def test_explicit_amplitudes_passthrough():
    bt, bu = enumerate_basis(4, 1), enumerate_basis(4, 1)
    amps = np.zeros(16, dtype=complex)
    amps[5] = 1.0
    psi = build_initial_state(tuple(amps), bt, bu)
    # explicit amplitudes list gamma row-major
    assert psi.shape == (4, 4) and psi[1, 1] == 1.0
    assert np.array_equal(psi.ravel(), amps)


def test_initial_state_errors():
    bt, bu = enumerate_basis(4, 1), enumerate_basis(4, 1)
    with pytest.raises(ValueError):
        build_initial_state("checkerboard", bt, bu)
    with pytest.raises(ValueError):
        build_initial_state(tuple(np.zeros(7, dtype=complex)), bt, bu)
    with pytest.raises(ValueError):
        build_initial_state(tuple(np.zeros(16, dtype=complex)), bt, bu)


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
    assert a.phases == b.phases


def test_stage_order_and_single_erase_record():
    cfg = desk_config(cycles=3, master_seed=5)
    result = run_protocol(cfg)
    assert result.records[0].stage == STAGE_INIT
    per_cycle = {c: [r.stage for r in result.records if r.cycle == c]
                 for c in (1, 2, 3)}
    for stages in per_cycle.values():
        assert stages == list(CYCLE_STAGES)
    times = [r.model_time for r in result.records]
    assert times == sorted(times)
    # control runs drop exactly the erase stage
    control = run_protocol(replace(cfg, no_erasure_run=True))
    stages = [r.stage for r in control.records if r.cycle == 1]
    assert stages == [s for s in CYCLE_STAGES if s != STAGE_ERASE]


def test_model_time_accounting():
    cfg = desk_config(t1=1.5, t2=0.5, cycles=2)
    result = run_protocol(cfg)
    expected = [0.0,
                1.5, 2.0, 2.0, 2.5, 4.0,
                5.5, 6.0, 6.0, 6.5, 8.0]
    assert [r.model_time for r in result.records] == expected


def test_entropies_return_on_control_run():
    cfg = desk_config(no_erasure_run=True, cycles=2)
    result = run_protocol(cfg)
    finals = [r for r in result.records if r.stage == "rev1"]
    for rec in finals:
        assert abs(rec.report.s_tau) < 1e-6
        assert abs(rec.report.s_upsilon) < 1e-6
        assert abs(rec.report.s_total) < 1e-6
        assert abs(rec.report.s_ent) < 1e-6


def test_erase_record_leaves_entropies_unchanged():
    result = run_protocol(desk_config(cycles=2, master_seed=8))
    by_cycle = {}
    for rec in result.records:
        by_cycle.setdefault(rec.cycle, {})[rec.stage] = rec
    for cycle in (1, 2):
        fwd2 = by_cycle[cycle]["fwd2"]
        erase = by_cycle[cycle][STAGE_ERASE]
        assert abs(erase.report.s_tau - fwd2.report.s_tau) < 1e-12
        assert abs(erase.report.s_upsilon - fwd2.report.s_upsilon) < 1e-12
        assert abs(erase.report.s_total - fwd2.report.s_total) < 1e-12
        assert abs(erase.report.s_ent - fwd2.report.s_ent) < 1e-12
        assert erase.model_time == fwd2.model_time


def test_phase_log_matches_draws():
    from tsim.erasure import draw_phases
    cfg = desk_config(cycles=2, master_seed=77)
    result = run_protocol(cfg)
    assert len(result.phases) == 2
    for cycle, phases in result.phases:
        expected = draw_phases(77, cycle, 15)
        assert np.array_equal(np.array(phases), expected)


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
    h = ctx.full_operator()
    e0 = np.vdot(ctx.initial, h.apply(ctx.initial)).real
    result = run_full_hamiltonian(cfg)
    assert len(result.records) == 1 + 2 * cfg.cycles
    final = result.final_state
    assert abs(np.vdot(final, h.apply(final)).real - e0) < 1e-9


def test_trotter_single_step_is_one_stepwise_pass():
    cfg = desk_config(cycles=1)
    ctx = prepare(cfg)
    manual = evolve(evolve(ctx.initial, ctx.h1, cfg.t1), ctx.h2, cfg.t2)
    trot = run_trotter(replace(cfg, trotter_steps=1))
    assert np.array_equal(trot.final_state, manual)


def test_keep_cycle_states():
    cfg = desk_config(cycles=3)
    result = run_protocol(cfg, keep_cycle_states=True)
    assert len(result.cycle_states) == 3
    assert np.array_equal(result.cycle_states[-1], result.final_state)


def test_config_validation():
    with pytest.raises(ValueError):
        desk_config(n_tau=7)
    with pytest.raises(ValueError):
        desk_config(t1=0.0)
    with pytest.raises(ValueError):
        desk_config(cycles=0)
    with pytest.raises(ValueError):
        desk_config(trotter_steps=0)
