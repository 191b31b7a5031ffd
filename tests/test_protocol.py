import re
from dataclasses import replace

import numpy as np
import pytest

from tsim import protocol
from tsim.erasure import ErasureSpec
from tsim.fock import enumerate_basis
from tsim.model import LatticeSpec, ModelParams, build_full
from tsim.propagate import evolve
from tsim.protocol import (CYCLE_STAGES, STAGE_ERASE, STAGE_INIT,
                           ProtocolConfig, prepare, run_cycle,
                           run_full_hamiltonian, run_protocol, run_trotter)


def desk_config(**overrides):
    base = dict(lattice=LatticeSpec.chain(6), n_tau=2, n_upsilon=2,
                params=ModelParams.defaults(6), cycles=1, master_seed=0)
    base.update(overrides)
    return ProtocolConfig(**base)


def _config_4_1_1(**overrides):
    return desk_config(lattice=LatticeSpec.chain(4), n_tau=1, n_upsilon=1,
                       params=ModelParams.defaults(4), **overrides)


def test_domain_wall_initial_state():
    bt, bu = enumerate_basis(6, 2), enumerate_basis(6, 2)
    psi = prepare(desk_config()).initial
    assert psi[bt.configs.index(0b000011), bu.configs.index(0b000011)] == 1.0
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
    h = build_full(cfg.lattice, cfg.params, ctx.basis_tau, ctx.basis_upsilon)
    e0 = np.vdot(ctx.initial, h.apply(ctx.initial)).real
    result = run_full_hamiltonian(cfg)
    assert len(result.records) == 1 + 2 * cfg.cycles
    final = result.final_state
    assert abs(np.vdot(final, h.apply(final)).real - e0) < 1e-9


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
