"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them all).

Desk scale throughout: 6-site chain, 2 particles per species, so both species
bases have dimension 15 and the composite space dimension 225.
"""

import runpy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.linalg import expm

import oracles
from conftest import (apply, chebyshev, desk_config, random_state,
                      shannon_entropies, stepwise_generator)
from tsim.erasure import apply_random_phases, erasure_phases
from tsim.fock import enumerate_basis
from tsim.model import LatticeSpec, ModelParams, build_full, build_h1, build_h2
from tsim.observables import schmidt_spectrum
from tsim.propagate import evolve
from tsim.protocol import prepare, run_protocol, run_trotter

# 80% of the plateau measured by the standalone brute-force reference
# (scripts/calibrate_saturation.py, 20 seeds x 50 cycles: plateau 2.087911)
SATURATION_THRESHOLD = 1.670329


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")


def test_criterion_1_reversibility_control():
    worst_fid = 1.0
    worst_entropy = 0.0
    for seed in range(5):
        cfg = desk_config(cycles=10, master_seed=seed, no_erasure_run=True)
        result = run_protocol(cfg)
        for rec in result.records:
            if rec.stage != "rev1":
                continue
            worst_fid = min(worst_fid, rec.report.fidelity_to_initial)
            worst_entropy = max(worst_entropy, rec.report.s_tau,
                                rec.report.s_upsilon, rec.report.s_total,
                                rec.report.s_ent)
    passed = worst_fid >= 1 - 1e-8 and worst_entropy <= 1e-6
    _report(1, "reversibility-control", passed,
            f"min fidelity {worst_fid:.3e}, max entropy {worst_entropy:.3e}")
    assert worst_fid >= 1 - 1e-8
    assert worst_entropy <= 1e-6


def test_criterion_2_erasure_instant_invariance():
    worst_entropy = 0.0
    worst_schmidt = 0.0
    erase_events = 0
    for seed in range(20):
        cfg = desk_config(cycles=2, master_seed=seed)
        ctx = prepare(cfg)
        state = ctx.initial
        for cycle in (1, 2):
            state = evolve(state, ctx.h1, cfg.t1)
            state = evolve(state, ctx.h2, cfg.t2)
            before_s = np.array(shannon_entropies(state))
            before_sv = schmidt_spectrum(state)
            phases = erasure_phases(cfg.erasure, ctx.basis_upsilon,
                                    cfg.master_seed, cycle)
            state = apply_random_phases(state, "upsilon", phases)
            after_s = np.array(shannon_entropies(state))
            after_sv = schmidt_spectrum(state)
            worst_entropy = max(worst_entropy, np.abs(after_s - before_s).max())
            worst_schmidt = max(worst_schmidt, np.abs(after_sv - before_sv).max())
            erase_events += 1
            state = evolve(state, ctx.h2, -cfg.t2)
            state = evolve(state, ctx.h1, -cfg.t1)
            state = apply_random_phases(state, "upsilon", -phases)
    passed = worst_entropy <= 1e-12 and worst_schmidt <= 1e-12
    _report(2, "erasure-instant-invariance", passed,
            f"{erase_events} erase events, entropy dev {worst_entropy:.2e}, "
            f"Schmidt dev {worst_schmidt:.2e}")
    assert worst_entropy <= 1e-12
    assert worst_schmidt <= 1e-12


def test_criterion_3_irreversibility_ensemble():
    deltas = {"s_tau": [], "s_upsilon": [], "s_total": [], "s_ent": []}
    for seed in range(50):
        result = run_protocol(desk_config(cycles=1, master_seed=seed))
        init = result.records[0].report
        final = result.records[-1].report
        deltas["s_tau"].append(final.s_tau - init.s_tau)
        deltas["s_upsilon"].append(final.s_upsilon - init.s_upsilon)
        deltas["s_total"].append(final.s_total - init.s_total)
        deltas["s_ent"].append(final.s_ent - init.s_ent)
    rng = np.random.default_rng(20260808)
    lows = {}
    means = {}
    for name, vals in deltas.items():
        vals = np.array(vals)
        means[name] = vals.mean()
        boot = rng.choice(vals, size=(5000, len(vals)), replace=True).mean(axis=1)
        lows[name] = np.quantile(boot, 0.01)
    passed = all(m > 0 for m in means.values()) and all(q > 0 for q in lows.values())
    detail = ", ".join(f"{k}: mean {means[k]:.3f} CI1% {lows[k]:.3f}"
                       for k in deltas)
    _report(3, "irreversibility", passed, detail)
    for name in deltas:
        assert means[name] > 0, name
        assert lows[name] > 0, name


def test_criterion_4_entropy_saturation():
    curves = []
    for seed in range(20):
        result = run_protocol(desk_config(cycles=50, master_seed=seed))
        curves.append([r.report.s_ent for r in result.records
                       if r.stage == "rev1"])
    curves = np.asarray(curves)
    # the curve saturates around cycle 6; the rule and its calibration share
    # oracles.smoothed_monotone
    monotone, min_diff, worst, bound = oracles.smoothed_monotone(curves)
    terminal = float(curves.mean(axis=0)[-1])
    above = terminal > SATURATION_THRESHOLD
    _report(4, "entropy-saturation", monotone and above,
            f"min smoothed diff {min_diff:.2e}, terminal {terminal:.4f} vs "
            f"threshold {SATURATION_THRESHOLD:.4f}, worst smoothed diff "
            f"{worst:.2f} SE vs bound {bound:.2f}")
    assert above
    assert monotone, (
        f"smoothed seed-averaged curve falls by {min_diff:.2e}; its worst "
        f"difference is {worst:.2f} standard errors, below the bound "
        f"{bound:.2f} of a {oracles.MONOTONE_LEVEL:.0%} family-wise one-sided "
        f"t-test"
    )

    # Negative controls: curves that do fall, yet end above the threshold,
    # must fail the monotone half.
    n_cycles = curves.shape[1]
    for name, falling in (("reversed", curves[:, ::-1]),
                          ("drift", curves - 0.006 * np.arange(n_cycles))):
        assert falling.mean(axis=0)[-1] > SATURATION_THRESHOLD, name
        still_monotone, _, control_worst, _ = oracles.smoothed_monotone(falling)
        assert not still_monotone, f"{name} control passes at {control_worst:.2f} SE"


def test_monotone_rule_on_curves_without_spread():
    # a flat curve shared by every seed has no spread and does not decrease;
    # an exact shared decrease is infinitely many standard errors
    flat, _, worst, bound = oracles.smoothed_monotone(np.zeros((2, 10)))
    assert flat and worst == 0.0 and bound < 0
    monotone, _, worst, _ = oracles.smoothed_monotone(
        np.tile(-np.arange(10.0), (2, 1)))
    assert not monotone and worst == -np.inf


def test_saturation_threshold_is_its_calibration(monkeypatch, capsys):
    # the brute-force reference at its defaults, run in-process
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    monkeypatch.setattr("sys.path", [*sys.path])  # the script adds tests/
    monkeypatch.setattr("sys.argv", ["calibrate_saturation.py"])
    runpy.run_path(str(scripts / "calibrate_saturation.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "plateau (cycles 26..50): 2.087911"
    assert lines[2] == f"80% threshold: {SATURATION_THRESHOLD:.6f}"


def test_criterion_5_block_propagation_equivalence():
    cfg = desk_config()
    ctx = prepare(cfg)
    worst = 0.0
    for seed in range(10):
        psi = random_state((15, 15), 500 + seed)
        for op in (ctx.h1, ctx.h2):
            for t in (cfg.t1, -cfg.t2):
                # evolve solves the desk blocks exactly; the whole-gamma
                # Chebyshev expansion is the independent method
                whole = chebyshev(psi, op, t)
                block = evolve(psi, op, t)
                worst = max(worst, float(np.max(np.abs(whole - block))))
    passed = worst <= 1e-10
    _report(5, "block-propagation-equivalence", passed,
            f"max amplitude deviation {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_6_trotter_consistency():
    cfg = desk_config(cycles=1)
    ctx = prepare(cfg)
    total = cfg.t1 + cfg.t2
    reference = evolve(ctx.initial, stepwise_generator(ctx), total)
    errors = []
    for n in (8, 16, 32, 64):
        final = run_trotter(replace(cfg, trotter_steps=n)).final_state
        errors.append(float(np.linalg.norm(final - reference)))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    passed = all(1.5 <= r <= 3.0 for r in ratios)
    _report(6, "trotter-consistency", passed,
            "ratios " + ", ".join(f"{r:.3f}" for r in ratios))
    for r in ratios:
        assert 1.5 <= r <= 3.0


def test_criterion_7_conservation_suite():
    worst_norm = 0.0
    worst_number = 0.0
    worst_energy = 0.0
    for seed in range(3):
        cfg = desk_config(cycles=5, master_seed=seed)
        ctx = prepare(cfg)
        state = ctx.initial
        for cycle in range(1, cfg.cycles + 1):
            for op, t in ((ctx.h1, cfg.t1), (ctx.h2, cfg.t2),
                          (ctx.h2, -cfg.t2), (ctx.h1, -cfg.t1)):
                e_before = np.vdot(state, apply(op, state)).real
                state = evolve(state, op, t)
                e_after = np.vdot(state, apply(op, state)).real
                worst_energy = max(worst_energy, abs(e_after - e_before))
                worst_norm = max(worst_norm, abs(np.linalg.norm(state) - 1.0))
                report = ctx.measure(state)
                n_tau = sum(report.densities_tau)
                n_ups = sum(report.densities_upsilon)
                worst_number = max(worst_number, abs(n_tau - 2), abs(n_ups - 2))
                if op is ctx.h2 and t == cfg.t2:
                    phases = erasure_phases(cfg.erasure, ctx.basis_upsilon,
                                            cfg.master_seed, cycle)
                    state = apply_random_phases(state, "upsilon", phases)
                    worst_norm = max(worst_norm, abs(np.linalg.norm(state) - 1.0))
    passed = (worst_norm <= 1e-12 and worst_number <= 1e-12
              and worst_energy <= 1e-9)
    _report(7, "conservation-suite", passed,
            f"norm dev {worst_norm:.2e}, number dev {worst_number:.2e}, "
            f"energy dev {worst_energy:.2e}")
    assert worst_norm <= 1e-12
    assert worst_number <= 1e-12
    assert worst_energy <= 1e-9


def test_criterion_8_oracle_equivalence():
    identical = True
    for seed, (sites, n_t, n_u) in enumerate(
            [(2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 1, 1), (4, 2, 2)]):
        rng = np.random.default_rng(900 + seed)
        lattice = LatticeSpec.chain(sites)
        params = ModelParams(
            j_tau=float(rng.uniform(0.5, 1.5)),
            j_upsilon=float(rng.uniform(0.5, 1.5)),
            u_tau=tuple(rng.uniform(-1, 1, sites)),
            u_upsilon=tuple(rng.uniform(-1, 1, sites)),
            u_cross=float(rng.uniform(0.5, 2.0)),
        )
        bt, bu = enumerate_basis(sites, n_t), enumerate_basis(sites, n_u)
        common = (sites, lattice.edges, n_t, n_u, params.j_tau,
                  params.j_upsilon, params.u_tau, params.u_upsilon,
                  params.u_cross)
        checks = [
            (build_full(lattice, params, bt, bu),
             oracles.sector_hamiltonian(*common)),
            (build_h1(lattice, params, bt, bu),
             oracles.sector_hamiltonian(*common, terms=oracles.H1_TERMS)),
            (build_h2(lattice, params, bt, bu),
             oracles.sector_hamiltonian(*common, terms=oracles.H2_TERMS)),
        ]
        for op, oracle in checks:
            identical = identical and np.array_equal(oracles.to_dense(op), oracle)

    worst_chebyshev = 0.0
    for seed, (sites, n_t, n_u) in enumerate([(4, 1, 1), (4, 2, 1), (4, 2, 2)]):
        lattice = LatticeSpec.chain(sites)
        params = ModelParams.defaults(sites)
        bt, bu = enumerate_basis(sites, n_t), enumerate_basis(sites, n_u)
        h = build_full(lattice, params, bt, bu)
        assert h.D.size <= 64
        psi = random_state((bt.dim, bu.dim), 950 + seed)
        for t in (0.7, 2.0):
            exact = expm(-1j * t * oracles.to_dense(h)) @ psi.ravel()
            chebyshev = evolve(psi, h, t)
            worst_chebyshev = max(worst_chebyshev, float(np.max(np.abs(
                chebyshev.ravel() - exact))))
    passed = identical and worst_chebyshev <= 1e-9
    _report(8, "oracle-equivalence", passed,
            f"operators entry-identical: {identical}, "
            f"Chebyshev vs dense {worst_chebyshev:.2e}")
    assert identical
    assert worst_chebyshev <= 1e-9
