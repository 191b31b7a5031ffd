"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop: one client in one process, and each
trajectory starts after the previous one completes.  A workload runs in
*units*; one unit is the trajectory set named in README.md, with inputs drawn
from the workload seed.  The functions here time the unit, read stage and
setup boundaries off the recorder's spans, and check every operation.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import traceback
from math import comb
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np

import tsim.cli
from tsim import protocol
from tsim.model import LatticeSpec, ModelParams

# Terminal seed-mean S_ent of the desk ensemble must exceed 80% of the
# brute-force plateau (the acceptance suite's SATURATION_THRESHOLD).
DESK_S_ENT_THRESHOLD = 1.670329
ENTROPY_TOL = 1e-12      # erase stage leaves every entropy unchanged
DENSITY_TOL = 1e-10      # occupation densities sum to the particle number
FIDELITY_TOL = 1e-12     # roundoff allowed outside [0, 1]
CONTROL_FIDELITY = 1 - 1e-8
REFERENCE_TOL = 1e-9

@dataclass(frozen=True)
class Size:
    sites: int
    particles: int
    cycles: int = 1
    seeds: int = 1
    trotter_steps: int = 1
    # wall time of one unit at the commit that defined the benchmark; the
    # number of units in a run is fixed from --seconds with it, so every
    # commit measures the same work
    unit_s: float = 1.0
    s_ent_threshold: float | None = None


SIZES = {
    "full": {
        "desk-ensemble": Size(6, 2, cycles=50, seeds=20, unit_s=2.5,
                              s_ent_threshold=DESK_S_ENT_THRESHOLD),
        "chain8-cycles": Size(8, 4, cycles=100, unit_s=7.0),
        "chain10-continuous": Size(10, 5, trotter_steps=16, unit_s=5.6),
    },
    # self-check sizes: every path, including the flat Krylov one, in seconds
    "small": {
        "desk-ensemble": Size(4, 1, cycles=5, seeds=3),
        "chain8-cycles": Size(6, 2, cycles=6),
        "chain10-continuous": Size(7, 3, trotter_steps=4),
    },
}


@dataclass
class Unit:
    """What one unit measured and checked."""

    setup: list = field(default_factory=list)
    cycles: list = field(default_factory=list)
    run_s: float = 0.0
    seeds: int = 0
    ops: int = 0
    failed: set = field(default_factory=set)
    outputs: list = field(default_factory=list)

    def fail(self, key, why: str) -> None:
        self.failed.add(key)
        print(f"check failed: {key}: {why}", file=sys.stderr)


def _crash(unit: Unit, key) -> None:
    traceback.print_exc(file=sys.stderr)
    unit.fail(key, "raised")


def _cycle_spans(spans, since: float):
    return [s for s in spans if s.layer == "protocol" and s.name == "run_cycle"
            and s.start >= since]


def _propagate_spans(spans, since: float, until: float):
    return [s for s in spans
            if s.layer == "propagate" and since <= s.start and s.end <= until]


def _report_values(report) -> list:
    return [report.s_tau, report.s_upsilon, report.s_total, report.s_ent,
            report.fidelity_to_initial]


def check_records(unit: Unit, key, records, n_tau: int, n_upsilon: int) -> None:
    """Invariants that hold for any seed."""
    fwd2 = {}
    for r in records:
        rep = r.report
        if abs(sum(rep.densities_tau) - n_tau) > DENSITY_TOL \
                or abs(sum(rep.densities_upsilon) - n_upsilon) > DENSITY_TOL:
            unit.fail(key, f"densities at cycle {r.cycle} {r.stage} do not sum "
                           "to the particle numbers")
        if not -FIDELITY_TOL <= rep.fidelity_to_initial <= 1 + FIDELITY_TOL:
            unit.fail(key, f"fidelity {rep.fidelity_to_initial!r} outside [0, 1]")
        if r.stage == "fwd2":
            fwd2[r.cycle] = rep
        elif r.stage == "erase":
            before = fwd2.get(r.cycle)
            if before is None or max(
                    abs(a - b) for a, b in zip(_report_values(before)[:4],
                                               _report_values(rep)[:4])
            ) > ENTROPY_TOL:
                unit.fail(key, f"erase stage of cycle {r.cycle} changed an entropy")


def _check_csv(unit: Unit, key, out_dir: Path, records, cycles: int, d_y: int) -> None:
    """The CLI's files hold every record bit-exactly, and every phase."""
    with open(out_dir / "trajectory.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(records) or any(
            float(row["S_ent"]) != r.report.s_ent
            or float(row["fidelity"]) != r.report.fidelity_to_initial
            for row, r in zip(rows, records)):
        unit.fail(key, "trajectory.csv does not match the run's records")
    with open(out_dir / "phases.csv", encoding="ascii") as fh:
        n_phases = sum(1 for _ in fh) - 1
    if n_phases != cycles * d_y:
        unit.fail(key, f"phases.csv has {n_phases} rows, expected {cycles * d_y}")


def desk_document(size: Size) -> dict:
    """configs/desk.json at the requested size; --out replaces out_dir."""
    return {
        "lattice": {"sites": size.sites, "chain": True},
        "particles": {"tau": size.particles, "upsilon": size.particles},
        "params": {"j_tau": 1.0, "j_upsilon": 1.0, "u_cross": 1.0},
        "protocol": {"t1": 2.0, "t2": 2.0, "cycles": size.cycles, "seed": 1},
        "erasure": {"kind": "random-phase", "species": "upsilon"},
        "controls": {"full_hamiltonian_run": False, "trotter_steps": 16},
        "output": {"out_dir": "out/desk", "dump_phases": True},
    }


def _seeds(rng, n: int) -> list:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def desk_unit(rec, size: Size, rng, tmp: Path) -> Unit:
    """Seeds through ``tsim simulate`` in-process, one after another."""
    unit = Unit()
    cfg_path = tmp / "desk.json"
    cfg_path.write_text(json.dumps(desk_document(size)), encoding="utf-8")
    d_y = comb(size.sites, size.particles)
    finals = []
    for i, seed in enumerate(_seeds(rng, size.seeds)):
        key = f"seed{i}"
        unit.ops += 1
        out_dir = tmp / f"seed{i}"
        argv = ["simulate", "--config", str(cfg_path), "--seed", str(seed),
                "--out", str(out_dir)]
        rec.take()
        try:
            with rec.region("bench", "seed") as root, redirect_stdout(StringIO()):
                code = tsim.cli.main(argv)
        except Exception:
            _crash(unit, key)
            continue
        spans = rec.take()
        unit.run_s += root.duration
        unit.seeds += 1
        cycles = _cycle_spans(spans, root.start)
        first = [s for s in cycles if s.info.get("cycle") == 1]
        if code != 0 or not first:
            unit.fail(key, f"simulate exited {code}")
            continue
        unit.setup.append(first[0].end - root.start)
        unit.cycles.extend(s.duration for s in cycles if s.info["cycle"] >= 2)
        results = [s.info["result"] for s in spans if "result" in s.info]
        if not results:
            unit.fail(key, "no run_protocol result seen")
            continue
        records = results[-1].records
        check_records(unit, key, records, size.particles, size.particles)
        _check_csv(unit, key, out_dir, records, size.cycles, d_y)
        unit.outputs.append((key, _report_values(records[-1].report)))
        finals.append(records[-1].report.s_ent)
        shutil.rmtree(out_dir, ignore_errors=True)
    if size.s_ent_threshold is not None and finals \
            and not np.mean(finals) > size.s_ent_threshold:
        for i in range(size.seeds):
            unit.fail(f"seed{i}", f"seed-mean terminal S_ent {np.mean(finals):.6f} "
                                   f"not above {size.s_ent_threshold}")
    return unit


def chain_config(size: Size, seed: int, params: ModelParams | None = None,
                 **extra) -> protocol.ProtocolConfig:
    lattice = LatticeSpec.chain(size.sites)
    return protocol.ProtocolConfig(
        lattice=lattice, n_tau=size.particles, n_upsilon=size.particles,
        params=params or ModelParams.defaults(size.sites), cycles=size.cycles,
        master_seed=seed, **extra)


def cycles_unit(rec, size: Size, rng, tmp: Path) -> Unit:
    """One seed, ``prepare`` then ``run_cycle`` in a loop."""
    unit = Unit()
    cfg = chain_config(size, _seeds(rng, 1)[0])
    records = []
    rec.take()
    failed_at = 1
    with rec.region("bench", "unit") as root:
        try:
            ctx = protocol.prepare(cfg)
            state = ctx.initial
            for c in range(1, size.cycles + 1):
                failed_at = c
                state, recs, _ = protocol.run_cycle(state, ctx, c)
                records.append(recs)
            failed_at = None
        except Exception:
            traceback.print_exc(file=sys.stderr)
    spans = rec.take()
    unit.run_s = root.duration
    unit.seeds = 1
    unit.ops += size.cycles
    if failed_at is not None:
        for c in range(failed_at, size.cycles + 1):
            unit.fail(f"cycle{c}", "not completed")
        return unit
    cycles = _cycle_spans(spans, root.start)
    unit.setup.append(cycles[0].end - root.start)
    unit.cycles.extend(s.duration for s in cycles[1:])
    for c, recs in enumerate(records, start=1):
        check_records(unit, f"cycle{c}", recs, size.particles, size.particles)
    unit.outputs.append(("cycle1", _report_values(records[0][-1].report)))
    unit.outputs.append((f"cycle{size.cycles}",
                         _report_values(records[-1][-1].report)))
    return unit


def continuous_unit(rec, size: Size, rng, tmp: Path) -> Unit:
    """Full-Hamiltonian run, then the Trotter run: the comparison
    trajectories ``tsim simulate`` writes under controls.full_hamiltonian_run.
    The seed draws the site potentials of both species from [-1, 1]."""
    unit = Unit()
    u = rng.uniform(-1.0, 1.0, size=(2, size.sites))
    params = ModelParams(j_tau=1.0, j_upsilon=1.0, u_tau=tuple(u[0]),
                         u_upsilon=tuple(u[1]), u_cross=1.0)
    cfg = chain_config(size, _seeds(rng, 1)[0], params,
                       trotter_steps=size.trotter_steps, full_hamiltonian_run=True)
    rec.take()
    results, windows = {}, {}
    with rec.region("bench", "unit") as root:
        for name, run in (("full", protocol.run_full_hamiltonian),
                          ("trotter", protocol.run_trotter)):
            unit.ops += 1
            try:
                t0 = perf_counter()
                results[name] = run(cfg)
                windows[name] = (t0, perf_counter())
            except Exception:
                _crash(unit, name)
    spans = rec.take()
    unit.run_s = root.duration
    if "full" in results:
        props = _propagate_spans(spans, *windows["full"])
        if props:
            unit.setup.append(props[0].start - windows["full"][0])
        else:
            unit.fail("full", "no propagation call seen")
    if "trotter" in results:
        props = _propagate_spans(spans, *windows["trotter"])
        # one Trotter step is a tau-mobile then an upsilon-mobile evolution
        unit.cycles.extend(b.end - a.start for a, b in zip(props[0::2], props[1::2]))
    unit.seeds = int("full" in results and "trotter" in results)
    for name in ("full", "trotter"):
        if name in results:
            records = results[name].records
            check_records(unit, name, records, size.particles, size.particles)
            unit.outputs.append((name, _report_values(records[-1].report)))
    return unit


# what the untraced clock wraps, by function name or layer: only the calls
# that bound setup, cycles and Trotter steps
CLOCKED = {
    "desk-ensemble": {"run_cycle", "run_protocol"},
    "chain8-cycles": {"run_cycle"},
    "chain10-continuous": {"propagate"},
}

RUNNERS = {
    "desk-ensemble": desk_unit,
    "chain8-cycles": cycles_unit,
    "chain10-continuous": continuous_unit,
}


def control_op(seed: int) -> bool:
    """No-erasure desk control: ten cycles return to the initial state."""
    cfg = chain_config(Size(6, 2, cycles=10), seed, no_erasure_run=True)
    result = protocol.run_protocol(cfg)
    return result.records[-1].report.fidelity_to_initial >= CONTROL_FIDELITY


def compare_reference(unit: Unit, expected: dict) -> None:
    """Outputs of the first unit at the default seed against the committed
    reference; a mismatch fails the operation that produced it."""
    got = dict(unit.outputs)
    for key, values in expected.items():
        vals = got.get(key)
        if vals is None or len(vals) != len(values) or max(
                abs(a - b) for a, b in zip(vals, values)) > REFERENCE_TOL:
            unit.fail(key, "output differs from the reference")
