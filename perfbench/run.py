#!/usr/bin/env python3
"""Benchmark of tsim: end-to-end metrics, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload desk-ensemble --seed 0 --seconds 35 --trace 0

Runs one workload in this process against the tsim sources of the checkout
that holds this file (``src/tsim``).  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs one unit untraced, the same
unit traced, and the same unit again in a child process limited to one BLAS
thread, and reports per-layer metrics.  The line before the last records the
environment; the last line is the result object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
REFERENCE = HERE / "reference.json"
WORKLOADS = ("desk-ensemble", "chain8-cycles", "chain10-continuous")
# propagation calls of a cycle, in call order
STAGES = ("fwd1", "fwd2", "rev2", "rev1")


def _import_tsim():
    """tsim from this checkout's sources, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "tsim" / "__init__.py").is_file():
        sys.exit(f"error: no tsim sources under {src}")
    sys.path.insert(0, str(src))
    import tsim
    if Path(tsim.__file__).resolve().parent != src / "tsim":
        sys.exit(f"error: imported tsim from {tsim.__file__}, not from {src}")


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import scipy
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy older than 1.26 prints instead
        deps = {}
    blas = deps.get("blas", {})
    thread_vars = {k: os.environ[k] for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                   if k in os.environ}
    cpus = len(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(),
        "cpus_available": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_vars": thread_vars,
        # OpenBLAS starts one thread per available CPU unless a variable says otherwise
        "blas_threads": int(next(iter(thread_vars.values()), cpus)),
        "git_commit": _git_commit(),
    }


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def summarize(units) -> dict:
    setups = [x for u in units for x in u.setup]
    cycles = [x for u in units for x in u.cycles]
    rates = [u.seeds / u.run_s for u in units if u.run_s > 0]
    return {
        "setup_s": median(setups) if setups else 0.0,
        "cycle_s_p50": _percentile(cycles, 50),
        "cycle_s_p90": _percentile(cycles, 90),
        "seeds_per_s": median(rates) if rates else 0.0,
        "run_s": median(u.run_s for u in units),
        "samples": {"setup": len(setups), "cycle": len(cycles), "units": len(units)},
    }


def run_units(rec, workload, size, seed, n, tmp, reference) -> list:
    import workloads
    rng = np.random.default_rng(seed)
    units = []
    for k in range(n):
        unit_dir = tmp / f"unit{k}"
        unit_dir.mkdir(parents=True)
        unit = workloads.RUNNERS[workload](rec, size, rng, unit_dir)
        if k == 0 and reference is not None:
            workloads.compare_reference(unit, reference)
        shutil.rmtree(unit_dir, ignore_errors=True)
        units.append(unit)
    return units


def _probes(traced: bool) -> dict:
    def cycle(span, args, result):
        span.info["cycle"] = args[2]

    def keep_result(span, args, result):
        span.info["result"] = result

    probes = {"run_cycle": cycle, "run_protocol": keep_result}
    if not traced:
        return probes
    block_flops: dict = {}

    def propagate(span, args, result):
        # a changed signature leaves the counts at 0 instead of failing the run
        state, op = (tuple(args) + (None, None))[:2]
        amplitudes = getattr(state, "amplitudes", None)
        span.info["bytes"] = 2 * amplitudes.nbytes if amplitudes is not None else 0
        if id(op) not in block_flops:
            blocks = getattr(op, "blocks", None) or ()
            # one dense complex matrix-vector product per block; the operator
            # is kept so that its id is not reused
            block_flops[id(op)] = (op, 8 * sum(b.count ** 2 for b in blocks))
        span.info["flops"] = block_flops[id(op)][1]

    def model(span, args, result):
        span.info["nnz"] = getattr(result, "nnz", 0)

    def io(span, args, result):
        if isinstance(result, Path):
            span.info["bytes"] = result.stat().st_size

    probes.update(propagate=propagate, model=model, io=io)
    return probes


def layer_metrics(spans) -> dict:
    """Per-layer self times and counts of one traced unit."""
    by_id = {s.id: s for s in spans}

    def enclosing_cycle(span):
        p = span.parent
        while p is not None:
            parent = by_id[p]
            if parent.layer == "protocol" and parent.name == "run_cycle":
                return parent
            p = parent.parent
        return None

    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    in_cycle = defaultdict(list)
    flat_s, flat_calls = 0.0, 0
    for s in spans:
        self_s[s.layer] += s.self_time
        calls[s.layer] += 1
        for k in ("bytes", "nnz"):
            counts[f"{s.layer}.{k}"] += s.info.get(k, 0)
        if s.layer == "propagate":
            cyc = enclosing_cycle(s)
            if cyc is None:
                flat_s += s.self_time
                flat_calls += 1
            else:
                # stage calls take the dense per-block path; the Krylov
                # iterations of flat calls are not visible from outside
                counts["propagate.flops"] += s.info.get("flops", 0)
                in_cycle[cyc.id].append(s)
    cold = []
    steady = defaultdict(list)
    for cyc_id, props in in_cycle.items():
        props.sort(key=lambda s: s.start)
        if by_id[cyc_id].info["cycle"] == 1:
            cold.append(sum(s.self_time for s in props))
            continue
        # stage names come from call order inside the cycle
        for stage, s in zip(STAGES, props):
            steady[stage].append(s.self_time)
    out = {
        "fock.enumerate_basis.self_s": (self_s["fock"], "s"),
        "model.build.self_s": (self_s["model"], "s"),
        "model.build.calls": (calls["model"], "count"),
        "model.nnz": (counts["model.nnz"], "count"),
        "propagate.self_s": (self_s["propagate"], "s"),
        "propagate.calls": (calls["propagate"], "count"),
        "propagate.cold.self_s": (median(cold) if cold else 0.0, "s"),
    }
    for stage in STAGES:
        vals = steady[stage]
        out[f"propagate.{stage}.self_s"] = (median(vals) if vals else 0.0, "s")
    out.update({
        "propagate.flat.self_s": (flat_s, "s"),
        "propagate.flat.calls": (flat_calls, "count"),
        "propagate.flops_computed": (counts["propagate.flops"], "flop"),
        "propagate.state_bytes_computed": (counts["propagate.bytes"], "B"),
        "observables.measure.self_s": (self_s["observables"], "s"),
        "observables.measure.calls": (calls["observables"], "count"),
        "erasure.self_s": (self_s["erasure"], "s"),
        "erasure.calls": (calls["erasure"], "count"),
        "protocol.self_s": (self_s["protocol"], "s"),
        "config.parse.self_s": (self_s["config"], "s"),
        "io.write.self_s": (self_s["io"], "s"),
        "io.bytes_written": (counts["io.bytes"], "B"),
        "cli.self_s": (self_s["cli"], "s"),
        "bench.self_s": (self_s["bench"], "s"),
        "trace.spans": (len(spans), "count"),
    })
    return out


def single_thread_run(args) -> dict:
    """The same unit in a child process with OPENBLAS_NUM_THREADS=1."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--units", "1", "--scale", args.scale]
    if args.reference:
        cmd += ["--reference", args.reference]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small: the self-check's sizes")
    parser.add_argument("--units", type=int, default=None,
                        help="number of units (default: from --seconds)")
    parser.add_argument("--reference", default=None,
                        help=f"reference outputs (default: {REFERENCE.name})")
    parser.add_argument("--write-reference", default=None,
                        help="store the first unit's outputs as the reference")
    args = parser.parse_args(argv)
    if args.seconds < 1 or (args.units is not None and args.units < 1):
        parser.error("--seconds and --units must be positive")

    _import_tsim()
    sys.path.insert(0, str(HERE))
    import workloads
    from spans import Recorder, call_targets
    import tsim.cli
    import tsim.protocol

    size = workloads.SIZES[args.scale][args.workload]
    n_units = args.units or max(1, round(args.seconds / size.unit_s))
    ref_key = f"{args.workload}/{args.scale}"
    ref_path = Path(args.reference) if args.reference else REFERENCE
    reference = None
    if args.seed == DEFAULT_SEED and ref_path.is_file():
        reference = json.loads(ref_path.read_text()).get(ref_key)

    targets = call_targets(tsim.protocol, tsim.cli)
    clocked = workloads.CLOCKED[args.workload]
    clock_targets = [t for t in targets if t[2].__name__ in clocked or t[3] in clocked]
    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    attempted = failed = 0
    metrics = {}
    try:
        clock = Recorder(_probes(traced=False))
        clock.install(clock_targets)
        control_ok = False
        try:
            control_ok = workloads.control_op(args.seed)
        except Exception:
            traceback.print_exc()
        if not control_ok:
            print("check failed: no-erasure control lost fidelity", file=sys.stderr)
        attempted, failed = 1, int(not control_ok)
        units = run_units(clock, args.workload, size, args.seed,
                          1 if args.trace else n_units, tmp, reference)
        clock.uninstall()
        summary = summarize(units)
        if args.trace:
            tracer = Recorder(_probes(traced=True), keep=True)
            tracer.install(targets)
            traced = run_units(tracer, args.workload, size, args.seed, 1, tmp,
                               reference)
            tracer.uninstall()
            units += traced
            metrics = layer_metrics(tracer.kept)
            metrics["trace.overhead_s"] = (traced[0].run_s - units[0].run_s, "s")
            child = single_thread_run(args)
            attempted += child["attempted"]
            failed += child["failed"]
            for name in ("setup_s", "cycle_s_p50", "run_s"):
                metrics[f"untraced.{name}"] = (summary[name], "s")
                metrics[f"st1.{name}"] = (
                    child["metrics"].get(name, {}).get("value", 0.0), "s")
        else:
            metrics = {name: (summary[name], "s") for name in
                       ("setup_s", "cycle_s_p50", "cycle_s_p90", "run_s")}
            metrics["seeds_per_s"] = (summary["seeds_per_s"], "1/s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        attempted += sum(u.ops for u in units)
        failed += sum(len(u.failed) for u in units)
        if not args.trace:
            metrics["ops_total"] = (attempted, "count")
        if args.write_reference:
            path = Path(args.write_reference)
            doc = json.loads(path.read_text()) if path.is_file() else {}
            doc[ref_key] = dict(units[0].outputs)
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed, "scale": args.scale,
                      "samples": summary["samples"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
