#!/usr/bin/env python3
"""Order-alternating pairs of benchmark runs: a parent revision against a
change, each run on the benchmark its own tree carries.

    python3 scripts/bench_pairs.py PARENT_REV [CHANGE_TREE] --workload W \\
        [--workload W ...] --pairs N --out BENCH_<n>.json [--control]

PARENT_REV is exported with ``git archive`` into a temporary directory.  The
change is CHANGE_TREE, by default the working tree of this checkout, or with
``--control`` a second export of PARENT_REV, an A/A set that shows what the
pair rule reads on identical trees.  Pair i runs both trees' own
``perfbench/run.py --trace 0`` as child processes with one seed, i + 1
(seed 0 would add the reference check to the timed run), for the run
length of ``BENCHMARK.json``, the parent first in even pairs and the change
first in odd ones (ABBA), so that a drift of the machine's speed within a
set favours neither tree.

The output file holds the environment of the first run, and one set per
kind, "change" or "control"; a run replaces its own kind's set and keeps the
other.  A set records the parent's commit, the commit the change tree
stands on and whether it holds uncommitted changes, each tree's
``src/tsim/*.py`` total and code lines (without comments, docstrings and
blank lines) and their net change, and for each workload its seeds, the
tree that ran first in each pair, every run's ``failed`` count, and for
each end-to-end metric of ``BENCHMARK.json`` each tree's median, IQR and
per-pair values, the change's win count (pairs in which it was strictly
better) and the pair rule: at least 9 wins in 10 and the medians apart by
more than the parent's IQR, in the metric's better direction.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
TREES = ("parent", "change")
# token types that make no line a code line
_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines of Python source that hold code: not blank, not only a
    comment, and not part of a module, class or function docstring."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _BLANK:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def line_counts(tree: Path) -> dict:
    """Total and code lines of a tree's ``src/tsim/*.py``."""
    texts = [p.read_text() for p in sorted((tree / "src" / "tsim").glob("*.py"))]
    return {"total": sum(len(t.splitlines()) for t in texts),
            "code": sum(code_lines(t) for t in texts)}


def iqr(values) -> float:
    """The interquartile range, numpy's default (linear) quantiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q3 - q1


def run_child(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run of a tree's own benchmark: its result object, the last line
    it prints, with the environment record of the line before as "env"."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}")
    return {**json.loads(lines[-1]), "env": json.loads(lines[-2])["env"]}


def run_pairs(trees: dict, workload: str, seeds, seconds: int,
              run) -> tuple[dict, list]:
    """Each tree's results in pair order, and the tree that ran first in
    each pair: pair i runs ``run(tree, workload, seed, seconds)`` on the
    trees in the order of ``trees`` when i is even and reversed when it is
    odd, both with ``seeds[i]``."""
    results, first = {name: [] for name in trees}, []
    for i, seed in enumerate(seeds):
        names = list(trees)[::-1 if i % 2 else 1]
        first.append(names[0])
        for name in names:
            results[name].append(run(trees[name], workload, seed, seconds))
    return results, first


def summarize(results: dict, metrics: dict) -> dict:
    """For each metric (name: "lower" or "higher", its better direction),
    each tree's median, IQR and per-pair values, the change's wins and the
    pair rule."""
    out = {}
    for name, better in metrics.items():
        sign = 1 if better == "lower" else -1
        values = {tree: [r["metrics"][name]["value"] for r in results[tree]]
                  for tree in TREES}
        entry = {tree: {"median": median(v), "iqr": iqr(v), "pairs": v}
                 for tree, v in values.items()}
        wins = sum(sign * (p - c) > 0 for p, c in zip(*values.values()))
        gain = sign * (entry["parent"]["median"] - entry["change"]["median"])
        out[name] = {"better": better, **entry, "wins": wins,
                     "pair_rule": wins >= 0.9 * len(values["parent"])
                     and gain > entry["parent"]["iqr"]}
    return out


def _git(tree: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def describe(tree: Path) -> dict:
    """The commit a change tree's checkout stands on and whether it holds
    uncommitted changes; nulls for a tree outside git."""
    try:
        return {"head": _git(tree, "rev-parse", "HEAD"),
                "uncommitted": bool(_git(tree, "status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"head": None, "uncommitted": None}


def export(rev: str, dest: Path) -> Path:
    """The tree of commit ``rev``, written under ``dest`` by git archive."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev", metavar="PARENT_REV")
    parser.add_argument("change_tree", metavar="CHANGE_TREE", nargs="?",
                        default=str(ROOT))
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--control", action="store_true",
                        help="run the parent against a second export of itself")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    sha = _git(ROOT, "rev-parse", "--verify", f"{args.parent_rev}^{{commit}}")
    seeds = list(range(1, args.pairs + 1))
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.is_file() else {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export(sha, Path(tmp) / "parent")}
        trees["change"] = (export(sha, Path(tmp) / "control") if args.control
                           else Path(args.change_tree).resolve())
        lines = {name: line_counts(tree) for name, tree in trees.items()}
        kind = "control" if args.control else "change"
        record = {"parent_rev": sha,
                  "change": ({"head": sha, "uncommitted": False}
                             if args.control else describe(trees["change"])),
                  "lines": {**lines, "net": {
                      k: lines["change"][k] - lines["parent"][k]
                      for k in ("total", "code")}},
                  "workloads": {}}
        for workload in args.workload:
            results, first = run_pairs(trees, workload, seeds, seconds,
                                       run_child)
            doc.setdefault("env", results["parent"][0]["env"])
            record["workloads"][workload] = {
                "seeds": seeds, "first": first,
                "failed": {tree: [r["failed"] for r in results[tree]]
                           for tree in TREES},
                "metrics": summarize(results, metrics)}
            print(workload, {m: (s["wins"], s["pair_rule"]) for m, s in
                             record["workloads"][workload]["metrics"].items()},
                  file=sys.stderr)
    doc.setdefault("sets", {})[kind] = record
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
