"""The pair runner of scripts/bench_pairs.py on stubbed child results: its
ABBA order, its statistics and the file it writes; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(values: dict, failed: int = 0) -> dict:
    return {"failed": failed,
            "metrics": {k: {"value": v, "unit": "s"}
                        for k, v in values.items()}}


def test_pairs_alternate_the_tree_that_runs_first(bench):
    # ABBA: parent first in even pairs, change first in odd ones, both
    # trees on the pair's one seed
    calls = []

    def run(tree, workload, seed, seconds):
        calls.append((tree, seed))
        return _result({"run_s": seed})

    trees = {"parent": "A", "change": "B"}
    results, first = bench.run_pairs(trees, "w", [5, 6, 7, 8], 35, run)
    assert calls == [("A", 5), ("B", 5), ("B", 6), ("A", 6),
                     ("A", 7), ("B", 7), ("B", 8), ("A", 8)]
    assert first == ["parent", "change", "parent", "change"]
    assert [r["metrics"]["run_s"]["value"]
            for r in results["change"]] == [5, 6, 7, 8]


def test_statistics_wins_and_pair_rule(bench):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    change = [0.5, 2.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    rates = [10.0, 11.0, 9.0, 12.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    results = {"parent": [_result({"run_s": p, "seeds_per_s": 10.0})
                          for p in parent],
               "change": [_result({"run_s": c, "seeds_per_s": r})
                          for c, r in zip(change, rates)]}
    got = bench.summarize(results, {"run_s": "lower", "seeds_per_s": "higher"})
    run_s = got["run_s"]
    assert run_s["parent"]["pairs"] == parent
    assert run_s["change"]["pairs"] == change
    assert run_s["parent"]["median"] == np.median(parent) == 5.5
    q1, q3 = np.percentile(change, [25, 75])
    assert run_s["change"]["iqr"] == pytest.approx(q3 - q1)
    assert run_s["parent"]["iqr"] == pytest.approx(4.5)
    # 9 of 10 better, but the medians 5.5 and 4.5 lie within the parent's IQR
    assert run_s["wins"] == 9 and run_s["pair_rule"] is False
    # higher is better: only the strictly higher rates win
    assert got["seeds_per_s"]["wins"] == 2
    assert got["seeds_per_s"]["pair_rule"] is False
    # every pair better, by more than the parent's IQR
    results["change"] = [_result({"run_s": p - 6.0}) for p in parent]
    got = bench.summarize(results, {"run_s": "lower"})
    assert got["run_s"]["wins"] == 10 and got["run_s"]["pair_rule"] is True


def test_code_lines_skip_docstrings_comments_and_blanks(bench):
    text = '''"""Module
docstring."""

# a comment
X = (1,
     2)  # trailing


class A:
    """Class docstring."""

    def f(self):
        """One
        docstring."""
        return "not a docstring"
'''
    # X's two lines, the class line, the def line and the return line
    assert bench.code_lines(text) == 5


def test_control_set_is_written_beside_the_change_set(bench, monkeypatch,
                                                      tmp_path):
    # a control set runs two exports of one revision, so its line counts
    # agree; the file keeps the change set it already held
    runs = []

    def run(tree, workload, seed, seconds):
        runs.append((tree.name, workload, seed, seconds))
        return {**_result({m: 1.0 for m in ("setup_s", "cycle_s_p50",
                                            "cycle_s_p90", "run_s",
                                            "seeds_per_s", "peak_rss_mb",
                                            "ops_total")}),
                "env": {"nproc": 2}}

    monkeypatch.setattr(bench, "run_child", run)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"sets": {"change": {"kept": True}}}))
    assert bench.main(["HEAD", "--control", "--workload", "desk-ensemble",
                       "--pairs", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["env"] == {"nproc": 2}
    assert doc["sets"]["change"] == {"kept": True}
    control = doc["sets"]["control"]
    assert control["change"] == {"head": control["parent_rev"],
                                 "uncommitted": False}
    assert control["lines"]["parent"] == control["lines"]["change"]
    assert control["lines"]["net"] == {"total": 0, "code": 0}
    lines = control["lines"]["parent"]
    assert 0 < lines["code"] < lines["total"]
    desk = control["workloads"]["desk-ensemble"]
    assert desk["seeds"] == [1, 2] and desk["first"] == ["parent", "change"]
    assert desk["failed"] == {"parent": [0, 0], "change": [0, 0]}
    assert desk["metrics"]["run_s"]["wins"] == 0
    assert runs == [("parent", "desk-ensemble", 1, 35),
                    ("control", "desk-ensemble", 1, 35),
                    ("control", "desk-ensemble", 2, 35),
                    ("parent", "desk-ensemble", 2, 35)]
