"""Self-check of the benchmark at small sizes.

    python3 -m pytest -q perfbench

Every workload runs one small unit, untraced and traced; each must emit every
metric BENCHMARK.json names, with its unit.  A deliberately wrong reference
value must count as a failed operation, and the benchmark must refuse to run
without the tsim sources.
"""

import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    out = StringIO()
    with redirect_stdout(out):
        assert run.main(list(args)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def small(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--scale", "small", "--units", "1", *extra)


def test_workload_names_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(workload, trace, section):
    result = small(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_reference_value_fails_an_operation(workload, tmp_path):
    ref = tmp_path / "reference.json"
    small(workload, 0, "--write-reference", str(ref))
    assert small(workload, 0, "--reference", str(ref))["failed"] == 0

    doc = json.loads(ref.read_text())
    outputs = doc[f"{workload}/small"]
    first = next(iter(outputs))
    outputs[first][3] += 1e-6
    ref.write_text(json.dumps(doc))
    result = small(workload, 0, "--reference", str(ref))
    assert result["failed"] == 1 and not result["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", run.WORKLOADS[0], "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
