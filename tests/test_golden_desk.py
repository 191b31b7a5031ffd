"""The desk and comparison runs reproduce their committed CSVs.

``tests/data/desk`` holds the output of
``tsim simulate --config configs/desk.json``, and ``tests/data/comparison``
that of ``configs/comparison.json``, an ``L=10, 5+5`` chain whose stages all
take the Chebyshev path.  The erase phases are drawn from the seed alone, so
``phases.csv`` must match byte for byte.  In every trajectory CSV the labels
and model times must match exactly, and the entropies and fidelity to 1e-10,
which leaves room for the last bits that another BLAS build may move.
"""

from pathlib import Path

import numpy as np

from tsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "desk"
COMPARISON = ROOT / "tests" / "data" / "comparison"


def _columns(path: Path) -> tuple[str, list[list[str]]]:
    header, *rows = path.read_text(encoding="ascii").splitlines()
    return header, [row.split(",") for row in rows]


def _assert_matches(path: Path, golden: Path) -> None:
    header, rows = _columns(path)
    gold_header, gold_rows = _columns(golden)
    assert header == gold_header
    assert len(rows) == len(gold_rows)
    # cycle, stage and model_time, as printed
    assert [r[:3] for r in rows] == [r[:3] for r in gold_rows]
    # S_tau, S_upsilon, S_total, S_ent and fidelity
    values = np.array([r[3:] for r in rows], dtype=float)
    gold = np.array([r[3:] for r in gold_rows], dtype=float)
    assert values.shape == gold.shape == (len(gold_rows), 5)
    np.testing.assert_allclose(values, gold, rtol=0, atol=1e-10)


def test_desk_simulate_matches_golden(tmp_path, capsys):
    assert main(["simulate", "--config", str(ROOT / "configs" / "desk.json"),
                 "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "phases.csv").read_bytes()
            == (GOLDEN / "phases.csv").read_bytes())
    _assert_matches(tmp_path / "trajectory.csv", GOLDEN / "trajectory.csv")


def test_comparison_simulate_matches_golden(tmp_path, capsys):
    # the protocol cycle, the full-H run and the 16-step Trotter run
    assert main(["simulate", "--config", str(ROOT / "configs" / "comparison.json"),
                 "--out", str(tmp_path)]) == 0
    names = sorted(p.name for p in COMPARISON.iterdir())
    assert names == ["full_hamiltonian.csv", "trajectory.csv", "trotter.csv"]
    for name in names:
        _assert_matches(tmp_path / name, COMPARISON / name)
