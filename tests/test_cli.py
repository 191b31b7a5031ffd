import json
import warnings

import pytest

from tsim.cli import main

MINIMAL = {"lattice": {"sites": 6, "chain": True},
           "particles": {"tau": 2, "upsilon": 2}}


def _write_config(tmp_path, doc=None, **extra):
    doc = dict(MINIMAL if doc is None else doc)
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_basis_subcommand(capsys):
    assert main(["basis", "--sites", "4", "--particles", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dim 6"
    assert out[1:] == ["0011", "0101", "0110", "1001", "1010", "1100"]


def test_basis_invalid_arguments(capsys):
    assert main(["basis", "--sites", "4", "--particles", "5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_echoes_resolved_config(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["validate", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["protocol"]["t1"] == 2.0
    assert doc["params"]["j_tau"] == 1.0
    assert len(doc["lattice"]["edges"]) == 5


def test_validate_rejects_bad_config(tmp_path, capsys):
    path = _write_config(tmp_path, particles={"tau": 9, "upsilon": 2})
    assert main(["validate", "--config", str(path)]) == 1
    assert "particles.tau" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_simulate_deterministic_output(tmp_path, capsys):
    path = _write_config(tmp_path, protocol={"cycles": 2, "seed": 11})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out_b)]) == 0
    csv_a = (out_a / "trajectory.csv").read_bytes()
    csv_b = (out_b / "trajectory.csv").read_bytes()
    assert csv_a == csv_b


def test_simulate_seed_flag_overrides_config(tmp_path, capsys):
    path = _write_config(tmp_path, protocol={"cycles": 1, "seed": 11})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out_b),
                 "--seed", "12"]) == 0
    assert ((out_a / "trajectory.csv").read_bytes()
            != (out_b / "trajectory.csv").read_bytes())
    capsys.readouterr()
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "c"),
                 "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed: must be nonnegative\n"
    assert not (tmp_path / "c").exists()


def test_simulate_dumps_and_comparison_runs(tmp_path):
    doc = dict(MINIMAL)
    doc["protocol"] = {"cycles": 2, "seed": 3}
    doc["controls"] = {"full_hamiltonian_run": True, "trotter_steps": 4}
    doc["output"] = {"dump_states": True, "dump_phases": True}
    path = _write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "phases.csv").exists()
    assert (out / "full_hamiltonian.csv").exists()
    assert (out / "trotter.csv").exists()
    assert (out / "states" / "state_cycle0001.tsim").exists()
    assert (out / "states" / "state_cycle0002.tsim").exists()
    assert (out / "states" / "state_final.tsim").exists()


def test_missing_config_file_reports_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_nan_duration_without_traceback(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**MINIMAL, "protocol": {"t1": float("nan")}}))
    assert "NaN" in path.read_text()
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: protocol.t1")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_overflowing_initial_amplitudes_exit_1_without_warning(tmp_path, capsys):
    doc = {"lattice": {"sites": 3, "chain": True},
           "particles": {"tau": 1, "upsilon": 1},
           "initial": [[1e308, 0.0]] * 9}
    path = _write_config(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.count("error: initial: the amplitude norm overflows") == 2
    assert not (tmp_path / "run").exists()
