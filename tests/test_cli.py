import contextlib
import copy
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import refuse_bases
from oracles import sector_hamiltonian
from tsim import fock
from tsim.cli import main
from tsim.config import _KEYS
from tsim.model import LatticeSpec, ModelParams
from tsim.protocol import ProtocolConfig

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


def test_basis_beyond_physical_memory_is_refused(monkeypatch, capsys):
    # at 8 bytes a mask, the least any form takes, C(63, 31) masks are about
    # 7.3e18 bytes and C(40, 20) about 1.1e12: refused before any mask is
    # enumerated, so a stub that raises stands in for the enumeration
    def refuse(*args):
        raise AssertionError(f"combinations{args} ran before the refusal")

    monkeypatch.setattr(fock, "itertools", SimpleNamespace(combinations=refuse))
    for sites, particles in ((63, 31), (40, 20)):
        assert main(["basis", "--sites", str(sites),
                     "--particles", str(particles)]) == 1
        assert capsys.readouterr().err == (
            f"error: sites: the basis takes {8 * comb(sites, particles)} bytes, "
            f"more than the {fock._PHYSICAL_BYTES} bytes of physical memory\n")
    monkeypatch.undo()
    # C(20, 10) masks take 1.5 MB, and print
    assert main(["basis", "--sites", "20", "--particles", "10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dim 184756" and len(out) == 1 + comb(20, 10)


def test_closed_stdout_is_not_a_failure():
    # a reader that takes 3 of the 184757 lines and closes the pipe, as
    # `tsim basis ... | head -n 3` does, ends the run with exit 0 and no error
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "tsim.cli", "basis", "--sites", "20", "--particles", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    lines = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert lines == [b"dim 184756\n", b"00000000001111111111\n",
                     b"00000000010111111111\n"]


def test_eigen_path_runs_load_no_scipy(tmp_path):
    # validate, basis and a desk simulate, whose every stage takes the eigen
    # path, run in a fresh interpreter without importing scipy; the first
    # Chebyshev stage, here the desk full H's, loads it and runs
    config = _write_config(tmp_path)
    code = f"""if True:
        import contextlib, io, json, sys
        import numpy as np
        import tsim
        from tsim.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["validate", "--config", {str(config)!r}]),
                     main(["basis", "--sites", "6", "--particles", "2"]),
                     main(["simulate", "--config", {str(config)!r},
                           "--out", {str(tmp_path / "run")!r}])]
        eigen = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        ctx = tsim.prepare(tsim.ProtocolConfig(
            tsim.LatticeSpec.chain(6), 2, 2, tsim.ModelParams.defaults(6)))
        full = tsim.build_full(ctx.config.lattice, ctx.config.params,
                               ctx.basis_tau, ctx.basis_upsilon)
        out = tsim.evolve(ctx.initial, full, 1.0)
        print(json.dumps({{"codes": codes, "eigen": eigen,
                          "loaded": "scipy.special" in sys.modules,
                          "norm": float(np.linalg.norm(out))}}))
    """
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0, 0]
    assert (tmp_path / "run" / "trajectory.csv").is_file()
    assert got["eigen"] == []
    assert got["loaded"] and abs(got["norm"] - 1.0) < 1e-12


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


def test_non_utf8_config_file_error_names_its_path(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"lattice": {"sites": 4}, "caf\xe9": 1}')
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xe9")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("t1", [1e308, 1e9])
def test_simulate_refuses_a_term_count_past_its_limits(t1, tmp_path, capsys):
    # at L=10, 5+5 H1 takes the Chebyshev expansion: t1 = 1e308 ended in an
    # OverflowError traceback, and 1e9 asks for about 100 GiB of coefficients;
    # both are refused before the run, at the key of t1
    doc = {"lattice": {"sites": 10, "chain": True},
           "particles": {"tau": 5, "upsilon": 5}, "protocol": {"t1": t1}}
    path = _write_config(tmp_path, doc)
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: protocol.t1: t = {t1}: the Chebyshev expansion")
    assert "Traceback" not in err


def test_simulate_refuses_an_unresolvable_phase_on_the_eigen_path(tmp_path,
                                                                 capsys):
    # at L=4, 2+1 both stages take the eigen path; at j_tau = 1e200 H1's
    # half-width is 2.24e200, so a*|t| passes the 2**52 at which Chebyshev
    # refuses too.  validate refuses the document, at j_tau, with the bound
    # 2 * 2 * j_tau on a that needs no basis, and so does simulate
    doc = {"lattice": {"sites": 4}, "particles": {"tau": 2, "upsilon": 1},
           "params": {"j_tau": 1e200}}
    path = _write_config(tmp_path, doc)
    for argv in (["validate"], ["simulate", "--out", str(tmp_path / "run")]):
        assert main([*argv, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: params.j_tau: t = 2.0: no phase resolves "
                              "the spectral half-width a = 4.0")
        assert "Traceback" not in err


_L10 = {"lattice": {"sites": 10, "chain": True},
        "particles": {"tau": 5, "upsilon": 5}}
_CONFIGS = Path(__file__).resolve().parents[1] / "configs"
_SHIPPED = [json.loads((_CONFIGS / f"{name}.json").read_text())
            for name in ("desk", "comparison")]


@pytest.mark.parametrize("doc, key", [
    ({**_L10, "protocol": {"t1": 1e308}}, "protocol.t1"),
    ({**_L10, "protocol": {"t1": 1e9}}, "protocol.t1"),
    ({**_L10, "params": {"u_cross": 1e308}}, "params.u_cross"),
    ({**MINIMAL, "params": {"u_cross": 1e308}}, "params.u_cross"),
    ({**_L10, "params": {"j_tau": 1e300}}, "params.j_tau"),
    ({**_L10, "params": {"u_tau": [1e308] * 10}}, "params.u_tau"),
    ({"lattice": {"sites": 4}, "particles": {"tau": 2, "upsilon": 1},
      "params": {"j_tau": 1e200}}, "params.j_tau"),
], ids=["t1-1e308", "t1-1e9", "u_cross-l10", "u_cross-desk", "j_tau-1e300",
        "u_tau", "j_tau-eigen"])
def test_validate_refuses_an_unrunnable_document_at_its_key(doc, key, tmp_path,
                                                             capsys, monkeypatch):
    # the stage rule, asked about every stage before any basis exists,
    # refuses each at the key that makes a*|t| too long: t when a is
    # ordinary, the parameter when its own term alone passes the limit
    refuse_bases(monkeypatch)
    assert main(["validate", "--config", str(_write_config(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    {**_L10, "protocol": {"t1": 1e5}},
    {**_L10, "protocol": {"t1": 1e5}, "controls": {"full_hamiltonian_run": True}},
    *_SHIPPED,
], ids=["t1-1e5", "t1-1e5-full", "desk", "comparison"])
def test_validate_accepts_a_long_t_that_fits_and_the_shipped_configs(
        doc, tmp_path, capsys, monkeypatch):
    # at L=10 the bound on a is 15, 30 for the full H, so t1 = 1e5 takes
    # about 2e6 and 4e6 Bessel terms: long, but within memory
    refuse_bases(monkeypatch)
    assert main(["validate", "--config", str(_write_config(tmp_path, doc))]) == 0
    assert capsys.readouterr().err == ""


def _cli(argv: list) -> tuple[int, str, str]:
    """``main(argv)``'s exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# every key path of a document: each key of each section, an entry of each
# potential, each section as a whole, and the initial state; the keys that
# set a stage's a*|t| twice as often as the others
_STAGE_KEYS = [("params", "j_tau"), ("params", "j_upsilon"), ("params", "u_cross"),
               ("params", "u_tau", 0), ("params", "u_upsilon", 0),
               ("protocol", "t1"), ("protocol", "t2")]
_PATHS = ([(section, key) for section, keys in _KEYS.items() for key in keys]
          + _STAGE_KEYS * 2 + [(section,) for section in _KEYS] + [("initial",)])
# null, wrong types, 0 and negatives, huge floats and ints, NaN and
# Infinity, the empty list; and ordinary values, which most keys accept
_VALUES = [None, "x", True, [], {}, 0, -1, -2.5, 1e300, -1e300, 1e308, -1e308,
           2**63, 10**30, -10**30, 10**400, math.nan, math.inf, -math.inf,
           False, 1, 2, 0.5, "tau"]


@st.composite
def _documents(draw) -> str:
    """A shipped config or a small lattice, with one or two mutations: a
    key, or an entry of a potential, set to a value of ``_VALUES``, an
    unknown key, or a repeated one."""
    doc = copy.deepcopy(draw(st.one_of(st.sampled_from(_SHIPPED), st.builds(
        lambda sites, tau, upsilon, full: {
            "lattice": {"sites": sites},
            "particles": {"tau": tau % (sites + 1), "upsilon": upsilon % (sites + 1)},
            "controls": {"full_hamiltonian_run": full}},
        st.integers(1, 8), st.integers(0, 8), st.integers(0, 8), st.booleans()))))
    repeats = []
    for kind, path, value in draw(st.lists(st.tuples(
            st.sampled_from(["set"] * 4 + ["unknown", "repeat"]), st.sampled_from(_PATHS),
            st.sampled_from(_VALUES)), min_size=1, max_size=2)):
        if kind == "repeat":
            repeats.append((path[:2], value))
            continue
        *parents, last = path if kind == "set" else (*path[:1], "bogus")
        node = doc
        for key in parents:
            if not isinstance(node.get(key) if isinstance(node, dict) else None, dict):
                if isinstance(node, dict) and isinstance(node.get(key), list):
                    break
                node[key] = {}
            node = node[key]
        if isinstance(last, int):  # an entry of the sites' potentials
            sites = doc.get("lattice", {}).get("sites") if isinstance(
                doc.get("lattice"), dict) else None
            if isinstance(node, dict) and isinstance(sites, int) and 0 < sites < 64:
                node[path[1]] = [value] + [0.0] * (sites - 1)
            elif isinstance(node, list) and node:
                node[last] = value
        else:
            node[last] = value
    text = json.dumps(doc)
    for (section, *key), value in repeats:
        # the key written twice, first with the value: a top-level section
        # at the start of the document, a key at the start of its section
        text = (re.sub(rf'"{section}": \{{', lambda m: f'{m[0]}"{key[0]}": '
                       f'{json.dumps(value)}, ', text, count=1)
                if key and f'"{section}": {{' in text
                else f'{{"{section}": {json.dumps(value)}, ' + text[1:])
    return text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_documents())
def test_every_document_is_refused_at_a_key_or_runs(text):
    # an accepted document runs: validate refuses it at a key path with no
    # traceback and no basis enumerated, or accepts it, prints a resolved
    # document that reparses to itself, and simulate, one cycle and at most
    # 16 Trotter steps, where gamma has at most 1e5 entries, exits 0 with a
    # finite value in every CSV cell
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        with pytest.MonkeyPatch.context() as mp:
            refuse_bases(mp)
            code, out, err = _cli(["validate", "--config", str(path)])
        if code == 1:
            assert re.match(r"error: (top level|malformed document|[a-z_]\w*"
                            r"(\.[a-z_]\w*)*(\[\d+\])?): ", err), (text, err)
            assert "Traceback" not in err
            return
        assert (code, err) == (0, ""), text
        path.write_text(out)
        assert _cli(["validate", "--config", str(path)]) == (0, out, "")
        doc = json.loads(out)
        sites = doc["lattice"]["sites"]
        if math.comb(sites, doc["particles"]["tau"]) * math.comb(
                sites, doc["particles"]["upsilon"]) > 1e5:
            return
        doc["protocol"]["cycles"] = 1
        doc["controls"]["trotter_steps"] = min(16, doc["controls"]["trotter_steps"])
        path.write_text(json.dumps(doc))
        code, _, err = _cli(["simulate", "--config", str(path), "--out", tmp])
        assert (code, err) == (0, ""), (text, err)
        for csv in Path(tmp).glob("*.csv"):
            rows = csv.read_text().splitlines()[1:]
            cells = [c for row in rows for c in row.split(",")[:1] + row.split(",")[2:]]
            assert cells and all(math.isfinite(float(c)) for c in cells), csv


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


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script_usage_error(script, argv, tmp_path, monkeypatch, capsys):
    """Run a script with argv, expecting a usage error before any run or
    output file; returns its stderr."""
    import runpy
    path = SCRIPTS / script
    out = tmp_path / "out.csv"
    # as `python scripts/<script>` does, so that the script finds _front
    monkeypatch.syspath_prepend(str(SCRIPTS))
    monkeypatch.setattr("sys.argv", [script, *argv, "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 2
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("script,flag", [
    ("run_irreversibility.py", "--seeds"),
    ("run_saturation.py", "--seeds"),
    ("run_saturation.py", "--cycles"),
])
def test_scripts_reject_empty_ensembles(script, flag, tmp_path, monkeypatch, capsys):
    err = _script_usage_error(script, [flag, "0"], tmp_path, monkeypatch, capsys)
    assert f"error: {flag} must be at least 1" in err


@pytest.mark.parametrize("script,argv,message", [
    ("run_irreversibility.py", ["--t", "0"], "--t: must be positive and finite"),
    ("run_irreversibility.py", ["--sites", "0"], "--sites: must be a positive integer"),
    ("run_saturation.py", ["--particles", "9"], "--particles: must be in [0, 6]"),
    ("run_saturation.py", ["--t", "nan"], "--t: must be positive and finite"),
], ids=["irreversibility-t", "irreversibility-sites", "saturation-particles",
        "saturation-t"])
def test_scripts_reject_bad_model_flags(script, argv, message, tmp_path,
                                        monkeypatch, capsys):
    # a flag the run's configuration rejects names the flag
    err = _script_usage_error(script, argv, tmp_path, monkeypatch, capsys)
    assert f"error: {message}" in err


@pytest.fixture
def front(monkeypatch):
    """The scripts' shared front end, its run_protocol returning the config
    it is given."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import _front
    monkeypatch.setattr(_front, "run_protocol", lambda config: config)
    return _front


def test_front_end_defaults(front, monkeypatch):
    monkeypatch.setattr("sys.argv", ["run_saturation.py"])
    args, configs = front.runs(seeds=20, out="out/saturation.csv", cycles=50)
    assert vars(args) == {"sites": 6, "particles": 2, "seeds": 20, "cycles": 50,
                          "t": 2.0, "out": "out/saturation.csv"}
    base = ProtocolConfig(LatticeSpec.chain(6), 2, 2, ModelParams.defaults(6),
                          t1=2.0, t2=2.0, cycles=50)
    assert list(configs) == [replace(base, master_seed=s) for s in range(20)]
    # with no --cycles default the flag does not exist, and a run is one cycle
    monkeypatch.setattr("sys.argv", ["run_irreversibility.py", "--seeds", "3"])
    args, configs = front.runs(seeds=50, out="out/irreversibility.csv")
    assert [(c.cycles, c.master_seed) for c in configs] == [(1, 0), (1, 1), (1, 2)]
    monkeypatch.setattr("sys.argv", ["run_irreversibility.py", "--cycles", "2"])
    with pytest.raises(SystemExit) as exc:
        front.runs(seeds=50, out="out/irreversibility.csv")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["--cycles", "0"], "--cycles must be at least 1"),
    (["--seeds", "0"], "--seeds must be at least 1"),
    (["--sites", "64"], "--sites: must be at most 63"),
    (["--t", "0"], "--t: must be positive and finite"),
    (["--particles", "7"], "--particles: must be in [0, 6]"),
])
def test_front_end_usage_errors(front, argv, message, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["run_saturation.py", *argv])
    with pytest.raises(SystemExit) as exc:
        front.runs(seeds=20, out="out/saturation.csv", cycles=50)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"run_saturation.py: error: {message}"


@pytest.fixture
def calibration(monkeypatch):
    """``scripts/calibrate_saturation.py`` loaded as a module, its ``main``
    not yet run, with ``oracles.sector_hamiltonian`` raising: a run that
    builds a matrix fails."""
    # the script puts tests/ on sys.path, as it does under python
    monkeypatch.setattr("sys.path", [*sys.path])
    spec = importlib.util.spec_from_file_location(
        "calibrate_saturation", SCRIPTS / "calibrate_saturation.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def refuse(*args, **kwargs):
        raise AssertionError("a Hamiltonian was built")

    monkeypatch.setattr(module.oracles, "sector_hamiltonian", refuse)
    return module


def _calibration_error(calibration, argv, monkeypatch, capsys):
    """Run the calibration with argv, expecting a usage error; returns the
    last line of its stderr."""
    monkeypatch.setattr("sys.argv", ["calibrate_saturation.py", *argv])
    with pytest.raises(SystemExit) as exc:
        calibration.main()
    assert exc.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("argv, message", [
    (["--particles", "7"], "--particles: must be in [0, 6]"),
    (["--particles", "-1"], "--particles: must be in [0, 6]"),
    (["--sites", "0"], "--sites: must be a positive integer"),
    (["--t", "nan"], "--t: must be positive and finite"),
    (["--t", "0"], "--t: must be positive and finite"),
    (["--t", "-2"], "--t: must be positive and finite"),
    (["--t", "1e10"], "--t: the stage propagators at t = 10000000000.0 are not unitary"),
    (["--t", "1e20"], "--t: the stage propagators at t = 1e+20 are not unitary"),
    (["--t", "1e300"], "--t: the stage propagators at t = 1e+300 are not unitary"),
])
def test_calibration_rejects_bad_flags(calibration, argv, message, monkeypatch,
                                       capsys):
    # each is a usage error naming its flag, before any matrix is built, or,
    # for propagators that expm cannot keep unitary, before the first cycle
    if "unitary" in message:
        monkeypatch.setattr(calibration.oracles, "sector_hamiltonian",
                            sector_hamiltonian)
    err = _calibration_error(calibration, argv, monkeypatch, capsys)
    assert err == f"calibrate_saturation.py: error: {message}"


def test_calibration_of_a_one_state_sector_prints_zeros(calibration,
                                                        monkeypatch, capsys):
    # one site with one particle of each species holds one state, whose
    # amplitude's modulus drifts by an ulp a cycle; its entropies are
    # roundoff around 0, which the oracle's entropy clamps to 0
    monkeypatch.setattr(calibration.oracles, "sector_hamiltonian",
                        sector_hamiltonian)
    monkeypatch.setattr("sys.argv", ["calibrate_saturation.py", "--sites", "1",
                                     "--particles", "1", "--seeds", "2",
                                     "--cycles", "6"])
    calibration.main()
    out = capsys.readouterr().out.splitlines()
    assert "plateau (cycles 4..6): 0.000000" in out
    assert [line for line in out if line.startswith("worst")] == [
        "worst smoothed diff: 0.00 SE (bound -31.82)"]


def test_calibration_beyond_physical_memory_is_refused(calibration, monkeypatch,
                                                       capsys):
    # at 8 GiB: 9 sites with 4+4 particles take 11 sector matrices of 4 GB,
    # 30 sites with 1+1 six one-species matrices of 2^60 entries, and past
    # 63 sites nothing is counted; all are refused before any matrix is built
    memory = 8 << 30
    monkeypatch.setattr(calibration, "_PHYSICAL_BYTES", memory)
    for sites, particles in ((9, 4), (30, 1), (64, 2), (10**12, 2)):
        err = _calibration_error(
            calibration, ["--sites", str(sites), "--particles", str(particles)],
            monkeypatch, capsys)
        assert err == (
            f"calibrate_saturation.py: error: --sites: the dense matrices of "
            f"{sites} sites and {particles}+{particles} particles take more "
            f"than the {memory} bytes of physical memory")
    # 8 sites with 4+4 take 11 sector matrices of 384 MB, and run
    monkeypatch.setattr("sys.argv", ["calibrate_saturation.py", "--sites", "8",
                                     "--particles", "4"])
    with pytest.raises(AssertionError, match="a Hamiltonian was built"):
        calibration.main()
