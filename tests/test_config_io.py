import json
import re

import numpy as np
import pytest

from tsim.config import ConfigError, OutputOptions, parse_config, serialize_config
from tsim.io import (read_state, read_trajectory, write_phases, write_state,
                     write_trajectory)
from tsim.fock import enumerate_basis
from tsim.model import LatticeSpec, ModelParams
from tsim.protocol import ProtocolConfig, build_initial_state, run_protocol

MINIMAL = """
{"lattice": {"sites": 6, "chain": true},
 "particles": {"tau": 2, "upsilon": 2}}
"""


def test_minimal_document_defaults():
    config, output = parse_config(MINIMAL)
    assert config.lattice.edges == tuple((i, i + 1) for i in range(5))
    assert config.params.j_tau == 1.0
    assert config.params.j_upsilon == 1.0
    assert config.params.u_tau == (0.0,) * 6
    assert config.params.u_cross == 1.0
    assert config.t1 == 2.0 and config.t2 == 2.0
    assert config.cycles == 1
    assert config.master_seed == 0
    assert config.erasure.kind == "random-phase"
    assert config.erasure.species == "upsilon"
    assert config.initial == "domain-wall"
    assert output == OutputOptions()


def test_round_trip():
    config, output = parse_config(MINIMAL)
    text = serialize_config(config, output)
    config2, output2 = parse_config(text)
    assert config2 == config
    assert output2 == output
    # a second round trip is byte-identical
    assert serialize_config(config2, output2) == text


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="frobnicate: unknown key"):
        parse_config('{"lattice": {"sites": 4}, "particles": {"tau": 1, "upsilon": 1}, "frobnicate": 1}')
    with pytest.raises(ConfigError, match="params.potato: unknown key"):
        parse_config('{"lattice": {"sites": 4}, "particles": {"tau": 1, "upsilon": 1}, "params": {"potato": 2}}')


def test_particle_bound_error_names_key():
    doc = '{"lattice": {"sites": 6}, "particles": {"tau": 7, "upsilon": 2}}'
    with pytest.raises(ConfigError, match="particles.tau"):
        parse_config(doc)


def test_malformed_and_constraint_errors():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="lattice.sites"):
        parse_config('{"particles": {"tau": 1, "upsilon": 1}}')
    with pytest.raises(ConfigError, match="protocol.t1"):
        parse_config('{"lattice": {"sites": 4}, "particles": {"tau": 1, "upsilon": 1}, "protocol": {"t1": -1}}')
    with pytest.raises(ConfigError, match="protocol.cycles"):
        parse_config('{"lattice": {"sites": 4}, "particles": {"tau": 1, "upsilon": 1}, "protocol": {"cycles": 0}}')
    with pytest.raises(ConfigError, match="lattice.edges"):
        parse_config('{"lattice": {"sites": 4, "chain": true, "edges": [[0, 1]]}, "particles": {"tau": 1, "upsilon": 1}}')


_SMALL = {"lattice": {"sites": 4}, "particles": {"tau": 1, "upsilon": 1}}
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("section, literal, message", [
    ({"protocol": {"t1": _NAN}}, None, "protocol.t1: expected a finite number"),
    ({"protocol": {"t2": _INF}}, None, "protocol.t2: expected a finite number"),
    ({"params": {"j_tau": _NAN}}, None, "params.j_tau: expected a finite number"),
    ({"params": {"u_cross": -_INF}}, None, "params.u_cross: expected a finite number"),
    ({"params": {"u_tau": [0, _NAN, 0, 0]}}, None,
     "params.u_tau[1]: expected a finite number"),
    ({"params": {"j_upsilon": "BIG"}}, "1" + "0" * 400,
     "params.j_upsilon: expected a finite number"),
    ({"erasure": {"kind": "site-phase", "site": 1, "theta": _NAN}}, None,
     "erasure.theta: expected a finite number"),
    ({"initial": [[1.0, 0.0]] + [[_NAN, 0.0]] * 15}, None,
     "initial: expected [re, im] pairs of finite numbers"),
    ({"initial": [[True, False]] * 16}, None,
     "initial: expected [re, im] pairs of finite numbers"),
    ({"initial": [[0, 0.0]] * 16}, None, "initial: amplitudes are all zero"),
    # every amplitude is finite, but the norm of 16 pairs [1e308, 0] is not
    ({"initial": [[1e308, 0.0]] * 16}, None,
     "initial: the amplitude norm overflows a float"),
], ids=["t1-nan", "t2-inf", "j_tau-nan", "u_cross-minus-inf", "u_tau-entry-nan",
        "j_upsilon-huge-int", "theta-nan", "initial-nan", "initial-bool",
        "initial-zero", "initial-norm-overflow"])
def test_non_finite_numbers_rejected_with_key_path(section, literal, message):
    # Python's json parser accepts NaN, Infinity and integers beyond the
    # float range; each must fail at its key path, not later in the run
    text = json.dumps({**_SMALL, **section})
    if literal is not None:
        text = text.replace('"BIG"', literal)
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)


def test_huge_initial_amplitudes_normalize():
    # the squares of 1e200 overflow, yet the norm 4e200 is a float, so the
    # document is valid and its state normalizes
    config, _ = parse_config(json.dumps({**_SMALL, "initial": [[1e200, 0.0]] * 16}))
    basis = enumerate_basis(4, 1)
    state = build_initial_state(config.initial, basis, basis)
    assert np.allclose(state, 0.25, rtol=0, atol=1e-16)


@pytest.mark.parametrize("t1, t2", [(_NAN, 2.0), (2.0, _INF), (0.0, 2.0)])
def test_protocol_config_rejects_non_finite_durations(t1, t2):
    lattice = LatticeSpec.chain(4)
    with pytest.raises(ValueError, match="positive and finite"):
        ProtocolConfig(lattice=lattice, n_tau=1, n_upsilon=1,
                       params=ModelParams.defaults(4), t1=t1, t2=t2)


def test_explicit_edges_and_potentials():
    doc = json.dumps({
        "lattice": {"sites": 4, "edges": [[0, 1], [2, 3], [1, 2]]},
        "particles": {"tau": 1, "upsilon": 1},
        "params": {"u_tau": [0.5, 0, 0, -0.5], "u_cross": 2.0},
    })
    config, _ = parse_config(doc)
    assert config.lattice.edges == ((0, 1), (2, 3), (1, 2))
    assert config.params.u_tau == (0.5, 0.0, 0.0, -0.5)
    assert config.params.u_cross == 2.0
    with pytest.raises(ConfigError, match="params.u_tau"):
        parse_config(doc.replace("[0.5, 0, 0, -0.5]", "[0.5, 0]"))


def test_site_phase_erasure_config():
    doc = json.dumps({
        "lattice": {"sites": 4},
        "particles": {"tau": 1, "upsilon": 1},
        "erasure": {"kind": "site-phase", "species": "tau", "site": 2,
                    "theta": 0.5},
    })
    config, _ = parse_config(doc)
    assert config.erasure.kind == "site-phase"
    assert config.erasure.site == 2
    with pytest.raises(ConfigError, match="erasure.site"):
        parse_config(doc.replace('"site": 2', '"site": 9'))
    with pytest.raises(ConfigError, match="erasure"):
        parse_config(doc.replace(', "theta": 0.5', ""))


def _desk_result(cycles=1, **overrides):
    cfg = ProtocolConfig(lattice=LatticeSpec.chain(6), n_tau=2, n_upsilon=2,
                         params=ModelParams.defaults(6), cycles=cycles,
                         **overrides)
    return run_protocol(cfg)


def test_trajectory_csv_shape_and_roundtrip(tmp_path):
    result = _desk_result(no_erasure_run=True)
    path = write_trajectory(result.records, tmp_path)
    rows = read_trajectory(path)
    assert len(rows) == len(result.records) == 5  # init + 4 stage rows
    stage_rows = [r for r in rows if r[1] != "init"]
    assert len(stage_rows) == 4
    assert stage_rows[-1][7] >= 1 - 1e-8  # fidelity of the closing stage
    init = rows[0]
    assert init[1] == "init" and init[3] == init[4] == init[5] == init[6] == 0.0
    # 17-significant-digit round trip is lossless
    for row, rec in zip(rows, result.records):
        assert row[0] == rec.cycle and row[1] == rec.stage
        assert row[2] == rec.model_time
        assert row[3] == rec.report.s_tau
        assert row[4] == rec.report.s_upsilon
        assert row[5] == rec.report.s_total
        assert row[6] == rec.report.s_ent
        assert row[7] == rec.report.fidelity_to_initial


def test_trajectory_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_trajectory([], tmp_path)


def test_state_dump_layout_and_bit_exact_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    gamma = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    gamma /= np.linalg.norm(gamma)
    path = write_state(gamma, tmp_path / "state.tsim")
    raw = path.read_bytes()
    assert raw[:4] == b"TSIM"
    assert len(raw) == 4 + 4 + 16 + 16 * 12
    # the header's dims, then gamma row-major as (re, im) float64 pairs
    assert np.array_equal(np.frombuffer(raw[8:24], "<u8"), [3, 4])
    pairs = np.frombuffer(raw[24:], "<f8")
    assert np.array_equal(pairs[0::2], gamma.real.ravel())
    assert np.array_equal(pairs[1::2], gamma.imag.ravel())
    loaded = read_state(path)
    assert loaded.shape == (3, 4)
    assert np.array_equal(loaded, gamma)


def test_state_dump_rejects_corruption(tmp_path):
    path = write_state(np.array([[1.0 + 0j]]), tmp_path / "state.tsim")
    data = bytearray(path.read_bytes())
    data[0] = ord(b"X")
    bad = tmp_path / "bad.tsim"
    bad.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        read_state(bad)
    truncated = tmp_path / "short.tsim"
    truncated.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError):
        read_state(truncated)


def test_phase_dump(tmp_path):
    result = _desk_result(cycles=2, master_seed=4)
    path = write_phases(result.phases, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "cycle,index,theta"
    assert len(lines) == 1 + 2 * 15
    cycle, index, theta = lines[1].split(",")
    assert (int(cycle), int(index)) == (1, 0)
    assert float(theta) == result.phases[0][1][0]


@pytest.mark.parametrize("chain", ["false", '"no"', "1"])
def test_chain_without_edges_must_be_true(chain):
    doc = ('{"lattice": {"sites": 4, "chain": %s}, '
           '"particles": {"tau": 1, "upsilon": 1}}' % chain)
    with pytest.raises(ConfigError, match="lattice.chain"):
        parse_config(doc)


def test_chain_false_with_edges_uses_edges():
    doc = json.dumps({"lattice": {"sites": 3, "chain": False,
                                  "edges": [[0, 2], [1, 2]]},
                      "particles": {"tau": 1, "upsilon": 1}})
    config, _ = parse_config(doc)
    assert config.lattice.edges == ((0, 2), (1, 2))
