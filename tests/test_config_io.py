import json
import re
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

from conftest import refuse_bases
from tsim import fock
from tsim.config import (_KEYS, ConfigError, OutputOptions, parse_config,
                         serialize_config)
from tsim.io import (TRAJECTORY_HEADER, read_state, write_phases, write_state,
                     write_trajectory)
from tsim.model import LatticeSpec, ModelParams
from tsim.propagate import evolve
from tsim.protocol import _PHYSICAL_BYTES, ProtocolConfig, prepare, run_protocol

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


# every optional section set away from its default, with explicit amplitudes
EXPLICIT = json.dumps({
    "lattice": {"sites": 3, "edges": [[0, 2], [0, 1]]},
    "particles": {"tau": 1, "upsilon": 2},
    "params": {"j_tau": 0.7, "j_upsilon": -1.2, "u_tau": [0.5, 0, -0.25],
               "u_upsilon": [0, 0.1, 0], "u_cross": 2.5},
    "protocol": {"t1": 0.3, "t2": 1.7, "cycles": 4, "seed": 9},
    "erasure": {"kind": "site-phase", "species": "tau", "site": 1, "theta": 0.4},
    "controls": {"no_erasure_run": True, "full_hamiltonian_run": True,
                 "trotter_steps": 3},
    "initial": [[0.1 * k, -0.05 * k] for k in range(1, 10)],
    "output": {"out_dir": "runs/x", "dump_states": True, "dump_phases": True},
})


def test_round_trip():
    for doc in (MINIMAL, EXPLICIT):
        config, output = parse_config(doc)
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


def test_repeated_top_level_key_rejected():
    # json keeps the last of two equal keys, so this read as a 4-site lattice
    doc = ('{"lattice": {"sites": 6}, "particles": {"tau": 2, "upsilon": 2}, '
           '"lattice": {"sites": 4}}')
    with pytest.raises(ConfigError, match="^lattice: duplicate key$"):
        parse_config(doc)


@pytest.mark.parametrize("doc, path", [
    ('{"lattice": {"sites": 6, "sites": 4}, "particles": {"tau": 2, "upsilon": 2}}',
     "lattice.sites"),
    ('{"lattice": {"sites": 4}, "particles": {"tau": 1, "upsilon": 1}, '
     '"params": {"potato": {"a": 1, "a": 1}}}', "params.potato.a"),
], ids=["section", "nested"])
def test_repeated_key_in_a_section_rejected_at_its_path(doc, path):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: duplicate key$"):
        parse_config(doc)


def test_deeply_nested_document_is_malformed():
    # 200,000 nested lists ended in a RecursionError traceback
    with pytest.raises(ConfigError, match="^malformed document: maximum recursion"):
        parse_config("[" * 200_000)


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
    # every other ConfigError branch, each with its exact message
    ([], None, "top level: must be an object"),
    ({"params": 3}, None, "params: must be an object"),
    ({"protocol": {"cycles": 1.5}}, None, "protocol.cycles: expected an integer"),
    ({"params": {"u_tau": 1.0}}, None, "params.u_tau: expected a list of numbers"),
    ({"lattice": {"sites": 0}}, None, "lattice.sites: must be a positive integer"),
    # one bit of a machine word per site; 64 sites would otherwise fail only
    # at basis enumeration, with a message that names no key
    ({"lattice": {"sites": 64}}, None, "lattice.sites: must be at most 63"),
    ({"lattice": {"sites": 4, "edges": {"0": 1}}}, None,
     "lattice.edges: expected a list of site pairs"),
    ({"lattice": {"sites": 4, "edges": [[0, 1, 2]]}}, None,
     "lattice.edges: expected a list of site pairs"),
    ({"lattice": {"sites": 4, "edges": [[2, 2]]}}, None,
     "lattice.edges: self-loop edge (2, 2)"),
    ({"particles": {"tau": 1}}, None, "particles.upsilon: required"),
    ({"protocol": {"seed": -1}}, None, "protocol.seed: must be nonnegative"),
    ({"erasure": {"species": "both"}}, None,
     "erasure.species: must be one of ('tau', 'upsilon')"),
    ({"controls": {"trotter_steps": 0}}, None,
     "controls.trotter_steps: must be at least 1"),
    ({"initial": "neel"}, None, "initial: unknown preset 'neel'"),
    ({"initial": [[1.0, 0.0]] * 3}, None,
     "initial: expected 16 amplitude pairs, got 3"),
    ({"initial": 5}, None, "initial: expected a preset name or amplitude pairs"),
    ({"output": {"out_dir": 3}}, None, "output.out_dir: expected a string"),
    # the range rules of the library types, each at its key path
    ({"particles": {"tau": 5, "upsilon": 1}}, None, "particles.tau: must be in [0, 4]"),
    ({"protocol": {"t1": 0}}, None, "protocol.t1: must be positive and finite"),
    ({"protocol": {"cycles": 0}}, None, "protocol.cycles: must be at least 1"),
    ({"erasure": {"kind": "site-phase", "site": 4, "theta": 0.5}}, None,
     "erasure.site: must be in [0, 4)"),
    ({"erasure": {"kind": "total"}}, None,
     "erasure.kind: must be one of ('random-phase', 'site-phase'), got 'total'"),
    ({"erasure": {"kind": "site-phase", "site": 1}}, None,
     "erasure.kind: site-phase erasure needs both site and theta"),
    ({"lattice": {"sites": 4, "edges": [[0, 1], [1, 0]]}}, None,
     "lattice.edges: duplicate edge (1, 0)"),
    ({"lattice": {"sites": 4, "edges": [[0, 5]]}}, None,
     "lattice.edges: edge (0, 5) outside [0, 4)"),
    ({"params": {"u_tau": [0, 0]}}, None, "params.u_tau: expected 4 entries, got 2"),
    # JSON null is a value of the wrong type, not an absent key
    ({"params": {"u_tau": None}}, None, "params.u_tau: expected a list of numbers"),
    ({"params": {"u_upsilon": None}}, None,
     "params.u_upsilon: expected a list of numbers"),
    ({"erasure": {"kind": "site-phase", "site": None, "theta": 0.5}}, None,
     "erasure.site: expected an integer"),
    ({"erasure": {"kind": "site-phase", "site": 1, "theta": None}}, None,
     "erasure.theta: expected a finite number"),
    # every key of the table is type-checked before any range rule
    ({"erasure": {"kind": 5}}, None, "erasure.kind: expected a string"),
    ({"erasure": {"species": None}}, None, "erasure.species: expected a string"),
    ({"particles": {"tau": "2", "upsilon": 1}}, None,
     "particles.tau: expected an integer"),
    ({"lattice": {"sites": "4"}}, None, "lattice.sites: expected an integer"),
], ids=["t1-nan", "t2-inf", "j_tau-nan", "u_cross-minus-inf", "u_tau-entry-nan",
        "j_upsilon-huge-int", "theta-nan", "initial-nan", "initial-bool",
        "initial-zero", "initial-norm-overflow", "top-level-list",
        "section-not-object", "int-not-integer", "vector-not-list",
        "sites-zero", "sites-above-max", "edges-not-list", "edge-not-pair", "edge-self-loop",
        "particles-missing", "seed-negative", "erasure-species",
        "trotter-steps-zero", "initial-unknown-preset", "initial-count",
        "initial-type", "out-dir-not-string", "particles-above-sites",
        "t1-zero", "cycles-zero", "erasure-site-out-of-range", "erasure-kind",
        "site-phase-without-theta", "edge-duplicate", "edge-outside",
        "u_tau-length", "u_tau-null", "u_upsilon-null", "erasure-site-null",
        "erasure-theta-null", "erasure-kind-not-string",
        "erasure-species-null", "particles-tau-string", "sites-string"])
def test_non_finite_numbers_rejected_with_key_path(section, literal, message):
    # Python's json parser accepts NaN, Infinity and integers beyond the
    # float range; each must fail at its key path, not later in the run, as
    # must every other malformed value
    text = json.dumps({**_SMALL, **section} if isinstance(section, dict) else section)
    if literal is not None:
        text = text.replace('"BIG"', literal)
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)


def test_key_names_are_unique_across_sections():
    # a range rule's field maps to one key path only if no two sections
    # share a key name
    keys = [key for section in _KEYS.values() for key in section]
    assert len(keys) == len(set(keys))


def test_state_beyond_physical_memory_is_refused(monkeypatch):
    # 11 states of 16 * C(40, 20)**2 bytes, about 3e23 each: refused by the
    # constructor, before any basis of C(40, 20) configs is enumerated, so a
    # stub that raises stands in for enumerate_basis wherever a tsim module
    # holds the name
    def refuse(*args):
        raise AssertionError(f"enumerate_basis{args} ran before the refusal")

    enumerate_basis = fock.enumerate_basis
    for name, module in list(sys.modules.items()):
        if ((name == "tsim" or name.startswith("tsim."))
                and getattr(module, "enumerate_basis", None) is enumerate_basis):
            monkeypatch.setattr(module, "enumerate_basis", refuse)
    doc = json.dumps({"lattice": {"sites": 40},
                      "particles": {"tau": 20, "upsilon": 20}})
    with pytest.raises(ConfigError, match=re.escape(
            f"lattice.sites: a run takes 11 states of {16 * comb(40, 20) ** 2} "
            f"bytes, more than the {_PHYSICAL_BYTES} bytes of physical memory")):
        parse_config(doc)
    # L=14, 7+7 takes 11 states of 188 MB, 1.9 GiB, and is a run
    config, _ = parse_config(json.dumps({"lattice": {"sites": 14},
                                         "particles": {"tau": 7, "upsilon": 7}}))
    assert 11 * 16 * comb(14, 7) ** 2 < _PHYSICAL_BYTES and config.n_tau == 7
    # with 8 GiB, the 2.47 GiB state of L=16, 8+8 fits, but not its run
    monkeypatch.setattr("tsim.protocol._PHYSICAL_BYTES", 8 * 2 ** 30)
    with pytest.raises(ConfigError, match=re.escape(
            f"lattice.sites: a run takes 11 states of {16 * comb(16, 8) ** 2} bytes")):
        parse_config(json.dumps({"lattice": {"sites": 16},
                                 "particles": {"tau": 8, "upsilon": 8}}))


_DESK = {"lattice": {"sites": 6}, "particles": {"tau": 2, "upsilon": 2}}
_CHAIN10 = {"lattice": {"sites": 10}, "particles": {"tau": 5, "upsilon": 5}}
_FULL = {"full_hamiltonian_run": True}


@pytest.mark.parametrize("doc, key", [
    # the desk's H1 takes the eigen path, whose phases resolve t1 = 1e8; the
    # full H, which only a full_hamiltonian_run makes, needs about 1.6e9
    # Chebyshev terms there
    ({**_DESK, "protocol": {"t1": 1e8}}, None),
    ({**_DESK, "protocol": {"t1": 1e8}, "controls": _FULL}, "protocol.t1"),
    ({**_DESK, "protocol": {"t2": 1e300}}, "protocol.t2"),
    ({**_DESK, "params": {"j_upsilon": -1e300}}, "params.j_upsilon"),
    ({**_DESK, "params": {"u_upsilon": [0, 0, 0, 0, 0, 1e17]}}, "params.u_upsilon"),
    # a Trotter step is t * cycles / trotter_steps, so a run of many cycles
    # in few steps makes long ones, which H1 and H2 at L=10 take by
    # Chebyshev; a count past the float range is refused, not an overflow
    ({**_CHAIN10, "protocol": {"cycles": 10**9}, "controls": _FULL}, "protocol.cycles"),
    ({**_CHAIN10, "protocol": {"cycles": 10**400}, "controls": _FULL},
     "protocol.cycles"),
    ({**_CHAIN10, "protocol": {"cycles": 10**400}}, None),
    ({**_CHAIN10, "protocol": {"cycles": 10**9},
      "controls": {**_FULL, "trotter_steps": 10**9}}, None),
    # run_trotter's t * cycles / trotter_steps raised OverflowError here
    ({**_CHAIN10, "controls": {**_FULL, "trotter_steps": 10**400}},
     "controls.trotter_steps"),
], ids=["desk-t1", "desk-full-t1", "desk-t2", "j_upsilon", "u_upsilon",
        "trotter", "trotter-overflow", "cycles", "trotter-short", "steps-overflow"])
def test_every_stage_a_run_makes_is_asked_at_its_key(doc, key, monkeypatch):
    refuse_bases(monkeypatch)
    if key is None:
        parse_config(json.dumps(doc))
        return
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("lattice, n_tau, n_upsilon", [
    (LatticeSpec.chain(6), 2, 2),
    (LatticeSpec(6, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (0, 3))),
     3, 2),
    (LatticeSpec(5, ((0, 1), (0, 2), (0, 3), (0, 4))), 2, 3),
], ids=["chain", "triangles", "star"])
def test_the_bound_on_a_admits_only_stages_that_run(lattice, n_tau, n_upsilon):
    # the guard's a bounds the run's: at the longest t1 and t2 it accepts,
    # found by bisection, H1 and H2 run on the eigen path, whose exact a
    # is the smaller, without the refusal that a*|t| of 2**52 would raise
    rng = np.random.default_rng(lattice.sites + n_tau)
    params = ModelParams(j_tau=-0.8, j_upsilon=1.3, u_cross=-0.9,
                         u_tau=tuple(rng.uniform(-1, 1, lattice.sites)),
                         u_upsilon=tuple(rng.uniform(-1, 1, lattice.sites)))

    def config(t1, t2):
        return ProtocolConfig(lattice=lattice, n_tau=n_tau, n_upsilon=n_upsilon,
                              params=params, t1=t1, t2=t2)

    def longest(name):
        lo, hi = 1.0, 2.0**60
        for _ in range(80):
            mid = (lo + hi) / 2
            try:
                config(**{"t1": 1.0, "t2": 1.0, name: mid})
                lo = mid
            except ValueError as exc:
                assert str(exc).startswith(f"{name}: "), exc
                hi = mid
        return lo

    ctx = prepare(config(longest("t1"), longest("t2")))
    for op, t in ((ctx.h1, ctx.config.t1), (ctx.h2, ctx.config.t2)):
        assert np.isclose(np.linalg.norm(evolve(ctx.initial, op, t)), 1.0)


def test_huge_initial_amplitudes_normalize():
    # the squares of 1e200 overflow, yet the norm 4e200 is a float, so the
    # document is valid and its state normalizes
    config, _ = parse_config(json.dumps({**_SMALL, "initial": [[1e200, 0.0]] * 16}))
    state = prepare(config).initial
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
    header, *lines = path.read_text(encoding="ascii").splitlines()
    assert header == TRAJECTORY_HEADER
    fields = [line.split(",") for line in lines]
    assert all(len(f) == 8 for f in fields)
    rows = [(int(c), stage, *map(float, rest)) for c, stage, *rest in fields]
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
    data = bytearray(path.read_bytes())
    data[4] = 2
    bad.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="unsupported version 2"):
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


def test_readme_config_block_shows_the_defaults():
    # README presents its one json block as the defaults of every section
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```json\n(.*?)^```",
                        readme.read_text(encoding="utf-8"), flags=re.S | re.M)
    assert len(blocks) == 1
    minimal = {"lattice": {"sites": 6}, "particles": {"tau": 2, "upsilon": 2}}
    assert (serialize_config(*parse_config(blocks[0]))
            == serialize_config(*parse_config(json.dumps(minimal))))


@pytest.mark.parametrize("section", ["lattice", "particles", "params",
                                     "protocol", "erasure", "controls",
                                     "output"])
def test_every_object_section_rejects_unknown_keys(section):
    doc = {**_SMALL, section: {**_SMALL.get(section, {}), "potato": 2}}
    message = f"{section}.potato: unknown key"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(json.dumps(doc))
