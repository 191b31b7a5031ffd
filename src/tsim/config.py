"""Configuration documents: a single JSON object with nested sections.

Unknown keys are rejected, missing keys take the documented defaults, and
every constraint violation names the offending key path.  The document checks
JSON types and forms; each range rule lives in the type that holds the value
(``LatticeSpec``, ``ModelParams``, ``ErasureSpec``, ``ProtocolConfig``, which
owns every rule on ``initial``), whose ``ValueError`` reads
``"<field>: <rule>"`` and is reported here at the field's key path.
``serialize_config`` emits a canonical document that reparses to an equal
configuration.  One key table, ``_KEYS``, lists the plain sections' keys for
parsing and serialization.

Minimal document::

    {"lattice": {"sites": 6, "chain": true},
     "particles": {"tau": 2, "upsilon": 2}}

Defaults come from the dataclasses they fill: a chain lattice, J = 1 hoppings,
zero potentials, unit cross coupling, t1 = t2 = 2.0, one cycle, seed 0,
random-phase erasure of the upsilon species, and the domain-wall initial state.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from math import isfinite

from .erasure import ErasureSpec
from .model import LatticeSpec, ModelParams
from .protocol import ProtocolConfig


class ConfigError(ValueError):
    """Malformed or inconsistent configuration document."""


@dataclass(frozen=True)
class OutputOptions:
    out_dir: str = "out"
    dump_states: bool = False
    dump_phases: bool = False


def _section(doc: dict, name: str, allowed: tuple[str, ...]) -> dict:
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: must be an object")
    for key in sec:
        if key not in allowed:
            raise ConfigError(f"{name}.{key}: unknown key")
    return sec


def _finite(val) -> bool:
    """A number, not a boolean, with a finite float value; the json parser
    accepts NaN, Infinity and integers beyond the float range."""
    try:
        return not isinstance(val, bool) and isfinite(val)
    except (TypeError, OverflowError):
        return False


def _num(sec: dict, path: str, key: str, default):
    val = sec.get(key, default)
    if not _finite(val):
        raise ConfigError(f"{path}.{key}: expected a finite number")
    return float(val)


def _int(sec: dict, path: str, key: str, default):
    """An integer; a key without a default is required."""
    if default is None and key not in sec:
        raise ConfigError(f"{path}.{key}: required")
    val = sec.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    return val


def _bool(sec: dict, path: str, key: str, default):
    val = sec.get(key, default)
    if not isinstance(val, bool):
        raise ConfigError(f"{path}.{key}: expected a boolean")
    return val


def _vector(sec: dict, path: str, key: str, default: tuple) -> tuple[float, ...]:
    if key not in sec:
        return default
    val = sec[key]
    if not isinstance(val, list):
        raise ConfigError(f"{path}.{key}: expected a list of numbers")
    for i, v in enumerate(val):
        if not _finite(v):
            raise ConfigError(f"{path}.{key}[{i}]: expected a finite number")
    return tuple(float(v) for v in val)


def _str(sec: dict, path: str, key: str, default):
    val = sec.get(key, default)
    if not isinstance(val, str):
        raise ConfigError(f"{path}.{key}: expected a string")
    return val


# the keys of each plain section in document order, each with its reader
_KEYS = {
    "params": {"j_tau": _num, "j_upsilon": _num, "u_tau": _vector,
               "u_upsilon": _vector, "u_cross": _num},
    "protocol": {"t1": _num, "t2": _num, "cycles": _int, "seed": _int},
    "controls": {"no_erasure_run": _bool, "full_hamiltonian_run": _bool,
                 "trotter_steps": _int},
    "output": {"out_dir": _str, "dump_states": _bool, "dump_phases": _bool},
}

# the key path of each field that a range rule of a library type names
_PATHS = {
    **{key: f"{name}.{key}" for name, keys in _KEYS.items() for key in keys},
    **{key: f"erasure.{key}" for key in ("kind", "species", "site", "theta")},
    "sites": "lattice.sites", "edges": "lattice.edges", "n_tau": "particles.tau",
    "n_upsilon": "particles.upsilon", "master_seed": "protocol.seed",
    "initial": "initial",
}


def _make(cls, **kwargs):
    """``cls(**kwargs)``, a range rule's error reported at its key path."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        field, rule = str(exc).split(": ", 1)
        raise ConfigError(f"{_PATHS[field]}: {rule}") from exc


def _read(doc: dict, name: str, defaults: dict) -> dict:
    """Every key of plain section ``name``, read or taken from ``defaults``."""
    sec = _section(doc, name, tuple(_KEYS[name]))
    return {key: read(sec, name, key, defaults[key])
            for key, read in _KEYS[name].items()}


def _lattice(doc: dict) -> LatticeSpec:
    sec = _section(doc, "lattice", ("sites", "chain", "edges"))
    sites = _int(sec, "lattice", "sites", None)
    chain = _bool(sec, "lattice", "chain", "edges" not in sec)
    if chain == ("edges" in sec):
        raise ConfigError("lattice.edges: conflicts with lattice.chain" if chain
                          else "lattice.chain: false needs lattice.edges")
    if chain:
        return _make(LatticeSpec.chain, sites=sites)
    raw = sec["edges"]
    if not (isinstance(raw, list) and all(
            isinstance(e, list) and len(e) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in e)
            for e in raw)):
        raise ConfigError("lattice.edges: expected a list of site pairs")
    return _make(LatticeSpec, sites=sites, edges=tuple(map(tuple, raw)))


def parse_config(text: str) -> tuple[ProtocolConfig, OutputOptions]:
    """Parse a document, apply defaults, and validate every constraint."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level: must be an object")
    known = ("lattice", "particles", "erasure", "initial", *_KEYS)
    for key in doc:
        if key not in known:
            raise ConfigError(f"{key}: unknown key")

    lattice = _lattice(doc)
    sites = lattice.sites

    sec = _section(doc, "particles", ("tau", "upsilon"))
    n_tau = _int(sec, "particles", "tau", None)
    n_upsilon = _int(sec, "particles", "upsilon", None)

    params = _make(ModelParams,
                   **_read(doc, "params", asdict(ModelParams.defaults(sites))))

    # the protocol, erasure, controls and initial defaults are ProtocolConfig's
    dflt = {f.name: f.default for f in fields(ProtocolConfig)}
    proto = _read(doc, "protocol", {**dflt, "seed": dflt["master_seed"]})

    sec = _section(doc, "erasure", ("kind", "species", "site", "theta"))
    erasure = _make(
        ErasureSpec, kind=sec.get("kind", dflt["erasure"].kind),
        species=sec.get("species", dflt["erasure"].species),
        site=_int(sec, "erasure", "site", None) if "site" in sec else None,
        theta=_num(sec, "erasure", "theta", None) if "theta" in sec else None,
    )

    controls = _read(doc, "controls", dflt)

    initial = doc.get("initial", dflt["initial"])
    if isinstance(initial, list):
        if not all(isinstance(z, list) and len(z) == 2 and all(map(_finite, z))
                   for z in initial):
            raise ConfigError("initial: expected [re, im] pairs of finite numbers")
        initial = tuple(complex(re, im) for re, im in initial)
    elif not isinstance(initial, str):
        raise ConfigError("initial: expected a preset name or amplitude pairs")

    output = OutputOptions(**_read(doc, "output", asdict(OutputOptions())))

    return _make(
        ProtocolConfig,
        lattice=lattice, n_tau=n_tau, n_upsilon=n_upsilon, params=params,
        t1=proto["t1"], t2=proto["t2"], cycles=proto["cycles"],
        erasure=erasure, master_seed=proto["seed"], initial=initial,
        **controls,
    ), output


def serialize_config(config: ProtocolConfig, output: OutputOptions) -> str:
    """Canonical document for a configuration; reparses to an equal config."""
    if isinstance(config.initial, str):
        initial = config.initial
    else:
        initial = [[z.real, z.imag] for z in config.initial]
    doc = {
        "lattice": asdict(config.lattice),
        "particles": {"tau": config.n_tau, "upsilon": config.n_upsilon},
        "params": asdict(config.params),
        "protocol": {"t1": config.t1, "t2": config.t2,
                     "cycles": config.cycles, "seed": config.master_seed},
        "erasure": {key: val for key, val in asdict(config.erasure).items()
                    if val is not None},
        "controls": {key: getattr(config, key) for key in _KEYS["controls"]},
        "initial": initial,
        "output": asdict(output),
    }
    return json.dumps(doc, indent=2) + "\n"
