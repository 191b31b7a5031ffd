"""Configuration documents: a single JSON object with nested sections.

Unknown keys are rejected, missing keys take the documented defaults, and
every constraint violation names the offending key path.  The document checks
JSON types and forms; each range rule lives in the type that holds the value
(``LatticeSpec``, ``ModelParams``, ``ErasureSpec``, ``ProtocolConfig``, which
owns every rule on ``initial``), whose ``ValueError`` reads
``"<field>: <rule>"`` and is reported here at the field's key path.
``serialize_config`` emits a canonical document that reparses to an equal
configuration.  One key table, ``_KEYS``, lists the keys of every section
except ``initial``, each with the reader that checks its JSON type; every
present key of a section is read before the section's range rules run.

Minimal document::

    {"lattice": {"sites": 6, "chain": true},
     "particles": {"tau": 2, "upsilon": 2}}

Defaults come from the dataclasses they fill: a chain lattice, J = 1 hoppings,
zero potentials, unit cross coupling, t1 = t2 = 2.0, one cycle, seed 0,
random-phase erasure of the upsilon species, and the domain-wall initial state.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
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


def _finite(val) -> bool:
    """A number, not a boolean, with a finite float value; the json parser
    accepts NaN, Infinity and integers beyond the float range."""
    try:
        return not isinstance(val, bool) and isfinite(val)
    except (TypeError, OverflowError):
        return False


def _num(val, path: str) -> float:
    if not _finite(val):
        raise ConfigError(f"{path}: expected a finite number")
    return float(val)


def _int(val, path: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}: expected an integer")
    return val


def _bool(val, path: str) -> bool:
    if not isinstance(val, bool):
        raise ConfigError(f"{path}: expected a boolean")
    return val


def _str(val, path: str) -> str:
    if not isinstance(val, str):
        raise ConfigError(f"{path}: expected a string")
    return val


def _vector(val, path: str) -> tuple[float, ...]:
    if not isinstance(val, list):
        raise ConfigError(f"{path}: expected a list of numbers")
    return tuple(_num(v, f"{path}[{i}]") for i, v in enumerate(val))


def _edges(val, path: str) -> tuple[tuple[int, int], ...]:
    if not (isinstance(val, list) and all(
            isinstance(e, list) and len(e) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in e)
            for e in val)):
        raise ConfigError(f"{path}: expected a list of site pairs")
    return tuple(map(tuple, val))


# the keys of each section but ``initial`` in document order, each with the
# reader that checks its JSON type or form
_KEYS = {
    "lattice": {"sites": _int, "chain": _bool, "edges": _edges},
    "particles": {"tau": _int, "upsilon": _int},
    "params": {"j_tau": _num, "j_upsilon": _num, "u_tau": _vector,
               "u_upsilon": _vector, "u_cross": _num},
    "protocol": {"t1": _num, "t2": _num, "cycles": _int, "seed": _int},
    "erasure": {"kind": _str, "species": _str, "site": _int, "theta": _num},
    "controls": {"no_erasure_run": _bool, "full_hamiltonian_run": _bool,
                 "trotter_steps": _int},
    "output": {"out_dir": _str, "dump_states": _bool, "dump_phases": _bool},
}

# the field each key fills, where the two names differ
_FIELDS = {"tau": "n_tau", "upsilon": "n_upsilon", "seed": "master_seed"}

# the key path of each field that a range rule of a library type names
_PATHS = {_FIELDS.get(key, key): f"{name}.{key}"
          for name, keys in _KEYS.items() for key in keys}
_PATHS["initial"] = "initial"


def _make(cls, **kwargs):
    """``cls(**kwargs)``, a range rule's error reported at its key path."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        field, rule = str(exc).split(": ", 1)
        raise ConfigError(f"{_PATHS[field]}: {rule}") from exc


def _read(doc: dict, name: str, defaults: dict) -> dict:
    """Section ``name`` by field name: each present key read, each missing
    one taken from ``defaults``, and a missing key without one required."""
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: must be an object")
    for key in sec:
        if key not in _KEYS[name]:
            raise ConfigError(f"{name}.{key}: unknown key")
    out = {}
    for key, read in _KEYS[name].items():
        field, path = _FIELDS.get(key, key), f"{name}.{key}"
        if key in sec:
            out[field] = read(sec[key], path)
        elif field in defaults:
            out[field] = defaults[field]
        else:
            raise ConfigError(f"{path}: required")
    return out


def parse_config(text: str) -> tuple[ProtocolConfig, OutputOptions]:
    """Parse a document, apply defaults, and validate every constraint."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level: must be an object")
    for key in doc:
        if key != "initial" and key not in _KEYS:
            raise ConfigError(f"{key}: unknown key")

    # ProtocolConfig's defaults; the particle counts and lattice have none
    dflt = {f.name: f.default for f in fields(ProtocolConfig)
            if f.default is not MISSING}

    lat = _read(doc, "lattice", {"chain": None, "edges": None})
    chain = lat["edges"] is None if lat["chain"] is None else lat["chain"]
    if chain != (lat["edges"] is None):
        raise ConfigError("lattice.edges: conflicts with lattice.chain" if chain
                          else "lattice.chain: false needs lattice.edges")
    lattice = (_make(LatticeSpec.chain, sites=lat["sites"]) if chain
               else _make(LatticeSpec, sites=lat["sites"], edges=lat["edges"]))

    particles = _read(doc, "particles", dflt)
    params = _make(ModelParams, **_read(
        doc, "params", asdict(ModelParams.defaults(lattice.sites))))
    proto = _read(doc, "protocol", dflt)
    erasure = _make(ErasureSpec, **_read(doc, "erasure", asdict(dflt["erasure"])))
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

    return _make(ProtocolConfig, lattice=lattice, params=params, erasure=erasure,
                 initial=initial, **particles, **proto, **controls), output


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
