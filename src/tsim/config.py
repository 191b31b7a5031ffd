"""Configuration documents: a single JSON object with nested sections.

Unknown keys are rejected, missing keys take the documented defaults, and
every constraint violation names the offending key path.  ``serialize_config``
emits a canonical document that reparses to an equal configuration.

Minimal document::

    {"lattice": {"sites": 6, "chain": true},
     "particles": {"tau": 2, "upsilon": 2}}

Defaults fill in a chain lattice, J = 1 hoppings, zero potentials, unit cross
coupling, t1 = t2 = 2.0, one cycle, seed 0, random-phase erasure of the
upsilon species, and the domain-wall initial state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb, hypot, isfinite

from .erasure import ErasureSpec
from .model import SPECIES, LatticeSpec, ModelParams
from .protocol import DOMAIN_WALL, ProtocolConfig


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
    val = sec.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    return val


def _bool(sec: dict, path: str, key: str, default):
    val = sec.get(key, default)
    if not isinstance(val, bool):
        raise ConfigError(f"{path}.{key}: expected a boolean")
    return val


def _vector(sec: dict, path: str, key: str, length: int) -> tuple[float, ...]:
    val = sec.get(key)
    if val is None:
        return (0.0,) * length
    if not isinstance(val, list):
        raise ConfigError(f"{path}.{key}: expected a list of numbers")
    for i, v in enumerate(val):
        if not _finite(v):
            raise ConfigError(f"{path}.{key}[{i}]: expected a finite number")
    if len(val) != length:
        raise ConfigError(f"{path}.{key}: expected {length} entries, got {len(val)}")
    return tuple(float(v) for v in val)


def _lattice(doc: dict) -> LatticeSpec:
    sec = _section(doc, "lattice", ("sites", "chain", "edges"))
    if "sites" not in sec:
        raise ConfigError("lattice.sites: required")
    sites = _int(sec, "lattice", "sites", None)
    if sites is None or sites < 1:
        raise ConfigError("lattice.sites: must be a positive integer")
    chain = _bool(sec, "lattice", "chain", "edges" not in sec)
    if chain == ("edges" in sec):
        raise ConfigError("lattice.edges: conflicts with lattice.chain" if chain
                          else "lattice.chain: false needs lattice.edges")
    if chain:
        return LatticeSpec.chain(sites)
    raw = sec["edges"]
    if not isinstance(raw, list):
        raise ConfigError("lattice.edges: expected a list of site pairs")
    edges = []
    for e in raw:
        if (not isinstance(e, list) or len(e) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in e)):
            raise ConfigError("lattice.edges: expected a list of site pairs")
        edges.append((e[0], e[1]))
    try:
        return LatticeSpec(sites=sites, edges=tuple(edges))
    except ValueError as exc:
        raise ConfigError(f"lattice.edges: {exc}") from exc


def parse_config(text: str) -> tuple[ProtocolConfig, OutputOptions]:
    """Parse a document, apply defaults, and validate every constraint."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level: must be an object")
    known = ("lattice", "particles", "params", "protocol", "erasure",
             "controls", "initial", "output")
    for key in doc:
        if key not in known:
            raise ConfigError(f"{key}: unknown key")

    lattice = _lattice(doc)
    sites = lattice.sites

    sec = _section(doc, "particles", ("tau", "upsilon"))
    for key in ("tau", "upsilon"):
        if key not in sec:
            raise ConfigError(f"particles.{key}: required")
    n_tau = _int(sec, "particles", "tau", None)
    n_upsilon = _int(sec, "particles", "upsilon", None)
    for key, n in (("tau", n_tau), ("upsilon", n_upsilon)):
        if not 0 <= n <= sites:
            raise ConfigError(f"particles.{key}: must be in [0, {sites}]")

    sec = _section(doc, "params", ("j_tau", "j_upsilon", "u_tau", "u_upsilon",
                                   "u_cross"))
    params = ModelParams(
        j_tau=_num(sec, "params", "j_tau", 1.0),
        j_upsilon=_num(sec, "params", "j_upsilon", 1.0),
        u_tau=_vector(sec, "params", "u_tau", sites),
        u_upsilon=_vector(sec, "params", "u_upsilon", sites),
        u_cross=_num(sec, "params", "u_cross", 1.0),
    )

    sec = _section(doc, "protocol", ("t1", "t2", "cycles", "seed"))
    t1, t2 = (_num(sec, "protocol", key, 2.0) for key in ("t1", "t2"))
    for key, t in (("t1", t1), ("t2", t2)):
        if t <= 0:
            raise ConfigError(f"protocol.{key}: must be positive")
    cycles = _int(sec, "protocol", "cycles", 1)
    if cycles < 1:
        raise ConfigError("protocol.cycles: must be at least 1")
    seed = _int(sec, "protocol", "seed", 0)
    if seed < 0:
        raise ConfigError("protocol.seed: must be nonnegative")

    sec = _section(doc, "erasure", ("kind", "species", "site", "theta"))
    kind = sec.get("kind", "random-phase")
    species = sec.get("species", "upsilon")
    if species not in SPECIES:
        raise ConfigError(f"erasure.species: must be one of {SPECIES}")
    site = sec.get("site")
    theta = sec.get("theta")
    try:
        erasure = ErasureSpec(
            kind=kind, species=species,
            site=None if site is None else _int(sec, "erasure", "site", None),
            theta=None if theta is None else _num(sec, "erasure", "theta", None),
        )
    except ValueError as exc:
        raise ConfigError(f"erasure: {exc}") from exc
    if erasure.site is not None and not 0 <= erasure.site < sites:
        raise ConfigError(f"erasure.site: must be in [0, {sites})")

    sec = _section(doc, "controls", ("no_erasure_run", "full_hamiltonian_run",
                                     "trotter_steps"))
    no_erasure = _bool(sec, "controls", "no_erasure_run", False)
    full_run = _bool(sec, "controls", "full_hamiltonian_run", False)
    trotter_steps = _int(sec, "controls", "trotter_steps", 1)
    if trotter_steps < 1:
        raise ConfigError("controls.trotter_steps: must be at least 1")

    initial = doc.get("initial", DOMAIN_WALL)
    if isinstance(initial, str):
        if initial != DOMAIN_WALL:
            raise ConfigError(f"initial: unknown preset {initial!r}")
    elif isinstance(initial, list):
        if not all(isinstance(z, list) and len(z) == 2 and all(map(_finite, z))
                   for z in initial):
            raise ConfigError("initial: expected [re, im] pairs of finite numbers")
        initial = tuple(complex(re, im) for re, im in initial)
        expected = comb(sites, n_tau) * comb(sites, n_upsilon)
        if len(initial) != expected:
            raise ConfigError(
                f"initial: expected {expected} amplitude pairs, got {len(initial)}"
            )
        # hypot returns inf, with no warning, when the norm overflows
        norm = hypot(*(x for z in initial for x in (z.real, z.imag)))
        if norm == 0.0:
            raise ConfigError("initial: amplitudes are all zero")
        if not isfinite(norm):
            raise ConfigError("initial: the amplitude norm overflows a float")
    else:
        raise ConfigError("initial: expected a preset name or amplitude pairs")

    sec = _section(doc, "output", ("out_dir", "dump_states", "dump_phases"))
    out_dir = sec.get("out_dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError("output.out_dir: expected a string")
    output = OutputOptions(
        out_dir=out_dir,
        dump_states=_bool(sec, "output", "dump_states", False),
        dump_phases=_bool(sec, "output", "dump_phases", False),
    )

    config = ProtocolConfig(
        lattice=lattice, n_tau=n_tau, n_upsilon=n_upsilon, params=params,
        t1=t1, t2=t2, cycles=cycles, erasure=erasure, master_seed=seed,
        initial=initial, no_erasure_run=no_erasure,
        full_hamiltonian_run=full_run, trotter_steps=trotter_steps,
    )
    return config, output


def serialize_config(config: ProtocolConfig, output: OutputOptions) -> str:
    """Canonical document for a configuration; reparses to an equal config."""
    if isinstance(config.initial, str):
        initial = config.initial
    else:
        initial = [[z.real, z.imag] for z in config.initial]
    doc = {
        "lattice": {
            "sites": config.lattice.sites,
            "edges": [list(e) for e in config.lattice.edges],
        },
        "particles": {"tau": config.n_tau, "upsilon": config.n_upsilon},
        "params": {
            "j_tau": config.params.j_tau,
            "j_upsilon": config.params.j_upsilon,
            "u_tau": list(config.params.u_tau),
            "u_upsilon": list(config.params.u_upsilon),
            "u_cross": config.params.u_cross,
        },
        "protocol": {"t1": config.t1, "t2": config.t2,
                     "cycles": config.cycles, "seed": config.master_seed},
        "erasure": {"kind": config.erasure.kind,
                    "species": config.erasure.species,
                    **({"site": config.erasure.site}
                       if config.erasure.site is not None else {}),
                    **({"theta": config.erasure.theta}
                       if config.erasure.theta is not None else {})},
        "controls": {"no_erasure_run": config.no_erasure_run,
                     "full_hamiltonian_run": config.full_hamiltonian_run,
                     "trotter_steps": config.trotter_steps},
        "initial": initial,
        "output": {"out_dir": output.out_dir,
                   "dump_states": output.dump_states,
                   "dump_phases": output.dump_phases},
    }
    return json.dumps(doc, indent=2) + "\n"
