"""On-disk formats: trajectory CSV, binary state snapshots, phase dumps.

All floating-point text fields are printed with 17 significant digits so a
written file reparses to bit-identical values and can serve as a regression
oracle.  State snapshots are little-endian binary with a fixed header.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

TRAJECTORY_HEADER = "cycle,stage,model_time,S_tau,S_upsilon,S_total,S_ent,fidelity"

STATE_MAGIC = b"TSIM"
STATE_VERSION = 1


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_lines(out_dir, name: str, lines: list[str]) -> Path:
    """ASCII text file ``out_dir/name``, one line per entry."""
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def write_trajectory(records, out_dir, name: str = "trajectory.csv") -> Path:
    """One CSV row per stage record."""
    if not records:
        raise ValueError("no records to write")
    lines = [TRAJECTORY_HEADER]
    for r in records:
        rep = r.report
        lines.append(",".join([
            str(r.cycle), r.stage, _fmt(r.model_time),
            _fmt(rep.s_tau), _fmt(rep.s_upsilon), _fmt(rep.s_total),
            _fmt(rep.s_ent), _fmt(rep.fidelity_to_initial),
        ]))
    return _write_lines(out_dir, name, lines)


def write_phases(phase_log, out_dir) -> Path:
    """Audit dump of the phases applied at each erase stage."""
    lines = ["cycle,index,theta"]
    for cycle, phases in phase_log:
        for i, theta in enumerate(phases):
            lines.append(f"{cycle},{i},{_fmt(theta)}")
    return _write_lines(out_dir, "phases.csv", lines)


def write_state(gamma: np.ndarray, path) -> Path:
    """Binary snapshot: magic, version, dims, then row-major gamma as
    (re, im) float64 pairs over (tau config, upsilon config)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    d_x, d_y = gamma.shape
    header = STATE_MAGIC + struct.pack("<IQQ", STATE_VERSION, d_x, d_y)
    path.write_bytes(header + np.ascontiguousarray(gamma, dtype="<c16").tobytes())
    return path


def read_state(path) -> np.ndarray:
    """Reload a snapshot's gamma bit-exactly."""
    raw = Path(path).read_bytes()
    if len(raw) < 24 or raw[:4] != STATE_MAGIC:
        raise ValueError(f"{path}: not a state dump")
    version, d_x, d_y = struct.unpack("<IQQ", raw[4:24])
    if version != STATE_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    expected = 24 + 16 * d_x * d_y
    if len(raw) != expected:
        raise ValueError(f"{path}: size {len(raw)} != expected {expected}")
    gamma = np.frombuffer(raw[24:], dtype="<c16").astype(np.complex128)
    return gamma.reshape(d_x, d_y)


def state_dump_name(cycle: int) -> str:
    return f"state_cycle{cycle:04d}.tsim"
