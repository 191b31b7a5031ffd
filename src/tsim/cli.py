"""Command-line entry points.

    tsim basis --sites L --particles N     print a species basis
    tsim validate --config PATH            parse and echo the resolved config
    tsim simulate --config PATH [--seed S] [--out DIR]
                                           run the protocol, write CSV output
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import io as tio
from .config import ConfigError, OutputOptions, parse_config, serialize_config
from .fock import enumerate_basis
from .protocol import (ProtocolConfig, run_full_hamiltonian, run_protocol,
                       run_trotter)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsim",
        description="Two-species fermion lattice simulator: stepwise "
                    "evolution, phase erasure, entropy trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="print a species Fock basis")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--particles", type=int, required=True)
    p.set_defaults(run=_cmd_basis)

    p = sub.add_parser("validate", help="parse a config and echo the resolved form")
    p.add_argument("--config", required=True)
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("simulate", help="run the protocol from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--out", default=None, help="override the output directory")
    p.set_defaults(run=_cmd_simulate)
    return parser


def _load(path: str, seed: int | None, out: str | None) -> tuple[ProtocolConfig, OutputOptions]:
    try:
        config, output = parse_config(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if seed is not None:
        if seed < 0:
            raise ConfigError("--seed: must be nonnegative")
        config = replace(config, master_seed=seed)
    if out is not None:
        output = replace(output, out_dir=out)
    return config, output


def _cmd_basis(args) -> None:
    basis = enumerate_basis(args.sites, args.particles)
    print(f"dim {basis.dim}")
    for mask in basis.configs:
        print(format(mask, f"0{max(basis.sites, 1)}b"))


def _cmd_validate(args) -> None:
    config, output = _load(args.config, None, None)
    sys.stdout.write(serialize_config(config, output))


def _cmd_simulate(args) -> None:
    config, output = _load(args.config, args.seed, args.out)
    out_dir = Path(output.out_dir)

    states_dir = out_dir / "states"

    def dump(cycle, state):
        tio.write_state(state, states_dir / tio.state_dump_name(cycle))

    # each cycle's state is written as the cycle ends, never held to the end
    result = run_protocol(config, on_cycle=dump if output.dump_states else None)
    tio.write_trajectory(result.records, out_dir)
    if output.dump_phases and result.phases:
        tio.write_phases(result.phases, out_dir)
    if output.dump_states:
        tio.write_state(result.final_state, states_dir / "state_final.tsim")

    if config.full_hamiltonian_run:
        full = run_full_hamiltonian(config)
        tio.write_trajectory(full.records, out_dir, name="full_hamiltonian.csv")
        trot = run_trotter(config)
        tio.write_trajectory(trot.records, out_dir, name="trotter.csv")

    last = result.records[-1].report
    print(f"cycles {config.cycles} seed {config.master_seed}")
    print(f"final S_tau {last.s_tau:.6f} S_upsilon {last.s_upsilon:.6f} "
          f"S_total {last.s_total:.6f} S_ent {last.s_ent:.6f} "
          f"fidelity {last.fidelity_to_initial:.6f}")
    print(f"wrote {out_dir / 'trajectory.csv'}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.run(args)
        sys.stdout.flush()  # so that a pipe closed at the last write lands here
    except BrokenPipeError:  # a reader that stops early, as head does, is no
        # failure; the interpreter's final flush then goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
