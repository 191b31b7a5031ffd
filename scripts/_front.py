"""The front end the experiment scripts share: the run flags and their usage
checks, one protocol run per seed, and the CSV file a script's rows go to.
``calibrate_saturation.py``, a brute-force reference, imports no tsim and
does not use it.
"""

import argparse
import csv
from dataclasses import replace
from pathlib import Path

from tsim.model import LatticeSpec, ModelParams
from tsim.protocol import ProtocolConfig, run_protocol

# the flag each ProtocolConfig field comes from, to name it in a usage error
FLAGS = {"sites": "--sites", "n_tau": "--particles",
         "n_upsilon": "--particles", "t1": "--t", "t2": "--t"}


def runs(seeds, out, cycles=None):
    """Parse the command line; returns ``(args, results)``, the flags and a
    lazy ``ProtocolResult`` for each seed 0 to ``args.seeds - 1``.

    ``seeds`` and ``out`` are the defaults of ``--seeds`` and ``--out``, and
    ``cycles`` that of ``--cycles``; without it there is no such flag and the
    run has one cycle.  A bad flag exits with status 2, naming the flag.
    """
    parser = argparse.ArgumentParser()
    parser.add_argument("--sites", type=int, default=6)
    parser.add_argument("--particles", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=seeds)
    if cycles is None:
        parser.set_defaults(cycles=1)
    else:
        parser.add_argument("--cycles", type=int, default=cycles)
    parser.add_argument("--t", type=float, default=2.0)
    parser.add_argument("--out", default=out)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.cycles < 1:
        parser.error("--cycles must be at least 1")

    try:
        base = ProtocolConfig(lattice=LatticeSpec.chain(args.sites),
                              n_tau=args.particles, n_upsilon=args.particles,
                              params=ModelParams.defaults(args.sites),
                              t1=args.t, t2=args.t, cycles=args.cycles)
    except ValueError as exc:
        field, rule = str(exc).split(": ", 1)
        parser.error(f"{FLAGS[field]}: {rule}")
    return args, (run_protocol(replace(base, master_seed=seed))
                  for seed in range(args.seeds))


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and ``rows`` to the CSV file ``path``; returns it."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return out
