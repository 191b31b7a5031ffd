#!/usr/bin/env python3
"""Single-cycle irreversibility ensemble.

Starts every run from the domain wall, applies one forward/erase/reverse
cycle, and reports how far the final configuration entropies and the
entanglement entropy end up above their initial values (all zero for the
domain wall).  Writes one CSV row per seed.
"""

import argparse
import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

from tsim.model import LatticeSpec, ModelParams
from tsim.protocol import ProtocolConfig, run_protocol

# the flag each ProtocolConfig field comes from, to name it in a usage error
FLAGS = {"sites": "--sites", "n_tau": "--particles",
         "n_upsilon": "--particles", "t1": "--t", "t2": "--t"}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sites", type=int, default=6)
    parser.add_argument("--particles", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--t", type=float, default=2.0)
    parser.add_argument("--out", default="out/irreversibility.csv")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    try:
        base = ProtocolConfig(lattice=LatticeSpec.chain(args.sites),
                              n_tau=args.particles, n_upsilon=args.particles,
                              params=ModelParams.defaults(args.sites),
                              t1=args.t, t2=args.t, cycles=1)
    except ValueError as exc:
        field, rule = str(exc).split(": ", 1)
        parser.error(f"{FLAGS[field]}: {rule}")
    rows = []
    for seed in range(args.seeds):
        final = run_protocol(replace(base, master_seed=seed)).records[-1].report
        rows.append((seed, final.s_tau, final.s_upsilon, final.s_total,
                     final.s_ent, final.fidelity_to_initial))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "S_tau", "S_upsilon", "S_total", "S_ent",
                         "fidelity"])
        writer.writerows(rows)

    data = np.array([r[1:] for r in rows])
    names = ["S_tau", "S_upsilon", "S_total", "S_ent", "fidelity"]
    print(f"{args.seeds} seeds, one cycle, {args.sites}-site chain, "
          f"{args.particles}+{args.particles} particles")
    for i, name in enumerate(names):
        print(f"  {name:10s} mean {data[:, i].mean():.4f}  "
              f"std {data[:, i].std():.4f}  min {data[:, i].min():.4f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
