#!/usr/bin/env python3
"""Entropy saturation under repeated erasure cycles.

Runs the protocol for many cycles across an ensemble of seeds and writes the
seed-averaged entanglement entropy at the end of every cycle, together with
the configuration entropies, so the approach to the plateau can be plotted
from the CSV.
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
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--cycles", type=int, default=50)
    parser.add_argument("--t", type=float, default=2.0)
    parser.add_argument("--out", default="out/saturation.csv")
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
    s_ent = np.zeros((args.seeds, args.cycles))
    s_tau = np.zeros_like(s_ent)
    s_total = np.zeros_like(s_ent)
    for seed in range(args.seeds):
        records = run_protocol(replace(base, master_seed=seed)).records
        finals = [r.report for r in records if r.stage == "rev1"]
        s_ent[seed] = [rep.s_ent for rep in finals]
        s_tau[seed] = [rep.s_tau for rep in finals]
        s_total[seed] = [rep.s_total for rep in finals]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cycle", "S_ent_mean", "S_ent_std", "S_tau_mean",
                         "S_total_mean"])
        for c in range(args.cycles):
            writer.writerow([c + 1, s_ent[:, c].mean(), s_ent[:, c].std(),
                             s_tau[:, c].mean(), s_total[:, c].mean()])

    from math import comb
    d = comb(args.sites, args.particles)
    plateau = s_ent[:, args.cycles // 2:].mean()
    print(f"{args.seeds} seeds x {args.cycles} cycles, species dim {d}")
    print(f"S_ent: first cycle {s_ent[:, 0].mean():.4f}, plateau {plateau:.4f}, "
          f"Page estimate ln({d}) - 1/2 = {np.log(d) - 0.5:.4f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
