#!/usr/bin/env python3
"""Entropy saturation under repeated erasure cycles.

Runs the protocol for many cycles across an ensemble of seeds and writes the
seed-averaged entanglement entropy at the end of every cycle, together with
the configuration entropies, so the approach to the plateau can be plotted
from the CSV.
"""

from math import comb

import numpy as np

import _front


def main():
    args, results = _front.runs(seeds=20, out="out/saturation.csv", cycles=50)
    s_ent = np.zeros((args.seeds, args.cycles))
    s_tau = np.zeros_like(s_ent)
    s_total = np.zeros_like(s_ent)
    for seed, result in enumerate(results):
        finals = [r.report for r in result.records if r.stage == "rev1"]
        s_ent[seed] = [rep.s_ent for rep in finals]
        s_tau[seed] = [rep.s_tau for rep in finals]
        s_total[seed] = [rep.s_total for rep in finals]
    out = _front.write_csv(
        args.out, ["cycle", "S_ent_mean", "S_ent_std", "S_tau_mean", "S_total_mean"],
        ([c + 1, s_ent[:, c].mean(), s_ent[:, c].std(), s_tau[:, c].mean(),
          s_total[:, c].mean()] for c in range(args.cycles)))

    d = comb(args.sites, args.particles)
    plateau = s_ent[:, args.cycles // 2:].mean()
    print(f"{args.seeds} seeds x {args.cycles} cycles, species dim {d}")
    print(f"S_ent: first cycle {s_ent[:, 0].mean():.4f}, plateau {plateau:.4f}, "
          f"Page estimate ln({d}) - 1/2 = {np.log(d) - 0.5:.4f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
