#!/usr/bin/env python3
"""Single-cycle irreversibility ensemble.

Starts every run from the domain wall, applies one forward/erase/reverse
cycle, and reports how far the final configuration entropies and the
entanglement entropy end up above their initial values (all zero for the
domain wall).  Writes one CSV row per seed.
"""

import numpy as np

import _front


def main():
    args, results = _front.runs(seeds=50, out="out/irreversibility.csv")
    rows = []
    for seed, result in enumerate(results):
        final = result.records[-1].report
        rows.append((seed, final.s_tau, final.s_upsilon, final.s_total,
                     final.s_ent, final.fidelity_to_initial))
    out = _front.write_csv(args.out, ["seed", "S_tau", "S_upsilon", "S_total",
                                      "S_ent", "fidelity"], rows)

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
