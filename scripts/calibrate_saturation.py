#!/usr/bin/env python3
"""Brute-force reference run for the entropy-saturation threshold.

Independent of the package on purpose: it imports no tsim.  Its pieces come
from the suite's independent reference, ``tests/oracles.py``: the two
stepwise Hamiltonians, built sector-first from explicit creation and
annihilation operators; the entanglement entropy, from an SVD; and criterion
4's monotone rule.  Each cycle is the reference's own one-cycle step on
scipy.linalg.expm propagators, with this script's phase draws, erasing
upsilon; no step renormalizes.  The printed plateau (seed-averaged
entanglement entropy over the second half of the cycles) calibrates the
saturation threshold frozen into the acceptance suite as 80% of the plateau.
The script also prints the worst 5-point-smoothed difference of the
seed-averaged curve in standard errors of the seed mean, against the bound
of the suite's family-wise one-sided t-test, so the reference checks both
halves of the suite's entropy-saturation criterion.

Usage: python scripts/calibrate_saturation.py [--seeds 20] [--cycles 50]
"""

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402

# the machine's physical memory in bytes, the most the dense matrices can take
_PHYSICAL_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sites", type=int, default=6)
    parser.add_argument("--particles", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--cycles", type=int, default=50)
    parser.add_argument("--t", type=float, default=2.0)
    args = parser.parse_args()
    # the smoothed curve needs 2 points for one difference, and the t-test
    # needs 2 seeds for a standard error
    if args.cycles < 6:
        parser.error("--cycles must be at least 6")
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    if args.sites < 1:
        parser.error("--sites: must be a positive integer")
    if not 0 <= args.particles <= args.sites:
        parser.error(f"--particles: must be in [0, {args.sites}]")
    if not (math.isfinite(args.t) and args.t > 0):
        parser.error("--t: must be positive and finite")
    # a run holds at most 6 one-species matrices (2^L square) and 11 sector
    # matrices (d^2 square) at once, complex; past 63 sites one one-species
    # matrix alone has 2^126 entries, so the count stops there
    if args.sites > 63 or 16 * (6 * 4**args.sites + 11 * math.comb(
            args.sites, args.particles)**4) > _PHYSICAL_BYTES:
        parser.error(f"--sites: the dense matrices of {args.sites} sites and "
                     f"{args.particles}+{args.particles} particles take more "
                     f"than the {_PHYSICAL_BYTES} bytes of physical memory")

    d = math.comb(args.sites, args.particles)
    zeros = (0.0,) * args.sites
    model = (args.sites, tuple((i, i + 1) for i in range(args.sites - 1)),
             args.particles, args.particles, 1.0, 1.0, zeros, zeros, 1.0)
    # no step renormalizes, so a propagator that overflows, or that expm no
    # longer keeps unitary (from about t = 1e10 on 2 to 6 sites), is refused
    try:
        with np.errstate(over="raise", invalid="raise"):
            props = oracles.stage_propagators(model, args.t, args.t)
            unitary = all(np.abs(u.conj().T @ u - np.eye(len(u))).max() <= 1e-6
                          for u in props[:2])
    except FloatingPointError:
        unitary = False
    if not unitary:
        parser.error(f"--t: the stage propagators at t = {args.t} are not unitary")

    curves = np.zeros((args.seeds, args.cycles))
    for seed in range(args.seeds):
        rng = np.random.default_rng(100_003 + seed)
        psi = np.zeros(d * d, dtype=complex)
        psi[0] = 1.0  # both species packed on the lowest sites
        for cycle in range(args.cycles):
            # upsilon erased: its configs are gamma's axis 1
            psi = oracles.cycle_states(psi, props, d, 1,
                                       rng.uniform(0, 2 * np.pi, d))[-1]
            curves[seed, cycle] = oracles.entanglement_from_vector(psi, d, d)

    mean = curves.mean(axis=0)
    plateau = mean[args.cycles // 2:].mean()
    print(f"seed-averaged S_ent, first 10 cycles: "
          f"{np.array2string(mean[:10], precision=4)}")
    print(f"plateau (cycles {args.cycles // 2 + 1}..{args.cycles}): {plateau:.6f}")
    print(f"80% threshold: {0.8 * plateau:.6f}")
    print(f"Page estimate ln({d}) - 1/2 = {np.log(d) - 0.5:.6f}")

    _, min_diff, worst, bound = oracles.smoothed_monotone(curves)
    print(f"min smoothed diff: {min_diff:.2e}")
    print(f"worst smoothed diff: {worst:.2f} SE (bound {bound:.2f})")


if __name__ == "__main__":
    main()
