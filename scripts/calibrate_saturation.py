#!/usr/bin/env python3
"""Brute-force reference run for the entropy-saturation threshold.

Independent of the package on purpose: bases come from itertools, the two
stepwise Hamiltonians are assembled term by term as dense matrices through
explicit creation/annihilation operators on the full two-species product
space, stage propagators come straight from scipy.linalg.expm, and the cycle
loop is written out inline.  The printed plateau (seed-averaged entanglement
entropy over the second half of the cycles) calibrates the saturation
threshold frozen into the acceptance suite as 80% of the plateau.  The script
also prints the worst 5-point-smoothed difference of the seed-averaged curve
in standard errors of the seed mean, against the bound of a 1% family-wise
one-sided t-test (Bonferroni over all differences), so the reference checks
both halves of the suite's entropy-saturation criterion.

Usage: python scripts/calibrate_saturation.py [--seeds 20] [--cycles 50]
"""

import argparse
import itertools

import numpy as np
from scipy import stats
from scipy.linalg import expm


def annihilation(sites, site):
    dim = 1 << sites
    out = np.zeros((dim, dim), dtype=complex)
    for mask in range(dim):
        if (mask >> site) & 1:
            below = bin(mask & ((1 << site) - 1)).count("1")
            out[mask ^ (1 << site), mask] = -1.0 if below % 2 else 1.0
    return out


def number_op(sites, site):
    dim = 1 << sites
    diag = np.array([(mask >> site) & 1 for mask in range(dim)], dtype=complex)
    return np.diag(diag)


def stepwise_hamiltonians(sites, j, u_cross):
    dim = 1 << sites
    eye = np.eye(dim, dtype=complex)
    hop = np.zeros((dim, dim), dtype=complex)
    for i in range(sites - 1):
        ci, ck = annihilation(sites, i), annihilation(sites, i + 1)
        hop += j * (ci.conj().T @ ck + ck.conj().T @ ci)
    cross = sum(u_cross * np.kron(number_op(sites, i), number_op(sites, i))
                for i in range(sites))
    h1 = np.kron(hop, eye) + cross
    h2 = np.kron(eye, hop) + cross
    return h1, h2


def sector_indices(sites, n_tau, n_upsilon):
    masks = {n: sorted(sum(1 << i for i in occ)
                       for occ in itertools.combinations(range(sites), n))
             for n in {n_tau, n_upsilon}}
    dim = 1 << sites
    return [x * dim + y for x in masks[n_tau] for y in masks[n_upsilon]]


def entanglement(vec, d):
    s = np.linalg.svd(vec.reshape(d, d), compute_uv=False)
    p = s**2
    p = p[p > 1e-300]
    return float(-(p * np.log(p)).sum())


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

    sel = sector_indices(args.sites, args.particles, args.particles)
    h1_full, h2_full = stepwise_hamiltonians(args.sites, 1.0, 1.0)
    h1 = h1_full[np.ix_(sel, sel)]
    h2 = h2_full[np.ix_(sel, sel)]
    d = round(len(sel) ** 0.5)

    u1 = expm(-1j * args.t * h1)
    u2 = expm(-1j * args.t * h2)
    u1r, u2r = u1.conj().T, u2.conj().T

    curves = np.zeros((args.seeds, args.cycles))
    for seed in range(args.seeds):
        rng = np.random.default_rng(100_003 + seed)
        psi = np.zeros(len(sel), dtype=complex)
        psi[0] = 1.0  # both species packed on the lowest sites
        for cycle in range(args.cycles):
            psi = u2 @ (u1 @ psi)
            theta = rng.uniform(0, 2 * np.pi, d)
            column_phase = np.exp(1j * theta)
            psi = (psi.reshape(d, d) * column_phase[None, :]).reshape(-1)
            psi = u1r @ (u2r @ psi)
            psi = (psi.reshape(d, d) * column_phase.conj()[None, :]).reshape(-1)
            psi /= np.linalg.norm(psi)
            curves[seed, cycle] = entanglement(psi, d)

    mean = curves.mean(axis=0)
    plateau = mean[args.cycles // 2:].mean()
    print(f"seed-averaged S_ent, first 10 cycles: "
          f"{np.array2string(mean[:10], precision=4)}")
    print(f"plateau (cycles {args.cycles // 2 + 1}..{args.cycles}): {plateau:.6f}")
    print(f"80% threshold: {0.8 * plateau:.6f}")
    print(f"Page estimate ln({d}) - 1/2 = {np.log(d) - 0.5:.6f}")

    kernel = np.ones(5) / 5
    smooth = np.array([np.convolve(c, kernel, mode="valid") for c in curves])
    diffs = np.diff(smooth, axis=1)
    standardized = diffs.mean(axis=0) / (
        diffs.std(axis=0, ddof=1) / np.sqrt(args.seeds))
    bound = -stats.t.ppf(1 - 0.01 / diffs.shape[1], df=args.seeds - 1)
    print(f"min smoothed diff: {diffs.mean(axis=0).min():.2e}")
    print(f"worst smoothed diff: {standardized.min():.2f} SE "
          f"(bound {bound:.2f})")


if __name__ == "__main__":
    main()
