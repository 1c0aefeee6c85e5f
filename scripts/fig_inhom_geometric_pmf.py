#!/usr/bin/env python3
"""Inhomogeneous geometric jump distribution: empirical histogram of the
sampler (one uniform per jump by inverse CDF, the rule of CanonicalC's
rounds) against the closed-form pmf, for the damped-linear position
profile alpha_k = 1 - k exp(-k/2) with x = 1, pi = 1/2.

Emits CSV columns: position, empirical, exact.  Prints the total-variation
distance.
"""

import argparse
import csv
import math
import sys
import time

from ktasep.simulate import inhom_geometric_pmf, rng_for, sample_inhom_geometric


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=100000)
    ap.add_argument("--pi", type=float, default=0.5)
    ap.add_argument("--x", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--maxval", type=int, default=40)
    ap.add_argument("--out", default="fig_inhom_pmf.csv")
    args = ap.parse_args()

    alpha = lambda k: 1.0 - k * math.exp(-k / 2.0)
    t0 = time.time()
    rng = rng_for(args.seed, 0)
    counts = [0] * (args.maxval + 2)
    for _ in range(args.samples):
        v = sample_inhom_geometric(alpha, args.pi, args.x, 0, rng)
        counts[min(v, args.maxval + 1)] += 1

    exact = inhom_geometric_pmf(alpha, args.pi, args.x, args.maxval, 0)
    tv = 0.0
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["position", "empirical", "exact"])
        for k in range(args.maxval + 1):
            emp = counts[k] / args.samples
            w.writerow([k, emp, exact[k]])
            tv += abs(emp - exact[k])
    tv = 0.5 * (tv + counts[args.maxval + 1] / args.samples + (1.0 - sum(exact)))
    elapsed = time.time() - t0
    print(f"samples={args.samples} TV={tv:.5f} time={elapsed:.2f}s -> {args.out}")
    return 0 if tv < 0.01 else 3


if __name__ == "__main__":
    sys.exit(main())
