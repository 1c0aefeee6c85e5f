#!/usr/bin/env python3
"""Inhomogeneous (position-dependent alpha) blocking TASEP profiles.

Two regimes mirroring the paper-scale experiments, at reduced size:
  uniform   -- alpha = -0.5 everywhere (viscosity), pi = 1, x = 0.01
  sine      -- alpha_k = 0.5 sin(k/50)^6 (position-dependent current),
               pi = 0.5, x = 0.2
"""

import argparse
import csv
import math
import sys
import time

from ktasep.kernels import CaseId
from ktasep.simulate import SimConfig, run_final


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--regime", choices=["uniform", "sine"], default="uniform")
    ap.add_argument("--ell", type=int, default=100)
    ap.add_argument("--steps", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="fig_canonical.csv")
    args = ap.parse_args()

    if args.regime == "uniform":
        alpha = lambda k: -0.5
        rate, x = 1.0, 0.01
    else:
        alpha = lambda k: 0.5 * math.sin(k / 50.0) ** 6
        rate, x = 0.5, 0.2

    config = SimConfig(
        case=CaseId.CANONICAL_C,
        ell=args.ell,
        steps=args.steps,
        rates=lambda j: rate,
        x=[x],
        alpha=alpha,
        seed=args.seed,
    )
    t0 = time.time()
    final = run_final(config)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["particle", "position", "fermionic_position"])
        for j in range(1, args.ell + 1):
            w.writerow([j, final.part(j), final.part(j) - j])
    print(
        f"canonical {args.regime} ell={args.ell} steps={args.steps}: "
        f"wrote {args.out} in {time.time() - t0:.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
