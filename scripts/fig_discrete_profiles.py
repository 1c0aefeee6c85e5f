#!/usr/bin/env python3
"""Discrete TASEP height-profile data (blocking and pushing, geometric
jumps with small x approximating the continuous limit).

Full scale uses ell=500, x=0.01, pi=1, n=t/x steps; the default here is
the reduced smoke scale.  Emits CSV columns: particle, bosonic position,
fermionic position.
"""

import argparse
import csv
import sys
import time

from ktasep.kernels import CaseId
from ktasep.simulate import SimConfig, run_final


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ell", type=int, default=100)
    ap.add_argument("--steps", type=int, default=10000)
    ap.add_argument("--x", type=float, default=0.01)
    ap.add_argument("--rate", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--push", action="store_true")
    ap.add_argument("--out", default="fig_discrete.csv")
    args = ap.parse_args()

    case = CaseId.A if args.push else CaseId.C
    config = SimConfig(
        case=case,
        ell=args.ell,
        steps=args.steps,
        rates=lambda j: args.rate,
        x=[args.x],
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
        f"{case.value} ell={args.ell} steps={args.steps}: wrote {args.out} "
        f"in {time.time() - t0:.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
