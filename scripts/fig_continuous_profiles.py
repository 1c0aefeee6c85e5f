#!/usr/bin/env python3
"""Continuous-time TASEP profile data (blocking or pushing) from
``simulate.run_continuous``.  Full scale: ell=500, t=500; default is
reduced.
"""

import argparse
import csv
import sys
import time

from ktasep.simulate import rng_for, run_continuous


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ell", type=int, default=100)
    ap.add_argument("--t", type=float, default=100.0)
    ap.add_argument("--rate", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--push", action="store_true")
    ap.add_argument("--out", default="fig_continuous.csv")
    args = ap.parse_args()

    t0 = time.time()
    rng = rng_for(args.seed, 0)
    pos = run_continuous(args.ell, args.t, args.rate, rng, push=args.push)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["particle", "position", "fermionic_position"])
        for j, p in enumerate(pos, start=1):
            w.writerow([j, p, p - j])
    kind = "pushing" if args.push else "blocking"
    print(f"continuous {kind} ell={args.ell} t={args.t}: wrote {args.out} in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
