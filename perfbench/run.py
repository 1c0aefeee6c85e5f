#!/usr/bin/env python3
"""ktasep benchmark.

    python3 perfbench/run.py --workload {validate,multipoint,trajectory} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  Load
is one closed-loop client in one process with no threads: the measured
passes run alone in a fresh interpreter (``perfbench/child.py``), so the
``lru_cache``d tableau generating functions start cold, as they do for
each ``ktasep`` command.

``--trace 0`` runs the passes in one interpreter for ``--seconds`` (see
child.py), times set-up in ``SETUP_SAMPLES`` interpreters in all, and
reports the end-to-end metrics of BENCHMARK.json; set-up is the median.
The gated pass time is ``wall_ref``, the pass time in units of a fixed
pure-Python loop timed alongside it (``tracer.SpeedProbe``), because on a
shared machine ``wall_s`` in seconds varies between runs by more than a
useful bound; ``wall_s`` is printed beside it.  For the same reason
``setup_s`` is the set-up time in reference-loop times, given in seconds
at ``tracer.NOMINAL_REFERENCE_S`` per loop; the time as measured is
printed as ``setup_raw_s``.
``--trace 1`` runs the same untraced interpreter, then one traced pass
(spans written to ``perfbench/out/``) and one counting pass, and reports
the per-layer metrics.  Every operation's output is checked after the
timed part; human-readable lines come first and the last stdout line is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import NOMINAL_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
TIME_LIMIT_S = 175.0   # a whole run, children included

# workload -> names of its own end-to-end figures, with units, printed
# beside the gated metrics of BENCHMARK.json
WORKLOAD_FIGURES = {
    "validate": (("route_comparisons_per_s", "1/s"), ("mc_samples_per_s", "1/s")),
    "multipoint": (("queries_per_s", "1/s"),),
    "trajectory": (("particle_updates_per_s", "1/s"),),
}


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float, seconds: float = 0.0) -> dict:
    """Run one child interpreter to completion and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds)]
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--launch", repr(launch)], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=max(deadline - launch, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} pass of {workload} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} pass of {workload} exited {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, plain: dict, setups: list) -> list:
    """(name, value, unit, sample note) for every end-to-end figure."""
    per_op = f"per-operation median of {plain['rounds']} passes"
    rows = [
        ("setup_s", statistics.median(c["setup_ref"] for c in setups) * NOMINAL_REFERENCE_S, "s",
         f"median of {len(setups)} launches, at a {NOMINAL_REFERENCE_S * 1e3:g} ms reference loop"),
        ("setup_raw_s", statistics.median(c["setup_s"] for c in setups), "s",
         f"median of {len(setups)} launches, as timed"),
        ("wall_ref", plain["wall_ref"], "ref", per_op + ", in reference-loop times"),
        ("wall_s", plain["wall_s"], "s", per_op),
        ("peak_rss_mb", plain["peak_rss_mb"], "MB", "pass interpreter"),
        ("failed_ratio", plain["failed"] / plain["attempted"], "ratio",
         f"{plain['failed']} of {plain['attempted']} operations"),
    ]
    for name, unit in WORKLOAD_FIGURES[workload]:
        rows.append((name, plain["figures"][name], unit, per_op))
    if workload == "multipoint":
        lat = [1000.0 * t for t in plain["times"]]
        p90 = statistics.quantiles(lat, n=10)[-1]
        beyond = sum(1 for v in lat if v > p90)
        rows.append(("query_p50_ms", statistics.median(lat), "ms", f"{len(lat)} queries"))
        rows.append(("query_p90_ms", p90, "ms", f"{len(lat)} queries, {beyond} beyond p90"))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_FIGURES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        children = [spawn(args.workload, args.seed, "plain", deadline, args.seconds)]
        if args.trace:
            children.append(spawn(args.workload, args.seed, "trace", deadline))
            children.append(spawn(args.workload, args.seed, "count", deadline))
            setups = children[:1]
        else:
            setups = children[:1] + [
                spawn(args.workload, args.seed, "setup", deadline)
                for _ in range(SETUP_SAMPLES - 1)
            ]
    except ChildFailed as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    plain = children[0]
    rows = end_to_end(args.workload, plain, setups)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, value, unit, note in rows:
        print(f"  {name:<26} {value:>14.6g} {unit:<6} ({note})")
    for child in children:
        for message in child["messages"]:
            print(f"  FAILED: {message}")

    if args.trace:
        traced, counted = children[1:]
        values = dict(traced["layers"], **counted["counts"])
        values["setup.import_deps_s"] = traced["import_deps_s"]
        values["setup.import_ktasep_s"] = traced["import_ktasep_s"]
        # one traced pass against the untraced interpreter's first pass
        values["trace.overhead_ratio"] = traced["wall_s"] / plain["first_pass_s"]
        wanted = spec["per_layer"]
    else:
        values = {name: value for name, value, _, _ in rows}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.stderr.write(f"benchmark failed: no value for {', '.join(missing)}\n")
        return 1
    if args.trace:
        for m in wanted:
            print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
