"""One benchmark pass in a fresh interpreter (started by run.py).

    python3 perfbench/child.py --workload NAME --seed N --mode MODE \
        --seconds S --launch T

MODE is ``setup`` (import and build the inputs, then exit), ``plain``
(timed passes, then the checks), ``trace`` (one pass with spans recorded) or
``count`` (one pass with Fraction arithmetic and Partition constructions
counted).  In ``plain`` mode a repeatable workload runs at least
``MIN_ROUNDS`` passes and until they have taken ``--seconds``; each
operation's time is its median over the passes, in seconds and in units of
the reference loop that ``tracer.SpeedProbe`` samples while they run.  On
a shared 2-core machine other tenants slow this process down by up to
1.8x in phases of seconds to minutes; the reference units cancel most of
that, the seconds do not.  An operation whose output differs between
passes counts as failed.  ``--launch`` is the
parent's ``time.monotonic()`` just before it started this process, so
set-up time covers interpreter start-up and every import; it is also given
in reference-loop times, sampled before the imports and after the inputs
are built.  The last stdout
line is one JSON object with the results.

Each run starts a fresh interpreter because that is what each ``ktasep``
invocation pays: the tableau generating functions are ``lru_cache``d, so a
second ``validate`` pass in one process skips their fill cost, which today
is most of its time.  ``validate`` therefore runs one pass per interpreter;
only its traced run adds a warm second pass, to report that fill cost as
``kernels.tableau_warm_pass_s``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SPANS_DIR = Path(__file__).resolve().parent / "out"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_ROUNDS = 5

# (module, attribute, span name): each place a caller looks the function up.
TRACE_SITES = (
    ("validate", "brute_force_single_step", "validate.brute_force_single_step"),
    ("validate", "brute_force_table", "validate.brute_force_table"),
    ("validate", "route_agreement", "validate.route_agreement"),
    ("validate", "arbitrate_conventions", "validate.arbitrate_conventions"),
    ("validate", "mc_vs_exact", "validate.mc_vs_exact"),
    ("validate", "chain", "kernels.chain"),
    ("kernels", "chain", "kernels.chain"),
    ("multipoint", "chain", "kernels.chain"),
    ("cli", "chain", "kernels.chain"),
    ("kernels", "single_step_table", "kernels.single_step_table"),
    ("validate", "kernel_operator_route", "kernels.kernel_operator_route"),
    ("kernels", "kernel_operator_route", "kernels.kernel_operator_route"),
    ("validate", "kernel_tableau_route", "kernels.kernel_tableau_route"),
    ("kernels", "kernel_tableau_route", "kernels.kernel_tableau_route"),
    ("tableaux", "gen_G_doubleslash", "tableaux.gen_G_doubleslash"),
    ("tableaux", "gen_g", "tableaux.gen_g"),
    ("tableaux", "gen_j", "tableaux.gen_j"),
    ("cli", "main", "cli.main"),
    ("validate", "sample_batch_final", "simulate.sample_batch_final"),
    ("simulate", "sample_batch_final", "simulate.sample_batch_final"),
    ("simulate", "step_batch", "simulate.step_batch"),
    ("exactalg", "theta_h_pair", "exactalg.theta_h_pair"),
    ("multipoint", "theta_h_pair", "exactalg.theta_h_pair"),
    ("exactalg", "supersym_h", "exactalg.supersym_h"),
    ("multipoint", "supersym_h", "exactalg.supersym_h"),
    ("exactalg", "supersym_e", "exactalg.supersym_e"),
    ("multipoint", "supersym_e", "exactalg.supersym_e"),
    ("exactalg", "h_prefix", "exactalg.h_prefix"),
    ("multipoint", "mp_blocking_series", "multipoint.mp_blocking_series"),
    ("multipoint", "mp_pushing", "multipoint.mp_pushing"),
    ("multipoint", "mp_blocking_contour", "multipoint.mp_blocking_contour"),
    ("multipoint", "contour_entry_residue", "multipoint.contour_entry_residue"),
    ("multipoint", "continuous_kernel", "multipoint.continuous_kernel"),
    ("simulate", "run", "simulate.run"),
    ("simulate", "run_continuous", "simulate.run_continuous"),
)
NOTED_SITES = (  # spans that also keep an argument property
    ("multipoint", "det_exact", "multipoint.det_exact", lambda args: len(args[0])),
    ("simulate", "step_discrete", "simulate.step_discrete", lambda args: f"ell{args[3].ell}"),
)

SPAN_FIELDS = ("calls", "s", "self_s")  # per-layer names "<span>.<field>"


def install_tracer(tracer) -> None:
    for module, attr, name in TRACE_SITES:
        tracer.wrap(importlib.import_module(f"ktasep.{module}"), attr, name)
    for module, attr, name, note in NOTED_SITES:
        tracer.wrap(importlib.import_module(f"ktasep.{module}"), attr, name, note=note)


def layer_metrics(names: list, summary: dict, figures: dict, warm_s: float) -> dict:
    """Values of the per-layer metrics this child can report.  A name
    "<span>.<field>" reads that span's summary; the others are derived
    here or, for counts, set-up and overhead, in run.py.  A layer the
    workload never enters reads 0."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": [], "self_s_by_note": {}}
    get = lambda name: summary.get(name, empty)  # noqa: E731
    generated = sum(get(g)["calls"] for g in
                    ("tableaux.gen_G_doubleslash", "tableaux.gen_g", "tableaux.gen_j"))
    routes = get("kernels.kernel_tableau_route")["calls"]
    out = {
        "kernels.tableau_cache_miss_ratio": generated / routes if routes else 0.0,
        "kernels.tableau_warm_pass_s": warm_s,
        "multipoint.det_exact.max_dim": max(get("multipoint.det_exact")["notes"], default=0),
    }
    by_ell = get("simulate.step_discrete")["self_s_by_note"]
    for name in names:
        span, field = name.rsplit(".", 1)
        if name.startswith("simulate.step_discrete.self_s."):
            out[name] = by_ell.get(field, 0.0)  # field is the note "ell<N>"
        elif name.startswith("simulate.moving_fraction"):
            out[name] = figures.get(name.removeprefix("simulate."), 0.0)
        elif name not in out and field in SPAN_FIELDS:
            out[name] = get(span)[field]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "plain", "trace", "count"], required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--launch", type=float, required=True)
    args = ap.parse_args()

    import tracer as tracing

    t = time.perf_counter()
    ref_before = min(tracing.reference_loop() for _ in range(3))
    probe_s = time.perf_counter() - t
    t = time.perf_counter()
    import mpmath  # noqa: F401
    import numpy  # noqa: F401
    import scipy.stats  # noqa: F401
    import_deps_s = time.perf_counter() - t
    t = time.perf_counter()
    import ktasep
    import ktasep.cli  # noqa: F401  (imports every other ktasep module)
    import_ktasep_s = time.perf_counter() - t
    if Path(ktasep.__file__).resolve().parent.parent != SRC:
        sys.exit(f"ktasep was imported from {ktasep.__file__}, not from {SRC}")

    import workloads

    tracer = counter = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        install_tracer(tracer)
    elif args.mode == "count":
        counter = tracing.Counter()
        counter.install(ktasep.Partition)
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    setup_s = time.monotonic() - args.launch - probe_s
    ref_after = min(tracing.reference_loop() for _ in range(3))
    result = {
        "setup_s": setup_s,
        "setup_ref": setup_s / ((ref_before + ref_after) / 2),
        "import_deps_s": import_deps_s,
        "import_ktasep_s": import_ktasep_s,
    }
    if args.mode != "setup":
        probe = tracer or counter
        speed = tracing.SpeedProbe() if args.mode == "plain" else None
        if probe:
            probe.enabled = True
        if speed:
            speed.start()
        rounds = [wl.run_pass(inputs)]
        if probe:
            probe.enabled = False
        if args.mode == "plain" and wl.repeatable:
            while (len(rounds) < MIN_ROUNDS
                   or rounds[-1].marks[-1] - rounds[0].marks[0] < args.seconds):
                rounds.append(wl.run_pass(inputs))
        if speed:
            speed.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # per round, per segment: (seconds, reference loops)
        measured = [[speed.measure(a, b) if speed else (b - a, 0.0)
                     for a, b in zip(r.marks, r.marks[1:])] for r in rounds]
        per_op = [list(zip(*seg)) for seg in zip(*measured)]  # per segment: (seconds...), (refs...)
        res = workloads.PassResult(
            None, list(rounds[0].outputs), [statistics.median(s) for s, _ in per_op])
        for i, out in enumerate(res.outputs):
            if any(r.outputs[i] != out for r in rounds[1:]):
                res.outputs[i] = (None, "output differs between repeated passes")
        warm_s = 0.0
        if tracer and args.workload == "validate":
            warm_s = workloads.warm_validate(inputs)
        attempted, failed, messages = wl.check(inputs, res)
        figures = wl.figures(inputs, res)
        result.update(
            wall_s=sum(res.times), wall_ref=sum(statistics.median(r) for _, r in per_op),
            first_pass_s=sum(s for s, _ in measured[0]), times=res.times,
            rounds=len(rounds), figures=figures,
            peak_rss_mb=peak_rss_mb, attempted=attempted, failed=failed, messages=messages[:20],
        )
        if tracer:
            SPANS_DIR.mkdir(exist_ok=True)
            tracer.write(SPANS_DIR / f"spans-{args.workload}-{args.seed}.tsv")
            names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
            result["layers"] = layer_metrics(names, tracer.summary(), figures, warm_s)
        if counter:
            result["counts"] = {
                "exactalg.fraction_ops": counter.counts["fraction_ops"],
                "partitions.Partition.inits": counter.counts["partition_inits"],
            }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
