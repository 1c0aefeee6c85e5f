"""The benchmark's three workloads: inputs built from a seed, one timed
pass over a fixed operation list, and per-operation correctness checks that
run after the timed pass.

Every call into ktasep goes through a module attribute (``mp.mp_pushing``,
``validate.mc_vs_exact``, ...) so that the tracer's wrappers see it.

- ``validate``: the verification job (``ktasep validate --grid desk`` plus
  the statistical check of all six samplers and its fault injection).
  Exercises the oracle, ``chain``, the operator route, cold tableau
  generation and the batch sampler.
- ``multipoint``: at least 100 determinant queries.  Theta sums dominate
  the series queries and the Leibniz determinant the pushing queries at
  ell = 7; neither does much work in the other two workloads.
- ``trajectory``: long single trajectories of every discrete case and of
  the continuous-time sampler, at ell = 10, 100 and 400 with the same
  number of particle updates per (case, ell).  Blocking systems start
  half-way through a figure run (see ``fan_start``), so the share of
  blocked particles is the one the figure pipeline sees.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from time import perf_counter

import numpy as np

from ktasep import cli, kernels, multipoint as mp, simulate as sim, validate
from ktasep.kernels import CaseId, ParamBinding
from ktasep.partitions import Partition

# The statistical check uses the acceptance suite's pinned sampling seed:
# each healthy run passes p > 0.001, so a fresh seed per run would make a
# correct sampler fail 0.6% of runs by design.  The workload seed drives the
# fault-injected run, whose rejection (p ~ 1e-187) does not depend on it.
MC_SEED = 7
MC_SAMPLES = 100_000
DESK_COMPARISONS = 1440

SERIES_TRUNC = 70
SIMILAR_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# (case, ell, n, start, thresholds) of the theta-series queries, and
# (ell, n, start, thresholds) of the Leibniz-bound pushing queries; the
# pushing thresholds stay <= 2 so that their event-sum check is cheap.
SERIES_SHAPES = (
    (CaseId.C, 3, 2, (1, 1), (2, 2, 1)),
    (CaseId.C, 5, 1, (1, 1), (2, 1, 1)),
    (CaseId.CANONICAL_C, 3, 1, (1,), (2, 1, 1)),
    (CaseId.CANONICAL_C, 4, 2, (1, 1), (2, 2, 1, 1)),
)
PUSH_SHAPES = (
    (7, 1, (1, 1), (2, 2, 1, 1, 1)),
    (7, 1, (), (2, 1, 1, 1, 1, 1, 1)),
    (7, 2, (1,), (2, 1, 1, 1, 1, 1)),
    (7, 2, (), (2, 2, 2, 1, 1)),
)
EXACT_TAIL_TOL = 1e-9  # largest dropped mass accepted for a cap-12 event sum
FLOAT_TOL = 1e-10

ELLS = (10, 100, 400)
# Budgets per (case, ell), set so that one pass takes about 2 s on a 2-core
# Xeon; a figure run to its horizon would take 100 * ell^2 updates.
UPDATES_PER_RUN = 30_000         # ell * steps for every discrete (case, ell)
CONTINUOUS_UPDATES = 25_000      # ell * t for every continuous (kind, ell)
SIGMAS = 6.0


@dataclass
class PassResult:
    marks: list      # perf_counter() at each timed segment's start, and at the last one's end
    outputs: list    # per-operation outputs, consumed by check()
    times: list = None  # seconds per segment (per operation, or per phase of validate),
                        # filled in by the caller from the marks of one or more passes


def _attempt(fn, *args, **kwargs):
    """Run one operation; an exception counts as a failed operation."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - any raise is a failed op
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _mc_binding() -> ParamBinding:
    return ParamBinding.numeric(
        x=[F(1, 5)], rates=[F(1, 2), F(1, 3), F(1, 7)],
        alpha=lambda k: F(1, 4 + k) if k >= 1 else F(0),
        beta_pos=lambda k: F(1, 6 + k) if k >= 1 else F(0),
    )


def build_validate(seed: int) -> dict:
    return {
        "argv": ["validate", "--grid", "desk"],
        "binding": _mc_binding(),
        "start": Partition([1, 1]),
        "bias_seed": seed,
    }


def _run_desk(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc, err = _attempt(cli.main, argv)
    return rc, err, out.getvalue()


def pass_validate(inp: dict) -> PassResult:
    t0 = perf_counter()
    desk = _run_desk(inp["argv"])
    t1 = perf_counter()
    reports = [
        _attempt(validate.mc_vs_exact, case, inp["start"], 1, inp["binding"], 3,
                 samples=MC_SAMPLES, seed=MC_SEED)
        for case in CaseId
    ]
    biased = _attempt(validate.mc_vs_exact, CaseId.C, inp["start"], 1, inp["binding"], 3,
                      samples=MC_SAMPLES, seed=inp["bias_seed"], rng_bias=0.8)
    t2 = perf_counter()
    return PassResult([t0, t1, t2], [desk, reports, biased])


def figures_validate(inp: dict, res: PassResult) -> dict:
    desk_s, mc_s = res.times
    return {
        "route_comparisons_per_s": DESK_COMPARISONS / desk_s,
        "mc_samples_per_s": (len(CaseId) + 1) * MC_SAMPLES / mc_s,
    }


def warm_validate(inp: dict) -> float:
    """Second run of the desk grid in the same process: the tableau caches
    are full, so cold minus warm is their fill cost."""
    t0 = perf_counter()
    _run_desk(inp["argv"])
    return perf_counter() - t0


def check_validate(inp: dict, res: PassResult) -> tuple[int, int, list]:
    """Operations: the 1440 route comparisons and the seven mc_vs_exact runs."""
    (rc, err, text), reports, biased = res.outputs
    bad_rows = DESK_COMPARISONS
    if err is None and rc in (0, 3):  # 3: the grid ran and found mismatches
        payload = json.loads(text.strip().splitlines()[-1])["payload"]
        bad_rows = len(payload["failures"]) + abs(DESK_COMPARISONS - payload["checked"])
    messages = [f"desk grid: rc={rc} err={err} bad rows={bad_rows}"] if bad_rows else []
    bad_runs = []
    for case, (rep, err) in zip(CaseId, reports):
        if err is not None or not rep.healthy:
            bad_runs.append(f"mc_vs_exact {case.value}: {err or (rep.tv_distance, rep.p_value)}")
    rep, err = biased
    if err is not None or rep.healthy:
        bad_runs.append(f"rng_bias run not rejected: {err or rep.p_value}")
    return DESK_COMPARISONS + len(reports) + 1, bad_rows + len(bad_runs), messages + bad_runs


# ---------------------------------------------------------------------------
# multipoint
# ---------------------------------------------------------------------------


@dataclass
class Query:
    kind: str
    fn: str                  # function name in ktasep.multipoint, looked up per call
    args: tuple
    kwargs: dict
    family: tuple = ()       # shared inputs of the independent check route


def _binding(rng: random.Random, n: int, ell: int, canonical: bool = False,
             denominators=range(2, 14)) -> ParamBinding:
    """Admissible rational binding with pairwise-distinct rates."""
    xs = [F(1, rng.randint(8, 15)) for _ in range(n)]
    rates = [F(1, d) for d in rng.sample(denominators, ell)]
    alpha = None
    if canonical:
        a0 = rng.randint(4, 7)
        alpha = lambda k: F(1, a0 + k) if k >= 1 else F(0)  # noqa: E731
    return ParamBinding(xs, rates, alpha)


def _start(rng: random.Random) -> Partition:
    return Partition(rng.choice([(), (1,), (1, 1), (2, 1)]))


def _ge_thresholds(rng: random.Random, start: Partition, ell: int) -> Partition:
    parts, prev = [], None
    for i in range(1, ell + 1):
        mu = start.part(i)
        v = mu + rng.randint(0, 2)
        if prev is not None:
            v = max(mu, min(v, prev))
        parts.append(v)
        prev = v
    return Partition(parts)


def _le_thresholds(rng: random.Random, start: Partition, ell: int, cap: int) -> Partition:
    parts, prev = [], cap
    for i in range(1, ell + 1):
        v = min(prev, start.part(i) + rng.randint(0, 2))
        parts.append(v)
        prev = v
    return Partition(parts)


def build_multipoint(seed: int) -> list:
    rng = random.Random(seed)
    qs: list = []
    # The costly queries keep a fixed shape and draw their rates from primes
    # of similar size, so their cost hardly depends on the seed; the cheap
    # ones are drawn freely.
    for case, ell, n, start, thr in SERIES_SHAPES:  # theta-series determinants
        b = _binding(rng, n, ell, case is CaseId.CANONICAL_C, SIMILAR_PRIMES)
        start = Partition(start)
        q = mp.MultiPointQuery(case, "ge", n, Partition(thr), start, ell, b)
        qs.append(Query(f"series_{case.value}", "mp_blocking_series", (q,),
                        {"trunc": SERIES_TRUNC}, (case, n, start, ell, id(b))))
    for ell in (3, 4, 5):
        for n in (1, 2):
            b, start = _binding(rng, n, ell), _start(rng)
            for _ in range(2):
                q = mp.MultiPointQuery(CaseId.B, "ge", n, _ge_thresholds(rng, start, ell), start, ell, b)
                qs.append(Query("series_B", "mp_blocking_series", (q,),
                                {"trunc": SERIES_TRUNC}, (CaseId.B, n, start, ell, id(b))))
    # pushing determinants: many cheap ones at ell = 3, Leibniz-bound at ell = 7
    for case in (CaseId.A, CaseId.D):
        for n in (1, 2):
            b, start = _binding(rng, n, 3), _start(rng)
            for _ in range(10):
                q = mp.MultiPointQuery(case, "le", n, _le_thresholds(rng, start, 3, 3), start, 3, b)
                qs.append(Query("push_ell3", "mp_pushing", (q,), {}, (case, n, start, 3, id(b))))
    for ell, n, start, thr in PUSH_SHAPES:
        for case in (CaseId.A, CaseId.D):
            b, start = _binding(rng, n, ell, denominators=SIMILAR_PRIMES), Partition(start)
            q = mp.MultiPointQuery(case, "le", n, Partition(thr), start, ell, b)
            qs.append(Query(f"push_ell{ell}", "mp_pushing", (q,), {}, (case, n, start, ell, id(b))))
    # contour determinant for C: exact residues, and a few by quadrature
    for ell in (3, 4, 5):
        for n in (1, 2):
            b, start = _binding(rng, n, ell), _start(rng)
            for _ in range(5):
                q = mp.MultiPointQuery(CaseId.C, "ge", n, _ge_thresholds(rng, start, ell), start, ell, b)
                qs.append(Query("contour_residue", "mp_blocking_contour", (q,), {},
                                (CaseId.C, n, start, ell, id(b))))
    for _ in range(3):
        b, start = _binding(rng, 2, 3), _start(rng)
        q = mp.MultiPointQuery(CaseId.C, "ge", 2, _ge_thresholds(rng, start, 3), start, 3, b)
        spec = mp.ContourSpec(radius=F(1), points=256, mode="quadrature")
        qs.append(Query("contour_quadrature", "mp_blocking_contour", (q, spec), {}))
    # continuous-time kernels by residues
    for case in (CaseId.C, CaseId.A):
        for ell in (2, 3):
            rates = rng.sample([F(1), F(2, 3), F(1, 2), F(3, 4), F(1, 3)], ell)
            t = F(rng.randint(2, 6), 4)
            lam = _ge_thresholds(rng, Partition(), ell)
            qs.append(Query("continuous", "continuous_kernel",
                            (case, float(t), Partition(), lam, ell, rates), {"mode": "residue"}))
    return qs


def pass_multipoint(queries: list) -> PassResult:
    outputs, marks = [], [perf_counter()]
    for q in queries:
        outputs.append(_attempt(getattr(mp, q.fn), *q.args, **q.kwargs))
        marks.append(perf_counter())
    return PassResult(marks, outputs)


def figures_multipoint(queries: list, res: PassResult) -> dict:
    return {"queries_per_s": len(queries) / sum(res.times)}


def _event(table, thr: Partition, le: bool, ell: int):
    cmp = (lambda a, b: a <= b) if le else (lambda a, b: a >= b)
    return sum((p for lam, p in table.probs.items()
                if all(cmp(lam.part(i), thr.part(i)) for i in range(1, ell + 1))), F(0))


def _check_query(q: Query, value, tables: dict) -> str | None:
    """None when the value agrees with an independent route."""

    def table(cap):
        case, n, start, ell, _ = q.family
        key = q.family + (cap,)
        if key not in tables:
            tables[key] = kernels.chain(case, n, start, q.args[0].binding, ell, cap)
        return tables[key]

    if q.kind == "series_C":
        v, bound = value
        exact = mp.mp_blocking_contour(q.args[0])
        return None if abs(v - exact) <= bound else f"series vs residue gap {float(v - exact):.3e}"
    if q.kind == "series_CanonicalC":
        v, bound = value
        t = table(12)
        ev = _event(t, q.args[0].thresholds, False, q.args[0].ell)
        tol = t.tail + F(bound)
        return None if abs(v - ev) <= tol <= EXACT_TAIL_TOL else f"gap {float(v - ev):.3e} tol {float(tol):.3e}"
    if q.kind == "series_B":
        v, bound = value
        query = q.args[0]
        ev = _event(table(query.start.part(1) + query.n), query.thresholds, False, query.ell)
        return None if bound == 0 and v == ev else f"B value {v} != event sum {ev}"
    if q.kind.startswith("push_ell"):
        query = q.args[0]
        ev = _event(table(query.thresholds.part(1)), query.thresholds, True, query.ell)
        return None if value == ev else f"pushing value {value} != event sum {ev}"
    if q.kind == "contour_residue":
        t = table(12)
        ev = _event(t, q.args[0].thresholds, False, q.args[0].ell)
        ok = ev <= value <= ev + t.tail and t.tail <= EXACT_TAIL_TOL
        return None if ok else f"residue {float(value)} outside [event, event + tail]"
    if q.kind == "contour_quadrature":
        exact = mp.mp_blocking_contour(q.args[0])
        return None if abs(value - float(exact)) <= FLOAT_TOL else "quadrature vs residue"
    if q.kind == "continuous":
        quad = mp.continuous_kernel(*q.args, mode="quadrature", quad_points=32, dps=30)
        return None if abs(float(value) - float(quad)) <= FLOAT_TOL else "residue vs quadrature"
    raise ValueError(q.kind)


def check_multipoint(queries: list, res: PassResult) -> tuple[int, int, list]:
    failures, tables = [], {}
    for q, (value, err) in zip(queries, res.outputs):
        problem = err if err is not None else _check_query(q, value, tables)
        if problem is not None:
            failures.append(f"{q.kind}: {problem}")
    return len(queries), len(failures), failures


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def _sine(k: int) -> float:
    return 0.5 * math.sin(k / 50.0) ** 6


# (label, case, rate, x, alpha, beta_pos): the figure-pipeline physics for
# A, C and both CanonicalC regimes; B, D and CanonicalB use the discrete
# figure's rate and x.
DISCRETE = (
    ("A", CaseId.A, 1.0, 0.01, None, None),
    ("B", CaseId.B, 1.0, 0.01, None, None),
    ("C", CaseId.C, 1.0, 0.01, None, None),
    ("D", CaseId.D, 1.0, 0.01, None, None),
    ("CanonicalC-uniform", CaseId.CANONICAL_C, 1.0, 0.01, lambda k: -0.5, None),
    ("CanonicalC-sine", CaseId.CANONICAL_C, 0.5, 0.2, _sine, None),
    ("CanonicalB", CaseId.CANONICAL_B, 1.0, 0.01, None, _sine),
)


def fan_start(ell: int) -> Partition:
    """Where a figure run of a blocking system is half-way through.

    The figure scripts run to a free-particle displacement of about ell
    (ell = 100 for 10^4 steps at x = 0.01, and ell = 500 at paper scale).
    Running that far at every ell costs 100 * ell^2 updates, beyond a run's
    budget at ell = 400.  Instead the measured window starts from the
    rarefaction fan at displacement ell / 2, where the share of blocked
    particles is its average over a figure run: particle k has moved
    (sqrt(d) - sqrt(k))^2 sites at displacement d.  Pushing systems set
    every particle moving from the first steps, so they start packed, as
    the figures do.
    """
    d = ell / 2
    return Partition(int((math.sqrt(d) - math.sqrt(k)) ** 2) if k < d else 0
                     for k in range(1, ell + 1))


@dataclass
class Traj:
    label: str
    ell: int
    start: Partition
    push: bool
    config: object = None        # SimConfig for discrete runs
    run_index: int = 0
    t: float = 0.0               # continuous runs
    rate: float = 1.0
    seed: int = 0


def build_trajectory(seed: int) -> list:
    out = []
    for label, case, rate, x, alpha, beta in DISCRETE:
        for ell in ELLS:
            start = Partition() if case.pushing else fan_start(ell)
            config = sim.SimConfig(
                case=case, ell=ell, steps=UPDATES_PER_RUN // ell, start=start,
                rates=lambda j, r=rate: r, x=[x], alpha=alpha, beta_pos=beta, seed=seed,
            )
            out.append(Traj(label, ell, start, case.pushing, config=config, run_index=len(out)))
    for push in (False, True):
        for ell in ELLS:
            start = Partition() if push else fan_start(ell)
            out.append(Traj("continuous-" + ("pushing" if push else "blocking"), ell, start, push,
                            run_index=len(out), t=CONTINUOUS_UPDATES / ell, seed=seed))
    return out


def pass_trajectory(trajs: list) -> PassResult:
    outputs, marks = [], [perf_counter()]
    for tr in trajs:
        if tr.config is not None:
            traj, err = _attempt(sim.run, tr.config, tr.run_index)
            final = None if err else list(traj.final().padded(tr.ell))
        else:
            final, err = _attempt(sim.run_continuous, tr.ell, tr.t, tr.rate,
                                  sim.rng_for(tr.seed, tr.run_index), push=tr.push,
                                  start=tr.start)
        marks.append(perf_counter())
        outputs.append((final, err))
    return PassResult(marks, outputs)


def figures_trajectory(trajs: list, res: PassResult) -> dict:
    discrete = [(tr, t) for tr, t in zip(trajs, res.times) if tr.config is not None]
    updates = sum(tr.ell * tr.config.steps for tr, _ in discrete)
    moved, total = {}, {}
    for tr, (final, _) in zip(trajs, res.outputs):
        for key in ("", f".{'pushing' if tr.push else 'blocking'}.ell{tr.ell}"):
            total[key] = total.get(key, 0) + tr.ell
            if final:
                moved[key] = moved.get(key, 0) + sum(
                    1 for a, b in zip(final, tr.start.padded(tr.ell)) if a != b)
    out = {"particle_updates_per_s": updates / sum(t for _, t in discrete)}
    for key, n in total.items():
        out["moving_fraction" + key] = moved.get(key, 0) / n
    return out


def _walk_moments(succ, steps: int) -> tuple[float, float]:
    """Mean and variance after ``steps`` rounds of a +1 walk from 0 whose
    step succeeds with probability succ(k) at displacement k."""
    top = max(succ(k) for k in range(steps + 1))
    size = min(steps, int(steps * top + 12 * math.sqrt(steps * top) + 20)) + 1
    s = np.array([succ(k) for k in range(size)])
    s[-1] = 0.0  # the last cell only collects mass far beyond 6 sigma
    p = np.zeros(size)
    p[0] = 1.0
    for _ in range(steps):
        moved = p * s
        p -= moved
        p[1:] += moved[:-1]
    k = np.arange(size)
    mean = float(p @ k)
    return mean, float(p @ (k * k)) - mean * mean


def _free_particle_moments(tr: Traj) -> tuple[int, float, float] | None:
    """(particle index, mean, variance) of the unobstructed particle's
    displacement; None for CanonicalC (partition check only)."""
    j = tr.ell if tr.push else 1
    if tr.config is None:
        return j, tr.rate * tr.t, tr.rate * tr.t
    c, steps = tr.config, tr.config.steps
    v = c.rate(j) * c.x_of(1)
    if c.case in (CaseId.A, CaseId.C):
        m, var = v / (1 - v), v / (1 - v) ** 2
    elif c.case in (CaseId.B, CaseId.D):
        p = v / (1 + v)
        m, var = p, p * (1 - p)
    elif c.case is CaseId.CANONICAL_B:
        k0 = tr.start.part(j)
        mean, var = _walk_moments(
            lambda k: (c.rate(1) + c.beta_pos_of(k0 + k)) * c.x_of(1) / (1 + v), steps)
        return j, mean, var
    else:
        return None
    return j, steps * m, steps * var


def check_trajectory(trajs: list, res: PassResult) -> tuple[int, int, list]:
    """Operations: each trajectory, plus one pooled check of the free
    particles of all discrete runs (a single run at ell = 400 covers too
    short a window for its own check to catch a biased sampler)."""
    failures = []
    pooled = [0.0, 0.0, 0.0]  # displacement, mean, variance
    for tr, (final, err) in zip(trajs, res.outputs):
        name = f"{tr.label} ell={tr.ell}"
        if err is not None:
            failures.append(f"{name}: {err}")
            continue
        if len(final) != tr.ell or final[-1] < 0 or any(a < b for a, b in zip(final, final[1:])):
            failures.append(f"{name}: not a partition")
            continue
        free = _free_particle_moments(tr)
        if free is not None:
            j, mean, var = free
            moved = final[j - 1] - tr.start.part(j)
            if abs(moved - mean) > SIGMAS * math.sqrt(var):
                failures.append(f"{name}: particle {j} moved {moved}, mean {mean:.1f}")
            if tr.config is not None:
                for i, v in enumerate((moved, mean, var)):
                    pooled[i] += v
    moved, mean, var = pooled
    if abs(moved - mean) > SIGMAS * math.sqrt(var):
        failures.append(f"pooled discrete free particles moved {moved:.0f}, mean {mean:.1f}")
    return len(trajs) + 1, len(failures), failures


@dataclass
class Workload:
    build: object       # seed -> inputs
    run_pass: object    # inputs -> PassResult (the timed part)
    figures: object     # (inputs, PassResult) -> workload-specific end-to-end figures
    check: object       # (inputs, PassResult) -> (attempted, failed, messages)
    repeatable: bool    # a second pass in one process does the same work


WORKLOADS = {
    # a second validate pass would find the tableau caches full
    "validate": Workload(build_validate, pass_validate, figures_validate, check_validate, False),
    "multipoint": Workload(build_multipoint, pass_multipoint, figures_multipoint,
                           check_multipoint, True),
    "trajectory": Workload(build_trajectory, pass_trajectory, figures_trajectory,
                           check_trajectory, True),
}
