"""Command-line interface: kernel, multipoint, sample, validate, op, and
tableaux subcommands with byte-stable JSON output.

Exit codes: 0 success, 1 usage error, 2 a failed parameter constraint
check (``kernels.ConstraintError``), 3 validation failure.  Errors go to
stderr as structured JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction as Frac

from . import __version__
from .conventions import PINNED_CONVENTIONS
from .exactalg import LaurentPoly, RationalFn
from .kernels import (
    CaseId,
    ConstraintError,
    KernelQuery,
    ParamBinding,
    chain,
    kernel,
    parse_case,
)
from .partitions import Partition, SkewShape
from . import multipoint as mpmod
from . import operators as ops
from . import simulate as sim
from . import tableaux as tab
from . import validate as val


class UsageError(ValueError):
    pass


def _parse_partition(text: str) -> Partition:
    try:
        data = json.loads(text)
        return Partition(data)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from exc


def _parse_rational(v) -> Frac:
    if isinstance(v, str):
        return Frac(v)
    if isinstance(v, int):
        return Frac(v)
    if isinstance(v, float):
        return Frac(v).limit_denominator(10**12)
    raise UsageError(f"bad rational value {v!r}")


def _alpha_closure(spec):
    """Named closures for position-dependent rates."""
    if spec is None:
        return None
    if isinstance(spec, list):
        vals = [_parse_rational(v) for v in spec]
        return lambda k: vals[k] if k < len(vals) else Frac(0)
    if isinstance(spec, dict):
        form = spec.get("form")
        if form == "sine":
            amp = float(spec.get("amplitude", 0.5))
            period = float(spec.get("period", 50))
            power = int(spec.get("power", 6))
            return lambda k: amp * math.sin(k / period) ** power
        if form == "damped_linear":
            offset = float(spec.get("offset", 1.0))
            slope = float(spec.get("slope", 1.0))
            tau = float(spec.get("tau", 2.0))
            return lambda k: offset - slope * k * math.exp(-k / tau)
        if form == "constant":
            c = _parse_rational(spec.get("value", 0))
            return lambda k: c
        raise UsageError(f"unknown closure form {form!r}")
    raise UsageError(f"bad alpha spec {spec!r}")


def load_params(path: str, n: int, ell: int) -> ParamBinding:
    with open(path) as fh:
        data = json.load(fh)
    xs = [_parse_rational(v) for v in data.get("x", [])]
    rates = data.get("pi", data.get("rho"))
    if rates is None:
        raise UsageError("param file needs 'pi' or 'rho'")
    rates = [_parse_rational(v) for v in rates]
    if len(xs) < n:
        raise UsageError(f"param file has {len(xs)} x values, need {n}")
    if len(rates) < ell:
        raise UsageError(f"param file has {len(rates)} rates, need {ell}")
    alpha = _alpha_closure(data.get("alpha"))
    beta = _alpha_closure(data.get("beta"))
    return ParamBinding(xs[:n], rates, alpha, beta)


def _rational_json(v):
    if isinstance(v, Frac):
        return {"num": str(v.numerator), "den": str(v.denominator)}
    if isinstance(v, (int,)):
        return {"num": str(v), "den": "1"}
    if isinstance(v, float):
        return {"float": repr(v)}
    if isinstance(v, (LaurentPoly, RationalFn)):
        return v.to_json()
    return {"float": repr(float(v))}


def envelope(command: str, seed, payload) -> dict:
    return {
        "version": __version__,
        "command": command,
        "seed": seed,
        "conventions": PINNED_CONVENTIONS.fingerprint(),
        "payload": payload,
    }


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def cmd_kernel(args) -> int:
    case = parse_case(args.case)
    mu = _parse_partition(args.mu)
    binding = load_params(args.params, args.n, args.ell)
    binding.check_admissible(case, args.ell)
    if args.lam is not None:
        lam = _parse_partition(args.lam)
        q = KernelQuery(case, args.n, mu, lam, args.ell, binding, route=args.route)
        p = kernel(q)
        payload = {"lambda": lam.to_json(), "prob": _rational_json(p)}
    else:
        table = chain(case, args.n, mu, binding, args.ell, args.cap)
        payload = {
            "table": [
                {"lambda": lam.to_json(), "prob": _rational_json(p)}
                for lam, p in sorted(table.probs.items())
            ],
            "tail_bound": _rational_json(table.tail),
        }
    emit(envelope("kernel", None, payload))
    return 0


def cmd_multipoint(args) -> int:
    case = parse_case(args.case)
    if case is CaseId.CANONICAL_B:
        raise UsageError("multipoint has no determinant formula for case CanonicalB")
    want = mpmod.direction_of(case)
    if args.dir != want:
        raise UsageError(f"--dir {args.dir} contradicts case {case.value}, which uses --dir {want}")
    thr = _parse_partition(args.thresholds)
    start = _parse_partition(args.start)
    contour = None
    if args.contour is not None:
        if case is not CaseId.C:
            raise UsageError(f"--contour needs case C; case {case.value} has no contour form")
        contour = _parse_contour(args.contour, args.mode or "residue")
    elif args.mode is not None:
        raise UsageError("--mode selects how a --contour is evaluated; give --contour r=<radius>")
    binding = load_params(args.params, args.n, args.ell)
    binding.check_admissible(case, args.ell)
    q = mpmod.MultiPointQuery(case, args.dir, args.n, thr, start, args.ell, binding)
    if case.pushing:
        value, bound = mpmod.mp_pushing(q), Frac(0)
    else:
        value, bound = mpmod.mp_blocking(q, contour, trunc=args.trunc)
    payload = {
        "value": _rational_json(value),
        "value_float": float(value),
        "error_bound": float(bound),
    }
    emit(envelope("multipoint", None, payload))
    return 0


def _parse_contour(text: str, mode: str) -> mpmod.ContourSpec:
    """``r=<radius>[,q=<points>]`` as a ContourSpec."""
    try:
        fields = dict(item.split("=") for item in text.split(","))
        points = int(fields.pop("q", 256))
        radius = Frac(fields.pop("r"))
        if fields or not 1 <= points <= mpmod.MAX_QUADRATURE_POINTS:
            raise ValueError(text)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        raise UsageError(
            f"bad --contour {text!r}: expected r=<radius>[,q=<points>], "
            f"1 <= points <= {mpmod.MAX_QUADRATURE_POINTS}"
        ) from exc
    return mpmod.ContourSpec(radius=radius, points=points, mode=mode)


def cmd_sample(args) -> int:
    case = parse_case(args.case) if not args.continuous else CaseId.C
    if args.alpha and case is not CaseId.CANONICAL_C:
        raise UsageError("--alpha is read only by the discrete --case CanonicalC")
    if case is CaseId.CANONICAL_B:
        raise UsageError("sample cannot set beta, so --case CanonicalB would run case B")
    if args.continuous:
        rng = sim.rng_for(args.seed, 0)
        pos = sim.run_continuous(
            args.ell, args.t, [args.rate] * args.ell, rng, push=args.push
        )
        rows = [[args.t] + pos]
    else:
        config = sim.SimConfig(
            case=case,
            ell=args.ell,
            steps=args.n,
            rates=[args.rate] * args.ell,
            x=[args.x],
            alpha=_alpha_closure(json.loads(args.alpha)) if args.alpha else None,
            seed=args.seed,
        )
        traj = sim.run(config)
        rows = [[t] + list(p.padded(args.ell)) for t, p in traj.snapshots]
    text = "\n".join(",".join(str(v) for v in row) for row in rows)
    if args.out:
        with open(args.out, "w") as fh:
            clock = "time" if args.continuous else "step"
            fh.write(clock + "," + ",".join(f"p{j}" for j in range(1, args.ell + 1)) + "\n")
            fh.write(text + "\n")
        emit(envelope("sample", args.seed, {"out": args.out, "rows": len(rows)}))
    else:
        emit(envelope("sample", args.seed, {"rows": rows}))
    return 0


def cmd_validate(args) -> int:
    from .partitions import partitions_in_box

    binding = ParamBinding.numeric(
        x=[Frac(1, 10), Frac(1, 12)],
        rates=[Frac(1, 2), Frac(1, 3), Frac(1, 7), Frac(1, 5)],
        alpha=lambda k: Frac(1, 4 + k) if k >= 1 else Frac(0),
        beta_pos=lambda k: Frac(1, 6 + k) if k >= 1 else Frac(0),
    )
    val.check_pinned_conventions()
    if args.grid == "smoke":
        mus = partitions_in_box(1, 1)
        lams = partitions_in_box(2, 2)
        ns = (1,)
        cases = (CaseId.A, CaseId.C)
    else:
        mus = partitions_in_box(2, 2)
        lams = partitions_in_box(3, 3)
        ns = (1, 2)
        cases = tuple(CaseId)
    failures = []
    checked = skipped = 0
    for case in cases:
        for n in ns:
            for mu in mus:
                b = ParamBinding(binding.x[:n], binding.rates, binding.alpha, binding.beta_pos)
                rep = val.route_agreement(case, mu, n, b, 3, lams, cap=3)
                checked += len(rep.rows)
                skipped += len(rep.skipped())
                failures.extend(
                    {"case": case.value, "mu": mu.to_json(), "lam": r.lam.to_json()}
                    for r in rep.failures()
                )
    payload = {"grid": args.grid, "checked": checked, "skipped": skipped, "failures": failures}
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
    emit(envelope("validate", args.seed, payload))
    return 0 if not failures else 3


def cmd_op(args) -> int:
    word = []
    for token in args.word.split():
        kind = token[0]
        idx = int(token[1:])
        word.append((kind, idx))
    start = _parse_partition(args.start)
    params = ops.OpParams.symbolic()
    vec = ops.PartitionVector.basis(start)
    for kind, idx in reversed(word):
        if kind == "U":
            vec = ops.apply_U(idx, vec, params)
        elif kind == "u":
            vec = ops.apply_u(idx, vec, args.cap, params)
        else:
            raise UsageError(f"unknown operator kind {kind!r} (use U or u)")
    payload = {
        "terms": [
            {"partition": p.to_json(), "coeff": _rational_json(c)}
            for p, c in sorted(vec.terms.items())
        ]
    }
    emit(envelope("op", None, payload))
    return 0


def cmd_tableaux(args) -> int:
    outer = _parse_partition(args.shape)
    inner = _parse_partition(args.inner) if args.inner else Partition()
    shape = SkewShape(outer, inner)
    family = args.family
    payload: dict = {"family": family, "outer": outer.to_json(), "inner": inner.to_json()}
    if family == "g":
        poly = tab.gen_g(shape, args.n)
    elif family == "j":
        poly = tab.gen_j(shape, args.n)
    elif family == "G":
        poly = tab.gen_G(shape, args.n, False, True)
    elif family == "Gds":
        poly = tab.gen_G_doubleslash(outer, inner, args.n, False, True)
    elif family == "flagged":
        poly = tab.gen_flagged_schur(outer, args.n)
    else:
        raise UsageError(f"unknown family {family!r}")
    if hasattr(poly, "to_json"):
        payload["terms"] = poly.to_json()
    else:
        payload["terms"] = _rational_json(poly)
    if args.count:
        fam = {"g": "rpp", "j": "ssyt", "G": "set", "Gds": "set"}.get(family)
        if fam is None:
            raise UsageError(f"no tableau count for family {family!r}")
        if shape.size() <= 12:
            payload["count"] = tab.count_tableaux(shape, args.n, fam)
    if args.list:
        if shape.size() > 12:
            raise UsageError("tableau listing is limited to shapes with <= 12 cells")
        payload["tableaux"] = _list_tableaux(shape, args.n, family)
    emit(envelope("tableaux", None, payload))
    return 0


def _list_tableaux(shape: SkewShape, n: int, family: str) -> list:
    out = []
    if family == "g":
        for filling in tab.iter_rpp(shape, n):
            out.append([[r, c, v] for (r, c), v in sorted(filling.items())])
    elif family == "j":
        for filling in tab.iter_ssyt(shape, n):
            out.append([[r, c, v] for (r, c), v in sorted(filling.items())])
    elif family in ("G", "Gds"):
        for t in tab.iter_hook_tableaux(shape, n, arm_mode="off", legs_on=True):
            out.append(
                [[r, c, [e.corner, *e.leg]] for (r, c), e in t.cells]
            )
    else:
        raise UsageError(f"no listing for family {family!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ktasep")
    p.add_argument("--version", action="version", version=f"ktasep {__version__} [{PINNED_CONVENTIONS.fingerprint()}]")
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    sub = p.add_subparsers(dest="cmd", required=True)

    k = sub.add_parser("kernel", help="exact transition probabilities")
    k.add_argument("--case", required=True)
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--mu", required=True)
    k.add_argument("--lambda", dest="lam", default=None)
    k.add_argument("--ell", type=int, default=4)
    k.add_argument("--cap", type=int, default=6)
    k.add_argument("--params", required=True)
    k.add_argument("--route", default="closed", choices=["closed", "operator", "tableau"])
    k.set_defaults(func=cmd_kernel)

    m = sub.add_parser("multipoint", help="multi-point distribution determinants")
    m.add_argument("--case", required=True)
    m.add_argument("--dir", required=True, choices=["le", "ge"])
    m.add_argument("--thresholds", required=True)
    m.add_argument("--start", required=True)
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--ell", type=int, required=True)
    m.add_argument("--params", required=True)
    m.add_argument("--contour", default=None, help="r=<radius>[,q=<points>], case C only")
    m.add_argument("--mode", default=None, choices=["residue", "series", "quadrature"],
                   help="how to evaluate --contour (default residue)")
    m.add_argument("--trunc", type=int, default=60)
    m.set_defaults(func=cmd_multipoint)

    s = sub.add_parser("sample", help="seeded Monte Carlo trajectories")
    s.add_argument("--case", default="A")
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--n", type=int, default=0)
    s.add_argument("--t", type=float, default=0.0)
    s.add_argument("--rate", type=float, default=1.0)
    s.add_argument("--x", type=float, default=0.5)
    s.add_argument("--alpha", default=None, help="JSON closure spec")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--continuous", action="store_true")
    s.add_argument("--push", action="store_true")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sample)

    v = sub.add_parser("validate", help="route-agreement and convention checks")
    v.add_argument("--grid", default="smoke", choices=["smoke", "desk"])
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--report", default=None)
    v.set_defaults(func=cmd_validate)

    o = sub.add_parser("op", help="apply operator words to a partition")
    o.add_argument("--word", required=True, help='e.g. "U2 U1 U1"')
    o.add_argument("--start", required=True)
    o.add_argument("--cap", type=int, default=8)
    o.set_defaults(func=cmd_op)

    t = sub.add_parser("tableaux", help="tableau generating functions")
    t.add_argument("--family", required=True, choices=["g", "j", "G", "Gds", "flagged"])
    t.add_argument("--shape", required=True)
    t.add_argument("--inner", default=None)
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--count", action="store_true")
    t.add_argument("--list", action="store_true", help="list the tableaux (shapes of <= 12 cells)")
    t.set_defaults(func=cmd_tableaux)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConstraintError as exc:
        sys.stderr.write(json.dumps({"error": "constraint", "message": str(exc)}) + "\n")
        return 2
    except (ValueError, KeyError) as exc:
        sys.stderr.write(json.dumps({"error": "usage", "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
