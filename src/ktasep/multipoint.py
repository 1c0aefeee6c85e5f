"""Determinantal multi-point distributions and continuous-time kernels.

Pushing cases (A, D) use finite supersymmetric h/e determinant entries and
are exact.  Blocking cases (C, canonical) use difference-indexed theta
sums (series mode, truncated with a geometric tail bound) and an
alternative contour form whose entries are evaluated exactly by residues;
trapezoidal quadrature on the circle is the failure-independent
cross-check.  Case B's entries are the same theta sums with top alphabet
0/(-x): h_a(0/(-x)) = e_a(x) vanishes for a > n, so they terminate and
are exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction as Frac
from typing import Sequence

import mpmath as mp

from .exactalg import det_exact, h_prefix, supersym_e, supersym_h, theta_h_pair
from .kernels import (CaseId, ParamBinding, chain, check_clock_rates, check_inverse_rate,
                      rate_monomial, time_factor)
from .partitions import Partition


def direction_of(case: CaseId) -> str:
    """The threshold direction a case's multi-point formula answers."""
    return "le" if case.pushing else "ge"


@dataclass
class MultiPointQuery:
    case: CaseId
    direction: str  # "le" for pushing (A, D), "ge" for blocking (B, C, canonical)
    n: int
    thresholds: Partition
    start: Partition
    ell: int
    binding: ParamBinding

    def __post_init__(self):
        want = direction_of(self.case)
        if self.direction != want:
            raise ValueError(f"case {self.case} uses direction {want!r}")


MAX_QUADRATURE_POINTS = 2**14


def _trapezoid(mean, points: int, tol):
    """The trapezoidal rule's shared loop: ``mean(m)`` is the rule's value
    on m points.  Double m from ``points`` up to MAX_QUADRATURE_POINTS
    until two successive values agree to ``tol``; return the real part of
    the last value."""
    prev = None
    while points <= MAX_QUADRATURE_POINTS:
        val = mean(points)
        if prev is not None and abs(val - prev) < tol:
            return val.real
        prev = val
        points *= 2
    return prev.real


def _check_quadrature_points(points: int) -> None:
    """The trapezoidal rules start at ``points`` and double it up to the cap."""
    if not 1 <= points <= MAX_QUADRATURE_POINTS:
        raise ValueError(
            f"quadrature needs 1 <= points <= MAX_QUADRATURE_POINTS "
            f"({MAX_QUADRATURE_POINTS}), got {points}"
        )


@dataclass
class ContourSpec:
    radius: Frac
    points: int = 256
    mode: str = "residue"  # residue | series | quadrature


def _join(a: Partition, b: Partition) -> Partition:
    """Componentwise max; thresholds below the start are vacuous for the
    >= direction since positions never decrease."""
    n = max(a.length(), b.length())
    return Partition([max(a.part(i), b.part(i)) for i in range(1, n + 1)])


# ---------------------------------------------------------------------------
# pushing: exact supersymmetric determinants
# ---------------------------------------------------------------------------


def mp_pushing(query: MultiPointQuery):
    """P(G(i,n) <= thresholds_i for all i | start), cases A and D, exact."""
    case, lam, nu, ell, b = (
        query.case,
        query.thresholds,
        query.start,
        query.ell,
        query.binding,
    )
    n = query.n
    xs = [b.x_of(i) for i in range(1, n + 1)]
    if not lam.contains(nu):
        return Frac(0)
    # the letters 1/pi_k, negated in D's e-determinant
    inv = [b.inverse_rate(k) for k in range(1, ell + 1)]
    if case is CaseId.D:
        inv = [-v for v in inv]
    rows = []
    for i in range(1, ell + 1):
        row = []
        for j in range(1, ell + 1):
            m = lam.part(i) - nu.part(j) + j - i
            if case is CaseId.A:
                row.append(supersym_h(m, xs + inv[:i], inv[:j - 1]))
            else:
                row.append(supersym_e(m, xs + inv[:j - 1], inv[:i]))
        rows.append(row)
    factor = rate_monomial(case, nu, lam, b, ell) * time_factor(case, b, range(1, ell + 1), xs)
    return factor * det_exact(rows)


# ---------------------------------------------------------------------------
# blocking: theta-series determinants and contour entries
# ---------------------------------------------------------------------------


def _beta_of(b: ParamBinding, k: int):
    return b.rate(k + 1)


def mp_blocking_series(query: MultiPointQuery, trunc: int = 60):
    """P(G(i,n) >= thresholds_i | start) via the theta determinant.

    Entries are the annulus Laurent expansions of the contour form: the
    first row carries the first particle's geometric factor, the others
    supersymmetric beta prefixes.  Case B's sums terminate (exact);
    geometric cases truncate at ``trunc`` with a geometric tail bound.
    The canonical process inserts the position window of -alpha letters.
    Returns (value, tail_bound)."""
    case, nu, mu, ell, b = (
        query.case,
        _join(query.thresholds, query.start),
        query.start,
        query.ell,
        query.binding,
    )
    n = query.n
    xs = [b.x_of(i) for i in range(1, n + 1)]
    if case not in (CaseId.B, CaseId.C, CaseId.CANONICAL_C):
        raise ValueError(case)
    # case B's top alphabet is 0/(-x): h_a(0/(-x)) = e_a(x) vanishes beyond
    # a = n, so its sums terminate and the cap below keeps every nonzero term
    top = ((), [-x for x in xs]) if case is CaseId.B else (xs, ())
    # every entry reads h_a of the same top pair with a <= n (case B) or
    # a <= trunc: build that prefix once for all ell^2 entries
    top_h = h_prefix(n if case is CaseId.B else trunc, *top)
    rows = []
    for i in range(1, ell + 1):
        row = []
        for j in range(1, ell + 1):
            m = nu.part(i) - mu.part(j) - i + j
            window = []
            if case is CaseId.CANONICAL_C:
                window = [-b.alpha_of(k) for k in range(mu.part(j), nu.part(i))]
            if i == 1:
                bot = (window + [b.rate(1)] + [_beta_of(b, k) for k in range(1, j)], ())
            else:
                bot = (
                    window + [_beta_of(b, k) for k in range(1, j)],
                    [_beta_of(b, k) for k in range(1, i - 1)],
                )
            cap = n - min(m, 0) if case is CaseId.B else trunc
            row.append(theta_h_pair(m, top_h, bot, cap))
        rows.append(row)
    factor = rate_monomial(case, mu, nu, b, ell) * time_factor(case, b, range(1, ell + 1), xs)
    value = factor * det_exact(rows)
    if case is CaseId.B:
        return value, Frac(0)
    # geometric tail bound for the truncated h-sums: the largest ratio is
    # max |pi_j x_i| (alphas only shorten the admissible step products)
    q = max(
        (abs(Frac(b.rate(j)) * Frac(b.x_of(i))) for j in range(1, ell + 1)
         for i in range(1, n + 1)),
        default=Frac(0),
    )
    bound = Frac(0)
    if q > 0:
        fb = float(q) ** (trunc + 1) / (1.0 - float(q))
        bound = fb * (ell * ell * math.factorial(ell)) * 4.0
    return value, bound


def mp_event_sum(query: MultiPointQuery, cap: int = 12):
    """Brute-force reference: sum exact kernels over the event set.
    Returns (value, tail_bound); the bound is the kernel mass outside the
    lambda_1 cap.  It is zero for the <= direction when the cap reaches
    thresholds_1, since the event set then lies inside the cap, and for
    the Bernoulli cases."""
    case, thr, start, ell, b = (
        query.case,
        query.thresholds,
        query.start,
        query.ell,
        query.binding,
    )
    table = chain(case, query.n, start, b, ell, cap)
    total = Frac(0)
    for lam, p in table.probs.items():
        if query.direction == "le":
            ok = all(lam.part(i) <= thr.part(i) for i in range(1, ell + 1))
        else:
            ok = all(lam.part(i) >= thr.part(i) for i in range(1, ell + 1))
        if ok:
            total = total + p
    if query.direction == "le" and cap >= thr.part(1):
        return total, Frac(0)
    return total, table.tail


# -- contour entries (alternative determinant for Case C) -------------------


class SingularParameterError(ValueError):
    pass


def _pole_term(k: int, taylor: Sequence, xs: Sequence, ys: Sequence):
    """[u^k] of F(p + u) * prod(1 - y u: ys) / prod(1 - x u: xs), where
    ``taylor`` holds F's Taylor coefficients at p up to u^k."""
    h = h_prefix(k, xs, ys)
    return sum((taylor[s] * h[k - s] for s in range(k)), taylor[k])


def _residue_sum(num: Sequence, den: Sequence, power: int, taylor):
    """Sum of the residues of  F(w) prod(1 - a/w: num) / prod(1 - b/w: den)
    / w^(power+1)  at w = 0 and at each distinct root of ``den``, poles of
    any order included.  ``taylor(p, k)`` returns F's Taylor coefficients
    at p up to u^k; F must be analytic at those points."""
    # (1 - c/w) = (w - c)/w, so the integrand is F(w) prod_r (w - r)^-order[r];
    # a root in both num and den, and a zero root, cancel out of ``order``
    order = {0: power + 1}
    for a in num:
        order[a] = order.get(a, 0) - 1
        order[0] += 1
    for b in den:
        order[b] = order.get(b, 0) + 1
        order[0] -= 1
    total = 0
    for p, m in order.items():
        if m <= 0:
            continue
        # at w = p + u: (w - p)^m = u^m, and for r != p
        # (w - r)^-e = (p - r)^-e (1 - u/(r - p))^-e; a simple pole reads
        # only F(p), so its alphabets stay empty
        others = [(r, e) for r, e in order.items() if e and r != p]
        xs, ys = [], []
        if m > 1:
            for r, e in others:
                (xs if e > 0 else ys).extend([1 / (r - p)] * abs(e))
        term = _pole_term(m - 1, taylor(p, m - 1), xs, ys)
        for r, e in others:
            term *= (p - r) ** -e
        total += term
    return total


def contour_entry_residue(
    num_roots: Sequence[Frac],
    den_roots: Sequence[Frac],
    xs: Sequence[Frac],
    power: int,
):
    """Exact value of  oint  prod(1 - c/w for num) /
    [prod(1 - c/w for den) * prod(1 - x_m w) * w^power] dw/(2 pi i w)
    over a circle separating {den roots} from {1/x_m}."""
    xs = [Frac(x) for x in xs]

    def taylor(p, k):
        # 1/prod(1 - x (p + u)) = prod 1/(1 - x p) * sum_s h_s({x/(1 - x p)}) u^s
        factors = [1 - x * p for x in xs]
        if 0 in factors:
            raise SingularParameterError("denominator root meets an x pole")
        scale = Frac(1)
        for f in factors:
            scale /= f
        h = h_prefix(k, [x / f for x, f in zip(xs, factors)] if k else ())
        return [scale * c for c in h]

    return Frac(_residue_sum(num_roots, den_roots, power, taylor))


def mp_blocking_contour(query: MultiPointQuery, contour: ContourSpec | None = None):
    """Case C multi-point via the contour determinant (row 1 carries the
    first particle's geometric-sum factor (1 - pi_1/w))."""
    case, nu, mu, ell, b = (
        query.case,
        _join(query.thresholds, query.start),
        query.start,
        query.ell,
        query.binding,
    )
    if case is not CaseId.C:
        raise ValueError("contour form implemented for case C")
    n = query.n
    xs = [b.x_of(i) for i in range(1, n + 1)]
    if contour is not None:
        _validate_radius(contour, b, ell, n)
        if contour.mode == "quadrature":
            _check_quadrature_points(contour.points)
    betas = [_beta_of(b, k) for k in range(1, ell)]
    rows = []
    for i in range(1, ell + 1):
        row = []
        for j in range(1, ell + 1):
            power = nu.part(i) - mu.part(j) - i + j
            if i == 1:
                num: list = []
                den = [b.rate(1)] + betas[: j - 1]
            else:
                num = betas[: i - 2]
                den = betas[: j - 1]
            if contour is not None and contour.mode == "quadrature":
                row.append(
                    _contour_quadrature(num, den, xs, power, contour)
                )
            else:
                row.append(contour_entry_residue(num, den, xs, power))
        rows.append(row)
    factor = rate_monomial(case, mu, nu, b, ell) * time_factor(case, b, range(1, ell + 1), xs)
    return factor * det_exact(rows)


def _validate_radius(contour: ContourSpec, b: ParamBinding, ell: int, n: int):
    r = Frac(contour.radius)
    hi = min(
        (Frac(1) / Frac(b.x_of(i)) for i in range(1, n + 1) if b.x_of(i) != 0),
        default=None,
    )
    lo = max(
        [abs(Frac(b.rate(1)))] + [abs(Frac(_beta_of(b, k))) for k in range(1, ell)],
        default=Frac(0),
    )
    if hi is not None and not (lo < r < hi):
        raise ValueError(
            f"contour radius {r} violates pole separation ({lo}, {hi})"
        )


def _contour_quadrature(num, den, xs, power, contour: ContourSpec):
    """Trapezoidal rule on the circle in complex floats; spectrally
    convergent, so ``_trapezoid`` doubles the point count until two
    successive evaluations agree to 1e-12."""
    r = float(contour.radius)
    num = [float(c) for c in num]
    den = [float(c) for c in den]
    xs = [float(x) for x in xs]

    def f(w: complex) -> complex:
        val = 1.0 + 0j
        for c in num:
            val *= 1.0 - c / w
        for c in den:
            val /= 1.0 - c / w
        for x in xs:
            val /= 1.0 - x * w
        return val / w**power

    def mean(points: int) -> complex:
        acc = 0j
        for s in range(points):
            w = r * cmath.exp(2j * cmath.pi * s / points)
            acc += f(w)
        return acc / points

    return _trapezoid(mean, contour.points, 1e-12)


def mp_blocking(
    query: MultiPointQuery,
    contour: ContourSpec | None = None,
    trunc: int = 60,
):
    """Blocking-direction multi-point value.  Case B: exact.  Case C:
    series mode (with reported truncation bound) or the contour form;
    CanonicalC: the series.  Returns (value, error_bound)."""
    if query.case is CaseId.B:
        return mp_blocking_series(query, trunc)
    if contour is None or contour.mode == "series":
        return mp_blocking_series(query, trunc)
    value = mp_blocking_contour(query, contour)
    return value, Frac(0) if contour.mode == "residue" else 1e-12


def mp_canonical(query: MultiPointQuery, trunc: int = 60):
    """Multi-point for the inhomogeneous blocking process; alpha == 0
    reduces exactly to case C."""
    if query.case is not CaseId.CANONICAL_C:
        raise ValueError("mp_canonical handles CanonicalC")
    return mp_blocking_series(query, trunc)


# ---------------------------------------------------------------------------
# continuous-time kernels
# ---------------------------------------------------------------------------


def continuous_kernel(
    case: CaseId,
    t,
    mu: Partition,
    lam: Partition | Sequence[int],
    ell: int,
    rates: Sequence,
    mode: str = "residue",
    quad_points: int = 256,
    dps: int = 50,
):
    """Continuous-time transition probability via the determinant of
    contour integrals.  Residue mode sums the finite residues at w = 0 and
    the nonzero poles, of any order, with ``_residue_sum``, e^{t w} in
    extended-precision floats; quadrature mode is the cross-check.

    ``lam`` may be a general integer sequence: the boundary conditions
    evaluate the determinant at shifted, non-partition sequences."""
    if case not in (CaseId.A, CaseId.C):
        raise ValueError("continuous limit implemented for cases A and C")
    if mode == "quadrature":
        _check_quadrature_points(quad_points)
    check_clock_rates(ell, rates)
    if case is CaseId.A:
        # the entries read 1/pi_k for k < ell
        for k in range(1, ell):
            check_inverse_rate(k, rates[k - 1])
    lam_seq = list(lam.padded(ell)) if isinstance(lam, Partition) else list(lam) + [0] * (ell - len(lam))
    with mp.workdps(dps):
        tt = mp.mpf(str(t))
        rate = lambda j: mp.mpf(str(rates[j - 1]))

        def taylor(p, k):
            # e^{t(p + u)} = e^{tp} sum_s t^s/s! u^s
            out = [mp.e ** (tt * p)]
            for s in range(1, k + 1):
                out.append(out[-1] * tt / s)
            return out

        rows = []
        for i in range(1, ell + 1):
            row = []
            for j in range(1, ell + 1):
                power = (lam_seq[i - 1] - i) - (mu.part(j) - j)
                if case is CaseId.C:
                    # (1 - beta_k / w) factors, poles at the beta_k inside
                    num = [rate(k + 1) for k in range(1, i)]
                    den = [rate(k + 1) for k in range(1, j)]
                    form = "inv"
                else:
                    # (1 - w / pi_k) factors, only the w = 0 pole inside
                    num = [1 / rate(k) for k in range(1, j)]
                    den = [1 / rate(k) for k in range(1, i)]
                    form = "lin"
                if mode == "quadrature":
                    row.append(
                        _exp_contour_quadrature(num, den, power, tt, quad_points, form)
                    )
                elif case is CaseId.C:
                    row.append(_residue_sum(num, den, power, taylor))
                else:
                    # [w^power] e^{tw} prod(1 - cw: num)/prod(1 - cw: den)
                    row.append(
                        _pole_term(power, taylor(0, power), den, num) if power >= 0 else mp.mpf(0)
                    )
            rows.append(row)
        det = det_exact(rows)
        pref = mp.mpf(1)
        for j in range(1, ell + 1):
            pref *= mp.e ** (-rate(j) * tt)
            pref *= rate(j) ** (lam_seq[j - 1] - mu.part(j))
        return pref * det


def _exp_contour_quadrature(num, den, power, t, points, form: str):
    if form == "inv":
        radius = max([abs(c) for c in den] + [mp.mpf(1)]) * 2
    else:
        nonzero = [abs(c) for c in den if c != 0]
        radius = (mp.mpf(1) / max(nonzero)) / 2 if nonzero else mp.mpf(1)

    def mean(pts: int):
        acc = mp.mpc(0)
        for s in range(pts):
            w = radius * mp.e ** (2j * mp.pi * s / pts)
            val = mp.e ** (t * w)
            for c in num:
                val *= (1 - c / w) if form == "inv" else (1 - c * w)
            for c in den:
                val /= (1 - c / w) if form == "inv" else (1 - c * w)
            acc += val / w**power
        return acc / pts

    return _trapezoid(mean, points, mp.mpf(10) ** (-12))


def master_equation_residual(
    case: CaseId, t, mu: Partition, lam: Partition, ell: int, rates, h=None, dps: int = 50
):
    """Central-difference residual of
    d/dt P = -sum_s pi_s P + sum_s pi_s P(lam - e_s)  (blocking) or the
    pushing analog with the same equation."""
    with mp.workdps(dps):
        hh = mp.mpf(str(h)) if h is not None else mp.mpf("1e-4")
        tt = mp.mpf(str(t))
        P = lambda tau, target: continuous_kernel(case, tau, mu, target, ell, rates, dps=dps)
        dPdt = (P(tt + hh, lam) - P(tt - hh, lam)) / (2 * hh)
        rate = lambda j: mp.mpf(str(rates[j - 1]))
        rhs = mp.mpf(0)
        for s in range(1, ell + 1):
            rhs -= rate(s) * P(tt, lam)
            down = list(lam.padded(ell))
            down[s - 1] -= 1
            if down[s - 1] >= 0 and all(
                down[i] >= down[i + 1] for i in range(ell - 1)
            ):
                rhs += rate(s) * P(tt, Partition(down))
        return abs(dPdt - rhs)


def boundary_condition_gap(
    case: CaseId, t, mu: Partition, lam: Partition, s: int, ell: int, rates, dps: int = 50
):
    """Blocking: pi_s P(lam - e_s) - pi_{s+1} P(lam) when lam_s = lam_{s+1};
    pushing: pi_s P(lam + e_{s+1}) - pi_{s+1} P(lam).  Zero in exact
    arithmetic; returned as a high-precision absolute value."""
    if lam.part(s) != lam.part(s + 1):
        raise ValueError("boundary condition needs lam_s = lam_{s+1}")
    with mp.workdps(dps):
        rate = lambda j: mp.mpf(str(rates[j - 1]))
        shifted = list(lam.padded(ell))
        if case is CaseId.C:
            shifted[s - 1] -= 1  # generally not a partition; evaluated as-is
        else:
            shifted[s] += 1
        lhs = rate(s) * continuous_kernel(case, t, mu, shifted, ell, rates, dps=dps)
        rhs = rate(s + 1) * continuous_kernel(case, t, mu, lam, ell, rates, dps=dps)
        return abs(lhs - rhs)
