"""Determinantal multi-point distributions and continuous-time kernels.

Pushing cases (A, D) use finite supersymmetric h/e determinant entries and
are exact.  Blocking cases (C, canonical) use difference-indexed theta
sums (series mode, truncated with a geometric tail bound) and an
alternative contour form whose entries are evaluated exactly by residues.
Case B's entries are the same theta sums with top alphabet 0/(-x):
h_a(0/(-x)) = e_a(x) vanishes for a > n, so they terminate and are exact.
The continuous-time kernels are contour determinants too, with residues
at extended precision (mpmath).  One trapezoidal rule on the circle
(``_trapezoid``, numpy complex floats) is the failure-independent
cross-check of the discrete and the continuous entries alike.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction as Frac
from functools import cached_property
from typing import Callable, Sequence

import mpmath as mp

from .exactalg import (add_x_letter, add_y_letter, det_exact, h_prefix, scale_letters,
                       theta_h_pair, unscale)
# perfbench/child.py wraps supersym_h and supersym_e under this module's name
from .exactalg import supersym_e, supersym_h  # noqa: F401
from .kernels import (CaseId, ParamBinding, chain, check_clock_rates, check_inverse_rate,
                      check_sizes, rate_monomial, time_factor)
from .partitions import Partition


def direction_of(case: CaseId) -> str:
    """The threshold direction a case's multi-point formula answers."""
    return "le" if case.pushing else "ge"


@dataclass
class MultiPointQuery:
    """P(G(i,n) <= thresholds_i for all i | start) in the pushing cases A
    and D (direction "le"), >= in the blocking ones ("ge"), over particles
    1..ell; another direction raises ValueError.  Every formula reads
    ``top``, the thresholds joined componentwise with the start when
    blocking (positions never decrease, so lower thresholds are vacuous),
    and ``xs``, the binding's x_1..x_n; each is formed at its first read.
    A negative n or ell raises ValueError (``check_sizes``)."""

    case: CaseId
    direction: str
    n: int
    thresholds: Partition
    start: Partition
    ell: int
    binding: ParamBinding

    def __post_init__(self):
        check_sizes(n=self.n, ell=self.ell)
        want = direction_of(self.case)
        if self.direction != want:
            raise ValueError(f"case {self.case.value} uses direction {want!r}")

    @cached_property
    def top(self) -> Partition:
        thr, start = self.thresholds, self.start
        if self.case.pushing:
            return thr
        rows = range(1, max(thr.length(), start.length()) + 1)
        return Partition([max(thr.part(i), start.part(i)) for i in rows])

    @cached_property
    def xs(self) -> list:
        return [self.binding.x_of(i) for i in range(1, self.n + 1)]


MAX_QUADRATURE_POINTS = 2**14
QUADRATURE_TOL = 1e-12  # where two successive rules stop, and mp_value's bound on the last


def _trapezoid(f: Callable, power: int, radius: float, points: int) -> float:
    """The trapezoidal rule for  oint f(w) / w^power  dw/(2 pi i w)  on the
    circle |w| = ``radius`` in complex floats: the mean of f(w) w^-power
    over the nodes w = r e^(i angle), angle = 2 pi s/m, with ``f`` taking
    the whole node array and w^-power taken as r^-power e^(-i power angle).
    Spectrally convergent, so m doubles from ``points``
    (``_check_quadrature_points``) up to MAX_QUADRATURE_POINTS until two
    successive rules agree to QUADRATURE_TOL; the real part of the last is
    returned.  A rule not converged by the cap, or not finite (f
    overflowed), raises ValueError; so does a start outside the range."""
    _check_quadrature_points(points)
    import numpy as np  # only quadrature needs it, not the exact commands

    def mean(m: int) -> complex:
        angle = 2 * np.pi / m * np.arange(m)
        val = f(radius * np.exp(1j * angle)) * (radius ** -power * np.exp(-1j * power * angle))
        return complex(val.mean())

    with np.errstate(over="ignore", invalid="ignore"):
        prev = mean(points)
        while cmath.isfinite(prev) and 2 * points <= MAX_QUADRATURE_POINTS:
            points *= 2
            val = mean(points)
            gap = abs(val - prev)
            if gap < QUADRATURE_TOL:
                return val.real
            prev = val
    head = f"trapezoidal rule not converged to {mp.nstr(mp.mpf(QUADRATURE_TOL), 2)}: the rule"
    if not cmath.isfinite(prev):
        raise ValueError(f"{head} on {points} points is not finite")
    raise ValueError(
        f"{head}s on {points // 2} and {points} points differ by {mp.nstr(mp.mpf(gap), 4)} "
        f"at MAX_QUADRATURE_POINTS ({MAX_QUADRATURE_POINTS})"
    )


def _factors(cs: Sequence, w, linear: bool = False):
    """prod(1 - c/w) over the roots ``cs``, taken as floats, on the node
    array w, or prod(1 - c w) when ``linear``; 1 for no roots."""
    return math.prod((1.0 - float(c) * w) if linear else (1.0 - float(c) / w) for c in cs)


def _check_quadrature_points(points: int) -> None:
    """The trapezoidal rule starts at ``points`` and doubles it up to the
    cap, so a start must leave room for a second rule to agree with."""
    if not 1 <= points <= MAX_QUADRATURE_POINTS // 2:
        raise ValueError(
            f"quadrature needs 1 <= points <= MAX_QUADRATURE_POINTS / 2 "
            f"({MAX_QUADRATURE_POINTS // 2}): the rules double up to "
            f"{MAX_QUADRATURE_POINTS} points, got {points}"
        )


@dataclass
class ContourSpec:
    """How ``mp_blocking_contour`` evaluates case C's contour determinant on
    the circle |w| = ``radius``: exactly by residues (mode "residue"), or by
    the trapezoidal rule started at ``points`` nodes (mode "quadrature").
    A mode outside these two, or points outside [1, MAX_QUADRATURE_POINTS /
    2] (``_check_quadrature_points``), raises ValueError when the spec is
    built; the radius is checked against the query's poles."""

    radius: Frac
    points: int = 256
    mode: str = "residue"

    def __post_init__(self):
        if self.mode not in ("residue", "quadrature"):
            raise ValueError(f"contour mode must be residue or quadrature, got {self.mode!r}")
        _check_quadrature_points(self.points)


# ---------------------------------------------------------------------------
# pushing: exact supersymmetric determinants
# ---------------------------------------------------------------------------


def _value(query: MultiPointQuery, rows: list[list]):
    """The overall factor of every multi-point determinant, rate monomial
    from the start to ``top`` times time factor, times det(rows)."""
    case, b, ell = query.case, query.binding, query.ell
    factor = (rate_monomial(case, query.start, query.top, b, ell)
              * time_factor(case, b, range(1, ell + 1), query.xs))
    return factor * det_exact(rows)


def mp_pushing(query: MultiPointQuery):
    """P(G(i,n) <= thresholds_i for all i | start), cases A and D, exact.
    The start is compared with the thresholds row by row, so a start with
    a particle past ell raises ValueError; threshold rows past ell bound no
    particle."""
    start, ell = query.start, query.ell
    if start.length() > ell:
        raise ValueError(f"start row {ell + 1} = {start.part(ell + 1)} lies past ell = {ell}: "
                         f"the start places ell particles")
    if not query.thresholds.contains(start):
        return Frac(0)
    return _value(query, pushing_rows(query))


def pushing_rows(query: MultiPointQuery) -> list[list]:
    """The entries of the pushing determinant, m = thresholds_i - start_j + j - i:
    case A's supersym_h(m, xs + inv[:i], inv[:j-1]) and case D's
    supersym_e(m, xs + (-inv)[:j-1], (-inv)[:i]), with inv the letters 1/pi_k.

    By omega, D's entry is h_m(inv[:i] / (-xs + inv[:j-1])), so both cases
    read h_m(X_i / Y_j) with X_i = X_0 + inv[:i] and Y_j = Y_0 + inv[:j-1]:
    X_0 = xs and Y_0 empty for A, X_0 empty and Y_0 = -xs for D.  X_i grows
    by one letter per row and Y_j by one per column, so one prefix serves
    every row and each row applies its y letters to a copy of it, in the
    order the per-entry prefixes would.  Numeric letters run over one
    common denominator (``scale_letters``).  With ell = 0 there are no
    rows: the determinant is empty."""
    lam, nu, ell, b = query.thresholds, query.start, query.ell, query.binding
    (scale,), (xs, inv) = scale_letters([query.xs, [b.inverse_rate(k) for k in range(1, ell + 1)]])
    x0, y0 = (xs, []) if query.case is CaseId.A else ([], [-x for x in xs])
    ms = [[lam.part(i) - nu.part(j) + j - i for j in range(1, ell + 1)]
          for i in range(1, ell + 1)]
    hx = h_prefix(max(0, max(map(max, ms), default=0)), x0)
    rows = []
    for i, row_ms in enumerate(ms):
        add_x_letter(hx, inv[i])
        h = hx[:]
        for y in y0:
            add_y_letter(h, y)
        row = []
        for j, m in enumerate(row_ms):
            if j:
                add_y_letter(h, inv[j - 1])
            row.append(unscale(h[m], scale**m, m) if m >= 0 else 0)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# blocking: theta-series determinants and contour entries
# ---------------------------------------------------------------------------


MAX_TRUNC = 1000  # the series' index cap; the repository's queries use 70 at most


def mp_blocking_series(query: MultiPointQuery, trunc: int = 60):
    """P(G(i,n) >= thresholds_i | start) via the theta determinant.

    Entries are the annulus Laurent expansions of the contour form: the
    first row carries the first particle's geometric factor, the others
    supersymmetric beta prefixes.  Case B's sums terminate (exact);
    geometric cases truncate at ``trunc`` with a geometric tail bound.
    The canonical process inserts the position window of -alpha letters.
    Returns (value, tail_bound).  Case CanonicalB has no determinant
    formula: it raises ValueError, as do the pushing cases."""
    case, ell, b = query.case, query.ell, query.binding
    if case not in (CaseId.B, CaseId.C, CaseId.CANONICAL_C):
        raise ValueError(f"no theta-series determinant for case {case.value}")
    if not 0 <= trunc <= MAX_TRUNC:
        raise ValueError(f"trunc must lie in [0, MAX_TRUNC] = [0, {MAX_TRUNC}], got {trunc}")
    value = _value(query, theta_rows(query, trunc))
    if case is CaseId.B:
        return value, Frac(0)
    # geometric tail bound for the truncated h-sums: the largest ratio is
    # max |pi_j x_i| (alphas only shorten the admissible step products)
    q = max(
        (abs(Frac(b.rate(j)) * Frac(x)) for j in range(1, ell + 1) for x in query.xs),
        default=Frac(0),
    )
    bound = Frac(0)
    if q > 0:
        fb = float(q) ** (trunc + 1) / (1.0 - float(q))
        bound = fb * (ell * ell * math.factorial(ell)) * 4.0
        if bound < sys.float_info.min:
            # a subnormal or underflowed float: the exact bound, rounded up
            exact = q ** (trunc + 1) / (1 - q) * (ell * ell * math.factorial(ell) * 4)
            bound = float(exact)
            if bound < exact:
                bound = math.nextafter(bound, math.inf)
    return value, bound


def theta_rows(query: MultiPointQuery, trunc: int) -> list[list]:
    """The entries of the theta determinant, m = nu_i - mu_j - i + j with nu
    the thresholds joined with the start mu: ``theta_h_pair`` of the top
    pair xs/0 (0/(-xs) for case B) and the bottom pair
    W_ij + pi_1 + beta_1..beta_{j-1} / 0 in row 1, and
    W_ij + beta_1..beta_{j-1} / beta_1..beta_{i-2} below it, where beta_k =
    pi_{k+1} and the CanonicalC window W_ij holds -alpha_k for
    mu_j <= k < nu_i (empty in cases B and C).

    Along row i the bottom x alphabet only grows: one beta per column, and
    the window letters that enter as mu_j falls.  So each row keeps one
    bottom prefix, started from prod_y (1 - y t), and adds those letters
    column by column.  Every letter is taken exactly, and the top pair's
    letters (the xs) and the bottom pair's (the rates and the window) are
    scaled over one common denominator each, Lt and Lb (``scale_letters``),
    so the sums run in integers.  With ell = 0 there are no rows: the
    determinant is empty."""
    case, nu, mu, n, ell, b = query.case, query.top, query.start, query.n, query.ell, query.binding
    if ell == 0:
        return []
    # the windows [mu_j, nu_i) all lie in [mu_ell, nu_1)
    low = mu.part(ell)
    alphas = range(low, nu.part(1)) if case is CaseId.CANONICAL_C else ()
    (top_scale, bottom_scale), (xs, rates, window) = scale_letters(
        [query.xs],
        [[b.rate(j) for j in range(1, ell + 1)], [-b.alpha_of(k) for k in alphas]],
    )
    # case B's top alphabet is 0/(-x): h_a(0/(-x)) = e_a(x) vanishes beyond
    # a = n, so its sums terminate and the cap below keeps every nonzero term
    top = ((), [-x for x in xs]) if case is CaseId.B else (xs, ())
    # every entry reads h_a of the same top pair with a <= n (case B) or
    # a <= trunc: build that prefix once for all ell^2 entries
    top_h = h_prefix(n if case is CaseId.B else trunc, *top)
    rows = []
    for i in range(1, ell + 1):
        ms = [nu.part(i) - mu.part(j) - i + j for j in range(1, ell + 1)]
        caps = [n - min(m, 0) for m in ms] if case is CaseId.B else [trunc] * ell
        # the longest bottom prefix the row reads
        h = [1] + [0] * max((min(c, c - m) for m, c in zip(ms, caps) if abs(m) <= c), default=0)
        for y in rates[1:i - 1]:
            add_y_letter(h, y)
        if i == 1:
            add_x_letter(h, rates[0])
        seen = nu.part(i) if alphas else 0  # the window letters k >= seen are in
        row = []
        for j, (m, cap) in enumerate(zip(ms, caps), start=1):
            if j > 1:
                add_x_letter(h, rates[j - 1])
            for k in range(mu.part(j), seen):
                add_x_letter(h, window[k - low])
            seen = min(seen, mu.part(j))
            row.append(theta_h_pair(m, top_h, h, cap, top_scale, bottom_scale))
        rows.append(row)
    return rows


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


def _pole_term(k: int, taylor: Sequence, xs: Sequence, ys: Sequence, cq=1, gk=1):
    """[u^k] of F(p + u) * prod(1 - y u: ys) / prod(1 - x u: xs), where
    ``taylor`` holds F's Taylor coefficients at p up to u^k.  Over common
    denominators (``PoleTable``) ``taylor[s]`` holds C^s times the u^s
    coefficient and the letters are G/Q times the true ones; with ``cq`` =
    C Q and ``gk`` = G the value returned is (C G)^k times the
    coefficient: sum_s taylor[s] (C Q)^(k-s) G^s h_(k-s)."""
    h = h_prefix(k, xs, ys)
    return sum((taylor[s] * h[k - s] * cq ** (k - s) * gk**s for s in range(k)),
               taylor[k] * gk**k)


class PoleTable:
    """The poles of one determinant's contour entries, whose roots all come
    from one set: the distinct roots, 0 first, told apart by equality (equal
    rates merge into poles of higher order).

    A discrete table, which names the x letters ``xs`` it was built for
    (``contour_poles``), is exact: its roots (ints, Fractions, floats taken
    exactly) are held as ints R_k over Q, the lcm of their denominators
    (``scale_letters``), so each gap p_k - p_l is the int g = R_k - R_l over
    Q.  A continuous table (no ``xs``) holds its mpmath roots as they are,
    with Q = 1.  Per root k the table keeps, formed once: the gaps g from
    k; G_k, their lcm (1 for mpmath roots), and the letters -G_k/g (ints,
    or -1/g), which only poles of order 2 and more read; and
    ``taylor(p, m)``, F's Taylor series at p up to u^m, as (top, bottom,
    C_k, [T_0..T_m]) with F(p + u) = top/bottom * sum_s T_s / C_k^s u^s,
    taken again to a longer prefix only when an entry needs a higher order
    (T_0..T_m do not depend on m).  ``add`` makes an entry's one value from
    its residues' numerators and denominators.  The roots are the ones the
    table was built with: its entries may read no other."""

    def __init__(self, roots: Sequence, taylor: Callable, xs: Sequence | None = None):
        self.roots, self.taylor, self.xs = [0], taylor, xs
        self.exact = xs is not None
        self._held = list(roots)  # alive while the table is, so their ids stay theirs
        for c in self._held:
            if c not in self.roots:  # ``in`` tells roots apart by identity or equality
                self.roots.append(c)
        self._ids = {id(c): self.roots.index(c) for c in self._held}
        if self.exact:
            (self.q,), (self._scaled,) = scale_letters([self.roots])
        else:
            self.q, self._scaled = 1, self.roots
        self._coeffs: dict = {}
        self._gaps: dict = {}
        self._letters: dict = {}

    def index(self, c) -> int:
        """The index of the root equal to c; a root the table was not built
        with raises ValueError."""
        k = self._ids.get(id(c))
        return self.roots.index(c) if k is None else k

    def coeffs(self, k: int, m: int) -> tuple:
        """``taylor`` at root k, up to u^m at least."""
        c = self._coeffs.get(k)
        if c is None or len(c[3]) <= m:
            c = self._coeffs[k] = self.taylor(self.roots[k], m)
        return c

    def gaps(self, k: int) -> list:
        """The gaps R_k - R_l from root k, indexed by l."""
        got = self._gaps.get(k)
        if got is None:
            got = self._gaps[k] = [self._scaled[k] - r for r in self._scaled]
        return got

    def letters(self, k: int) -> tuple:
        """(G_k, the letters -G_k/(R_k - R_l) indexed by l), read only by
        poles of order 2 and more; the letter at l = k is unused."""
        got = self._letters.get(k)
        if got is None:
            gaps = self.gaps(k)
            if self.exact:
                gk = math.lcm(*(g for g in gaps if g))
                got = gk, [-gk // g if g else 0 for g in gaps]
            else:
                got = 1, [-1 / g if g else 0 for g in gaps]
            self._letters[k] = got
        return got

    def add(self, terms):
        """The sum of the fractions top/bottom of ``terms``: for an exact
        table their ints are added over a common denominator and make one
        Fraction, at the end."""
        if not self.exact:
            return sum((top / bottom for top, bottom in terms), 0)
        num, den = 0, 1
        for top, bottom in terms:
            num, den = num * bottom + top * den, den * bottom
        return Frac(num, den)


def _residue_sum(num: Sequence, den: Sequence, power: int, poles: PoleTable):
    """Sum of the residues of  F(w) prod(1 - a/w: num) / prod(1 - b/w: den)
    / w^(power+1)  at w = 0 and at each distinct root of ``den``, poles of
    any order included.  ``poles`` holds the roots over one common
    denominator Q, their gaps and letters, and F's Taylor series; F must be
    analytic at the roots.

    Each residue is a numerator and a denominator in the table's numbers
    (ints for an exact table), and the table adds them (``PoleTable.add``):
    an exact table divides once, at the end."""
    # (1 - c/w) = (w - c)/w, so the integrand is F(w) prod_r (w - r)^-order[r];
    # a root in both num and den, and a zero root, cancel out of ``order``.
    # ``at`` lists the table's roots in the order they first appear here
    at, order = [0], [power + 1]
    for group, e in ((num, -1), (den, 1)):
        for c in group:
            order[0] -= e
            k = poles.index(c)
            if k in at:
                order[at.index(k)] += e
            else:
                at.append(k)
                order.append(e)
    q = poles.q
    terms = []  # each residue as (numerator, denominator)
    for a, (k, m) in enumerate(zip(at, order)):
        if m <= 0:
            continue
        # at w = p + u: (w - p)^m = u^m, and for r != p, with d = p - r =
        # g/Q, (w - r)^-e = d^-e (1 + u/d)^-e: d^-e = Q^e / g^e, and the
        # letters -1/d = (Q/G) (-G/g).  The orders sum to power + 1, so the
        # other roots' e sum to power + 1 - m.  A simple pole reads only
        # F(p), so its alphabets stay empty
        top, bottom, ck, taylor = poles.coeffs(k, m - 1)
        gaps = poles.gaps(k)
        if m > 1:
            gk, letters = poles.letters(k)
        xs, ys = [], []
        for b, (l, e) in enumerate(zip(at, order)):
            if not e or b == a:
                continue
            g = gaps[l]
            if e > 0:
                bottom *= g if e == 1 else g**e
            else:
                top *= g if e == -1 else g**-e
            if m > 1:
                (xs if e > 0 else ys).extend([letters[l]] * abs(e))
        shift = power + 1 - m
        if shift > 0:
            top *= q**shift
        elif shift < 0:
            bottom *= q**-shift
        if m > 1:
            top *= _pole_term(m - 1, taylor, xs, ys, ck * q, gk)
            bottom *= (ck * gk) ** (m - 1)
        terms.append((top, bottom))
    return poles.add(terms)


def contour_poles(roots: Sequence, xs: Sequence) -> PoleTable:
    """The pole table of discrete contour entries whose num and den roots
    are drawn from ``roots``, with F(w) = 1/prod(1 - x w: xs).  At a root p
    = n/d and x = a/b, 1 - x p = (b d - a n)/(b d): F's scale is
    prod(b d)/prod(b d - a n), and its Taylor series is
    sum_s h_s({x/(1 - x p)}) u^s, whose letters a d/(b d - a n) are put
    over one denominator C, so the table's T_s = C^s h_s are ints."""
    ratios = [Frac(x).as_integer_ratio() for x in xs]

    def taylor(p, k):
        n, d = p.as_integer_ratio()
        top = bottom = 1
        pairs = []  # each x/(1 - x p) in lowest terms
        for a, b in ratios:
            f = b * d - a * n
            if not f:
                raise SingularParameterError("denominator root meets an x pole")
            top *= b * d
            bottom *= f
            common = math.gcd(a * d, f)
            pairs.append((a * d // common, f // common))
        common = math.gcd(top, bottom)
        c = math.lcm(*(f for _, f in pairs))
        return (top // common, bottom // common, c,
                h_prefix(k, [e * (c // f) for e, f in pairs]))

    return PoleTable(roots, taylor, xs)


def contour_entry_residue(
    num_roots: Sequence[Frac],
    den_roots: Sequence[Frac],
    xs: Sequence[Frac],
    power: int,
    poles: PoleTable | None = None,
):
    """Exact value of  oint  prod(1 - c/w for num) /
    [prod(1 - c/w for den) * prod(1 - x_m w) * w^power] dw/(2 pi i w)
    over a circle separating {den roots} from {1/x_m}, as a Fraction.  The
    entries of one determinant share ``poles`` (``contour_poles`` of their
    roots and these xs); without it the entry builds its own."""
    if poles is None:
        poles = contour_poles([*num_roots, *den_roots], xs)
    elif poles.xs is not xs and list(poles.xs) != list(xs):
        raise ValueError("the pole table was built for other x letters")
    return _residue_sum(num_roots, den_roots, power, poles)


def mp_blocking_contour(query: MultiPointQuery, contour: ContourSpec | None = None):
    """Case C multi-point via the contour determinant (row 1 carries the
    first particle's geometric-sum factor (1 - pi_1/w)), by residues unless
    ``contour`` asks for quadrature.  The residue entries share one
    ``PoleTable``.  Every other case raises ValueError: it has no contour
    form."""
    if query.case is not CaseId.C:
        raise ValueError(f"case {query.case.value} has no contour form; only case C has one")
    nu, mu, ell, b, xs = query.top, query.start, query.ell, query.binding, query.xs
    # row 1's roots start at pi_1, the others are beta_k = pi_{k+1}; with
    # ell = 0 there are none, and no rate is read
    roots = [b.rate(k) for k in range(1, ell + 1)]
    first, betas = roots[:1], roots[1:]
    quadrature = contour is not None and contour.mode == "quadrature"
    if contour is not None:
        # the circle |w| = r must separate the roots from the x poles 1/x
        r, hi = Frac(contour.radius), min((1 / Frac(x) for x in xs if x != 0), default=None)
        lo = max((abs(Frac(c)) for c in roots), default=Frac(0))
        if hi is not None and not lo < r < hi:
            raise ValueError(f"contour radius {r} violates pole separation ({lo}, {hi})")
    poles = None if quadrature else contour_poles(roots, xs)
    rows = []
    for i in range(1, ell + 1):
        row = []
        for j in range(1, ell + 1):
            power = nu.part(i) - mu.part(j) - i + j
            if i == 1:
                num: list = []
                den = first + betas[: j - 1]
            else:
                num = betas[: i - 2]
                den = betas[: j - 1]
            if quadrature:
                row.append(_trapezoid(
                    lambda w: _factors(num, w) / _factors(den, w) / _factors(xs, w, linear=True),
                    power, float(contour.radius), contour.points))
            else:
                row.append(contour_entry_residue(num, den, xs, power, poles))
        rows.append(row)
    return _value(query, rows)


def mp_value(query: MultiPointQuery, contour: ContourSpec | None = None, trunc: int = 60):
    """The multi-point value of any query, as (value, error_bound).  With a
    ``contour`` the value is ``mp_blocking_contour``'s, which only case C
    has: exact by residues (bound 0) or by quadrature (bound
    QUADRATURE_TOL).  Otherwise a pushing case's value is ``mp_pushing``'s,
    exact, and a blocking case's is ``mp_blocking_series``'s at ``trunc``,
    which refuses CanonicalB.  A query no formula serves raises ValueError."""
    if contour is not None:
        bound = Frac(0) if contour.mode == "residue" else QUADRATURE_TOL
        return mp_blocking_contour(query, contour), bound
    if query.case.pushing:
        return mp_pushing(query), Frac(0)
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
    extended-precision floats; the entries share one ``PoleTable`` with
    mpmath roots, whose Q, C and G are 1, whose letters are -1/g and whose
    Taylor series at p is e^{tp} (its scale) times t^s/s!.  Case A reads
    only the pole at 0, whose series is the table's at root 0.
    Quadrature mode is the cross-check: ``_trapezoid`` on e^{tw} times the
    entry's factors, in complex floats rather than at ``dps``, so its
    absolute error is about 1e-16 max|e^{tw}| on the circle |w| = 2
    max(|beta|, 1) (case C) or min|pi|/2 (case A).  A t past that domain
    raises ValueError: the rule does not converge, or overflows.

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
            out = [mp.mpf(1)]
            for s in range(1, k + 1):
                out.append(out[-1] * tt / s)
            return mp.e ** (tt * p), 1, 1, out

        # case C's roots beta_k = pi_{k+1}; case A reads only the pole at 0
        betas = [rate(k + 1) for k in range(1, ell)] if case is CaseId.C else []
        poles = PoleTable(betas, taylor)
        if mode == "quadrature":
            import numpy as np  # only quadrature needs it, not the exact commands
            tf, linear = float(tt), case is CaseId.A
        rows = []
        for i in range(1, ell + 1):
            row = []
            for j in range(1, ell + 1):
                power = (lam_seq[i - 1] - i) - (mu.part(j) - j)
                if case is CaseId.C:
                    # (1 - beta_k / w) factors, poles at the beta_k inside
                    num = betas[: i - 1]
                    den = betas[: j - 1]
                else:
                    # (1 - w / pi_k) factors, only the w = 0 pole inside
                    num = [1 / rate(k) for k in range(1, j)]
                    den = [1 / rate(k) for k in range(1, i)]
                if mode == "quadrature":
                    if linear:  # a circle inside every pole 1/c
                        radius = 1 / max(map(abs, den)) / 2 if den else 1
                    else:  # a circle around 0 and every beta_k
                        radius = 2 * max([abs(c) for c in den] + [1])
                    row.append(_trapezoid(
                        lambda w: np.exp(tf * w) * _factors(num, w, linear) / _factors(den, w, linear),
                        power, float(radius), quad_points))
                elif case is CaseId.C:
                    row.append(_residue_sum(num, den, power, poles))
                else:
                    # [w^power] e^{tw} prod(1 - cw: num)/prod(1 - cw: den)
                    row.append(
                        _pole_term(power, poles.coeffs(0, power)[3], den, num)
                        if power >= 0 else mp.mpf(0)
                    )
            rows.append(row)
        det = det_exact(rows)
        pref = mp.mpf(1)
        for j in range(1, ell + 1):
            pref *= mp.e ** (-rate(j) * tt)
            pref *= rate(j) ** (lam_seq[j - 1] - mu.part(j))
        return pref * det


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
