import hashlib
import math
import sys
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ktasep.multipoint as mpmod
from ktasep.exactalg import P, X, h_prefix, rf, schur_poly, supersym_e, supersym_h
from ktasep.kernels import CaseId, ParamBinding, single_step_closed_form
from ktasep.multipoint import (
    MAX_QUADRATURE_POINTS,
    MAX_TRUNC,
    ContourSpec,
    MultiPointQuery,
    PoleTable,
    SingularParameterError,
    boundary_condition_gap,
    continuous_kernel,
    contour_entry_residue,
    contour_poles,
    direction_of,
    master_equation_residual,
    mp_blocking_contour,
    mp_blocking_series,
    mp_event_sum,
    mp_pushing,
    mp_value,
    pushing_rows,
    theta_rows,
)
from ktasep.partitions import Partition, partitions_in_box

P_ = Partition
RATES = [F(1, 2), F(1, 3), F(1, 7)]


def small_binding(n):
    return ParamBinding.numeric(x=[F(1, 10), F(1, 12)][:n], rates=RATES)


def test_direction_validation():
    b = small_binding(1)
    with pytest.raises(ValueError):
        MultiPointQuery(CaseId.A, "ge", 1, P_([1]), P_([]), 2, b)
    with pytest.raises(ValueError):
        MultiPointQuery(CaseId.C, "le", 1, P_([1]), P_([]), 2, b)


@pytest.mark.parametrize("n,ell,name", [(-1, 2, "n"), (1, -1, "ell")])
def test_negative_sizes_are_value_errors(n, ell, name):
    from ktasep.kernels import ConstraintError

    with pytest.raises(ValueError, match=f"{name} must be >= 0, got -1") as err:
        MultiPointQuery(CaseId.A, "le", n, P_([1]), P_([]), ell, small_binding(1))
    assert not isinstance(err.value, ConstraintError)


@pytest.mark.parametrize("case,contour", [
    (CaseId.A, None), (CaseId.D, None), (CaseId.B, None), (CaseId.C, None),
    (CaseId.CANONICAL_C, None), (CaseId.C, ContourSpec(radius=F(1, 4))),
])
def test_no_particles_is_the_empty_determinant(case, contour):
    # ell = 0 asks nothing: every formula's rows are empty, and its value
    # is exactly 1 with bound 0.  No rate is read, so the contour's radius
    # may lie below pi_1 = 1/2
    b = ParamBinding.numeric(x=[F(1, 10), F(1, 12)], rates=RATES, alpha=[F(0), F(1, 5)])
    start = P_([]) if case.pushing else P_([1])
    q = MultiPointQuery(case, direction_of(case), 2, P_([2, 1]), start, 0, b)
    if contour is None:
        assert (pushing_rows(q) if case.pushing else theta_rows(q, 60)) == []
    value, bound = mp_value(q, contour)
    assert value == 1 and type(value) is F and bound == 0


def test_trivial_certain_events():
    b = small_binding(1)
    # empty thresholds with empty start: nothing asked
    q = MultiPointQuery(CaseId.A, "le", 1, P_([3, 3]), P_([3, 3]), 2,
                        ParamBinding.numeric(x=[F(1, 10)], rates=RATES))
    # all particles start at the thresholds and may not exceed them: this
    # is P(no movement), not 1; the certain event is thresholds >= anything
    qc = MultiPointQuery(CaseId.C, "ge", 1, P_([2, 1]), P_([2, 1]), 2, b)
    v, bound = mp_value(qc)
    assert abs(float(v) - 1.0) <= float(bound)
    qb = MultiPointQuery(CaseId.B, "ge", 1, P_([2, 1]), P_([2, 1]), 2, b)
    v, bound = mp_value(qb)
    assert v == 1 and bound == 0


def test_pushing_case_a_schur_identity():
    # the worked determinant expansion for lam=(2,1), nu=empty, ell=2
    bsym = ParamBinding(x=[X(1), X(2)], rates=[P(1), P(2)])
    q = MultiPointQuery(CaseId.A, "le", 2, P_([2, 1]), P_([]), 2, bsym)
    val = rf(mp_pushing(q))
    pref = rf(1)
    for i in (1, 2):
        for j in (1, 2):
            pref = pref * rf(1 - P(i) * X(j))
    core = val / pref
    expect = (
        (P(1) ** 2 * P(2)) * schur_poly((2, 1), 2)
        + (P(1) * P(2) + P(1) ** 2) * schur_poly((2,), 2)
        + (P(1) * P(2)) * schur_poly((1, 1), 2)
        + (P(1) + P(2)) * schur_poly((1,), 2)
        + 1
    )
    assert core == rf(expect)


def test_pushing_case_d_schur_identity():
    bsym = ParamBinding(x=[X(1), X(2), X(3)], rates=[P(1), P(2), P(3)])
    q = MultiPointQuery(CaseId.D, "le", 3, P_([2, 1, 1]), P_([1]), 3, bsym)
    val = rf(mp_pushing(q))
    pref = rf(1)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            pref = pref / rf(1 + P(i) * X(j))
    core = val / pref
    r1, r2, r3 = P(1), P(2), P(3)
    expect = (
        (r1 * r2 * r3) * (schur_poly((3,), 3) + schur_poly((2, 1), 3))
        + (r1 * r2 + r1 * r3 + r2 * r3) * schur_poly((2,), 3)
        + (r1 * r2 + r1 * r3) * schur_poly((1, 1), 3)
        + (r1 + r2 + r3) * schur_poly((1,), 3)
        + 1
    )
    assert core == rf(expect)


def test_pushing_event_sums_exact():
    for case in (CaseId.A, CaseId.D):
        for n in (1, 2):
            b = small_binding(n)
            for start in [P_([]), P_([1])]:
                for thr in [P_([1]), P_([2, 1]), P_([2, 2, 1])]:
                    if not thr.contains(start):
                        continue
                    q = MultiPointQuery(case, "le", n, thr, start, 3, b)
                    ev, tail = mp_event_sum(q, cap=10)
                    assert tail == 0 or case is CaseId.A
                    v = mp_pushing(q)
                    assert v == ev, (case, n, start, thr)


# pairwise-distinct rates for up to ten particles
PRIME_RATES = [F(1, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)]


def test_pushing_event_sums_at_large_ell():
    # ell = 10 is 10! = 3.6 M Leibniz products; the elimination is cubic
    for ell in (8, 10):
        b = ParamBinding.numeric(x=[F(1, 10), F(1, 12)], rates=PRIME_RATES[:ell])
        thr = P_([2, 2] + [1] * (ell - 3))
        for case in (CaseId.A, CaseId.D):
            q = MultiPointQuery(case, "le", 2, thr, P_([1, 1]), ell, b)
            ev, tail = mp_event_sum(q, cap=thr.part(1))
            assert tail == 0 and 0 < ev < 1
            assert mp_pushing(q) == ev, (ell, case)


def test_event_sum_le_bound():
    # the <= event set lies inside a cap at thresholds_1 or above, so the
    # sum is exact even though case A's chain drops mass past the cap
    b = ParamBinding.numeric(x=[F(1, 10)], rates=PRIME_RATES[:8])
    q = MultiPointQuery(CaseId.A, "le", 1, P_([2, 2, 1]), P_([1]), 8, b)
    ev, bound = mp_event_sum(q, cap=2)
    assert bound == 0 and ev == mp_pushing(q)
    # a cap below thresholds_1 cuts the event set: the chain's tail bounds
    # what is missing
    low, low_bound = mp_event_sum(q, cap=1)
    assert low_bound > 0 and low <= ev <= low + low_bound


def test_blocking_event_sums():
    # repeated rates give the contour entries poles of order two and three
    for rates in (RATES, [F(1, 2)] * 3, [F(1, 2), F(1, 3), F(1, 3)]):
        for case in (CaseId.C, CaseId.B):
            for n in (1, 2):
                b = ParamBinding.numeric(x=[F(1, 10), F(1, 12)][:n], rates=rates)
                for start in [P_([]), P_([1, 1])]:
                    for thr in [P_([1]), P_([2, 1]), P_([1, 1, 1])]:
                        q = MultiPointQuery(case, "ge", n, thr, start, 3, b)
                        ev, tail = mp_event_sum(q, cap=13)
                        v, bound = mp_value(q, trunc=70)
                        if case is CaseId.B:
                            assert v == ev
                        else:
                            assert abs(float(v - ev)) <= float(tail) + float(bound) + 1e-25
                            assert ev <= mp_blocking_contour(q) <= ev + tail, (rates, n, start, thr)


def test_thresholds_longer_than_ell():
    # rows beyond ell hold no particle: the event and the overall factor
    # read rows 1..ell only, in every case
    alpha = lambda k: F(1, 4 + k) if k >= 1 else F(0)
    for n in (1, 2):
        b = ParamBinding.numeric(x=[F(1, 10), F(1, 12)][:n], rates=RATES, alpha=alpha)
        for start in (P_([]), P_([1])):
            for thr, ell in ((P_([2, 1]), 1), (P_([2, 2, 1]), 2)):
                q = lambda case, d: MultiPointQuery(case, d, n, thr, start, ell, b)
                for case in (CaseId.A, CaseId.D):
                    ev, _ = mp_event_sum(q(case, "le"), cap=10)
                    assert mp_pushing(q(case, "le")) == ev, (case, n, start, thr)
                ev, _ = mp_event_sum(q(CaseId.B, "ge"), cap=10)
                assert mp_blocking_series(q(CaseId.B, "ge"))[0] == ev, (n, start, thr)
                for case in (CaseId.C, CaseId.CANONICAL_C):
                    ev, tail = mp_event_sum(q(case, "ge"), cap=10)
                    v, bound = mp_blocking_series(q(case, "ge"), 30)
                    assert abs(float(v - ev)) <= float(tail) + bound + 1e-25, (case, n, start, thr)
                ev, tail = mp_event_sum(q(CaseId.C, "ge"), cap=10)
                v = mp_blocking_contour(q(CaseId.C, "ge"))
                assert abs(float(v - ev)) <= float(tail) + 1e-25, (n, start, thr)


# sha256 of repr() of the exact values of _pinned_values().  Every entry of
# these determinants is exact, so a rewrite of the h/e prefixes, theta sums
# and contour residues behind them must leave it unchanged; the blocking
# values are otherwise only compared within tail bounds.
VALUES_DIGEST = "55503157411cebeb1cc7435907944e99d7d9b72ea54b0b0df33f8378c90c6100"


def _pinned_values():
    alpha = lambda k: F(1, 4 + k) if k >= 1 else F(0)
    out = []
    for n in (1, 2):
        b = ParamBinding.numeric(x=[F(1, 10), F(1, 12)][:n], rates=RATES, alpha=alpha)
        for ell in (2, 3):
            for start in (P_([]), P_([1])):
                for thr in (P_([1]), P_([2, 1]), P_([2, 2, 1])):
                    q = lambda case, d: MultiPointQuery(case, d, n, thr, start, ell, b)
                    out.append(mp_pushing(q(CaseId.A, "le")))
                    out.append(mp_pushing(q(CaseId.D, "le")))
                    out.append(mp_blocking_series(q(CaseId.B, "ge"), 20)[0])
                    out.append(mp_blocking_series(q(CaseId.C, "ge"), 20)[0])
                    out.append(mp_blocking_series(q(CaseId.CANONICAL_C, "ge"), 20)[0])
                    out.append(mp_blocking_contour(q(CaseId.C, "ge")))
    return out


def test_multipoint_values_pinned():
    digest = hashlib.sha256(repr(_pinned_values()).encode()).hexdigest()
    assert digest == VALUES_DIGEST


def test_blocking_series_vs_contour_modes():
    # the two determinant forms agree to 1e-10 at rational bindings
    b = small_binding(2)
    q = MultiPointQuery(CaseId.C, "ge", 2, P_([2, 1]), P_([]), 2, b)
    sv, _ = mp_blocking_series(q, trunc=70)
    cv = mp_blocking_contour(q)
    assert abs(float(sv - cv)) < 1e-10
    quad = mp_blocking_contour(q, ContourSpec(radius=F(3), mode="quadrature"))
    assert abs(float(cv) - quad) < 1e-10


def test_contour_radius_validation():
    b = small_binding(1)
    q = MultiPointQuery(CaseId.C, "ge", 1, P_([1]), P_([]), 2, b)
    with pytest.raises(ValueError):
        mp_blocking_contour(q, ContourSpec(radius=F(1, 100), mode="residue"))


def test_singular_parameters_error():
    # a denominator root on an x pole is singular; a repeated root is a
    # double pole with residue x/(1 - x c)^2 at c = 1/2, x = 1/10
    with pytest.raises(SingularParameterError):
        contour_entry_residue([], [F(1, 2)], [F(2)], 1)
    assert contour_entry_residue([], [F(1, 2), F(1, 2)], [F(1, 10)], 1) == F(40, 361)


def test_canonical_reduction_and_events():
    alpha = lambda k: F(1, 4 + k) if k >= 1 else F(0)
    for n in (1, 2):
        b0 = ParamBinding.numeric(
            x=[F(1, 10), F(1, 12)][:n], rates=RATES, alpha=lambda k: F(0)
        )
        b = ParamBinding.numeric(x=[F(1, 10), F(1, 12)][:n], rates=RATES, alpha=alpha)
        for thr in [P_([1]), P_([2, 1])]:
            qc = MultiPointQuery(CaseId.C, "ge", n, thr, P_([]), 3, small_binding(n))
            q0 = MultiPointQuery(CaseId.CANONICAL_C, "ge", n, thr, P_([]), 3, b0)
            a, _ = mp_blocking_series(qc, 60)
            c, _ = mp_blocking_series(q0, 60)
            assert a == c
            q = MultiPointQuery(CaseId.CANONICAL_C, "ge", n, thr, P_([]), 3, b)
            ev, tail = mp_event_sum(q, cap=13)
            v, bound = mp_blocking_series(q, trunc=70)
            assert abs(float(v - ev)) <= float(tail) + float(bound) + 1e-25


def test_canonical_complement_identity():
    alpha = lambda k: F(1, 4 + k)
    b1 = ParamBinding.numeric(x=[F(1, 10)], rates=[F(1, 2)], alpha=alpha)
    q = MultiPointQuery(CaseId.CANONICAL_C, "ge", 1, P_([1]), P_([]), 1, b1)
    v, bound = mp_blocking_series(q, 60)
    want = 1 - single_step_closed_form(CaseId.CANONICAL_C, P_([]), P_([]), 1, b1, 1)
    assert abs(float(v - want)) <= float(bound) + 1e-25


def test_continuous_poisson():
    import math

    for k in range(4):
        v = continuous_kernel(CaseId.C, 2.0, P_([]), P_([k]), 1, [F(1)])
        want = math.exp(-2.0) * 2.0**k / math.factorial(k)
        assert abs(float(v) - want) < 1e-12


def test_continuous_delta_limit():
    for case in (CaseId.C, CaseId.A):
        v = continuous_kernel(case, 1e-6, P_([1, 1]), P_([1, 1]), 2, [F(1), F(2, 3)])
        assert abs(float(v) - 1.0) < 1e-4


def test_continuous_master_equation():
    for case in (CaseId.C, CaseId.A):
        r = master_equation_residual(case, 1.0, P_([]), P_([2, 1]), 2, [F(1), F(2, 3)], h=1e-4)
        assert float(r) < 1e-6, case


def test_continuous_boundary_conditions():
    g = boundary_condition_gap(CaseId.C, 1.0, P_([]), P_([2, 2]), 1, 2, [F(1), F(2, 3)])
    assert float(g) < 1e-12
    g = boundary_condition_gap(CaseId.A, 1.0, P_([]), P_([2, 2]), 1, 2, [F(1), F(2, 3)])
    assert float(g) < 1e-12


def test_continuous_residue_vs_quadrature():
    # equal rates give case C's entries double poles; the float rule's error
    # grows with max|e^{tw}| on the circle, 3.3e-15 at worst at t = 5
    for t in (0.8, 2, 5):
        for rates in ([F(1), F(2, 3)], [F(1)] * 3, [F(1), F(2, 3), F(2, 3)]):
            for case in (CaseId.C, CaseId.A):
                args = (case, t, P_([]), P_([2, 1]), len(rates), rates)
                v1 = continuous_kernel(*args, mode="residue")
                v2 = continuous_kernel(*args, mode="quadrature", quad_points=32)
                assert abs(v1 - v2) < 1e-12, (t, rates, case)


def test_continuous_kernel_names_missing_and_zero_rates():
    # a short rate list is not padded with frozen particles, and case A's
    # entries have no 1/pi_k letter at pi_k = 0
    for case in (CaseId.A, CaseId.C):
        with pytest.raises(ValueError, match=r"pi_1 missing: 3 particles need 3 rates, got 0"):
            continuous_kernel(case, 1.0, P_([]), [1], 3, [])
        with pytest.raises(ValueError, match=r"pi_2 missing"):
            continuous_kernel(case, 1.0, P_([]), [1], 3, [1])
    for mode in ("residue", "quadrature"):
        with pytest.raises(ValueError, match=r"pi_2 = 0: .* need 1/pi_2"):
            continuous_kernel(CaseId.A, 1.0, P_([]), [1], 3, [1, 0, 1], mode=mode)
    # a frozen last particle reads no 1/pi_3, and case C reads no 1/pi_k
    assert continuous_kernel(CaseId.A, 1.0, P_([]), [1], 3, [1, 1, 0]) >= 0
    assert continuous_kernel(CaseId.C, 1.0, P_([]), [1], 3, [1, 0, 1]) >= 0


def test_quadrature_points_above_cap():
    # the doubling loops stop at the cap; a start above it is refused
    with pytest.raises(ValueError, match=str(MAX_QUADRATURE_POINTS)):
        continuous_kernel(CaseId.C, 0.8, P_([]), P_([1]), 1, [F(1)],
                          mode="quadrature", quad_points=2**15)
    q = MultiPointQuery(CaseId.C, "ge", 1, P_([1]), P_([]), 2, small_binding(1))
    with pytest.raises(ValueError, match=str(MAX_QUADRATURE_POINTS)):
        mp_blocking_contour(q, ContourSpec(radius=F(3), points=2**15, mode="quadrature"))


def test_trapezoid_checks_its_start():
    # a start above half the cap leaves the doubling loop no second rule;
    # the shared rule refuses it itself, before evaluating the integrand
    nodes = []
    for points in (MAX_QUADRATURE_POINTS // 2 + 1, MAX_QUADRATURE_POINTS, 0):
        with pytest.raises(ValueError, match=r"points <= MAX_QUADRATURE_POINTS / 2"):
            mpmod._trapezoid(nodes.append, 0, 1.0, points)
    assert nodes == []
    # oint (2.5 + w^2) / w^power dw/(2 pi i w) on |w| = 3: the constant
    # term at power 0, the w^2 coefficient at power 2
    assert mpmod._trapezoid(lambda w: 2.5 + w * w, 0, 3.0, 4) == pytest.approx(2.5, abs=1e-12)
    assert mpmod._trapezoid(lambda w: 2.5 + w * w, 2, 3.0, 4) == pytest.approx(1.0, abs=1e-12)


# x = 1/10, 1/12 and pi = 1/2, 1/3, 1/5 admit radii in (1/2, 10); at r =
# 9.999 the x pole at 10 is so close that the rule has not converged by the
# cap.  This printed 0.000154... (the residue value is 0.000124...) with
# error bound 1e-12
UNCONVERGED = ParamBinding.numeric(x=[F(1, 10), F(1, 12)], rates=[F(1, 2), F(1, 3), F(1, 5)])


def test_unconverged_quadrature_raises():
    q = MultiPointQuery(CaseId.C, "ge", 2, P_([2, 1]), P_([]), 3, UNCONVERGED)
    assert abs(float(mp_blocking_contour(q)) - 0.00012442) < 1e-8
    near = ContourSpec(radius=F(9999, 1000), mode="quadrature")
    cap = rf"MAX_QUADRATURE_POINTS \({MAX_QUADRATURE_POINTS}\)"
    last = rf"rules on {MAX_QUADRATURE_POINTS // 2} and {MAX_QUADRATURE_POINTS} points differ by"
    with pytest.raises(ValueError, match=rf"not converged to 1.0e-12: the {last} .* at {cap}"):
        mp_blocking_contour(q, near)
    with pytest.raises(ValueError, match="not converged"):
        mp_value(q, near)
    # a rule started at the cap would have no second rule to agree with
    for points in (MAX_QUADRATURE_POINTS // 2 + 1, MAX_QUADRATURE_POINTS):
        with pytest.raises(ValueError, match=r"points <= MAX_QUADRATURE_POINTS / 2"):
            mp_blocking_contour(q, ContourSpec(radius=F(3), points=points, mode="quadrature"))
    v = mp_blocking_contour(q, ContourSpec(radius=F(3), points=MAX_QUADRATURE_POINTS // 2,
                                           mode="quadrature"))
    assert abs(v - float(mp_blocking_contour(q))) < 1e-12


def test_unconverged_continuous_quadrature_raises(monkeypatch):
    # e^{tw} at t = 40 needs far more than 64 points (and its float rule
    # does not converge at any point count); a lower cap names the last two
    # rules
    monkeypatch.setattr(mpmod, "MAX_QUADRATURE_POINTS", 64)
    with pytest.raises(ValueError, match=r"rules on 32 and 64 points differ by .* \(64\)"):
        continuous_kernel(CaseId.C, 40.0, P_([]), P_([1]), 1, [F(1)], mode="quadrature",
                          quad_points=16, dps=15)


def test_overflowing_continuous_quadrature_raises():
    # e^{tw} on |w| = 2 overflows at t = 1e4: the first rule is not finite,
    # and the rule says so at once, without a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"not converged to 1.0e-12: the rule on 8192 "
                                             r"points is not finite"):
            continuous_kernel(CaseId.C, 1e4, P_([]), P_([1]), 1, [1], mode="quadrature",
                              quad_points=8192, dps=15)


# repr of the discrete rule's value on UNCONVERGED's binding at radii 1, 3
# and 5, recorded before the discrete and continuous rules were one: its
# float operations are to stay in their order
QUADRATURE_REPRS = {
    (P_([]), P_([2, 1])): ["0.00012442129629630712", "0.00012442129629629647",
                           "0.00012442129629629636"],
    (P_([2, 1]), P_([2, 1, 1])): ["0.03633333333333333", "0.03633333333333333",
                                  "0.036333333333333336"],
    (P_([1, 1]), P_([3])): ["0.006128472222222203", "0.006128472222222221",
                            "0.006128472222222222"],
}


def test_array_quadrature_pinned():
    for (start, thr), want in QUADRATURE_REPRS.items():
        q = MultiPointQuery(CaseId.C, "ge", 2, thr, start, 3, UNCONVERGED)
        got = [repr(mp_blocking_contour(q, ContourSpec(F(r), mode="quadrature")))
               for r in (1, 3, 5)]
        assert got == want, (start, thr)


def test_array_quadrature_matches_residues():
    # radii 1 and 5 inside (1/2, 10); powers of both signs
    for n in (1, 2):
        b = small_binding(n)
        for start, thr in ((P_([]), P_([2, 1])), (P_([2, 1]), P_([2, 1, 1])), (P_([1, 1]), P_([3]))):
            q = MultiPointQuery(CaseId.C, "ge", n, thr, start, 3, b)
            exact = float(mp_blocking_contour(q))
            for r in (F(1), F(5)):
                quad = mp_blocking_contour(q, ContourSpec(radius=r, mode="quadrature"))
                assert abs(quad - exact) < 1e-12, (n, start, thr, r)


# -- shared pole tables against per-entry ones --------------------------------


def _pole_order(num, den):
    return max((den.count(c) - num.count(c) for c in den), default=0)


def _shared_contour_entries(n, ell, rates, start, thr):
    """Every entry mp_blocking_contour computes with its shared PoleTable,
    compared by repr with the entry computed alone, over a table of its own
    roots; returns the entries' (power, highest pole order, whether the two
    tables' common denominators Q differ)."""
    b = ParamBinding.numeric(x=[F(1, 10), F(1, 12)][:n], rates=rates[:ell])
    q = MultiPointQuery(CaseId.C, "ge", n, _partition(thr), _partition(start[:ell]), ell, b)
    calls = []

    def record(*args):
        value = contour_entry_residue(*args)
        calls.append((args, value))
        return value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mpmod, "contour_entry_residue", record)
        mp_blocking_contour(q)
    assert len(calls) == ell * ell
    assert len({id(args[4]) for args, _ in calls}) == 1  # one table per determinant
    seen = []
    for (num, den, xs, power, poles), value in calls:
        assert isinstance(poles, PoleTable) and poles.exact
        fresh = contour_poles([*num, *den], xs)
        alone = contour_entry_residue(num, den, xs, power, fresh)
        assert repr(value) == repr(alone), (num, den, power)
        seen.append((power, _pole_order(num, den), fresh.q != poles.q))
    return seen


POLE_RATES = [F(1, 2), F(1, 3), F(2, 7)]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(1, 4),
    st.lists(st.sampled_from(POLE_RATES), min_size=4, max_size=4),
    st.lists(st.integers(0, 3), max_size=4),
    st.lists(st.integers(0, 4), max_size=4),
)
@example(1, 4, [F(1, 2)] * 4, [3, 2, 1], [1])
@example(2, 3, [F(1, 3), F(1, 2), F(1, 2), F(1, 2)], [2, 1], [2, 2, 1])
def test_shared_pole_table_entries_equal_fresh_ones(n, ell, rates, start, thr):
    _shared_contour_entries(n, ell, rates, start, thr)


def test_shared_pole_table_covers_orders_and_powers():
    seen = []
    for n in (1, 2):
        for rates in ([F(1, 2)] * 4, [F(1, 3), F(1, 2), F(1, 2), F(1, 3)], POLE_RATES + [F(1, 5)]):
            for start, thr in (([], [2, 1]), ([3, 2, 1], [1]), ([2, 1, 1], [3, 3, 1, 1])):
                seen += _shared_contour_entries(n, 4, rates, start, thr)
    powers = {p for p, _, _ in seen}
    assert min(powers) < 0 and 0 in powers and max(powers) > 0
    assert {1, 2, 3} <= {o for _, o, _ in seen}
    # entries whose own roots have another common denominator than the
    # determinant's give the same Fraction
    assert any(other_q for _, _, other_q in seen)


@pytest.mark.parametrize("rates", [
    [F(1), F(2, 3)], [F(1)] * 3, [F(1), F(2, 3), F(2, 3)], [F(2, 3), F(1), F(2, 3), F(1)],
])
def test_continuous_shared_poles_equal_fresh_ones(rates):
    # each case C entry with the kernel's shared table against the same
    # residue sum over a table of its own, compared by repr
    inner, seen = mpmod._residue_sum, []

    def record(num, den, power, poles):
        assert not poles.exact and poles.q == 1
        value = inner(num, den, power, poles)
        alone = inner(num, den, power, PoleTable([*num, *den], poles.taylor))
        seen.append((repr(value), repr(alone), power))
        return value

    ell = len(rates)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mpmod, "_residue_sum", record)
        for mu, lam in ((P_([]), P_([2, 1])), (P_([2, 1]), P_([2, 1])), (P_([1]), [3, 0, -1])):
            continuous_kernel(CaseId.C, 0.8, mu, lam, ell, rates)
    assert len(seen) == 3 * ell * ell
    assert all(shared == alone for shared, alone, _ in seen)
    powers = {p for _, _, p in seen}
    assert min(powers) < 0 and 0 in powers


# -- integer residue sums against the Fraction ones --------------------------


def _reference_pole_term(k, taylor, xs, ys):
    """[u^k] of F(p + u) * prod(1 - y u: ys) / prod(1 - x u: xs), where
    ``taylor`` holds F's Taylor coefficients at p up to u^k."""
    h = h_prefix(k, xs, ys)
    return sum((taylor[s] * h[k - s] for s in range(k)), taylor[k])


def _reference_residue(num, den, xs, power):
    """contour_entry_residue as a sum of Fraction residues over a table of
    its own: the distinct roots (0 first), each gap p - r as a Fraction,
    and F's Taylor coefficients 1/prod(1 - x p) h_s({x/(1 - x p)}) at each
    root.  This is the residue sum before it ran in integers over one
    common denominator."""
    xs = [F(x) for x in xs]
    roots = [0]

    def index(c):
        for k, r in enumerate(roots):
            if r == c:
                return k
        roots.append(c)
        return len(roots) - 1

    def taylor(p, k):
        factors = [1 - x * p for x in xs]
        if 0 in factors:
            raise SingularParameterError("denominator root meets an x pole")
        scale = F(1)
        for f in factors:
            scale /= f
        h = h_prefix(k, [x / f for x, f in zip(xs, factors)])
        return [scale] + [scale * c for c in h[1:]]

    at, order = [0], [power + 1]
    for group, e in ((num, -1), (den, 1)):
        for c in group:
            order[0] -= e
            k = index(c)
            if k in at:
                order[at.index(k)] += e
            else:
                at.append(k)
                order.append(e)
    total = 0
    for a, (k, m) in enumerate(zip(at, order)):
        if m <= 0:
            continue
        gaps = [(roots[k] - roots[l], e) for b, (l, e) in enumerate(zip(at, order))
                if e and b != a]
        lx, ly = [], []
        if m > 1:
            for d, e in gaps:
                (lx if e > 0 else ly).extend([-1 / d] * abs(e))
        term = _reference_pole_term(m - 1, taylor(roots[k], m - 1), lx, ly)
        for d, e in gaps:
            if e > 0:
                term /= d if e == 1 else d**e
            else:
                term *= d if e == -1 else d**-e
        total += term
    return F(total)


RESIDUE_ROOTS = [F(0), F(1, 2), F(1, 3), F(2, 7), F(-1, 5), F(3, 4)]
RESIDUE_XS = [F(0), F(1, 999983), F(1, 10), F(2, 9), F(-1, 7)]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(RESIDUE_ROOTS), max_size=3),
    st.lists(st.sampled_from(RESIDUE_ROOTS), max_size=7),
    st.lists(st.sampled_from(RESIDUE_XS), min_size=1, max_size=3),
    st.integers(-3, 6),
)
# poles of order 4 at 1/2 and at 0, and the large prime denominator
@example([], [F(1, 2)] * 4 + [F(1, 3)], [F(1, 999983), F(0)], 2)
@example([F(1, 3)], [F(1, 2)] * 2 + [F(-1, 5)] * 3, [F(1, 10), F(2, 9), F(1, 999983)], 6)
@example([F(1, 2)], [F(2, 7)], [F(0)], -3)
def test_integer_residues_equal_fraction_ones(num, den, xs, power):
    # poles of order 1 to 4 (repeated roots), num roots that cancel den
    # ones, powers of both signs and x letters 0 and 1/999983
    value = contour_entry_residue(num, den, xs, power)
    assert type(value) is F
    assert value == _reference_residue(num, den, xs, power), (num, den, xs, power)


def test_pole_table_refuses_other_x_letters():
    poles = contour_poles([F(1, 2)], [F(1, 10)])
    assert contour_entry_residue([], [F(1, 2)], [F(1, 10)], 1, poles) == \
        contour_entry_residue([], [F(1, 2)], [F(1, 10)], 1)
    with pytest.raises(ValueError, match="other x letters"):
        contour_entry_residue([], [F(1, 2)], [F(1, 12)], 1, poles)


# -- determinant entries against the per-entry formulas ----------------------


def _exact(v):
    return F(v) if isinstance(v, (int, float, F)) else v


def _textbook_theta_rows(q, trunc):
    """Each theta entry from its own pair of h_prefix calls and a plain
    convolution, at the letters taken exactly.  Numeric entries are exact
    Fractions (h_0 h_0 = 1 stays the int 1); symbolic ones are as summed."""
    b, ell, n, mu, case = q.binding, q.ell, q.n, q.start, q.case
    length = max(q.thresholds.length(), mu.length())
    nu = P_([max(q.thresholds.part(i), mu.part(i)) for i in range(1, length + 1)])
    xs = [_exact(b.x_of(i)) for i in range(1, n + 1)]
    rate = lambda j: _exact(b.rate(j))
    top = ((), [-x for x in xs]) if case is CaseId.B else (xs, ())
    rows = []
    for i in range(1, ell + 1):
        row = []
        for j in range(1, ell + 1):
            m = nu.part(i) - mu.part(j) - i + j
            cap = n - min(m, 0) if case is CaseId.B else trunc
            if abs(m) > cap:
                row.append(0)
                continue
            window = []
            if case is CaseId.CANONICAL_C:
                window = [-_exact(b.alpha_of(k)) for k in range(mu.part(j), nu.part(i))]
            betas = [rate(k + 1) for k in range(1, j)]
            if i == 1:
                bottom = (window + [rate(1)] + betas, [])
            else:
                bottom = (window + betas, [rate(k + 1) for k in range(1, i - 1)])
            lo, hi = max(m, 0), min(cap, cap + m)
            ht, hb = h_prefix(hi, *top), h_prefix(hi - m, *bottom)
            conv = sum(ht[a] * hb[a - m] for a in range(lo, hi + 1))
            letters = xs + window + bottom[0] + bottom[1]
            numeric = all(isinstance(v, F) for v in letters)
            row.append(F(conv) if numeric and 2 * hi - m else conv)
        rows.append(row)
    return rows


def _partition(parts):
    return P_(sorted(parts, reverse=True))


FRACS = [F(1, 2), F(1, 3), F(2, 7), F(1, 5)]
ALPHAS = [F(1, 6), F(-1, 9), F(0), F(3, 10), F(-1, 4)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([CaseId.B, CaseId.C, CaseId.CANONICAL_C]),
    st.integers(1, 4),
    st.lists(st.sampled_from([F(1, 10), F(1, 12), F(2, 9)]), min_size=1, max_size=2),
    st.lists(st.sampled_from(FRACS), min_size=4, max_size=4),
    st.one_of(
        st.lists(st.sampled_from(ALPHAS), min_size=8, max_size=8),
        st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8),
    ),
    st.lists(st.integers(0, 3), max_size=4),
    st.lists(st.integers(0, 4), max_size=5),
    st.integers(0, 6),
)
# always run: the CLI's sine alphas (floats), alphas of both signs with
# thresholds longer than ell, and m beyond a cap of 1
@example(CaseId.CANONICAL_C, 3, [F(1, 10)], FRACS[:3] + [F(1, 3)],
         [0.1 * math.sin(k / 3) ** 6 for k in range(8)], [1], [3, 2, 1], 4)
@example(CaseId.CANONICAL_C, 2, [F(1, 10), F(2, 9)], [F(1, 3)] * 4, ALPHAS + ALPHAS[:3],
         [2, 1], [4, 2, 2], 1)
# numeric x with symbolic rates, and the reverse: every scale is 1 when
# some letter of either pair is symbolic
@example(CaseId.B, 3, [F(1, 10)], [P(1), P(2), P(3), P(4)], ALPHAS + ALPHAS[:3], [1], [3, 2, 1], 3)
@example(CaseId.C, 3, [F(1, 10)], [P(1), P(2), P(3), P(4)], ALPHAS + ALPHAS[:3], [1], [3, 2, 1], 3)
@example(CaseId.CANONICAL_C, 3, [F(1, 10)], [P(1), P(2), P(3), P(4)], ALPHAS + ALPHAS[:3],
         [1], [3, 2, 1], 3)
@example(CaseId.B, 3, [X(1), X(2)], FRACS, ALPHAS + ALPHAS[:3], [1], [3, 2, 1], 3)
@example(CaseId.C, 3, [X(1), X(2)], FRACS, ALPHAS + ALPHAS[:3], [1], [3, 2, 1], 3)
@example(CaseId.CANONICAL_C, 3, [X(1)], FRACS, ALPHAS + ALPHAS[:3], [1], [3, 2, 1], 3)
def test_theta_rows_against_per_entry_formula(case, ell, xs, rates, alphas, start, thr, trunc):
    # repeated rates, alphas of both signs (floats too, taken exactly),
    # thresholds longer than ell, caps below |m|, and x and rate letters
    # over different denominators
    start = _partition(start[:ell])
    b = ParamBinding(xs, rates[:ell], lambda k: alphas[k] if k < len(alphas) else 0.0)
    q = MultiPointQuery(case, "ge", len(xs), _partition(thr), start, ell, b)
    assert repr(theta_rows(q, trunc)) == repr(_textbook_theta_rows(q, trunc))


def test_theta_rows_symbolic_case_b():
    # symbolic letters run unscaled (scale 1) through the same rows
    b = ParamBinding(x=[X(1), X(2)], rates=[P(1), P(2), P(3)])
    seen = 0
    for start in (P_([]), P_([1]), P_([2, 1])):
        for thr in (P_([1]), P_([2, 1]), P_([3, 1, 1]), P_([2, 2, 2, 1])):
            for ell in (1, 2, 3):
                q = MultiPointQuery(CaseId.B, "ge", 2, thr, start, ell, b)
                rows = theta_rows(q, 0)
                assert repr(rows) == repr(_textbook_theta_rows(q, 0)), (start, thr, ell)
                seen += sum(type(e).__name__ == "LaurentPoly" for row in rows for e in row)
    assert seen


def _per_entry_pushing_rows(q):
    b, ell, lam, nu = q.binding, q.ell, q.thresholds, q.start
    xs = [b.x_of(i) for i in range(1, q.n + 1)]
    inv = [b.inverse_rate(k) for k in range(1, ell + 1)]
    neg = [-v for v in inv]
    rows = []
    for i in range(1, ell + 1):
        row = []
        for j in range(1, ell + 1):
            m = lam.part(i) - nu.part(j) + j - i
            if q.case is CaseId.A:
                row.append(supersym_h(m, xs + inv[:i], inv[:j - 1]))
            else:
                row.append(supersym_e(m, xs + neg[:j - 1], neg[:i]))
        rows.append(row)
    return rows


@pytest.mark.parametrize("binding", [
    pytest.param(ParamBinding(x=[X(1), X(2)], rates=[P(1), P(2), P(3)]), id="symbolic"),
    pytest.param(ParamBinding.numeric(x=[F(1, 10), F(2, 9)], rates=[F(1, 2), F(2, 3), F(2, 3)]),
                 id="rational"),
])
def test_pushing_rows_against_per_entry_formula(binding):
    for case in (CaseId.A, CaseId.D):
        for n in (1, 2):
            for ell in (1, 2, 3):
                for start in (P_([]), P_([1]), P_([2, 1])):
                    for thr in (P_([2, 1]), P_([3, 2, 2]), P_([3, 3, 1, 1])):
                        if not thr.contains(start):
                            continue
                        b = ParamBinding(binding.x[:n], binding.rates)
                        q = MultiPointQuery(case, "le", n, thr, start, ell, b)
                        assert repr(pushing_rows(q)) == repr(_per_entry_pushing_rows(q)), (
                            case, n, ell, start, thr)


def test_series_at_float_letters_is_exact():
    # the CLI's sine closure gives float alphas; taken exactly, the series
    # equals the event sum at those rationals within its bound.  Particle 2
    # cannot move in one step, so each event has probability 0; float
    # letters gave -3.3e-20, -5.1e-22 and a bound of 9.9e-78
    sine = lambda k: 0.1 * math.sin(k / 3) ** 6
    rates = [F(1, 2), F(1, 3), F(1, 5)]
    b = ParamBinding([F(1, 10)], rates, sine)
    exact = ParamBinding([F(1, 10)], rates, lambda k: F(sine(k)))
    for thr in (P_([2, 1]), P_([3, 1]), P_([1, 1, 1])):
        v, bound = mp_blocking_series(
            MultiPointQuery(CaseId.CANONICAL_C, "ge", 1, thr, P_([]), 3, b))
        ev, tail = mp_event_sum(MultiPointQuery(CaseId.CANONICAL_C, "ge", 1, thr, P_([]), 3, exact),
                                cap=20)
        assert ev == 0 and tail < 1e-26
        assert abs(v) <= bound + tail, thr


def test_series_trunc_is_bounded():
    q = MultiPointQuery(CaseId.C, "ge", 1, P_([1]), P_([]), 1, small_binding(1))
    # sys.maxsize would ask for an impossible prefix: the check comes first
    for bad in (-1, MAX_TRUNC + 1, sys.maxsize):
        with pytest.raises(ValueError, match="MAX_TRUNC"):
            mp_blocking_series(q, bad)
    # past trunc 247 the float bound would underflow to 0 and call a
    # truncated value exact: the bound is the exact one rounded up instead
    exact = mp_blocking_contour(q)
    for trunc in (248, MAX_TRUNC):
        v, bound = mp_blocking_series(q, trunc)
        assert bound > 0
        assert 0 < abs(v - exact) <= bound, trunc
    assert abs(mp_blocking_series(q, MAX_TRUNC)[0] - exact) < F(1, 10**1000)


# -- mp_value: the one entry point and the rules it leaves to its formulas ----


@pytest.mark.parametrize("case", [CaseId.A, CaseId.B, CaseId.D, CaseId.CANONICAL_C])
def test_mp_value_refuses_a_contour_outside_case_c(case):
    q = MultiPointQuery(case, "le" if case.pushing else "ge", 1, P_([2, 1]), P_([]), 2,
                        small_binding(1))
    with pytest.raises(ValueError, match=f"case {case.value} has no contour form"):
        mp_value(q, ContourSpec(radius=F(3)))


@pytest.mark.parametrize("case", [CaseId.A, CaseId.D])
@pytest.mark.parametrize("start,ell,row", [(P_([1]), 0, "start row 1 = 1"),
                                           (P_([1, 1]), 1, "start row 2 = 1")])
def test_pushing_start_past_ell_is_refused(case, start, ell, row):
    # mp_pushing compares the start with the thresholds row by row, so a
    # start row past ell used to give 0, not the value without that row
    b = ParamBinding.numeric(x=[F(1, 10)], rates=RATES)
    with pytest.raises(ValueError, match=f"{row} lies past ell = {ell}"):
        mp_value(MultiPointQuery(case, "le", 1, P_([1] * ell), start, ell, b))


def test_mp_value_refuses_canonical_b():
    b = ParamBinding.numeric(x=[F(1, 10)], rates=RATES, beta_pos=lambda k: F(1, 6 + k))
    q = MultiPointQuery(CaseId.CANONICAL_B, "ge", 1, P_([2, 1]), P_([]), 2, b)
    with pytest.raises(ValueError, match="no theta-series determinant for case CanonicalB"):
        mp_value(q)


@pytest.mark.parametrize("kwargs", [
    pytest.param({"mode": "series"}, id="mode-series"),
    pytest.param({"mode": "quadrature", "points": 0}, id="zero-points"),
    pytest.param({"points": MAX_QUADRATURE_POINTS // 2 + 1}, id="points-past-half-cap"),
])
def test_contour_spec_checks_mode_and_points(kwargs):
    with pytest.raises(ValueError, match="contour mode|MAX_QUADRATURE_POINTS / 2"):
        ContourSpec(radius=F(3), **kwargs)


def test_mp_value_is_each_formula():
    # the same value and type as the formula it dispatches to, exact or not
    alpha = lambda k: F(1, 4 + k) if k >= 1 else F(0)
    for n in (1, 2):
        b = ParamBinding.numeric(x=[F(1, 10), F(1, 12)][:n], rates=RATES, alpha=alpha)
        for start, thr in ((P_([]), P_([2, 1])), (P_([1]), P_([2, 2, 1])), (P_([2]), P_([1]))):
            q = lambda case: MultiPointQuery(case, direction_of(case), n, thr, start, 3, b)
            pairs = [(mp_value(q(c)), (mp_pushing(q(c)), F(0))) for c in (CaseId.A, CaseId.D)]
            pairs += [(mp_value(q(c), trunc=20), mp_blocking_series(q(c), 20))
                      for c in (CaseId.B, CaseId.C, CaseId.CANONICAL_C)]
            for mode, bound in (("residue", F(0)), ("quadrature", 1e-12)):
                spec = ContourSpec(radius=F(3), mode=mode)
                pairs.append((mp_value(q(CaseId.C), spec),
                              (mp_blocking_contour(q(CaseId.C), spec), bound)))
            for got, want in pairs:
                assert got == want and list(map(type, got)) == list(map(type, want)), (got, want)


def test_pole_table_reads_only_its_roots():
    poles = contour_poles([F(1, 2), F(1, 3)], [F(1, 10)])
    assert poles.index(F(1, 3)) == 2 and poles.index(0) == 0
    with pytest.raises(ValueError):
        poles.index(F(1, 5))
