import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktasep.exactalg import A, B, P, X, RationalFn, rf
from ktasep.kernels import (
    CaseId,
    ConstraintError,
    KernelQuery,
    ParamBinding,
    _RateRows,
    chain,
    kernel,
    kernel_operator_route,
    kernel_tableau_route,
    normalization_identity,
    operator_table,
    parse_case,
    rate_monomial,
    single_step_closed_form,
    single_step_table,
    tableau_table,
    time_factor,
)
from ktasep.partitions import Partition, partitions_in_box, subpartitions

P_ = Partition


@pytest.fixture
def b1():
    return ParamBinding.numeric(x=[F(1, 5)], rates=[F(1, 2), F(1, 3), F(1, 7)])


@pytest.fixture
def b2():
    return ParamBinding.numeric(x=[F(1, 5), F(1, 4)], rates=[F(1, 2), F(1, 3), F(1, 7)])


def test_case_a_single_step_example(b1):
    # pushed-state weight pi2 x * prod_j (1 - pi_j x)
    x = F(1, 5)
    expect = F(1, 3) * x * (1 - F(1, 2) * x) * (1 - F(1, 3) * x) * (1 - F(1, 7) * x)
    got = single_step_closed_form(CaseId.A, P_([1, 1]), P_([2, 2]), 1, b1, 3)
    assert got == expect


def test_case_b_single_step_example(b1):
    x = F(1, 5)
    expect = (F(1, 2) * x) * (F(1, 3) * x) / (
        (1 + F(1, 2) * x) * (1 + F(1, 3) * x) * (1 + F(1, 7) * x)
    )
    assert single_step_closed_form(CaseId.B, P_([1, 1]), P_([2, 2]), 1, b1, 3) == expect
    # mu=(1,1) -> (2,1): rho1 x / prod (1 + rho_j x)
    expect = (F(1, 2) * x) / (
        (1 + F(1, 2) * x) * (1 + F(1, 3) * x) * (1 + F(1, 7) * x)
    )
    assert single_step_closed_form(CaseId.B, P_([1, 1]), P_([2, 1]), 1, b1, 3) == expect


def test_case_c_single_step_example(b1):
    x = F(1, 5)
    expect = (1 - F(1, 2) * x) * (1 - F(1, 7) * x)
    assert single_step_closed_form(CaseId.C, P_([1, 1]), P_([1, 1]), 1, b1, 3) == expect


def test_case_a_from_empty(b1):
    # mu=() -> lam=(2,1): two columns, bottom rows 2 and 1 (ledgered spec
    # example deviation: the spec's pi1^2 pi2 x^3 value disagrees with all
    # routes and the dynamics)
    x = F(1, 5)
    norm = (1 - F(1, 2) * x) * (1 - F(1, 3) * x) * (1 - F(1, 7) * x)
    expect = F(1, 2) * F(1, 3) * x * x * norm
    got = single_step_closed_form(CaseId.A, P_([]), P_([2, 1]), 1, b1, 3)
    assert got == expect
    assert got == kernel_tableau_route(CaseId.A, 1, P_([]), P_([2, 1]), b1, 3)
    assert got == kernel_operator_route(CaseId.A, 1, P_([]), P_([2, 1]), b1, 3)


def test_zero_steps_is_delta(b1):
    q = KernelQuery(CaseId.C, 0, P_([1, 1]), P_([1, 1]), 3, b1)
    assert kernel(q) == 1
    q = KernelQuery(CaseId.C, 0, P_([1]), P_([1, 1]), 3, b1)
    assert kernel(q) == 0


def test_bernoulli_tables_total_one(b1):
    for case in (CaseId.B, CaseId.D):
        t = single_step_table(case, P_([2, 1]), 1, b1, 3, cap=8)
        assert t.total() == 1
        assert t.tail == 0


def test_geometric_tables_report_tail(b1):
    t = single_step_table(CaseId.A, P_([]), 1, b1, 3, cap=4)
    assert t.tail > 0
    assert t.total() == 1


def test_chain_one_step_equals_single(b1):
    for case in CaseId:
        bb = ParamBinding(
            b1.x,
            b1.rates,
            (lambda k: F(1, 9 + k) if k >= 1 else F(0)),
            (lambda k: F(1, 8 + k) if k >= 1 else F(0)),
        )
        t1 = chain(case, 1, P_([1]), bb, 3, cap=4)
        t2 = single_step_table(case, P_([1]), 1, bb, 3, cap=4)
        assert t1.probs == t2.probs


def test_chain_cap_error(b1):
    with pytest.raises(ValueError):
        chain(CaseId.C, 1, P_([4, 1]), b1, 3, cap=3)


def test_markov_property(b2):
    # kernel(2) = sum_nu kernel(1) kernel(1), exact within the box for
    # Bernoulli; geometric intermediates within the box suffice for
    # monotone targets
    for case in (CaseId.B, CaseId.D):
        two = chain(case, 2, P_([1]), b2, 3, cap=9)
        shift = ParamBinding([b2.x[1]], b2.rates)
        onea = chain(case, 1, P_([1]), b2, 3, cap=9)
        total = {}
        for nu, p in onea.probs.items():
            step = chain(case, 1, nu, shift, 3, cap=9)
            for lam, q in step.probs.items():
                total[lam] = total.get(lam, F(0)) + p * q
        assert total == two.probs


def test_support_conditions(b1):
    # B/D vanish unless vertical strip; A/C vanish unless mu <= lam
    assert single_step_closed_form(CaseId.B, P_([1]), P_([3]), 1, b1, 3) == 0
    assert single_step_closed_form(CaseId.D, P_([1]), P_([3]), 1, b1, 3) == 0
    assert single_step_closed_form(CaseId.A, P_([2]), P_([1]), 1, b1, 3) == 0
    assert single_step_closed_form(CaseId.C, P_([2]), P_([1]), 1, b1, 3) == 0
    # C vanishes beyond the blocking cap
    assert single_step_closed_form(CaseId.C, P_([2, 1]), P_([2, 2]), 1, b1, 3) != 0
    assert single_step_closed_form(CaseId.C, P_([2, 1]), P_([3, 3]), 1, b1, 3) == 0


def test_ell_independence(b1):
    # kernels unchanged when ell grows beyond len(lam), lam_1
    for case in (CaseId.B, CaseId.C):
        for ell in (3, 4, 5):
            rates = b1.rates + [F(1, 9), F(1, 11)]
            bb = ParamBinding(b1.x, rates)
            v = single_step_closed_form(case, P_([1, 1]), P_([2, 1]), 1, bb, ell)
            w = kernel_tableau_route(case, 1, P_([1, 1]), P_([2, 1]), bb, ell)
            assert v == w
            if ell == 3:
                base = v
        # the value itself depends on ell through the trailing particles
        # (they must stay put), so only route agreement is asserted here


def test_route_agreement_small_grid(b2):
    lams = partitions_in_box(3, 3)
    for case in (CaseId.A, CaseId.B, CaseId.C, CaseId.D):
        for mu in [P_([]), P_([1]), P_([1, 1]), P_([2, 1])]:
            closed = chain(case, 2, mu, b2, 3, cap=3)
            op = operator_table(case, 2, mu, b2, 3, size_cap=9)
            for lam in lams:
                tv = kernel_tableau_route(case, 2, mu, lam, b2, 3)
                assert closed.prob(lam) == op.get(lam, F(0)) == tv, (case, mu, lam)


def test_operator_route_past_ell_in_row_one():
    # ell bounds the number of particles, not the first one's position:
    # targets with lam_1 > ell must match the closed route
    b = ParamBinding.numeric(
        x=[F(1, 5), F(1, 4)],
        rates=[F(1, 2), F(1, 3)],
        alpha=lambda k: F(1, 4 + k) if k >= 1 else F(0),
        beta_pos=lambda k: F(1, 6 + k) if k >= 1 else F(0),
    )
    ell = 2
    for case in CaseId:
        nonzero = 0
        for n in (1, 2):
            bn = ParamBinding(b.x[:n], b.rates, b.alpha, b.beta_pos)
            for mu in [P_([]), P_([1]), P_([2]), P_([2, 1])]:
                for lam in [P_([3]), P_([4]), P_([3, 1]), P_([4, 2])]:
                    want = chain(case, n, mu, bn, ell, cap=lam.part(1)).prob(lam)
                    got = kernel_operator_route(case, n, mu, lam, bn, ell)
                    assert got == want, (case, n, mu, lam)
                    nonzero += want != 0
        assert nonzero >= 4, case


def test_canonical_example_7x_symbolic():
    xb = ParamBinding(
        x=[X(1)],
        rates=[P(1), P(2), P(3)],
        alpha=lambda k: A(k) if k >= 1 else A(0),
    )
    mu = P_([1, 1])
    x1 = X(1)

    def inv1p(v):
        return RationalFn.from_den_factor(1 + v)

    expected = {
        P_([1, 1]): rf((1 - P(1) * x1) * (1 - P(3) * x1))
        * inv1p(A(0) * x1) * inv1p(A(1) * x1),
        P_([2, 1]): rf((A(1) + P(1)) * x1 * (1 - P(1) * x1) * (1 - P(3) * x1))
        * inv1p(A(0) * x1) * inv1p(A(1) * x1) * inv1p(A(2) * x1),
        P_([1, 1, 1]): rf((A(0) + P(3)) * x1 * (1 - P(1) * x1))
        * inv1p(A(0) * x1) * inv1p(A(1) * x1),
        P_([3, 1]): rf(
            (A(1) + P(1)) * (A(2) + P(1)) * x1 * x1 * (1 - P(1) * x1) * (1 - P(3) * x1)
        )
        * inv1p(A(0) * x1) * inv1p(A(1) * x1) * inv1p(A(2) * x1) * inv1p(A(3) * x1),
        P_([2, 1, 1]): rf((A(1) + P(1)) * (A(0) + P(3)) * x1 * x1 * (1 - P(1) * x1))
        * inv1p(A(0) * x1) * inv1p(A(1) * x1) * inv1p(A(2) * x1),
    }
    for lam, want in expected.items():
        got = single_step_closed_form(CaseId.CANONICAL_C, mu, lam, 1, xb, 3)
        assert rf(got) == want, lam


def test_canonical_alpha0_single_step_routes():
    alpha = lambda k: F(1, 4 + k)  # alpha(0) nonzero
    b = ParamBinding.numeric(x=[F(1, 5)], rates=[F(1, 2), F(1, 3), F(1, 7)], alpha=alpha)
    for mu in [P_([]), P_([1]), P_([1, 1])]:
        tab = chain(CaseId.CANONICAL_C, 1, mu, b, 3, cap=3)
        for lam in partitions_in_box(3, 3):
            assert tab.prob(lam) == kernel_tableau_route(
                CaseId.CANONICAL_C, 1, mu, lam, b, 3
            )
    with pytest.raises(ValueError):
        kernel_operator_route(CaseId.CANONICAL_C, 1, P_([]), P_([1]), b, 3)


def test_tableau_route_on_symbolic_binding():
    # the tableau sums run in whatever ring the binding's letters live in:
    # x, pi, alpha and beta as variables give the closed form's rational
    # function, including the RationalFn letters 1/pi of cases A and D
    for case in CaseId:
        b = ParamBinding(
            x=[X(1)],
            rates=[P(1), P(2), P(3)],
            alpha=A if case is CaseId.CANONICAL_C else None,
            beta_pos=(lambda k: B(k) if k >= 1 else 0) if case is CaseId.CANONICAL_B else None,
        )
        compared = 0
        for mu in [P_([]), P_([1]), P_([1, 1]), P_([2, 1])]:
            for lam in [P_([1]), P_([2, 1]), P_([1, 1, 1]), P_([2, 2]), P_([2, 1, 1]), P_([3, 1])]:
                want = single_step_closed_form(case, mu, lam, 1, b, 3)
                got = kernel_tableau_route(case, 1, mu, lam, b, 3)
                assert rf(got) == rf(want), (case, mu, lam)
                compared += not rf(want).is_zero()
        assert compared >= 4, case


def test_operator_table_width_bound_is_exact():
    # row 1 never shrinks along the evolution, so stopping every chain past
    # the width drops exactly the entries wider than it
    b = _desk_binding(2)
    for case in CaseId:
        for mu in [P_([]), P_([1]), P_([2, 1])]:
            full = operator_table(case, 2, mu, b, 3, size_cap=7)
            for width in (mu.part(1), 2, 3):
                want = {lam: p for lam, p in full.items() if lam.part(1) <= width}
                assert operator_table(case, 2, mu, b, 3, size_cap=7, width=width) == want


def test_normalization_identity():
    assert normalization_identity(P_([]), 1, 4).is_zero()
    assert normalization_identity(P_([1]), 1, 4).is_zero()
    # cap 0: both sides reduce to the constant pi^mu
    assert normalization_identity(P_([2, 1]), 1, 0).is_zero()


def test_query_hypothesis_check(b1):
    with pytest.raises(ValueError):
        KernelQuery(CaseId.A, 1, P_([]), P_([1, 1, 1, 1]), 3, b1)


@pytest.mark.parametrize("build,name", [
    pytest.param(lambda b: KernelQuery(CaseId.A, -1, P_([]), P_([]), 3, b), "n", id="query-n"),
    pytest.param(lambda b: KernelQuery(CaseId.A, 1, P_([]), P_([]), -1, b), "ell",
                 id="query-ell"),
    pytest.param(lambda b: chain(CaseId.C, -1, P_([]), b, 3, 3), "n", id="chain-n"),
    pytest.param(lambda b: chain(CaseId.C, 1, P_([]), b, -1, 3), "ell", id="chain-ell"),
    pytest.param(lambda b: single_step_table(CaseId.C, P_([]), 1, b, -1, 3), "ell",
                 id="single-step-ell"),
    pytest.param(lambda b: operator_table(CaseId.A, -1, P_([]), b, 3, 3), "n", id="operator-n"),
    pytest.param(lambda b: operator_table(CaseId.A, 1, P_([]), b, -1, 3), "ell",
                 id="operator-ell"),
    pytest.param(lambda b: tableau_table(CaseId.B, -1, P_([]), [P_([1])], b, 3), "n",
                 id="tableau-n"),
    pytest.param(lambda b: tableau_table(CaseId.B, 1, P_([]), [P_([1])], b, -1), "ell",
                 id="tableau-ell"),
    pytest.param(lambda b: b.check_admissible(CaseId.A, -1), "ell", id="admissible-ell"),
])
def test_negative_sizes_are_value_errors(b1, build, name):
    # a negative step or particle count is a usage error where the size is
    # first read, never a ConstraintError (a broken parameter rule)
    with pytest.raises(ValueError, match=f"{name} must be >= 0, got -1") as err:
        build(b1)
    assert not isinstance(err.value, ConstraintError)


def test_parse_case():
    assert parse_case("canonicalc") is CaseId.CANONICAL_C
    with pytest.raises(ValueError):
        parse_case("E")


def test_admissibility_check(b1):
    bad = ParamBinding.numeric(x=[F(3)], rates=[F(1, 2)])
    with pytest.raises(ValueError):
        bad.check_admissible(CaseId.A, 1)


def test_short_rate_list_is_inadmissible():
    # one rate for three particles is refused, not read as two zero rates
    short = ParamBinding.numeric(x=[F(1, 2)], rates=[F(1, 2)])
    with pytest.raises(ConstraintError, match=r"pi_2 missing: 3 particles need 3 rates, got 1"):
        short.check_admissible(CaseId.A, 3)
    short.check_admissible(CaseId.A, 1)


# sha256 of repr() of kernel_tableau_route, and separately of
# kernel_operator_route, over the desk grid of `ktasep validate --grid desk`
# (its binding, every case, n in {1, 2}, mu in the 2x2 box, lam in the 3x3
# box, ell = 3): the two routes agree exactly there, and their values must
# not move when the tableau sums, the operator evolution or the overall
# factor behind them are reorganised
TABLEAU_ROUTE_DIGEST = "943d79a88c9f5073fbca1bf2e1f0b1cd57b245e642bf2110cfdb110650f98441"


def _desk_binding(n):
    """The binding of `ktasep validate --grid desk` at its first n times."""
    return ParamBinding.numeric(
        x=[F(1, 10), F(1, 12)][:n],
        rates=[F(1, 2), F(1, 3), F(1, 7), F(1, 5)],
        alpha=lambda k: F(1, 4 + k) if k >= 1 else F(0),
        beta_pos=lambda k: F(1, 6 + k) if k >= 1 else F(0),
    )


def test_tableau_route_values_pinned():
    tableau, operator = [], []
    for case in CaseId:
        for n in (1, 2):
            b = _desk_binding(n)
            for mu in partitions_in_box(2, 2):
                for lam in partitions_in_box(3, 3):
                    tableau.append(kernel_tableau_route(case, n, mu, lam, b, 3))
                    operator.append(kernel_operator_route(case, n, mu, lam, b, 3))
    assert len(tableau) == 1440
    for values in (tableau, operator):
        assert hashlib.sha256(repr(values).encode()).hexdigest() == TABLEAU_ROUTE_DIGEST


def test_tableau_table_is_the_route_at_every_desk_target():
    # one table per (case, n, mu) over the whole 3x3 box, targets that do
    # not contain mu included, holds the route's value at every target in
    # any target order, and the pinned values
    lams = partitions_in_box(3, 3)
    values = []
    for case in CaseId:
        for n in (1, 2):
            b = _desk_binding(n)
            for mu in partitions_in_box(2, 2):
                table = tableau_table(case, n, mu, lams, b, 3)
                assert table == tableau_table(case, n, mu, lams[::-1], b, 3)
                for lam in lams:
                    assert table[lam] == kernel_tableau_route(case, n, mu, lam, b, 3)
                values.extend(table[lam] for lam in lams)
    assert hashlib.sha256(repr(values).encode()).hexdigest() == TABLEAU_ROUTE_DIGEST


def test_tableau_table_raises_where_the_route_raises():
    rates = [F(1, 2), F(1, 3), F(1, 7)]
    alpha = ParamBinding.numeric(x=[F(1, 5), F(1, 4)], rates=rates, alpha=lambda k: F(1, 4 + k))
    beta = ParamBinding.numeric(x=[F(1, 5)], rates=rates, beta_pos=lambda k: F(1, 6 + k))
    lams = [P_([]), P_([1]), P_([2, 1])]
    for case, b, n, match in ((CaseId.CANONICAL_C, alpha, 2, "alpha"),
                              (CaseId.CANONICAL_B, beta, 1, "beta_pos")):
        for targets in (lams, []):
            with pytest.raises(ValueError, match=match):
                tableau_table(case, n, P_([1]), targets, b, 3)
        for lam in lams:
            with pytest.raises(ValueError, match=match):
                kernel_tableau_route(case, n, P_([1]), lam, b, 3)
    # at n = 1 CanonicalC takes alpha(0) != 0, with its start correction
    # applied once per table
    for mu in (P_([]), P_([1]), P_([1, 1, 1])):
        table = tableau_table(CaseId.CANONICAL_C, 1, mu, partitions_in_box(3, 3), alpha, 3)
        closed = chain(CaseId.CANONICAL_C, 1, mu, alpha, 3, 3)
        assert table == {lam: closed.prob(lam) for lam in table}, mu


def test_operator_evolutions_continue_across_n(monkeypatch):
    # one dict of evolutions serves n = 1 and n = 2, three (size cap, width)
    # pairs and two bindings that share x_1: every table equals a fresh
    # one, a binding's n = 2 table takes one time step past its n = 1
    # table, and the second binding's n = 1 tables take none.  CanonicalB's
    # conjugate evolution has no width bound, so its widths share one
    from ktasep import kernels

    desk = _desk_binding(2)
    other = ParamBinding([F(1, 10), F(1, 7)], desk.rates, desk.alpha, desk.beta_pos)
    grid = [(b, caps, mu, n) for b in (desk, other) for caps in ((4, 2), (9, 2), (9, 3))
            for mu in (P_([]), P_([1, 1])) for n in (1, 2)]
    steps = []
    step = kernels._apply_time_step
    monkeypatch.setattr(kernels, "_apply_time_step", lambda *a: steps.append(a) or step(*a))
    for case in CaseId:
        fresh = [operator_table(case, n, mu, b, 3, *caps) for b, caps, mu, n in grid]
        del steps[:]
        evolved = {}
        shared = [operator_table(case, n, mu, b, 3, *caps, evolved) for b, caps, mu, n in grid]
        assert shared == fresh, case
        assert len(steps) == (12 if case is CaseId.CANONICAL_B else 18), case


# sha256 of repr() of every chain table of the desk grid's binding (every
# case, n in {1, 2}, mu in the 2x2 box, ell = 3, cap = 3): its sorted
# (lam, repr(p)) items and repr(tail).  Pins the closed route through any
# change to how its targets are enumerated or its per-row masses written.
CLOSED_ROUTE_DIGEST = "ae51e183489bb3b6dc48ecc6896dd778b3264a27294c8f053a074c051522042c"


def test_closed_route_values_pinned():
    out = []
    for case in CaseId:
        for n in (1, 2):
            for mu in partitions_in_box(2, 2):
                t = chain(case, n, mu, _desk_binding(n), 3, 3)
                out.append((sorted((lam, repr(p)) for lam, p in t.probs.items()), repr(t.tail)))
    assert len(out) == 72
    assert hashlib.sha256(repr(out).encode()).hexdigest() == CLOSED_ROUTE_DIGEST


# The same shape of digest over wider tables: every case, n in {1, 2},
# ell = 4, cap = 5, starts with len(mu) below and at ell, and the seeded
# binding make_binding(n, seed=22).  A start with a row past ell is refused.
WIDE_CLOSED_ROUTE_DIGEST = "450ded3bd8ec5f0cd1386c670563218df7b08244ca32b372b827eb0dea760982"


def test_wide_closed_route_values_pinned():
    from conftest import make_binding

    out = []
    for case in CaseId:
        for n in (1, 2):
            b = make_binding(n, seed=22)
            for mu in (P_([]), P_([1]), P_([2, 1]), P_([2, 2, 1])):
                t = chain(case, n, mu, b, 4, 5)
                out.append((sorted((lam, repr(p)) for lam, p in t.probs.items()), repr(t.tail)))
            with pytest.raises(ValueError, match=r"start row 5 = 1 lies past ell = 4"):
                chain(case, n, P_([1, 1, 1, 1, 1]), b, 4, 5)
    assert len(out) == 48
    assert hashlib.sha256(repr(out).encode()).hexdigest() == WIDE_CLOSED_ROUTE_DIGEST


def test_operator_table_rejects_nonzero_rate_at_position_zero():
    # the operator evolution has no alpha(0) / beta_pos(0) weight; with one
    # set it would disagree with chain, so it must raise instead
    rates = [F(1, 2), F(1, 3), F(1, 7)]
    for case, extra in ((CaseId.CANONICAL_C, {"alpha": lambda k: F(1, 4 + k)}),
                        (CaseId.CANONICAL_B, {"beta_pos": lambda k: F(1, 6 + k)})):
        b = ParamBinding.numeric(x=[F(1, 5)], rates=rates, **extra)
        for mu in (P_([]), P_([1])):
            with pytest.raises(ValueError, match="requires"):
                operator_table(case, 1, mu, b, 3, size_cap=4)


# -- the overall factor against products of per-letter values ---------------


def _per_letter_time_factor(case, rates, xs):
    """prod (1 - r x) or prod 1/(1 + r x), one letter pair at a time from
    Fraction(1), each factor a Fraction (a RationalFn for symbolic
    letters, a float for float ones)."""
    out = F(1)
    for r in rates:
        for x in xs:
            if case.geometric:
                out = out * (1 - r * x)
            elif isinstance(r * x, (int, F)):
                out = out * (F(1) / F(1 + r * x))
            elif isinstance(r * x, float):
                out = out * (1.0 / (1 + r * x))
            else:
                out = out * (rf(1) / rf(1 + r * x))
    return out


def _per_letter_rate_monomial(case, mu, lam, b, ell):
    """Each row's product of its box factors from Fraction(1), the rows
    multiplied in order."""
    shift = {CaseId.CANONICAL_C: b.alpha_of, CaseId.CANONICAL_B: b.beta_pos_of}.get(case)
    out = None
    for r in range(1, ell + 1):
        if lam.part(r) <= mu.part(r):
            continue
        row = F(1)
        for c in range(mu.part(r), lam.part(r)):
            row = row * (b.rate(r) if shift is None else shift(c) + b.rate(r))
        out = row if out is None else out * row
    return F(1) if out is None else out


def test_bernoulli_time_factor_of_float_letters():
    # 1/(1 + r x) of a float is a float, as (1 - r x) is in the geometric
    # cases; it used to raise TypeError in exactalg.reciprocal
    for case in (CaseId.B, CaseId.D, CaseId.CANONICAL_B):
        got = time_factor(case, ParamBinding([0.1], [F(1, 2), F(1, 3)]), [1, 2], [0.1])
        want = _per_letter_time_factor(case, [F(1, 2), F(1, 3)], [0.1])
        assert _same(got, want) and type(got) is float


RATE_POOL = [F(0), F(1, 2), F(1, 3), F(2, 7), 1, F(3, 4)]
SITE_POOL = [F(1, 6), F(-1, 9), F(0), F(3, 10), F(-1, 4), 2]


def _same(got, want):
    return got == want and type(got) is type(want)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(list(CaseId)),
    st.sampled_from(["exact", "float", "symbolic"]),
    st.lists(st.sampled_from([F(1, 10), F(1, 12), F(2, 9), F(0), 1]), max_size=3),
    st.lists(st.sampled_from(RATE_POOL), min_size=3, max_size=3),
    st.lists(st.sampled_from(SITE_POOL), min_size=8, max_size=8),
    st.lists(st.integers(0, 3), max_size=3),
    st.lists(st.lists(st.integers(0, 6), max_size=4), min_size=1, max_size=4),
    st.integers(0, 3),
)
def test_overall_factor_against_per_letter_products(case, kind, xs, rates, sites, mu, lams, ell):
    # all six cases, zero and repeated rates, alphas and betas of both
    # signs; float site letters (as the CLI's sine closure gives) and float
    # x keep float results, and symbolic letters keep their own arithmetic.
    # Float and symbolic letters take every other place, so that rows mix
    # them with exact ones.
    if kind == "float":
        sites = [float(v) if k % 2 else v for k, v in enumerate(sites)]
        xs = [float(x) for x in xs]
    elif kind == "symbolic":
        xs = [X(i + 1) if i % 2 == 0 else x for i, x in enumerate(xs)]
        rates = [P(j + 1) if j != 1 else r for j, r in enumerate(rates)]
        sites = [A(k) if k % 2 else v for k, v in enumerate(sites)]
    site = lambda k: sites[k] if k < len(sites) else 0
    b = ParamBinding(xs, rates, site, site)
    got = time_factor(case, b, range(1, ell + 1), xs)
    want = _per_letter_time_factor(case, rates[:ell], xs)
    assert _same(got, want), (got, want)
    if kind == "exact":
        assert type(got) is F
    mu = P_(sorted(mu, reverse=True))
    rows = _RateRows(case, mu, b, ell)  # one table's rows, grown target by target
    for parts in lams:
        lam = P_(sorted(parts, reverse=True))
        want = _per_letter_rate_monomial(case, mu, lam, b, ell)
        assert _same(rate_monomial(case, mu, lam, b, ell), want), (mu, lam)
        assert _same(rows.monomial(lam), want), (mu, lam)
        if kind == "exact":
            assert type(want) is F
