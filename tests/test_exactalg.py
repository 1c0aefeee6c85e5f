import math
from decimal import Decimal
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktasep import exactalg
from ktasep.exactalg import (
    LEIBNIZ_MAX_DIM,
    A,
    B,
    LaurentPoly,
    P,
    PoleError,
    RationalFn,
    VarId,
    X,
    NotSymmetricError,
    _det_leibniz,
    det_exact,
    omega_on_expansion,
    schur_expand,
    h_prefix,
    schur_poly,
    supersym_e,
    supersym_h,
    theta_h_pair,
)
from ktasep.partitions import Partition

term_strategy = st.lists(
    st.tuples(
        st.integers(-3, 3),
        st.lists(st.integers(-2, 2), min_size=5, max_size=5),
    ),
    min_size=0,
    max_size=4,
)


def build(terms):
    total = LaurentPoly.zero()
    for c, exps in terms:
        pairs = [(VarId("X", 1), exps[0]), (VarId("X", 2), exps[1]),
                 (VarId("P", 1), exps[2]), (VarId("A", 1), exps[3]),
                 (VarId("B", 2), exps[4])]
        total = total + LaurentPoly.monomial([(v, e) for v, e in pairs if e], c)
    return total


@settings(max_examples=40)
@given(term_strategy, term_strategy, term_strategy)
def test_ring_laws(ta, tb, tc):
    a, b, c = build(ta), build(tb), build(tc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


# a quotient of two small LaurentPolys, each as ``build`` takes them
rational_strategy = st.tuples(*[st.lists(
    st.tuples(st.integers(-3, 3), st.lists(st.integers(-1, 1), min_size=5, max_size=5)),
    max_size=3,
)] * 2)

# a rational point at which no variable vanishes
POINT = {VarId("X", 1): F(1, 3), VarId("X", 2): F(-2, 5), VarId("P", 1): F(3, 7),
         VarId("A", 1): F(5, 2), VarId("B", 2): F(-7, 11)}


def build_rf(terms):
    num, den = build(terms[0]), build(terms[1])
    r = RationalFn.from_poly(num)
    return r * RationalFn.from_den_factor(den) if den else r


@settings(max_examples=40, deadline=None)
@given(rational_strategy, rational_strategy, rational_strategy)
def test_rationalfn_ring_laws(ta, tb, tc):
    a, b, c = build_rf(ta), build_rf(tb), build_rf(tc)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == 1
    # eval is a ring homomorphism at a point off the poles
    try:
        va, vb = a.eval(POINT), b.eval(POINT)
    except PoleError:
        return
    assert (a + b).eval(POINT) == va + vb
    assert (a - b).eval(POINT) == va - vb
    assert (a * b).eval(POINT) == va * vb
    if va:
        assert a.inverse().eval(POINT) == 1 / va


def test_laurent_negative_exponents():
    p1 = P(1)
    inv = LaurentPoly.var(VarId("P", 1), -1)
    assert p1 * inv == LaurentPoly.const(1)
    assert inv.eval({VarId("P", 1): F(1, 3)}) == 3


def test_rationalfn_eval_and_pole():
    r = RationalFn.from_den_factor(1 - P(2) * X(1))
    assert r.eval({VarId("P", 2): F(1, 2), VarId("X", 1): F(1, 3)}) == F(6, 5)
    with pytest.raises(PoleError):
        r.eval({VarId("P", 2): F(1), VarId("X", 1): F(1)})


def test_rationalfn_cross_multiplication_equality():
    x = X(1)
    a = RationalFn.from_den_factor(1 - x) * (1 - x * x)
    b = RationalFn.from_poly(1 + x)
    assert a == b


def test_monomial_eval_example():
    # pi^{lam/mu} with lam=(2,1), mu=(1,1), pi=(1/2,1/3) -> 1/2
    val = (P(1) ** (2 - 1)) * (P(2) ** (1 - 1))
    assert val.eval({VarId("P", 1): F(1, 2), VarId("P", 2): F(1, 3)}) == F(1, 2)


def test_supersym_examples():
    x1, x2, y1 = X(1), X(2), P(1)
    assert supersym_h(0, [x1], [y1]) == 1
    assert supersym_h(-2, [x1], [y1]) == 0
    assert supersym_e(-1, [x1], [y1]) == 0
    assert supersym_h(1, [x1], [y1]) == x1 - y1
    assert supersym_e(2, [x1, x2], [y1]) == x1 * x2 - (x1 + x2) * y1 + y1 * y1


def test_supersym_cancellation():
    xs = [X(1), X(2), X(3)]
    for m in range(1, 6):
        assert supersym_h(m, xs, xs) == 0
        assert supersym_h(m, xs[:2], xs[:2]) == 0


def test_theta_examples():
    x, y = X(1), P(1)
    # empty Y collapses to plain h
    assert theta_h_pair(2, h_prefix(5, [x]), h_prefix(3, []), 5) == x * x
    assert theta_h_pair(0, h_prefix(3, []), h_prefix(3, [y]), 3) == 1
    assert theta_h_pair(-1, h_prefix(4, [x]), h_prefix(4, [y]), 4) == y + x * y**2 + x**2 * y**3 + x**3 * y**4


# Brute-force symmetric functions, independent of the prefix recurrence:
# h_k sums over multisets of k letters, e_k over k-subsets.
def _h(k, xs):
    return sum((math.prod(c) for c in combinations_with_replacement(xs, k)), F(0))


def _e(k, xs):
    return sum((math.prod(c) for c in combinations(xs, k)), F(0))


alphabet = st.lists(st.fractions(-3, 3, max_denominator=5), max_size=3)


@settings(max_examples=60, deadline=None)
@given(alphabet, alphabet, st.integers(0, 5), st.integers(-5, 5))
def test_prefix_builder_against_brute_force(xs, ys, m, d):
    textbook_h = [
        sum((-1) ** j * _h(k - j, xs) * _e(j, ys) for j in range(k + 1)) for k in range(m + 1)
    ]
    assert h_prefix(m, xs, ys) == textbook_h
    assert h_prefix(m, xs) == [_h(k, xs) for k in range(m + 1)]
    assert supersym_h(m, xs, ys) == textbook_h[m]
    assert supersym_e(m, xs, ys) == sum(
        (-1) ** j * _e(m - j, xs) * _h(j, ys) for j in range(m + 1)
    )
    # theta sum: both indices capped at 4, from a top prefix of the least
    # length and from a longer one
    theta = sum(_h(a, xs) * _h(a - d, ys) for a in range(max(d, 0), min(4, 4 + d) + 1))
    for k in (min(4, 4 + d), 7):
        assert theta_h_pair(d, h_prefix(k, xs), h_prefix(max(min(4, 4 - d), 0), ys), 4) == theta


def test_det_exact_elimination_against_leibniz():
    import random

    rnd = random.Random(3)
    for dim in range(7):
        for kind in ("int", "frac"):
            for trial in range(12):
                # many zero entries: zero pivots force row swaps, and
                # Leibniz products that stop early are exercised
                rows = [[rnd.randint(-3, 3) * rnd.randint(0, 1) for _ in range(dim)]
                        for _ in range(dim)]
                if kind == "frac":
                    rows = [[F(v, rnd.randint(1, 4)) for v in row] for row in rows]
                if dim >= 2 and trial % 4 == 3:  # singular: a repeated row
                    rows[-1] = list(rows[0])
                got = det_exact(rows)
                want = _det_leibniz(rows) if dim else F(1)
                assert got == want and type(got) is type(want), rows
    # zero pivots at the first and at a later elimination step, and a
    # column with no pivot at all
    for rows, value in (([[0, 1, 2], [3, 4, 5], [6, 7, 9]], -3),
                        ([[1, 2, 3], [2, 4, 5], [3, 7, 1]], 1),
                        ([[0, 1], [0, 2]], 0)):
        thirds = [[F(v, 3) for v in row] for row in rows]
        assert det_exact(rows) == _det_leibniz(rows) == value
        assert det_exact(thirds) == _det_leibniz(thirds) == F(value, 3 ** len(rows))
        assert type(det_exact(rows)) is int and type(det_exact(thirds)) is F
    # mixed int and Fraction entries give a Fraction
    assert det_exact([[1, F(1, 2)], [0, F(2, 3)]]) == F(2, 3)
    assert type(det_exact([[1, F(1, 2)], [0, F(2, 3)]])) is F


def test_ring_entries_use_leibniz(monkeypatch):
    sizes = []

    def counted(rows):
        sizes.append(len(rows))
        return _det_leibniz(rows)

    def refuse(rows):
        raise AssertionError("ring entries reached the rational elimination")

    monkeypatch.setattr(exactalg, "_det_leibniz", counted)
    monkeypatch.setattr(exactalg, "_det_bareiss", refuse)
    # the Jacobi-Trudi determinant of s_(1,1) in 2 variables, uncached
    assert schur_poly.__wrapped__((1, 1), 2) == X(1) * X(2)
    assert sizes == [2]


def test_leibniz_size_guard():
    n = LEIBNIZ_MAX_DIM
    ident = lambda one, zero, dim: [[one if i == j else zero for j in range(dim)]
                                    for i in range(dim)]
    assert det_exact(ident(LaurentPoly.const(1), LaurentPoly.zero(), n)) == 1
    for one, zero in ((LaurentPoly.const(1), LaurentPoly.zero()), (Decimal(1), Decimal(0))):
        with pytest.raises(ValueError, match=f"dimension {n + 1}"):
            det_exact(ident(one, zero, n + 1))
    # rational entries are eliminated at any size
    assert det_exact(ident(1, 0, 12)) == 1
    assert det_exact(ident(F(1, 2), F(0), 12)) == F(1, 2**12)


def test_schur_expand_examples():
    x1, x2 = X(1), X(2)
    e = schur_expand(x1 + x2, 2, 4)
    assert set(e.coeffs) == {Partition([1])}
    e = schur_expand(x1 * x1 + x1 * x2 + x2 * x2, 2, 4)
    assert set(e.coeffs) == {Partition([2])}
    # Jacobi-Trudi oracle: h2 h1 - h3 = s21 in 3 variables
    h = lambda k: schur_poly((k,), 3)
    e = schur_expand(h(2) * h(1) - h(3), 3, 5)
    assert set(e.coeffs) == {Partition([2, 1])}
    assert e.coeffs[Partition([2, 1])] == LaurentPoly.const(1)


def test_schur_expand_roundtrip_random():
    import random

    rnd = random.Random(5)
    n, D = 3, 6
    for _ in range(5):
        f = LaurentPoly.zero()
        for _ in range(3):
            lam = sorted([rnd.randint(0, 2) for _ in range(n)], reverse=True)
            f = f + rnd.randint(-3, 3) * schur_poly(tuple(p for p in lam if p), n)
        exp = schur_expand(f, n, D)
        assert exp.reconstruct() == f


def test_schur_expand_rejects_nonsymmetric():
    with pytest.raises(NotSymmetricError) as err:
        schur_expand(X(1) * X(1) + X(2), 2, 4)
    assert err.value.witness == 1


def test_omega():
    e = schur_expand(schur_poly((2, 1), 3), 3, 5)
    w = omega_on_expansion(e)
    assert set(w.coeffs) == {Partition([2, 1])}
    e3 = schur_expand(schur_poly((3,), 3), 3, 5)
    assert set(omega_on_expansion(e3).coeffs) == {Partition([1, 1, 1])}
    assert omega_on_expansion(omega_on_expansion(e3)) == e3


def test_canonical_json_ordering():
    poly = B(2) * X(1) + P(1) * X(2)
    json_terms = poly.to_json()
    # family order X < P < A < B within each monomial key, terms sorted
    assert json_terms[0]["monomial"][0][0] == "X"
