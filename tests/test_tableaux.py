import contextlib
import hashlib
import io
import random
from fractions import Fraction as F

import pytest
from conftest import UNREFINED_G, UNREFINED_J, symbolic_letters

from ktasep import cli, tableaux
from ktasep.cli import _tableaux

from ktasep.conventions import IndexConvention
from ktasep.kernels import CaseId, ParamBinding, _tableau_letters, tableau_table
from ktasep.exactalg import (
    A,
    B,
    LaurentPoly,
    P,
    VarId,
    X,
    omega_on_expansion,
    rf,
    schur_expand,
)
from ktasep.partitions import (
    Partition,
    SkewShape,
    conjugate,
    partitions_in_box,
    subpartitions,
)
from ktasep.tableaux import (
    SET_VALUED,
    HookEntry,
    gen_G,
    gen_G_doubleslash,
    gen_flagged_schur,
    gen_g,
    gen_j,
    hook_tableau_weight,
    iter_hook_tableaux,
)

P_ = Partition


def _desk_binding(n):
    """The binding of `ktasep validate --grid desk` at its first n times."""
    return ParamBinding.numeric(
        x=[F(1, 10), F(1, 12)][:n],
        rates=[F(1, 2), F(1, 3), F(1, 7), F(1, 5)],
        alpha=lambda k: F(1, 4 + k) if k >= 1 else F(0),
        beta_pos=lambda k: F(1, 6 + k) if k >= 1 else F(0),
    )


def test_hook_entry_validation():
    HookEntry(2, (2, 3), (3, 5))
    with pytest.raises(ValueError):
        HookEntry(2, (1,), ())
    with pytest.raises(ValueError):
        HookEntry(2, (), (2,))


def test_gen_G_examples():
    x1, x2, b1 = X(1), X(2), B(1)
    assert gen_G(SkewShape(P_([1])), 1, symbolic_letters(False, False)) == x1
    assert gen_G(SkewShape(P_([1])), 2, SET_VALUED) == x1 + x2 - b1 * x1 * x2
    assert gen_G(SkewShape(P_([2, 1]), P_([1, 1])), 1, SET_VALUED) == x1


def test_gen_G_doubleslash_examples():
    x1, b2 = X(1), B(2)
    assert gen_G_doubleslash(P_([1, 1]), P_([1, 1]), 1, SET_VALUED) == 1 - b2 * x1
    assert gen_G_doubleslash(P_([2, 1]), P_([1, 1]), 1, SET_VALUED) == x1 - b2 * x1 * x1


def test_vanishing_property():
    # G_{lam \\ mu} = 0 whenever mu is not contained in lam
    for lam, mu in [([1], [2]), ([1], [1, 1]), ([2], [1, 1]), ([2, 1], [3]), ([2, 2], [3, 1])]:
        v = gen_G_doubleslash(P_(lam), P_(mu), 2, SET_VALUED)
        assert not v, (lam, mu, v)
        v = gen_G_doubleslash(P_(lam), P_(mu), 1)
        assert not v, (lam, mu)


def test_gen_g_examples():
    x1, x2, b1 = X(1), X(2), B(1)
    assert gen_g(SkewShape(P_([1])), 2) == x1 + x2
    assert gen_g(SkewShape(P_([1, 1])), 1) == b1 * x1


def test_gen_j_example():
    # spec's omega-mirror example omits the unmerged x1^2 term; the
    # duality-consistent value keeps it (see decisions ledger)
    x1, a1 = X(1), A(1)
    assert gen_j(SkewShape(P_([2])), 1) == x1 * x1 + a1 * x1


def test_flagged_schur_trivial():
    assert gen_flagged_schur(P_([]), 3) == 1
    # single box: x letters plus the first flag letter
    g = gen_flagged_schur(P_([1]), 2)
    assert g == X(1) + X(2) + B(1)


def test_flagged_schur_branching_identity():
    # flagged Schur = sum over mu <= lam of beta^{lam-mu} g_mu(x; beta)
    for lam_parts in [(2, 1), (2, 2), (3, 2)]:
        lam = P_(lam_parts)
        for n in (1, 2):
            lhs = gen_flagged_schur(lam, n)
            rhs = LaurentPoly.zero()
            for mu in subpartitions(lam):
                w = LaurentPoly.const(1)
                for i in range(1, lam.length() + 1):
                    w = w * B(i) ** (lam.part(i) - mu.part(i))
                rhs = rhs + w * gen_g(SkewShape(mu), n)
            assert lhs == rhs, lam


def test_omega_duality_schur_level():
    # schur_expand(g(lam/mu; single beta)) = omega(schur_expand(j(lam'/mu')))
    from ktasep.partitions import conjugate

    n = 3
    cases = [((2, 1), ()), ((2, 2), ()), ((3, 1), (1,)), ((2, 2, 1), (1,))]
    for lam_parts, mu_parts in cases:
        lam, mu = P_(lam_parts), P_(mu_parts)
        g = gen_g(SkewShape(lam, mu), n, UNREFINED_G)
        j = gen_j(SkewShape(conjugate(lam), conjugate(mu)), n, UNREFINED_J)
        eg = schur_expand(g, n, 9)
        ej = schur_expand(j, n, 9)
        assert omega_on_expansion(eg) == ej, (lam, mu)


def test_monomial_signs():
    # gen_g, gen_j have nonnegative coefficients; gen_G signs are
    # (-1)^{excess} exactly
    for lam in partitions_in_box(2, 3):
        g = gen_g(SkewShape(lam), 2)
        assert all(c > 0 for c in g.terms.values())
        j = gen_j(SkewShape(lam), 2)
        assert all(c > 0 for c in j.terms.values())
        G = gen_G(SkewShape(lam), 2, SET_VALUED)
        if hasattr(G, "terms"):
            for mono, c in G.terms.items():
                excess = sum(e for v, e in mono if v.family == "B")
                assert c * (-1) ** excess > 0, (lam, mono, c)


def test_branching_g():
    # g_{lam/mu}(x1, x2) = sum_nu g_{lam/nu}(x2) g_{nu/mu}(x1)
    for lam_parts in [(2, 1), (3, 2), (2, 2)]:
        lam = P_(lam_parts)
        for mu in subpartitions(lam):
            lhs = gen_g(SkewShape(lam, mu), 2)
            rhs = LaurentPoly.zero()
            for nu in subpartitions(lam):
                if not nu.contains(mu):
                    continue
                outer_piece = gen_g(SkewShape(lam, nu), 1, symbolic_letters(shift=1))
                rhs = rhs + outer_piece * gen_g(SkewShape(nu, mu), 1)
            assert lhs == rhs, (lam, mu)


def test_branching_G_doubleslash():
    # G_{lam \\ mu}(x1, x2) = sum_nu G_{lam \\ nu}(x2) G_{nu \\ mu}(x1)
    for lam_parts in [(2, 1), (2, 2)]:
        lam = P_(lam_parts)
        for mu in subpartitions(lam):
            lhs = gen_G_doubleslash(lam, mu, 2, SET_VALUED)
            rhs = LaurentPoly.zero()
            for nu in subpartitions(lam):
                if not nu.contains(mu):
                    continue
                shifted = symbolic_letters(False, shift=1)
                outer_piece = gen_G_doubleslash(lam, nu, 1, shifted)
                inner_piece = gen_G_doubleslash(nu, mu, 1, SET_VALUED)
                rhs = rhs + outer_piece * inner_piece
            assert lhs == rhs, (lam, mu)


def _per_tableau_sum(shape, n, letters):
    """Reference for gen_G's class sum: one weight per enumerated tableau."""
    arm_mode = "off" if letters.alpha is None else "resummed"
    total = LaurentPoly.zero()
    for t in iter_hook_tableaux(shape, n, arm_mode, letters.beta is not None):
        total = hook_tableau_weight(t, arm_mode, letters) + total
    return total


@pytest.mark.parametrize("convention", list(IndexConvention), ids=lambda c: c.name)
def test_class_sum_matches_per_tableau_sum(convention):
    # each shape has a cell with both a left neighbour and a cell above it
    shapes = [((2, 1), ()), ((2, 2), ()), ((3, 2), (1,)), ((3, 3), (2,)), ((2, 2, 1), (1,))]
    for outer, inner in shapes:
        shape = SkewShape(P_(outer), P_(inner))
        for n in (1, 2):
            for alpha in (False, True):
                for beta in (False, True):
                    letters = symbolic_letters(alpha, beta, convention)
                    want = _per_tableau_sum(shape, n, letters)
                    got = gen_G(shape, n, letters)
                    key = (outer, inner, n, alpha, beta)
                    assert type(got) is type(want), key
                    assert rf(got) == rf(want), key


def _symbolic_at(value, letters):
    """A symbolic sum evaluated at the letter values of ``letters``."""
    read = {"X": letters.x, "A": letters.alpha, "B": letters.beta}
    return rf(value).eval({v: read[v.family](v.index) for v in rf(value).variables()})


@pytest.mark.parametrize("convention", list(IndexConvention), ids=lambda c: c.name)
def test_sums_at_letter_values_match_symbolic_eval(convention):
    # summing at the kernel route's letter values gives the value of the
    # symbolic sum there, on a seeded sample of the desk grid's shapes:
    # the G cases (conjugate shapes for B and CanonicalB), inner outside
    # outer (the gen_G_skew box factors) and both index conventions.  A
    # case's letters hold no alpha exactly in A and C, no beta exactly in
    # B and D
    for case in CaseId:
        letters = _tableau_letters(case, _desk_binding(1), 3, convention)
        assert (letters.alpha is None) == (case in (CaseId.A, CaseId.C)), case
        assert (letters.beta is None) == (case in (CaseId.B, CaseId.D)), case
        assert letters.convention is convention
    rng = random.Random(12)
    grid = [
        (case, n, mu, lam)
        for case in (CaseId.B, CaseId.C, CaseId.CANONICAL_C, CaseId.CANONICAL_B)
        for n in (1, 2)
        for mu in partitions_in_box(2, 2)
        for lam in partitions_in_box(3, 3)
    ]
    seen = set()
    for case, n, mu, lam in rng.sample(grid, 60):
        letters = _tableau_letters(case, _desk_binding(n), 3, convention)
        if case in (CaseId.B, CaseId.CANONICAL_B):
            lam, mu = conjugate(lam), conjugate(mu)
        symbolic = symbolic_letters(letters.alpha is not None, letters.beta is not None, convention)
        got = gen_G_doubleslash(lam, mu, n, letters)
        want = _symbolic_at(gen_G_doubleslash(lam, mu, n, symbolic), letters)
        assert got == want, (case, n, mu, lam)
        seen.add((case, lam.contains(mu)))
    assert len(seen) == 8, seen
    # the duals of cases A and D, on their own shapes
    for lam in partitions_in_box(3, 3):
        shape = SkewShape(lam, P_([1]) if lam.contains(P_([1])) else P_([]))
        letters = _tableau_letters(CaseId.A, _desk_binding(2), 3, convention)
        assert gen_g(shape, 2, letters) == _symbolic_at(gen_g(shape, 2), letters)
        letters = _tableau_letters(CaseId.D, _desk_binding(2), 3, convention)
        assert gen_j(shape, 2, letters) == _symbolic_at(gen_j(shape, 2), letters)
    # summing at the letters and evaluating share the cell weights, so pin
    # the resummed arm factor on its own: one cell, no legs, sums to
    # sum_v x_v prod_{m >= v} 1 / (1 + alpha x_m)
    for n in (1, 2, 3):
        want = rf(0)
        for v in range(1, n + 1):
            term = rf(X(v))
            for m in range(v, n + 1):
                term = term / rf(1 + A(1) * X(m))
            want = want + term
        letters = symbolic_letters(True, False, convention)
        assert rf(gen_G(SkewShape(P_([1])), n, letters)) == want, n


def test_sum_memo_is_bounded():
    # sums live with their Letters, so a run over many bindings keeps
    # nothing once its letters go: the sums at five bindings stay right,
    # and numeric tables add nothing to the process-wide SYMBOLIC sums
    for k in range(1, 6):
        letters = tableaux.Letters(lambda i: F(1, 10 + i), lambda k_: F(1, k + 3), lambda j: F(1, 7))
        got = gen_G(SkewShape(P_([2, 1])), 2, letters)
        assert got == _symbolic_at(gen_G(SkewShape(P_([2, 1])), 2), letters)
    symbolic = [list(tableaux.SYMBOLIC.sums), list(SET_VALUED.sums)]
    for case in CaseId:
        tables = tableau_table(case, 2, P_([1]), partitions_in_box(3, 3), _desk_binding(2), 3)
        assert any(v != 0 for v in tables.values()), case
    assert [list(tableaux.SYMBOLIC.sums), list(SET_VALUED.sums)] == symbolic


def test_sum_memo_keeps_rings_apart():
    # symbolic letters over rational one and zero (a binding with x =
    # [X(1)]) sum the empty shape's one tableau to a rational 1, the
    # default letters to a polynomial 1: each Letters keeps its own sums,
    # so neither call is served the other's sum, in either order
    shape = SkewShape(P_([1]), P_([1]))
    for rational_first in (True, False):
        rational = tableaux.Letters(X, A, B)
        pair = (rational, tableaux.SYMBOLIC)
        for letters in pair if rational_first else pair[::-1]:
            kind = F if letters is rational else LaurentPoly
            for got in (gen_g(shape, 1, letters), gen_j(shape, 1, letters),
                        gen_G(shape, 1, letters)):
                assert type(got) is kind and got == 1
        set_valued = tableaux.Letters(X, None, B)
        assert type(gen_G(SkewShape(P_([1])), 1, set_valued)) is LaurentPoly


def test_tall_column_sums_to_zero_at_once():
    # gen_G returns zero without summing when a column holds more than n
    # cells; the tableau enumerator, which gen_G does not call, finds no
    # hook tableau exactly there
    seen = set()
    for lam in partitions_in_box(3, 3):
        for mu in subpartitions(lam):
            shape = SkewShape(lam, mu)
            tallest = max((conjugate(lam).part(c) - conjugate(mu).part(c)
                           for c in range(1, lam.part(1) + 1)), default=0)
            for n in (1, 2):
                none = next(iter_hook_tableaux(shape, n, "resummed"), None) is None
                assert none == (tallest > n), (lam, mu, n)
                if none:
                    assert gen_G(shape, n) == 0
                seen.add(none)
    assert seen == {True, False}


def test_corner_expansion_is_the_doubleslash_sum():
    # tableau_table sums one corner_expansion of mu over all its targets;
    # per target that sum is gen_G_doubleslash, term for term (same repr),
    # for every mu with 0-3 corners, both conventions and every valuation
    # with alpha, beta or both
    box = partitions_in_box(3, 3)
    corner_counts = set()
    for convention in IndexConvention:
        for flags in ((True, True), (True, False), (False, True)):
            letters = symbolic_letters(*flags, convention)
            for mu in box:
                expansion = tableaux.corner_expansion(mu, letters)
                assert len(expansion) == 2 ** len(tableaux.corners(mu))
                corner_counts.add(len(tableaux.corners(mu)))
                for lam in box:
                    got = tableaux.gen_G_expanded(lam, expansion, 1, letters)
                    want = gen_G_doubleslash(lam, mu, 1, letters)
                    assert repr(got) == repr(want), (convention, flags, mu, lam)
    assert corner_counts == {0, 1, 2, 3}


def test_series_mode_requires_cutoff():
    with pytest.raises(ValueError):
        list(iter_hook_tableaux(SkewShape(P_([1])), 1, arm_mode="series"))


def test_multiset_series_matches_resummed():
    # J series through a cutoff approximates the resummed rational value
    shape = SkewShape(P_([2]), P_([]))
    j_letters = symbolic_letters(True, False)
    series = gen_G(shape, 1, j_letters, cutoff=9)
    resummed = rf(gen_G(shape, 1, j_letters))
    bind = {VarId("X", 1): F(1, 5), VarId("A", 1): F(1, 3), VarId("A", 2): F(1, 4)}
    sv = series.eval(bind)
    rv = resummed.eval(bind)
    assert abs(sv - rv) < F(1, 10**4)



def test_cutoff_sums_the_series():
    # a cutoff selects the series arm mode: a polynomial holding every
    # tableau with at most `cutoff` entries, one x per entry, so it is the
    # next cutoff's series less its top degree, and each degree up to the
    # cutoff is there
    j_letters = symbolic_letters(True, False)
    for shape in (SkewShape(P_([2])), SkewShape(P_([2, 1]), P_([1]))):
        for cutoff in (3, 5):
            series = gen_G(shape, 2, j_letters, cutoff=cutoff)
            assert type(series) is LaurentPoly, (shape, cutoff)
            longer = gen_G(shape, 2, j_letters, cutoff=cutoff + 1)
            assert series == longer.truncate_family_degree("X", cutoff) != longer
            degrees = {sum(e for v, e in m if v.family == "X") for m in series.terms}
            assert degrees == set(range(shape.size(), cutoff + 1)), (shape, cutoff)
    # without alpha there are no arms, so the cutoff has nothing to cap
    shape = SkewShape(P_([2, 1]))
    assert repr(gen_G(shape, 2, SET_VALUED, cutoff=3)) == repr(gen_G(shape, 2, SET_VALUED))

# sha256 of repr() of the `tableaux --list` output (families g, j and G) and,
# separately, of repr(gen_flagged_schur), on the shapes [2,1], [2,2] and
# [3,1] with n = 1, 2, 3: the listings keep their entries and order, and
# the flagged sums their terms, however the fillings are enumerated
LISTING_DIGEST = "e5fc3f0d88d2f34524b90f3e4c0699107ccef283c0139eaa82728edf78f3f733"
FLAGGED_DIGEST = "fa77fcbb2382f874fc7f7b7ebaf8ccd4c3e628b14d44457a35129d59d524e6cc"


def test_listings_and_flagged_sums_pinned():
    listings, flagged = [], []
    for lam in (Partition([2, 1]), Partition([2, 2]), Partition([3, 1])):
        for n in (1, 2, 3):
            for family in ("g", "j", "G"):
                listings.append(list(_tableaux(SkewShape(lam), n, family)))
            flagged.append(repr(gen_flagged_schur(lam, n)))
    assert sum(len(x) for x in listings) == 225
    assert hashlib.sha256(repr(listings).encode()).hexdigest() == LISTING_DIGEST
    assert hashlib.sha256(repr(flagged).encode()).hexdigest() == FLAGGED_DIGEST


# sha256 of the stdout of `ktasep tableaux` for the families g, j, G, Gds
# (inner [1]) and flagged, on the shapes [2,1], [2,2] and [3,1,1] with
# n = 1, 2, 3: the generating functions' terms, which no other pin reads
# for g, j, G or Gds
TABLEAUX_COMMAND_DIGEST = "2e1ccf43c2cac8f5d9cc8382d9d80c3d0adbd6d5d94b8d90800cf4173fb18d8e"


def test_tableaux_command_terms_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for family in ("g", "j", "G", "Gds", "flagged"):
            for shape in ("[2,1]", "[2,2]", "[3,1,1]"):
                for n in ("1", "2", "3"):
                    argv = ["tableaux", "--family", family, "--shape", shape, "--n", n]
                    if family == "Gds":
                        argv += ["--inner", "[1]"]
                    assert cli.main(argv) == 0, argv
    assert out.getvalue().count("\n") == 45
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == TABLEAUX_COMMAND_DIGEST
