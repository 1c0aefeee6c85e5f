from fractions import Fraction as F

import pytest

from ktasep.exactalg import A, B, LaurentPoly, VarId
from ktasep.operators import (
    OpParams,
    PartitionVector,
    U_family,
    U_step,
    affine,
    apply_U,
    apply_u,
    apply_word,
    check_weak_knuth,
    noncomm_e,
    noncomm_h,
    resolvent,
    u_family,
    u_step,
)
from ktasep.partitions import Partition, partitions_in_box

P_ = Partition
SYM = OpParams.symbolic()
BETA_ONLY = OpParams.symbolic_beta_only()
a1, a2, a3 = A(1), A(2), A(3)
b1, b2, b3 = B(1), B(2), B(3)


def basis(parts):
    return PartitionVector.basis(P_(parts))


def test_U_expansion_example():
    lhs = apply_word([2, 1, 1], U_family(SYM), basis([1, 1]))
    assert lhs == PartitionVector(
        {
            P_([3, 2]): LaurentPoly.const(1),
            P_([3, 1]): -a1,
            P_([2, 2]): -(a1 + a2),
            P_([2, 1]): a1 * (a1 + a2),
            P_([1, 1]): a1 * a1 * b1,
        }
    )
    rhs = apply_word([1, 2, 1], U_family(SYM), basis([1, 1]))
    assert rhs == PartitionVector(
        {
            P_([3, 2]): LaurentPoly.const(1),
            P_([3, 1]): -a1,
            P_([2, 2]): -a2,
            P_([2, 1]): a1 * a2 - a1 * b1,
            P_([1, 1]): a1 * a1 * b1,
        }
    )
    assert lhs != rhs  # the strong Knuth failure witness


def test_U_weak_sum_relation_example():
    U = U_family(SYM)
    v = basis([1, 1])
    lhs = apply_word([2, 1, 2], U, v)
    assert lhs == PartitionVector(
        {P_([2, 2]): b1, P_([2, 1]): -a1 * b1, P_([1, 1]): -a1 * b1 * b1}
    )
    rhs = apply_word([2, 2, 1], U, v)
    assert rhs == PartitionVector(
        {P_([2, 2]): b1 - a1, P_([2, 1]): a1 * a1, P_([1, 1]): -a1 * b1 * b1}
    )


def test_U_blocked_example():
    U0 = U_family(BETA_ONLY)
    r = apply_word([2, 4], U0, basis([4, 2, 1, 1]))
    assert r == PartitionVector({P_([4, 3, 1, 1]): b3})
    assert r == apply_word([4, 2], U0, basis([4, 2, 1, 1]))


def test_U_on_empty():
    assert apply_U(1, basis([]), SYM) == PartitionVector({P_([1]): F(1)})


def test_u_on_empty_capped():
    r = apply_u(1, basis([]), 3, SYM)
    assert r == PartitionVector({P_([1]): F(1), P_([2]): a1, P_([3]): a1 * a2})


def test_u_push_example():
    r = apply_word([2, 4], u_family(BETA_ONLY, 20), basis([4, 1, 1, 1]))
    assert r == PartitionVector({P_([4, 3, 2, 2]): b2 * b3})


def test_u_knuth_failure_coefficients():
    u = u_family(SYM, 6)
    w1 = apply_word([2, 3, 1], u, basis([]))
    w2 = apply_word([2, 1, 3], u, basis([]))
    c1 = w1.coeff(P_([3, 2, 1]))
    c2 = w2.coeff(P_([3, 2, 1]))
    # w2 matches the paper display; w1's complete value carries the
    # (3,1,1)-intermediate contribution the display truncates away
    assert c2 == (a1 + a2) * b1 * b2
    assert c1 == a2 * b2 * (a1 + b1)
    assert c1 != c2


def test_u_cap_error():
    with pytest.raises(ValueError):
        apply_u(1, basis([2, 1]), 3, SYM)


def test_noncomm_h_pushing_example():
    # h_1(u_3).(1,1) with beta = pi^{-1} form: beta-vars stand in
    r = noncomm_h(1, u_family(BETA_ONLY, 10), 3, basis([1, 1]))
    assert r == PartitionVector(
        {P_([2, 1]): F(1), P_([2, 2]): b1, P_([1, 1, 1]): F(1)}
    )
    r2 = noncomm_h(2, u_family(BETA_ONLY, 10), 3, basis([1, 1]))
    assert r2 == PartitionVector(
        {
            P_([3, 1]): F(1),
            P_([3, 2]): b1,
            P_([2, 1, 1]): F(1),
            P_([3, 3]): b1 * b1,
            P_([2, 2, 1]): b1,
            P_([2, 2, 2]): b1 * b2,
        }
    )


def test_noncomm_e_pushing_example():
    u = u_family(BETA_ONLY, 10)
    r1 = noncomm_e(1, u, 3, basis([1, 1]))
    assert r1 == PartitionVector(
        {P_([2, 1]): F(1), P_([2, 2]): b1, P_([1, 1, 1]): F(1)}
    )
    r2 = noncomm_e(2, u, 3, basis([1, 1]))
    assert r2 == PartitionVector(
        {P_([2, 2]): F(1), P_([2, 1, 1]): F(1), P_([2, 2, 1]): b1}
    )
    r3 = noncomm_e(3, u, 3, basis([1, 1]))
    assert r3 == PartitionVector({P_([2, 2, 1]): F(1)})


def test_noncomm_e_blocking_example():
    U = U_family(BETA_ONLY)
    r1 = noncomm_e(1, U, 3, basis([1, 1]))
    assert r1 == PartitionVector(
        {P_([2, 1]): F(1), P_([1, 1]): b1, P_([1, 1, 1]): F(1)}
    )
    r2 = noncomm_e(2, U, 3, basis([1, 1]))
    assert r2 == PartitionVector(
        {P_([2, 2]): F(1), P_([2, 1, 1]): F(1), P_([1, 1, 1]): b1}
    )
    r3 = noncomm_e(3, U, 3, basis([1, 1]))
    assert r3 == PartitionVector({P_([2, 2, 1]): F(1)})


def test_noncomm_h_blocking_example():
    U = U_family(BETA_ONLY)
    r2 = noncomm_h(2, U, 3, basis([1, 1]))
    assert r2 == PartitionVector(
        {
            P_([3, 1]): F(1),
            P_([2, 1]): b1,
            P_([2, 1, 1]): F(1),
            P_([1, 1]): b1 * b1,
            P_([1, 1, 1]): b1 + b2,
        }
    )


def test_e0_identity():
    v = basis([2, 1])
    assert noncomm_e(0, U_family(SYM), 3, v) == v
    assert noncomm_h(0, U_family(SYM), 3, v) == v


def test_nonlocal_commutativity():
    U = U_family(SYM)
    for p in partitions_in_box(4, 4):
        for i, j in [(1, 3), (1, 4), (2, 4), (2, 5)]:
            v = PartitionVector.basis(p)
            assert apply_word([i, j], U, v) == apply_word([j, i], U, v), (p, i, j)


def test_u_word_single_partition_alpha0():
    # with alpha = 0 any pushing word maps a basis partition to a single
    # partition with a beta-monomial coefficient
    u = u_family(BETA_ONLY, 24)
    for p in partitions_in_box(3, 3)[:10]:
        v = apply_word([3, 1, 2], u, PartitionVector.basis(p))
        assert len(v.terms) == 1


def test_U_word_single_partition_alpha0():
    U = U_family(BETA_ONLY)
    for p in partitions_in_box(3, 3)[:10]:
        v = apply_word([2, 3, 1], U, PartitionVector.basis(p))
        assert len(v.terms) == 1


def test_symbolic_vs_bound_metamorphic():
    # substituting a binding into the symbolic result equals computing
    # with bound parameters directly
    bind = {
        VarId("A", i): F(1, 3 + i) for i in range(1, 8)
    } | {VarId("B", i): F(1, 5 + i) for i in range(1, 8)}
    bound = OpParams.bound(
        lambda k: F(1, 3 + k) if k >= 1 else F(0), lambda j: F(1, 5 + j)
    )
    for word in [[2, 1, 1], [1, 2, 3], [3, 2]]:
        sym_v = apply_word(word, U_family(SYM), basis([2, 1]))
        bnd_v = apply_word(word, U_family(bound), basis([2, 1]))
        for p, c in sym_v.terms.items():
            assert (c.eval(bind) if hasattr(c, "eval") else c) == bnd_v.coeff(p)
        assert set(sym_v.terms) == set(bnd_v.terms)


def test_weak_knuth_u_alpha_beta_fails():
    rep = check_weak_knuth(u_family(SYM, 6), "u_ab", [P_([])], max_index=3)
    assert not rep.holds


# exact parameters with every alpha and beta nonzero; the pushing family
# is the alpha = 0 one that ``u_step`` describes
ALPHA_BETA = OpParams.bound(lambda k: F(1, 3 + k), lambda j: F(2, 5 + j))
BETA_ONLY_BOUND = OpParams.bound(None, lambda j: F(2, 5 + j))
SIZE_CAP, XI = 7, F(1, 4)
STEP_FAMILIES = [
    (U_step, ALPHA_BETA, lambda j, v: apply_U(j, v, ALPHA_BETA)),
    (u_step, BETA_ONLY_BOUND, u_family(BETA_ONLY_BOUND, SIZE_CAP)),
]


def test_resolvent_inverts_one_minus_xT():
    # (1 - x T_j) resolvent(vec) = vec on every partition one step inside
    # the size cap; a resolvent without the 1/(1 - d x) resummation fails
    checked = 0
    for step, params, T in STEP_FAMILIES:
        for j in (1, 2, 3):
            for mu in partitions_in_box(2, 2):
                vec = PartitionVector.basis(mu)
                r = resolvent(step, j, vec, XI, params, SIZE_CAP)
                back = r - T(j, r).scale(XI)
                for p in set(r.terms) | set(back.terms):
                    if p.size() < SIZE_CAP:
                        assert back.coeff(p) == vec.coeff(p), (step.__name__, j, mu, p)
                        checked += 1
    assert checked == 118


def test_affine_is_one_plus_xT():
    for step, params, T in STEP_FAMILIES:
        for j in (1, 2, 3):
            for mu in partitions_in_box(2, 2):
                vec = PartitionVector.basis(mu)
                got = affine(step, j, vec, XI, params, SIZE_CAP)
                assert got == vec + T(j, vec).scale(XI), (step.__name__, j, mu)
