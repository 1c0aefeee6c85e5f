import hashlib
from fractions import Fraction as F

import pytest

from ktasep.conventions import PINNED_CONVENTIONS, UpdateOrder
from ktasep.kernels import CaseId, ParamBinding
from ktasep.partitions import Partition, partitions_in_box
from ktasep.simulate import SimConfig, run
from ktasep.validate import (
    arbitrate_conventions,
    brute_force_single_step,
    brute_force_table,
    check_pinned_conventions,
    decode_trajectory,
    encode_trajectory,
    mc_vs_exact,
    route_agreement,
)

P_ = Partition
RATES = [F(1, 2), F(1, 3), F(1, 7)]


def binding(n=1):
    return ParamBinding.numeric(
        x=[F(1, 5), F(1, 4)][:n],
        rates=RATES,
        alpha=lambda k: F(1, 4 + k) if k >= 1 else F(0),
        beta_pos=lambda k: F(1, 6 + k) if k >= 1 else F(0),
    )


def test_oracle_totals_are_one():
    b = binding()
    for case in CaseId:
        t = brute_force_single_step(case, P_([1, 1]), b, 3, cap=5)
        assert t.total() == 1, case


def test_case_d_eight_outcome_table():
    b = binding()
    t = brute_force_single_step(CaseId.D, P_([1, 1]), b, 3, cap=5)
    x = F(1, 5)
    r1, r2, r3 = RATES
    C = 1 / ((1 + r1 * x) * (1 + r2 * x) * (1 + r3 * x))
    assert t.probs == {
        P_([1, 1]): C,
        P_([2, 1]): r1 * x * C,
        P_([2, 2]): (r2 * x + r1 * x * r2 * x) * C,
        P_([1, 1, 1]): r3 * x * C,
        P_([2, 1, 1]): r1 * x * r3 * x * C,
        P_([2, 2, 1]): (r2 * x * r3 * x + r1 * x * r2 * x * r3 * x) * C,
    }


def test_case_b_blocked_attempt_merges():
    # the "1" and "rho_2 x" outcomes both land on (1,1)
    b = binding()
    t = brute_force_single_step(CaseId.B, P_([1, 1]), b, 3, cap=5)
    x = F(1, 5)
    r1, r2, r3 = RATES
    C = 1 / ((1 + r1 * x) * (1 + r2 * x) * (1 + r3 * x))
    assert t.probs[P_([1, 1])] == (1 + r2 * x) * C


def test_zero_rates_point_mass():
    b = ParamBinding.numeric(x=[F(1, 5)], rates=[0, 0, 0])
    for case in (CaseId.A, CaseId.B, CaseId.C, CaseId.D):
        t = brute_force_single_step(case, P_([2, 1]), b, 3, cap=5)
        assert t.probs == {P_([2, 1]): F(1)}


def test_oracle_overflow_lands_at_left_neighbour():
    # Case C from (3): particle 2 moves first and is capped at 3, so every
    # jump >= 3, the overflow beyond the cap window included, lands on (3,3)
    b = binding()
    t = brute_force_single_step(CaseId.C, P_([3]), b, 2, cap=3)
    q1, q2 = RATES[0] * F(1, 5), RATES[1] * F(1, 5)
    assert t.probs[P_([3, 3])] == (1 - q1) * q2**3


# sha256 of brute_force_table for every case and both update orders: the
# oracle's exact tables, tails included, must not move when its code does
ORACLE_DIGEST = "de537833e726bb3af83d4690bc1102786f881ab51e7e31993258b94d2eb8aab3"


def test_oracle_tables_pinned():
    b = ParamBinding.numeric(
        x=[F(1, 5), F(1, 7)], rates=[F(1, 2), F(1, 3), F(2, 7)],
        alpha=lambda k: F(1, 4 + k) if k >= 1 else F(0),
        beta_pos=lambda k: F(1, 6 + k) if k >= 1 else F(0),
    )
    out = []
    for update in UpdateOrder:
        for case in CaseId:
            t = brute_force_table(case, 2, P_([1]), b, 3, 3, update)
            out.append((sorted((lam.parts, str(p)) for lam, p in t.probs.items()), str(t.tail)))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == ORACLE_DIGEST


def test_route_that_raises_is_skipped():
    # the operator and tableau routes refuse CanonicalC with n > 1 and
    # alpha(0) != 0; such rows are skipped, never counted as equal
    b = ParamBinding.numeric(x=[F(1, 5), F(1, 4)], rates=RATES, alpha=lambda k: F(1, 4 + k))
    rep = route_agreement(CaseId.CANONICAL_C, P_([1]), 2, b, 3, [P_([1]), P_([2, 1])], cap=3)
    assert len(rep.rows) == 2
    assert all(r.skipped and not r.equal for r in rep.rows)
    assert all(r.tableau is None for r in rep.rows)
    assert rep.skipped() == rep.rows
    assert rep.failures() == []
    assert not rep.all_equal


def test_route_agreement_all_cases():
    lams = partitions_in_box(3, 3)
    for case in CaseId:
        for n in (1, 2):
            b = binding(n)
            for mu in [P_([]), P_([1, 1]), P_([2, 1])]:
                rep = route_agreement(case, mu, n, b, 3, lams, cap=3)
                assert rep.all_equal, (case, n, mu, rep.failures()[:2])


def test_oracle_cap_error():
    with pytest.raises(ValueError):
        brute_force_single_step(CaseId.A, P_([5]), binding(), 3, cap=3)


def test_arbitration_unique_survivor():
    survivors = arbitrate_conventions()
    assert len(survivors) == 1
    assert survivors[0] == PINNED_CONVENTIONS
    check_pinned_conventions()


def test_mc_vs_exact_and_fault_injection():
    b = binding()
    rep = mc_vs_exact(CaseId.C, P_([1, 1]), 1, b, 3, samples=40000, seed=7)
    assert rep.tv_distance < 0.015
    assert rep.p_value > 0.001
    with pytest.raises(ValueError):
        mc_vs_exact(CaseId.C, P_([1, 1]), 1, b, 3, samples=0, seed=7)
    bad = mc_vs_exact(CaseId.C, P_([1, 1]), 1, b, 3, samples=40000, seed=7, rng_bias=0.8)
    assert not bad.healthy


def test_decode_case_a_paper_example():
    filling = {(1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 1): 2}
    snaps = decode_trajectory(CaseId.A, P_([3, 1]), P_([]), filling, 2)
    assert [s[1] for s in snaps] == [P_([]), P_([3]), P_([3, 1])]


def test_decode_case_c_paper_example():
    rows = [[1, 1, 1, 2, 4, 5], [2, 4, 4], [4]]
    minT = {}
    for r, row in enumerate(rows, 1):
        for c, e in enumerate(row, 1):
            minT[(r, c)] = frozenset([e])
    snaps = decode_trajectory(CaseId.C, P_([6, 3, 1]), P_([]), minT, 5)
    assert [s[1] for s in snaps] == [
        P_([]), P_([3]), P_([4, 1]), P_([4, 1]), P_([5, 3, 1]), P_([6, 3, 1])
    ]


def test_decode_empty_tableau_constant():
    snaps = decode_trajectory(CaseId.A, P_([2, 1]), P_([2, 1]), {}, 3)
    assert all(s[1] == P_([2, 1]) for s in snaps)


def test_decode_family_mismatch():
    with pytest.raises(ValueError):
        decode_trajectory(CaseId.B, P_([1]), P_([]), {(1, 1): 1}, 1)


def test_encode_decode_roundtrip():
    cfg = SimConfig(case=CaseId.A, ell=3, steps=3, rates=[0.5, 0.4, 0.3], x=[0.5], seed=99)
    for r in range(120):
        traj = run(cfg, run_index=r)
        filling = encode_trajectory(CaseId.A, traj.snapshots)
        snaps = decode_trajectory(
            CaseId.A, traj.final(), traj.snapshots[0][1], filling, 3
        )
        assert [s[1] for s in snaps] == [s[1] for s in traj.snapshots]


def test_oracle_matches_update_order_alternative():
    # the alternative update order gives a *different* exact distribution
    from ktasep.conventions import UpdateOrder

    b = binding()
    t1 = brute_force_single_step(CaseId.C, P_([2, 1]), b, 3, cap=4)
    t2 = brute_force_single_step(
        CaseId.C, P_([2, 1]), b, 3, cap=4, update=UpdateOrder.GEOMETRIC_ASCENDING
    )
    assert t1.probs != t2.probs
