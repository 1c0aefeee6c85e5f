import hashlib
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ktasep.conventions import Conventions, IndexConvention, PINNED_CONVENTIONS, UpdateOrder
from ktasep.kernels import (
    CaseId,
    ConstraintError,
    ParamBinding,
    chain,
    kernel_tableau_route,
    operator_table,
    single_step_closed_form,
    single_step_table,
    tableau_table,
)
from ktasep.multipoint import MultiPointQuery, continuous_kernel, mp_pushing
from ktasep.operators import OpParams, U_step
from ktasep.partitions import Partition, SkewShape, partitions_in_box
from ktasep.simulate import SimConfig, move, rng_for, run, sample_continuous_final, update_order
from ktasep.tableaux import iter_hook_tableaux
from ktasep import validate
from ktasep.validate import (
    RouteCache,
    _histogram,
    _outcome_list,
    arbitrate_conventions,
    brute_force_single_step,
    brute_force_table,
    check_pinned_conventions,
    chi2_sf,
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


def test_zero_rate_in_pushing_cases():
    # pi_2 = 0 freezes particle 2 and is admissible.  The closed route
    # matches the oracle; the routes built on the letter 1/pi_j say which
    # rate they cannot invert, and route_agreement skips their rows.  A
    # tableau sum that never reads 1/pi_2 still gives the oracle's value
    b = ParamBinding.numeric(x=[F(1, 5), F(1, 4)], rates=[F(1, 2), 0, F(1, 3)])
    lams = partitions_in_box(3, 3)
    for case in (CaseId.A, CaseId.D):
        b.check_admissible(case, 3)
        for mu in (P_([]), P_([1]), P_([2, 1])):
            closed = chain(case, 2, mu, b, 3, 3)
            oracle = brute_force_table(case, 2, mu, b, 3, 3)
            assert closed.probs == oracle.probs and closed.tail == oracle.tail, (case, mu)
            with pytest.raises(ValueError, match="pi_2"):
                operator_table(case, 2, mu, b, 3, size_cap=9)
            raised = 0
            for lam in lams:
                try:
                    assert kernel_tableau_route(case, 2, mu, lam, b, 3) == oracle.prob(lam)
                except ValueError as exc:
                    assert "pi_2" in str(exc)
                    raised += 1
            assert raised, (case, mu)
            query = MultiPointQuery(case, "le", 2, P_([3, 2, 1]), mu, 3, b)
            with pytest.raises(ValueError, match="pi_2"):
                mp_pushing(query)
            report = route_agreement(case, mu, 2, b, 3, lams, 3)
            assert report.rows and all(r.skipped and not r.equal for r in report.rows)


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


def _product_oracle(case, mu, b, ell, cap, update):
    """The oracle as a walk over every combination of jump outcomes, one
    leaf at a time, with no merging of states."""
    lists = [_outcome_list(case, b, j, 1, mu.part(j), cap) for j in range(1, ell + 1)]
    probs, tail = {}, F(0)
    for combo in itertools.product(*lists):
        mass = math.prod((p for _, p in combo), start=F(1))
        if mass == 0:
            continue
        pos = list(mu.padded(ell))
        for j in update_order(case, ell, update):
            move(pos, j, combo[j - 1][0], case.pushing)
        if pos[0] > cap:
            tail += mass
        else:
            probs[P_(pos)] = probs.get(P_(pos), F(0)) + mass
    return probs, tail


def test_merged_oracle_matches_product_walk():
    b = binding()
    for update in UpdateOrder:
        for case in CaseId:
            for ell in (1, 2, 3):
                for mu in partitions_in_box(2, 2):
                    if mu.length() > ell:
                        continue
                    t = brute_force_single_step(case, mu, b, ell, 3, update=update)
                    probs, tail = _product_oracle(case, mu, b, ell, 3, update)
                    assert (t.probs, t.tail) == (probs, tail), (update, case, ell, mu)


def test_oracle_stops_moving_tail_states(monkeypatch):
    # once particle 1 is past the cap the state's mass is tail, so no later
    # particle moves it; summed over every mu in the 3x3 box (ell 3, cap 3)
    from ktasep import validate

    calls = Counter()

    def counting_move(pos, j, w, pushing):
        calls[case] += 1
        move(pos, j, w, pushing)

    monkeypatch.setattr(validate, "move", counting_move)
    b = binding()
    for case in CaseId:
        for mu in partitions_in_box(3, 3):
            brute_force_single_step(case, mu, b, 3, 3)
    want = {CaseId.A: 1050, CaseId.C: 555, CaseId.CANONICAL_C: 555,
            CaseId.B: 200, CaseId.D: 200, CaseId.CANONICAL_B: 200}
    assert calls == want


# sha256 of (case, sorted (parts, count) histogram, repr(chi_square), dof,
# repr(tv_distance)) for the six cases and the rng_bias=0.8 run at 20k
# samples, seed 7; the p-values, computed from the same statistics, are
# checked to 1e-12 relative instead
MC_DIGEST = "c9f718baefd3f4f09b3b1e072e38718ce5a025e1a0fc4383702e2b96eb324d99"
MC_P_VALUES = [0.1325103337453039, 0.9643356165417619, 0.037036154334491915, 0.8476558076203323,
               0.8771835559788141, 0.5928589824697803, 4.8510726732323405e-45]


def test_mc_reports_pinned():
    out, p_values = [], []
    for case, bias in [(c, None) for c in CaseId] + [(CaseId.C, 0.8)]:
        rep = mc_vs_exact(case, P_([1, 1]), 1, binding(), 3, samples=20000, seed=7,
                          rng_bias=bias)
        hist = sorted((s.parts, round(emp * rep.samples))
                      for s, (emp, _) in rep.table.items() if emp)
        out.append((case.value, hist, repr(rep.chi_square), rep.dof, repr(rep.tv_distance)))
        p_values.append(rep.p_value)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == MC_DIGEST
    for got, want in zip(p_values, MC_P_VALUES):
        assert got == pytest.approx(want, rel=1e-12)


def test_histogram_long_rows():
    # 30 particles at positions up to 50: a key packed from every column
    # would need more than 63 bits, so the keys are re-ranked on the way
    rng = np.random.default_rng(3)
    states = -np.sort(-rng.integers(0, 51, size=(40, 30)), axis=1)
    finals = states[rng.integers(0, 40, size=5000)]
    assert math.prod(int(c.max()) - int(c.min()) + 1 for c in finals.T) > 2**63
    want = Counter(P_(row.tolist()) for row in finals)
    assert _histogram(finals) == dict(want)
    assert sum(_histogram(finals[:1]).values()) == 1


@settings(max_examples=60, deadline=None)
@given(ell=st.integers(0, 30), top=st.integers(0, 60), rows=st.integers(1, 5000),
       states=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
@example(ell=30, top=60, rows=5000, states=60, seed=0)
def test_histogram_is_counter_in_row_order(ell, top, rows, states, seed):
    # rows drawn from `states` weakly decreasing rows of ell positions in
    # 0..top; the example's packed keys would pass 2^63
    rng = np.random.default_rng(seed)
    table = -np.sort(-rng.integers(0, top + 1, size=(states, ell)), axis=1)
    finals = table[rng.integers(0, states, size=rows)]
    if (ell, top, states) == (30, 60, 60):
        assert math.prod(int(c.max()) - int(c.min()) + 1 for c in finals.T) > 2**63
    got = _histogram(finals)
    assert got == dict(Counter(P_(row) for row in finals.tolist()))
    keys = [s.padded(ell) for s in got]
    assert keys == sorted(keys)


@pytest.mark.parametrize("case", list(CaseId), ids=lambda c: c.value)
def test_mc_vs_exact_without_particles(case):
    # ell = 0: every run ends in the one state [], plainly and with biased
    # uniforms
    for bias in (None, 0.8):
        rep = mc_vs_exact(case, P_([]), 1, binding(), 0, samples=100, seed=1, rng_bias=bias)
        assert rep.table == {P_([]): (1.0, 1.0)}
        assert rep.p_value == 1 and rep.tv_distance == 0 and rep.healthy


def test_chi2_sf_closed_form():
    # two degrees of freedom: the survival function is exp(-x/2)
    for x in (0.0, 0.3, 1.0, 7.5, 40.0, 300.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-14, abs=0)
        # three: erfc(sqrt(x/2)) + sqrt(2x/pi) exp(-x/2); four: (1 + x/2) exp(-x/2)
        odd = math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
        assert chi2_sf(x, 3) == pytest.approx(odd, rel=1e-13, abs=0)
        assert chi2_sf(x, 4) == pytest.approx((1 + x / 2) * math.exp(-x / 2), rel=1e-13, abs=0)


def test_mc_vs_exact_needs_no_scipy():
    code = (
        "import sys\n"
        "from fractions import Fraction as F\n"
        "from ktasep.kernels import CaseId, ParamBinding\n"
        "from ktasep.partitions import Partition\n"
        "from ktasep.validate import mc_vs_exact\n"
        "b = ParamBinding.numeric(x=[F(1, 5)], rates=[F(1, 2), F(1, 3)])\n"
        "rep = mc_vs_exact(CaseId.C, Partition([1]), 1, b, 2, samples=2000, seed=1)\n"
        "assert 0 <= rep.p_value <= 1\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"


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


def test_canonical_b_routes_agree_at_ell_4():
    # CanonicalB's operator table evolves conjugate shapes, whose row 1 is
    # len(lambda), and stops each chain once that row passes ell.  Targets
    # of length ell sit right at that bound: every one of the 840 rows must
    # be compared and agree
    b = ParamBinding.numeric(x=[F(1, 5), F(1, 4)], rates=RATES + [F(1, 5)],
                             beta_pos=lambda k: F(1, 6 + k) if k >= 1 else F(0))
    lams, rows = partitions_in_box(4, 4), 0
    for n in (1, 2):
        for mu in partitions_in_box(2, 2):
            rep = route_agreement(CaseId.CANONICAL_B, mu, n, b, 4, lams, cap=4)
            assert rep.failures() == [] and rep.skipped() == [], (n, mu)
            rows += len(rep.rows)
    assert rows == 840


@pytest.mark.parametrize("build", [
    lambda b: chain(CaseId.A, 1, P_([1, 1, 1]), b, 3, 3),
    lambda b: brute_force_table(CaseId.A, 1, P_([1, 1, 1]), b, 3, 3),
    lambda b: operator_table(CaseId.A, 1, P_([1, 1, 1]), b, 3, size_cap=5),
    lambda b: tableau_table(CaseId.A, 1, P_([1, 1, 1]), [P_([2, 1, 1])], b, 3),
], ids=["chain", "brute_force_table", "operator_table", "tableau_table"])
def test_route_tables_refuse_a_short_rate_list(build):
    # one rate for three particles is refused, not read as two frozen ones
    short = ParamBinding.numeric(x=[F(1, 2)], rates=[F(1, 2)])
    with pytest.raises(ConstraintError, match=r"pi_2 missing: 3 particles need 3 rates, got 1"):
        build(short)


@pytest.mark.parametrize("step", [
    lambda b: single_step_table(CaseId.A, P_([1, 1, 1]), 1, b, 3, 3),
    lambda b: single_step_closed_form(CaseId.A, P_([1, 1, 1]), P_([2, 1, 1]), 1, b, 3),
    lambda b: brute_force_single_step(CaseId.A, P_([1, 1, 1]), b, 3, 3),
], ids=["single_step_table", "single_step_closed_form", "brute_force_single_step"])
def test_single_steps_refuse_a_short_rate_list(step):
    # one step with one rate for three particles is refused too; before,
    # particles 2 and 3 were frozen and the closed form gave 3/16
    short = ParamBinding.numeric(x=[F(1, 2)], rates=[F(1, 2)])
    with pytest.raises(ConstraintError, match=r"pi_2 missing: 3 particles need 3 rates, got 1"):
        step(short)


def test_shared_steps_match_fresh_tables():
    # one steps dict per case serves two caps, two bindings whose x values
    # overlap at different times and, for the oracle, both update orders;
    # one sums dict per case serves both bindings and both index
    # conventions: every table equals a fresh call's
    b = binding(2)
    other = ParamBinding([F(1, 4), F(1, 9)], b.rates, b.alpha, b.beta_pos)
    lams = partitions_in_box(3, 3)
    for case in CaseId:
        closed_steps, oracle_steps, sums = {}, {}, {}
        for bb in (b, other):
            for cap in (3, 4):
                for mu in (P_([]), P_([2, 1])):
                    for n in (1, 2):
                        fresh = chain(case, n, mu, bb, 3, cap)
                        shared = chain(case, n, mu, bb, 3, cap, closed_steps)
                        assert (shared.probs, shared.tail) == (fresh.probs, fresh.tail)
                        for update in UpdateOrder:
                            fresh = brute_force_table(case, n, mu, bb, 3, cap, update)
                            shared = brute_force_table(case, n, mu, bb, 3, cap, update,
                                                       oracle_steps)
                            assert (shared.probs, shared.tail) == (fresh.probs, fresh.tail)
                        if cap == 4:  # a tableau table reads no cap
                            for index in IndexConvention:
                                fresh = tableau_table(case, n, mu, lams, bb, 3, index)
                                shared = tableau_table(case, n, mu, lams, bb, 3, index, sums)
                                assert shared == fresh, (case, n, mu, index)


def test_route_cache_shares_work_not_values():
    lams = partitions_in_box(3, 3)
    for case in (CaseId.C, CaseId.D, CaseId.CANONICAL_B):
        cache = RouteCache()
        for n in (1, 2):
            b = binding(n)
            for mu in (P_([]), P_([1, 1]), P_([2, 1])):
                shared = route_agreement(case, mu, n, b, 3, lams, 3, cache=cache)
                fresh = route_agreement(case, mu, n, b, 3, lams, 3)
                assert (shared.rows, shared.tail) == (fresh.rows, fresh.tail), (case, n, mu)
                assert shared.all_equal


def test_oracle_cap_error():
    with pytest.raises(ValueError):
        brute_force_single_step(CaseId.A, P_([5]), binding(), 3, cap=3)


def test_arbitration_unique_survivor():
    survivors = arbitrate_conventions()
    assert len(survivors) == 1
    assert survivors[0] == PINNED_CONVENTIONS
    check_pinned_conventions()


ARBITRATION_VERDICTS = [
    "alpha_by_column+geometric_descending: OK",
    "alpha_by_column+geometric_ascending: rejected",
    "alpha_by_row+geometric_descending: rejected",
    "alpha_by_row+geometric_ascending: rejected",
]


def test_arbitration_verdicts_pinned(capsys, monkeypatch):
    # one verdict per convention pair, and one tableau table per (case,
    # mu, index convention), shared by both update orders
    built = []

    def counting_table(case, n, mu, targets, binding, ell, index, sums):
        built.append((case, mu, index))
        return tableau_table(case, n, mu, targets, binding, ell, index, sums)

    monkeypatch.setattr(validate, "tableau_table", counting_table)
    assert arbitrate_conventions(verbose=True) == [PINNED_CONVENTIONS]
    assert capsys.readouterr().out.splitlines() == ARBITRATION_VERDICTS
    assert len(built) == len(set(built))


def test_arbitration_rejects_a_convention_whose_table_raises(capsys, monkeypatch):
    # a route that raises never counts as agreeing: a tableau table that
    # raises for one (case, mu) rejects the pinned pair, which agrees
    # everywhere else
    raised = []

    def failing_table(case, n, mu, targets, binding, ell, index, sums):
        if (case, mu) == (CaseId.CANONICAL_C, P_([1])):
            raised.append(index)
            raise ValueError("no table")
        return tableau_table(case, n, mu, targets, binding, ell, index, sums)

    monkeypatch.setattr(validate, "tableau_table", failing_table)
    assert arbitrate_conventions(verbose=True) == []
    verdicts = [line.replace(": OK", ": rejected") for line in ARBITRATION_VERDICTS]
    assert capsys.readouterr().out.splitlines() == verdicts
    assert PINNED_CONVENTIONS.index in raised
    with pytest.raises(AssertionError, match="ambiguous or empty"):
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


def _arbitrated(monkeypatch, survivors):
    monkeypatch.setattr(validate, "arbitrate_conventions", lambda: survivors)
    check_pinned_conventions()


# (label, call given monkeypatch, exception, message): guards whose inputs
# no other test passes
GUARDS = [
    ("no continuous samples",
     lambda mp: sample_continuous_final(2, 1.0, 1.0, 0, rng_for(1)),
     ValueError, "samples must be >= 1"),
    ("cap below mu_1",
     lambda mp: single_step_table(CaseId.C, P_([3, 1]), 1, binding(), 3, 2),
     ValueError, "cap 2 smaller than mu_1 = 3"),
    ("continuous case B",
     lambda mp: continuous_kernel(CaseId.B, 1, P_([]), P_([1]), 2, [1, 1]),
     ValueError, "continuous limit implemented for cases A and C"),
    ("unknown arm mode",
     lambda mp: list(iter_hook_tableaux(SkewShape(P_([1])), 1, arm_mode="bogus")),
     ValueError, "unknown arm_mode bogus"),
    ("encode case C",
     lambda mp: encode_trajectory(CaseId.C, [(0, P_([])), (1, P_([1]))]),
     ValueError, "encode_trajectory is defined for case A"),
    ("pad to fewer parts",
     lambda mp: P_([2, 1]).padded(1),
     ValueError, "cannot pad"),
    ("part 0",
     lambda mp: P_([2, 1]).part(0),
     IndexError, "parts are 1-indexed"),
    ("inner outside outer",
     lambda mp: SkewShape(P_([1]), P_([2])),
     ValueError, "not contained in outer"),
    ("U_0",
     lambda mp: U_step(0, P_([1]), OpParams.symbolic()),
     ValueError, "row index must be >= 1"),
    ("arbitration singles out another pair",
     lambda mp: _arbitrated(mp, [Conventions(IndexConvention.ALPHA_BY_ROW,
                                             PINNED_CONVENTIONS.update)]),
     AssertionError, "arbitrated alpha_by_row\\+geometric_descending != pinned"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_guards_raise(monkeypatch, call, error, message):
    with pytest.raises(error, match=message):
        call(monkeypatch)
