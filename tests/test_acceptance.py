"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import collections
import json
import math
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from conftest import UNREFINED_G, UNREFINED_J, symbolic_letters

from ktasep.conventions import PINNED_CONVENTIONS
from ktasep.exactalg import (
    A,
    B,
    LaurentPoly,
    P,
    X,
    as_poly,
    omega_on_expansion,
    rf,
    schur_expand,
    schur_poly,
)
from ktasep.kernels import (
    CaseId,
    ParamBinding,
    chain,
    normalization_identity,
    operator_table,
    single_step_closed_form,
    tableau_table,
)
from ktasep.multipoint import (
    ContourSpec,
    MultiPointQuery,
    boundary_condition_gap,
    continuous_kernel,
    master_equation_residual,
    mp_blocking_contour,
    mp_blocking_series,
    mp_event_sum,
    mp_pushing,
)
from ktasep.operators import (
    OpParams,
    PartitionVector,
    U_family,
    apply_word,
    check_weak_knuth,
    noncomm_e,
    noncomm_h,
    u_family,
)
from ktasep.partitions import Partition, SkewShape, conjugate, partitions_in_box, subpartitions
from ktasep.simulate import rng_for, sample_continuous_final
from ktasep.tableaux import SET_VALUED, gen_G_doubleslash, gen_flagged_schur, gen_g, gen_j
from ktasep.validate import brute_force_table, mc_vs_exact

P_ = Partition
PKG = Path(__file__).resolve().parents[1]
BOX = partitions_in_box(3, 3)


def report(num: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def seeded_bindings(n: int, count: int = 5):
    """Admissible rational bindings with pi_j x_i < 1/4 and pairwise
    distinct rates (coinciding rates are rejected as singular by the
    contour entries, by design)."""
    import numpy as np

    out = []
    for s in range(count):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1000 + s)))
        xs = [F(1, int(rng.integers(8, 16))) for _ in range(n)]
        dens = list(rng.choice(np.arange(2, 12), size=4, replace=False))
        rates = [F(1, int(d)) for d in dens]
        out.append(ParamBinding(xs, rates))
    return out


def test_criterion_1_route_agreement():
    t0 = time.time()
    mismatches = 0
    checked = 0
    for ell in (3, 4):
        for n in (1, 2):
            for b in seeded_bindings(n):
                for case in (CaseId.A, CaseId.B, CaseId.C, CaseId.D):
                    # each route's steps and sums are built once per (ell, n,
                    # binding, case)
                    oracle_steps, closed_steps, sums = {}, {}, {}
                    for mu in BOX:
                        oracle = brute_force_table(case, n, mu, b, ell, 3, steps=oracle_steps)
                        closed = chain(case, n, mu, b, ell, 3, closed_steps)
                        op = operator_table(case, n, mu, b, ell, size_cap=9)
                        lams = [lam for lam in BOX if lam.contains(mu)]
                        tableau = tableau_table(case, n, mu, lams, b, ell, sums=sums)
                        for lam in lams:
                            vals = {
                                oracle.prob(lam),
                                closed.prob(lam),
                                op.get(lam, F(0)),
                                tableau[lam],
                            }
                            checked += 1
                            if len(vals) != 1:
                                mismatches += 1
    elapsed = time.time() - t0
    report(
        1,
        mismatches == 0 and elapsed < 600,
        f"{checked} route comparisons, {mismatches} mismatches, {elapsed:.0f}s "
        "(tableau = operator = closed chain = oracle, exact)",
    )


def test_criterion_2_paper_examples():
    ok = True
    details = []
    sym = OpParams.symbolic()
    a1, a2 = A(1), A(2)
    b1, b2 = B(1), B(2)

    # U-operator expansions on (1,1)
    lhs = apply_word([2, 1, 1], U_family(sym), PartitionVector.basis(P_([1, 1])))
    ok &= lhs == PartitionVector({
        P_([3, 2]): LaurentPoly.const(1), P_([3, 1]): -a1,
        P_([2, 2]): -(a1 + a2), P_([2, 1]): a1 * (a1 + a2),
        P_([1, 1]): a1 * a1 * b1,
    })
    rhs = apply_word([1, 2, 1], U_family(sym), PartitionVector.basis(P_([1, 1])))
    ok &= rhs == PartitionVector({
        P_([3, 2]): LaurentPoly.const(1), P_([3, 1]): -a1,
        P_([2, 2]): -a2, P_([2, 1]): a1 * a2 - a1 * b1,
        P_([1, 1]): a1 * a1 * b1,
    })
    ok &= lhs != rhs
    details.append("U words")

    # u-word truncated expansions and the (3,2,1) Knuth failure
    u6 = u_family(sym, 6)
    w1 = apply_word([2, 3, 1], u6, PartitionVector.basis(P_([])))
    w2 = apply_word([2, 1, 3], u6, PartitionVector.basis(P_([])))
    ok &= w2.coeff(P_([3, 2, 1])) == (a1 + a2) * b1 * b2
    ok &= w1.coeff(P_([3, 2, 1])) == a2 * b2 * (a1 + b1)  # complete value; ledger
    ok &= w1.coeff(P_([3, 2, 1])) != w2.coeff(P_([3, 2, 1]))
    details.append("u words")

    # state/weight lists: h_k(u_3), e_k(u_3), e_k(U_3), h_k(U_3)
    bonly = OpParams.symbolic_zero_alpha()
    mu = P_([1, 1])
    r = noncomm_h(1, u_family(bonly, 10), 3, PartitionVector.basis(mu))
    ok &= r == PartitionVector({P_([2, 1]): F(1), P_([2, 2]): b1, P_([1, 1, 1]): F(1)})
    r = noncomm_e(2, u_family(bonly, 10), 3, PartitionVector.basis(mu))
    ok &= r == PartitionVector({P_([2, 2]): F(1), P_([2, 1, 1]): F(1), P_([2, 2, 1]): b1})
    r = noncomm_e(3, U_family(bonly), 3, PartitionVector.basis(mu))
    ok &= r == PartitionVector({P_([2, 2, 1]): F(1)})
    r = noncomm_h(2, U_family(bonly), 3, PartitionVector.basis(mu))
    ok &= r == PartitionVector({
        P_([3, 1]): F(1), P_([2, 1]): b1, P_([2, 1, 1]): F(1),
        P_([1, 1]): b1 * b1, P_([1, 1, 1]): b1 + b2,
    })
    details.append("h_k/e_k lists")

    # Case A and Case D determinant-vs-Schur expansions (symbolic)
    bsym = ParamBinding(x=[X(1), X(2)], rates=[P(1), P(2)])
    q = MultiPointQuery(CaseId.A, "le", 2, P_([2, 1]), P_([]), 2, bsym)
    val = rf(mp_pushing(q))
    pref = rf(1)
    for i in (1, 2):
        for j in (1, 2):
            pref = pref * rf(1 - P(i) * X(j))
    expect = (
        (P(1) ** 2 * P(2)) * schur_poly((2, 1), 2)
        + (P(1) * P(2) + P(1) ** 2) * schur_poly((2,), 2)
        + (P(1) * P(2)) * schur_poly((1, 1), 2)
        + (P(1) + P(2)) * schur_poly((1,), 2) + 1
    )
    ok &= val / pref == rf(expect)
    bsymD = ParamBinding(x=[X(1), X(2), X(3)], rates=[P(1), P(2), P(3)])
    qD = MultiPointQuery(CaseId.D, "le", 3, P_([2, 1, 1]), P_([1]), 3, bsymD)
    valD = rf(mp_pushing(qD))
    prefD = rf(1)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            prefD = prefD / rf(1 + P(i) * X(j))
    r1, r2, r3 = P(1), P(2), P(3)
    expectD = (
        (r1 * r2 * r3) * (schur_poly((3,), 3) + schur_poly((2, 1), 3))
        + (r1 * r2 + r1 * r3 + r2 * r3) * schur_poly((2,), 3)
        + (r1 * r2 + r1 * r3) * schur_poly((1, 1), 3)
        + (r1 + r2 + r3) * schur_poly((1,), 3) + 1
    )
    ok &= valD / prefD == rf(expectD)
    details.append("multi-point determinants")

    # canonical process probabilities, symbolic incl. alpha_0
    from ktasep.exactalg import RationalFn
    xb = ParamBinding(x=[X(1)], rates=[P(1), P(2), P(3)],
                      alpha=lambda k: A(k) if k >= 1 else A(0))
    x1 = X(1)
    inv1p = lambda v: RationalFn.from_den_factor(1 + v)
    got = single_step_closed_form(CaseId.CANONICAL_C, P_([1, 1]), P_([2, 1]), 1, xb, 3)
    want = (
        rf((A(1) + P(1)) * x1 * (1 - P(1) * x1) * (1 - P(3) * x1))
        * inv1p(A(0) * x1) * inv1p(A(1) * x1) * inv1p(A(2) * x1)
    )
    ok &= rf(got) == want
    details.append("canonical probabilities")

    report(2, ok, "paper examples reproduced symbolically: " + ", ".join(details))


def test_criterion_3_knuth_suites():
    sym = OpParams.symbolic()
    box44 = partitions_in_box(4, 4)
    weak = check_weak_knuth(U_family(sym), "U", box44, max_index=5, strong=False)
    strong_fail = check_weak_knuth(
        U_family(sym), "U", [P_([1, 1])], max_index=2, strong=True
    )
    full_u0b = check_weak_knuth(
        u_family(OpParams.symbolic_zero_alpha(), 8), "u0b",
        partitions_in_box(2, 2), max_index=3, strong=True,
    )
    weak_uab = check_weak_knuth(u_family(sym, 6), "uab", [P_([])], max_index=3)
    ok = weak.holds and not strong_fail.holds and full_u0b.holds and not weak_uab.holds
    report(
        3, ok,
        f"weak Knuth holds for U on 4x4 box ({weak.checked} instances); strong fails "
        "on the witness; full Knuth holds for u^(0,beta) cap 8; weak fails for u^(a,b)",
    )


def test_criterion_4_identity_suite():
    ok = True
    details = []

    # omega-duality of g/j at the Schur-expansion level, lam <= (3,3,3),
    # n <= 3.  At n variables the expansions are faithful only on keys
    # with length and width both <= n (s_mu vanishes otherwise), so the
    # comparison is over that key set; at n = 3 it covers the whole grid.
    for lam in BOX:
        for n in (2, 3):
            g = gen_g(SkewShape(lam), n, UNREFINED_G)
            j = gen_j(SkewShape(conjugate(lam)), n, UNREFINED_J)
            left = omega_on_expansion(schur_expand(g, n, 9)).coeffs
            right = schur_expand(j, n, 9).coeffs
            keys = {
                k for k in set(left) | set(right)
                if k.length() <= n and k.part(1) <= n
            }
            for k in keys:
                a = left.get(k, LaurentPoly.zero())
                bb = right.get(k, LaurentPoly.zero())
                if as_poly(a) != as_poly(bb):
                    ok = False
    details.append("omega duality")

    # branching for g and G-doubleslash (lam <= (3,3), one+one variables)
    for lam in partitions_in_box(2, 3):
        for mu in subpartitions(lam):
            lhs = gen_g(SkewShape(lam, mu), 2)
            rhs = LaurentPoly.zero()
            for nu in subpartitions(lam):
                if not nu.contains(mu):
                    continue
                piece = gen_g(SkewShape(lam, nu), 1, symbolic_letters(shift=1))
                rhs = rhs + piece * gen_g(SkewShape(nu, mu), 1)
            if lhs != rhs:
                ok = False
            lhsG = gen_G_doubleslash(lam, mu, 2, SET_VALUED)
            rhsG = LaurentPoly.zero()
            for nu in subpartitions(lam):
                piece = gen_G_doubleslash(lam, nu, 1, symbolic_letters(False, shift=1))
                rhsG = rhsG + piece * gen_G_doubleslash(nu, mu, 1, SET_VALUED)
            if lhsG != rhsG:
                ok = False
    details.append("branching")

    # skew Cauchy through total degree 4 (alpha = 0, one x and one y)
    ok &= _skew_cauchy_holds()
    details.append("skew Cauchy")

    # skew Pieri normalization through |lam| <= 5
    for mu in [P_([]), P_([1]), P_([2, 1])]:
        res = normalization_identity(mu, 1, 5 - mu.size())
        if res:
            ok = False
    details.append("skew Pieri")

    # flagged-Schur branching for lam <= (3,3)
    for lam in partitions_in_box(2, 3):
        for n in (1, 2):
            lhs = gen_flagged_schur(lam, n)
            rhs = LaurentPoly.zero()
            for mu in subpartitions(lam):
                w = LaurentPoly.const(1)
                for i in range(1, lam.length() + 1):
                    w = w * B(i) ** (lam.part(i) - mu.part(i))
                rhs = rhs + w * gen_g(SkewShape(mu), n)
            if lhs != rhs:
                ok = False
    details.append("flagged Schur")

    report(4, ok, "exact through stated caps: " + ", ".join(details))


def _skew_cauchy_holds() -> bool:
    """sum_lam G_{lam\\mu}(x; beta) g_{lam/nu}(y; beta) =
    1/(1-xy) sum_eta G_{nu\\eta}(x; beta) g_{mu/eta}(y; beta),
    both sides through total degree 4 in x = X1, y = X2."""
    DEG = 4
    y_letters = symbolic_letters(shift=1)

    def xy_truncate(poly):
        return poly.truncate_family_degree("X", DEG)

    ok = True
    for mu in partitions_in_box(2, 2):
        for nu in partitions_in_box(2, 2):
            lhs = LaurentPoly.zero()
            for lam in partitions_in_box(4, 7):
                if lam.size() > max(mu.size(), nu.size()) + DEG + 2:
                    continue
                if not lam.contains(nu):
                    continue
                Gpart = gen_G_doubleslash(lam, mu, 1, SET_VALUED)
                if not Gpart:
                    continue
                gpart = gen_g(SkewShape(lam, nu), 1, y_letters)
                lhs = lhs + xy_truncate(Gpart * gpart)
            lhs = xy_truncate(lhs)
            geo = LaurentPoly.zero()
            for k in range(DEG + 1):
                geo = geo + (X(1) * X(2)) ** k
            rhs = LaurentPoly.zero()
            for eta in partitions_in_box(2, 2):
                if not (mu.contains(eta) and nu.contains(eta)):
                    continue
                Gpart = gen_G_doubleslash(nu, eta, 1, SET_VALUED)
                gpart = gen_g(SkewShape(mu, eta), 1, y_letters)
                rhs = rhs + Gpart * gpart
            rhs = xy_truncate(geo * rhs)
            if lhs != rhs:
                return False
    return ok


def test_criterion_5_multipoint_vs_event_sums():
    t0 = time.time()
    ok = True
    worst = 0.0
    b_by_n = {
        n: ParamBinding.numeric(
            x=[F(1, 10), F(1, 12)][:n], rates=[F(1, 2), F(1, 3), F(1, 7)],
            alpha=lambda k: F(1, 5 + k) if k >= 1 else F(0),
        )
        for n in (1, 2)
    }
    starts = [P_([]), P_([1, 1])]
    tables = {}
    for case in (CaseId.A, CaseId.B, CaseId.C, CaseId.D, CaseId.CANONICAL_C):
        for n in (1, 2):
            b = b_by_n[n]
            for start in starts:
                for thr in BOX:
                    if case.pushing:
                        if not thr.contains(start):
                            continue
                        q = MultiPointQuery(case, "le", n, thr, start, 3, b)
                        ev, _ = mp_event_sum(q, cap=4)
                        v = mp_pushing(q)
                        if v != ev:
                            ok = False
                    else:
                        q = MultiPointQuery(case, "ge", n, thr, start, 3, b)
                        key = (case, n, start)
                        if key not in tables:
                            tables[key] = chain(case, n, start, b, 3, 12)
                        table = tables[key]
                        ev = sum(
                            (p for lam, p in table.probs.items()
                             if all(lam.part(i) >= thr.part(i) for i in range(1, 4))),
                            F(0),
                        )
                        v, bound = mp_blocking_series(q, trunc=70)
                        gap = abs(float(v - ev))
                        tol = float(table.tail) + float(bound)
                        worst = max(worst, gap)
                        if case is CaseId.B:
                            if v != ev:
                                ok = False
                        elif gap > tol or tol > 1e-9:
                            ok = False
    # Thm 6.x vs alternative contour determinant at 5 bindings
    for b in seeded_bindings(2, 5):
        q = MultiPointQuery(CaseId.C, "ge", 2, P_([2, 1]), P_([]), 2, b)
        sv, _ = mp_blocking_series(q, trunc=70)
        cv = mp_blocking_contour(q)
        if abs(float(sv - cv)) > 1e-10:
            ok = False
    report(
        5, ok,
        f"determinants = brute-force event sums (worst geometric gap {worst:.2e} "
        f"within < 1e-9 tails); series vs contour forms agree to 1e-10; {time.time()-t0:.0f}s",
    )


def test_criterion_6_continuous_time():
    rates = [F(1), F(2, 3)]
    r = master_equation_residual(CaseId.C, 1.0, P_([]), P_([2, 1]), 2, rates, h=1e-4)
    ok = float(r) < 1e-6
    gC = boundary_condition_gap(CaseId.C, 1.0, P_([]), P_([2, 2]), 1, 2, rates)
    ok &= float(gC) <= 1e-12
    gA = boundary_condition_gap(CaseId.A, 1.0, P_([]), P_([2, 2]), 1, 2, rates)
    ok &= float(gA) <= 1e-12

    # sampler vs determinant kernel, TV < 0.02 at 1e5 samples
    N = 100000
    finals = sample_continuous_final(2, 1.0, [1.0, 1.0], N, rng_for(42, 0), push=False)
    counts = collections.Counter(map(tuple, finals.tolist()))
    tv, covered = 0.0, 0.0
    for a in range(0, 9):
        for bb in range(0, a + 1):
            p = float(continuous_kernel(CaseId.C, 1.0, P_([]), P_([a, bb]), 2, [F(1), F(1)]))
            tv += abs(p - counts.get((a, bb), 0) / N)
            covered += p
    tv = 0.5 * (tv + (1.0 - covered))
    ok &= tv < 0.02
    report(
        6, ok,
        f"master-eq residual {float(r):.1e} <= 1e-6; boundary dets {float(gC):.1e}/"
        f"{float(gA):.1e} <= 1e-12; sampler TV {tv:.4f} < 0.02",
    )


def test_criterion_7_statistical_validation():
    b = ParamBinding.numeric(
        x=[F(1, 5)], rates=[F(1, 2), F(1, 3), F(1, 7)],
        alpha=lambda k: F(1, 4 + k) if k >= 1 else F(0),
        beta_pos=lambda k: F(1, 6 + k) if k >= 1 else F(0),
    )
    ok = True
    lines = []
    for case in CaseId:
        rep = mc_vs_exact(case, P_([1, 1]), 1, b, 3, samples=100000, seed=7)
        lines.append(f"{case.value}: TV={rep.tv_distance:.4f} p={rep.p_value:.3f}")
        if not (rep.tv_distance < 0.01 and rep.p_value > 0.001):
            ok = False
    bad = mc_vs_exact(CaseId.C, P_([1, 1]), 1, b, 3, samples=100000, seed=7, rng_bias=0.8)
    ok &= not bad.healthy
    report(7, ok, "; ".join(lines) + f"; fault-injected p={bad.p_value:.1e} rejected")


def test_criterion_8_figure5_reproduction():
    from ktasep.simulate import inhom_geometric_pmf, sample_inhom_geometric

    alpha = lambda k: 1.0 - k * math.exp(-k / 2.0)
    t0 = time.time()
    rng = rng_for(42, 0)
    N = 100000
    maxval = 40
    counts = [0] * (maxval + 2)
    for _ in range(N):
        counts[min(sample_inhom_geometric(alpha, 0.5, 1.0, 0, rng), maxval + 1)] += 1
    exact = inhom_geometric_pmf(alpha, 0.5, 1.0, maxval, 0)
    tv = 0.5 * (
        sum(abs(counts[k] / N - exact[k]) for k in range(maxval + 1))
        + counts[maxval + 1] / N + (1.0 - sum(exact))
    )
    elapsed = time.time() - t0
    report(8, tv < 0.01 and elapsed < 5.0, f"TV={tv:.4f} < 0.01 in {elapsed:.2f}s < 5s")


def test_criterion_9_figure_pipelines(tmp_path):
    ok = True
    times = []
    jobs = [
        ("scripts/fig_discrete_profiles.py", ["--ell", "100", "--steps", "10000"]),
        ("scripts/fig_discrete_profiles.py", ["--ell", "100", "--steps", "10000", "--push"]),
        ("scripts/fig_continuous_profiles.py", ["--ell", "100", "--t", "100"]),
        ("scripts/fig_canonical_profiles.py", ["--ell", "100", "--steps", "10000"]),
        ("scripts/fig_canonical_profiles.py", ["--regime", "sine", "--ell", "100", "--steps", "10000"]),
    ]
    for i, (script, args) in enumerate(jobs):
        out = tmp_path / f"fig{i}.csv"
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(PKG / script), *args, "--out", str(out)],
            capture_output=True, text=True, cwd=PKG,
        )
        dt = time.time() - t0
        times.append(dt)
        if proc.returncode != 0 or dt >= 60:
            ok = False
            continue
        lines = out.read_text().strip().splitlines()
        if lines[0] != "particle,position,fermionic_position" or len(lines) != 101:
            ok = False
        if any(len(line.split(",")) != 3 for line in lines[1:]):
            ok = False
    report(9, ok, "pipelines at ell=100: " + ", ".join(f"{t:.1f}s" for t in times) + " (< 60s each)")


def test_criterion_10_determinism(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"x": ["1/5", "1/4"], "pi": ["1/2", "1/3", "1/7", "1/5"]}))
    pinned = [
        ["kernel", "--case", "A", "--n", "1", "--mu", "[]", "--lambda", "[1]", "--ell", "3", "--params", str(params)],
        ["kernel", "--case", "B", "--n", "1", "--mu", "[1,1]", "--lambda", "[2,1]", "--ell", "3", "--params", str(params)],
        ["kernel", "--case", "C", "--n", "2", "--mu", "[1]", "--cap", "3", "--ell", "3", "--params", str(params)],
        ["kernel", "--case", "D", "--n", "2", "--mu", "[]", "--cap", "3", "--ell", "3", "--params", str(params)],
        ["kernel", "--case", "CanonicalC", "--n", "1", "--mu", "[]", "--cap", "3", "--ell", "2", "--params", str(params)],
        ["multipoint", "--case", "C", "--dir", "ge", "--thresholds", "[1,1]", "--start", "[]", "--n", "1", "--ell", "2", "--params", str(params)],
        ["multipoint", "--case", "A", "--dir", "le", "--thresholds", "[2,1]", "--start", "[]", "--n", "1", "--ell", "2", "--params", str(params)],
        ["op", "--word", "U2 U1 U1", "--start", "[1,1]"],
        ["tableaux", "--family", "g", "--shape", "[2,1]", "--n", "2"],
        ["sample", "--case", "A", "--ell", "4", "--n", "3", "--seed", "42"],
    ]
    ok = True
    for cmd in pinned:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "ktasep.cli", *cmd],
                capture_output=True, text=True, cwd=PKG,
            )
            if proc.returncode != 0:
                ok = False
            outs.append(proc.stdout)
        if outs[0] != outs[1]:
            ok = False
    report(10, ok, f"{len(pinned)} pinned commands byte-identical across runs")
