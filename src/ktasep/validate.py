"""Cross-validation harness: brute-force dynamics oracle, route-agreement
drivers, Monte Carlo vs exact statistics, convention arbitration, and the
tableau <-> trajectory correspondences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Frac

import numpy as np

from .conventions import (
    Conventions,
    IndexConvention,
    PINNED_CONVENTIONS,
    UpdateOrder,
)
from .kernels import (
    CaseId,
    KernelTable,
    ParamBinding,
    chain,
    kernel_operator_route,  # noqa: F401 - perfbench/child.py traces validate.kernel_operator_route
    kernel_tableau_route,
    operator_table,
)
from .partitions import Partition, partitions_in_box
from .simulate import SimConfig, batch_final, move, rng_for, sample_batch_final, update_order

OVERFLOW = math.inf  # jump symbol for "more than the enumeration window"


# ---------------------------------------------------------------------------
# brute-force single-step oracle
# ---------------------------------------------------------------------------


def _outcome_list(case: CaseId, binding: ParamBinding, j: int, time_index: int,
                  mu_j: int, window: int):
    """Exact per-particle outcome list [(jump or OVERFLOW, mass)].

    Geometric jumps are enumerated to ``window`` with the aggregated
    remainder as OVERFLOW; Bernoulli jumps are {0, 1}."""
    xi = binding.x_of(time_index)
    if case in (CaseId.B, CaseId.D):
        v = binding.rate(j) * xi
        p1 = v / (1 + v)
        return [(0, 1 - p1), (1, p1)]
    if case is CaseId.CANONICAL_B:
        v = binding.rate(j) * xi
        p1 = (binding.rate(j) + binding.beta_pos_of(mu_j)) * xi / (1 + v)
        return [(0, 1 - p1), (1, p1)]
    if case in (CaseId.A, CaseId.C):
        q = binding.rate(j) * xi
        out = [(w, (1 - q) * q**w) for w in range(window + 1)]
        out.append((OVERFLOW, q ** (window + 1)))
        return out
    if case is CaseId.CANONICAL_C:
        pi = binding.rate(j)
        out = []
        run = Frac(1)
        for w in range(window + 1):
            a_end = binding.alpha_of(mu_j + w)
            out.append((w, run * (1 - pi * xi) / (1 + a_end * xi)))
            run = run * (binding.alpha_of(mu_j + w) + pi) * xi / (1 + binding.alpha_of(mu_j + w) * xi)
        out.append((OVERFLOW, run))
        return out
    raise ValueError(case)


def brute_force_single_step(
    case: CaseId,
    mu: Partition,
    binding: ParamBinding,
    ell: int,
    cap: int,
    time_index: int = 1,
    update: UpdateOrder = PINNED_CONVENTIONS.update,
) -> KernelTable:
    """Apply every jump outcome of each particle in ``update_order`` with
    the samplers' ``move``, carrying the exact mass of each position tuple
    reached so far; equal tuples merge, so the work grows with the states
    rather than with the jump combinations.  A geometric overflow (an
    infinite jump) lands at the cap when blocked and otherwise takes
    particle 1 past the cap.  Positions never decrease, so a state whose
    particle 1 is past the cap goes to the pooled tail at once."""
    if cap < mu.part(1):
        raise ValueError(f"cap {cap} too small to contain mu")
    window = cap  # single-step jumps beyond cap always leave the box
    pushing = case.pushing
    states = {tuple(mu.padded(ell)): Frac(1)}
    tail = Frac(0)
    for j in update_order(case, ell, update):
        outcomes = [
            (w, p)
            for w, p in _outcome_list(case, binding, j, time_index, mu.part(j), window)
            if p != 0
        ]
        merged: dict = {}
        for pos, mass in states.items():
            for w, p in outcomes:
                new = list(pos)
                move(new, j, w, pushing)
                m = mass * p
                if new[0] > cap:
                    tail = tail + m
                    continue
                key = tuple(new)
                merged[key] = merged[key] + m if key in merged else m
        states = merged
    probs = {Partition(pos): mass for pos, mass in states.items()}
    return KernelTable(case, 1, mu, ell, probs, tail)


def brute_force_table(
    case: CaseId,
    n: int,
    mu: Partition,
    binding: ParamBinding,
    ell: int,
    cap: int,
    update: UpdateOrder = PINNED_CONVENTIONS.update,
) -> KernelTable:
    """n-step oracle: chain single-step brute-force tables."""
    current = {mu: Frac(1)}
    tail = Frac(0)
    for i in range(1, n + 1):
        nxt: dict = {}
        for nu, w in current.items():
            step = brute_force_single_step(case, nu, binding, ell, cap, i, update)
            tail = tail + w * step.tail
            for lam, p in step.probs.items():
                nxt[lam] = nxt.get(lam, Frac(0)) + w * p
        current = nxt
    return KernelTable(case, n, mu, ell, current, tail)


# ---------------------------------------------------------------------------
# route agreement / convention arbitration
# ---------------------------------------------------------------------------


@dataclass
class OracleRow:
    lam: Partition
    oracle: Frac
    closed: Frac
    operator: Frac | None  # None: the route raised, so the row is skipped
    tableau: Frac | None

    @property
    def skipped(self) -> bool:
        return self.operator is None or self.tableau is None

    @property
    def equal(self) -> bool:
        return not self.skipped and self.oracle == self.closed == self.operator == self.tableau


@dataclass
class OracleReport:
    case: CaseId
    mu: Partition
    n: int
    conventions: Conventions
    rows: list = field(default_factory=list)
    tail: Frac = Frac(0)

    @property
    def all_equal(self) -> bool:
        """Every row was compared, and all four values agree."""
        return all(r.equal for r in self.rows)

    def skipped(self):
        return [r for r in self.rows if r.skipped]

    def failures(self):
        """Compared rows whose values disagree."""
        return [r for r in self.rows if not r.skipped and not r.equal]


def route_agreement(
    case: CaseId,
    mu: Partition,
    n: int,
    binding: ParamBinding,
    ell: int,
    targets: list[Partition],
    cap: int,
    conventions: Conventions = PINNED_CONVENTIONS,
) -> OracleReport:
    """Compare oracle, closed-form chain, operator, and tableau values for
    every target partition; exact rational comparisons.  The operator
    values come from one ``operator_table`` just large and wide enough to
    hold every target.  A route that raises ``ValueError`` leaves ``None``
    in its slot and the row is skipped, never counted as agreeing."""
    targets = [lam for lam in targets if lam.length() <= ell and lam.part(1) <= ell]
    oracle = brute_force_table(case, n, mu, binding, ell, cap, conventions.update)
    closed = chain(case, n, mu, binding, ell, cap)
    size_cap = max([mu.size()] + [lam.size() for lam in targets])
    width = max((lam.part(1) for lam in targets), default=0)
    try:
        operator = operator_table(case, n, mu, binding, ell, size_cap, width)
    except ValueError:
        operator = None
    report = OracleReport(case, mu, n, conventions, tail=oracle.tail)
    for lam in targets:
        p = None if operator is None else operator.get(lam, Frac(0))
        try:
            t = kernel_tableau_route(case, n, mu, lam, binding, ell, conventions.index)
        except ValueError:
            t = None
        report.rows.append(OracleRow(lam, oracle.prob(lam), closed.prob(lam), p, t))
    return report


def arbitrate_conventions(
    binding: ParamBinding | None = None, ell: int = 3, verbose: bool = False
) -> list[Conventions]:
    """Run tableau-vs-dynamics agreement over a small discriminating grid
    for each candidate convention pair; return the surviving pairs.

    The discriminating observables: Case C and CanonicalC single steps
    (index convention shows up in the corner factors; update order in the
    blocking caps)."""
    if binding is None:
        binding = ParamBinding.numeric(
            x=[Frac(1, 5)],
            rates=[Frac(1, 2), Frac(1, 3), Frac(1, 7)],
            alpha=lambda k: Frac(1, 4 + k) if k >= 1 else Frac(0),
            beta_pos=lambda k: Frac(1, 6 + k) if k >= 1 else Frac(0),
        )
    survivors = []
    mus = partitions_in_box(2, 2)
    lams = partitions_in_box(3, 3)
    for index in IndexConvention:
        for update in UpdateOrder:
            conv = Conventions(index=index, update=update)
            ok = True
            for case in (CaseId.C, CaseId.CANONICAL_C, CaseId.B, CaseId.D):
                for mu in mus:
                    oracle = brute_force_single_step(
                        case, mu, binding, ell, cap=3, update=update
                    )
                    for lam in lams:
                        try:
                            t = kernel_tableau_route(case, 1, mu, lam, binding, ell, index)
                        except ValueError:
                            ok = False
                            break
                        if t != oracle.prob(lam):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                survivors.append(conv)
            if verbose:
                print(f"{conv.fingerprint()}: {'OK' if ok else 'rejected'}")
    return survivors


def check_pinned_conventions() -> None:
    """Fail loudly if arbitration does not single out the pinned pair."""
    survivors = arbitrate_conventions()
    if len(survivors) != 1:
        raise AssertionError(
            f"convention arbitration ambiguous or empty: {[s.fingerprint() for s in survivors]}"
        )
    if survivors[0] != PINNED_CONVENTIONS:
        raise AssertionError(
            f"arbitrated {survivors[0].fingerprint()} != pinned {PINNED_CONVENTIONS.fingerprint()}"
        )


# ---------------------------------------------------------------------------
# Monte Carlo vs exact
# ---------------------------------------------------------------------------


@dataclass
class StatReport:
    samples: int
    table: dict          # state -> (empirical frequency, exact probability)
    chi_square: float
    dof: int
    p_value: float
    tv_distance: float

    @property
    def healthy(self) -> bool:
        return self.tv_distance < 0.01 and self.p_value > 0.001


def mc_vs_exact(
    case: CaseId,
    mu: Partition,
    n: int,
    binding: ParamBinding,
    ell: int,
    samples: int,
    seed: int,
    cap: int = 12,
    rng_bias: float | None = None,
) -> StatReport:
    """Sample the process and compare against the exact kernel table:
    chi-square over states with expected count >= 5 (rarer states pooled)
    plus total-variation distance.  ``rng_bias`` is the documented fault
    injection: uniforms are raised to that power before use."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    exact = chain(case, n, mu, binding, ell, cap)
    config = SimConfig(
        case=case,
        ell=ell,
        steps=n,
        rates=[float(r) for r in binding.rates],
        x=[float(v) for v in binding.x],
        alpha=(lambda k: float(binding.alpha_of(k))) if binding.alpha else None,
        beta_pos=(lambda k: float(binding.beta_pos_of(k))) if binding.beta_pos else None,
        seed=seed,
        start=mu,
    )
    if rng_bias is None:
        finals = sample_batch_final(config, samples, seed)
    else:
        finals = batch_final(config, samples, _BiasedGenerator(rng_for(seed, 0), rng_bias))
    counts = _histogram(finals)

    states = sorted(set(exact.probs) | set(counts))
    table = {}
    tv = 0.0
    for s in states:
        emp = counts.get(s, 0) / samples
        p = float(exact.prob(s))
        table[s] = (emp, p)
        tv += abs(emp - p)
    tv = 0.5 * (tv + float(exact.tail))

    # chi-square with pooling of expectations below 5
    pooled_obs, pooled_exp = [], []
    acc_o, acc_e = 0.0, 0.0
    for s in states:
        e = float(exact.prob(s)) * samples
        o = counts.get(s, 0)
        acc_o += o
        acc_e += e
        if acc_e >= 5:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o, acc_e = 0.0, 0.0
    acc_e += float(exact.tail) * samples
    if pooled_exp:
        if acc_e > 0 or acc_o > 0:
            pooled_obs[-1] += acc_o
            pooled_exp[-1] += acc_e
    stat = 0.0
    for o, e in zip(pooled_obs, pooled_exp):
        if e > 0:
            stat += (o - e) ** 2 / e
    dof = max(len(pooled_obs) - 1, 1)
    return StatReport(samples, table, stat, dof, chi2_sf(stat, dof), tv)


def _histogram(finals: np.ndarray) -> dict:
    """Partition -> count over the rows of ``finals``: one lexicographic
    sort of the rows, then one Partition per run of equal rows."""
    rows = finals[np.lexsort(finals.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    sizes = np.diff(np.r_[starts, len(rows)])
    return {Partition(rows[i].tolist()): int(c) for i, c in zip(starts, sizes)}


def chi2_sf(stat: float, dof: int) -> float:
    """Chi-square survival function: the regularized upper incomplete
    gamma function Q(dof/2, stat/2)."""
    import mpmath

    return float(mpmath.gammainc(dof / 2, stat / 2, regularized=True))


class _BiasedGenerator:
    """Fault injection: a generator whose uniforms are raised to ``power``,
    which the chi-square harness must detect."""

    def __init__(self, rng: np.random.Generator, power: float):
        self._rng, self._power = rng, power

    def random(self, *args, **kwargs):
        return self._rng.random(*args, **kwargs) ** self._power

    def geometric(self, p, size=None):
        u = self._rng.random(size) ** self._power
        return np.floor(np.log1p(-u) / np.log1p(-p)).astype(np.int64) + 1


# ---------------------------------------------------------------------------
# trajectory <-> tableau correspondences
# ---------------------------------------------------------------------------


def decode_trajectory(case: CaseId, shape_outer: Partition, shape_inner: Partition,
                      filling: dict, n: int) -> list:
    """Decode a tableau into the particle trajectory it encodes.

    Case A: reverse plane partition in classical form; the shape of
    entries <= i gives the positions at time i.  Case C: set-valued
    tableau; the minimal entries drive the motion the same way."""
    if case is CaseId.A:
        entry_of = lambda cell: filling[cell]
    elif case is CaseId.C:
        entry_of = lambda cell: min(filling[cell])
    else:
        raise ValueError(f"no trajectory decoding for case {case}")
    rows = shape_outer.length()
    snaps = [(0, shape_inner)]
    for i in range(1, n + 1):
        parts = []
        for r in range(1, rows + 1):
            width = shape_inner.part(r)
            for c in range(shape_inner.part(r) + 1, shape_outer.part(r) + 1):
                if entry_of((r, c)) <= i:
                    width = c
            parts.append(width)
        snaps.append((i, Partition(parts)))
    return snaps


def encode_trajectory(case: CaseId, snaps: list) -> dict:
    """Inverse of decode for Case A: box (r, c) holds the first time the
    r-th particle is at position >= c."""
    if case is not CaseId.A:
        raise ValueError("encode_trajectory is defined for case A")
    mu = snaps[0][1]
    lam = snaps[-1][1]
    filling = {}
    for r in range(1, lam.length() + 1):
        for c in range(mu.part(r) + 1, lam.part(r) + 1):
            t = next(i for i, p in snaps if p.part(r) >= c)
            filling[(r, c)] = t
    return filling
