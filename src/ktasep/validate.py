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
    check_rate_count,
    kernel_operator_route,  # noqa: F401 - perfbench/child.py traces validate.kernel_operator_route
    kernel_tableau_route,  # noqa: F401 - perfbench/child.py traces validate.kernel_tableau_route
    operator_table,
    tableau_table,
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
    check_rate_count(ell, len(binding.rates))
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
    steps: dict | None = None,
) -> KernelTable:
    """n-step oracle: chain single-step brute-force tables.

    ``steps`` holds the single-step tables under (x_i, cap, update), then
    nu: everything a step reads that may vary between calls.  One dict
    serves one (case, ell, rate list, alpha/beta closures): calls that
    share it, whatever their start, n or x values, build each step once."""
    check_rate_count(ell, len(binding.rates))
    steps = {} if steps is None else steps
    current = {mu: Frac(1)}
    tail = Frac(0)
    for i in range(1, n + 1):
        built = steps.setdefault((binding.x_of(i), cap, update), {})
        nxt: dict = {}
        for nu, w in current.items():
            step = built.get(nu)
            if step is None:
                step = built[nu] = brute_force_single_step(case, nu, binding, ell, cap, i, update)
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


@dataclass
class RouteCache:
    """What a validation grid builds once and every route_agreement call
    reads: the oracle's and the closed route's single steps, the operator
    evolutions, and the tableau letters with their sums.  Each route keeps
    its own dict, so no route reads another's work.  One cache serves one
    (case, ell, rate list, alpha/beta closures); the grid's mu, n and x
    values may vary.  Nothing outlives the cache, so each grid starts
    cold."""

    oracle: dict = field(default_factory=dict)
    closed: dict = field(default_factory=dict)
    operator: dict = field(default_factory=dict)
    tableau: dict = field(default_factory=dict)


def route_agreement(
    case: CaseId,
    mu: Partition,
    n: int,
    binding: ParamBinding,
    ell: int,
    targets: list[Partition],
    cap: int,
    cache: RouteCache | None = None,
) -> OracleReport:
    """Compare oracle, closed-form chain, operator, and tableau values for
    every target partition under the pinned conventions; exact rational
    comparisons.  The operator values come from one ``operator_table``
    just large and wide enough to hold every target, the tableau values
    from one ``tableau_table``.  A
    route table that raises ``ValueError`` leaves ``None`` in its slot of
    every row, and those rows are skipped, never counted as agreeing.
    ``cache`` shares steps and evolutions between the calls of one grid
    (see ``RouteCache`` for its scope); without it, every call starts
    afresh."""
    cache = RouteCache() if cache is None else cache
    targets = [lam for lam in targets if lam.length() <= ell and lam.part(1) <= ell]
    oracle = brute_force_table(case, n, mu, binding, ell, cap, PINNED_CONVENTIONS.update,
                               cache.oracle)
    closed = chain(case, n, mu, binding, ell, cap, cache.closed)
    size_cap = max([mu.size()] + [lam.size() for lam in targets])
    width = max((lam.part(1) for lam in targets), default=0)
    try:
        operator = operator_table(case, n, mu, binding, ell, size_cap, width, cache.operator)
    except ValueError:
        operator = None
    try:
        tableau = tableau_table(case, n, mu, targets, binding, ell, PINNED_CONVENTIONS.index,
                                cache.tableau)
    except ValueError:
        tableau = None
    report = OracleReport(case, mu, n, tail=oracle.tail)
    for lam in targets:
        p = None if operator is None else operator.get(lam, Frac(0))
        t = None if tableau is None else tableau[lam]
        report.rows.append(OracleRow(lam, oracle.prob(lam), closed.prob(lam), p, t))
    return report


def arbitrate_conventions(verbose: bool = False) -> list[Conventions]:
    """Run tableau-vs-dynamics agreement over a small discriminating grid
    for each candidate convention pair, at one fixed binding with ell = 3;
    return the surviving pairs.

    The discriminating observables: Case C and CanonicalC single steps
    (index convention shows up in the corner factors; update order in the
    blocking caps).  The tableau value does not read the update order, so
    one ``tableau_table`` per (case, mu, index) serves both orders, the
    tables of one (case, index) share their sums, and each (case, mu,
    update) oracle step is built once and read under both index
    conventions.  A table that raises ``ValueError`` rejects its
    convention pair."""
    ell = 3
    binding = ParamBinding.numeric(
        x=[Frac(1, 5)],
        rates=[Frac(1, 2), Frac(1, 3), Frac(1, 7)],
        alpha=lambda k: Frac(1, 4 + k) if k >= 1 else Frac(0),
        beta_pos=lambda k: Frac(1, 6 + k) if k >= 1 else Frac(0),
    )
    mus = partitions_in_box(2, 2)
    lams = partitions_in_box(3, 3)
    tables: dict = {}
    sums: dict = {case: {} for case in CaseId}
    oracles: dict = {}

    def agrees(case: CaseId, mu: Partition, index: IndexConvention, update: UpdateOrder) -> bool:
        if (case, mu, index) not in tables:
            try:
                tables[case, mu, index] = tableau_table(case, 1, mu, lams, binding, ell, index,
                                                        sums[case])
            except ValueError:
                tables[case, mu, index] = None
        table = tables[case, mu, index]
        if table is None:
            return False
        if (case, mu, update) not in oracles:
            oracles[case, mu, update] = brute_force_single_step(case, mu, binding, ell, 3, 1, update)
        oracle = oracles[case, mu, update]
        return all(table[lam] == oracle.prob(lam) for lam in lams)

    survivors = []
    for index in IndexConvention:
        for update in UpdateOrder:
            conv = Conventions(index=index, update=update)
            ok = all(agrees(case, mu, index, update)
                     for case in (CaseId.C, CaseId.CANONICAL_C, CaseId.B, CaseId.D)
                     for mu in mus)
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
    rng_bias: float | None = None,
) -> StatReport:
    """Sample the process with the batch sampler and compare against the
    exact kernel table up to a cap of 12 (``compare_counts``).
    ``rng_bias`` is the documented fault injection: uniforms are raised to
    that power before use."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    exact = chain(case, n, mu, binding, ell, 12)
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
    return compare_counts(exact, _histogram(finals), samples)


def compare_counts(exact, counts: dict, samples: int) -> StatReport:
    """``counts`` (Partition -> number of the ``samples`` runs that end
    there) against the exact table ``exact``: chi-square over states with
    expected count >= 5 (rarer states pooled) plus total-variation
    distance."""
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
    """Partition -> count over the rows of ``finals``, in ascending
    lexicographic row order.  Each row gets one int64 key, column by
    column, as key * span + (column - column min), so keys ascend with the
    rows.  Before the key space passes the row count times the next span
    the keys are re-ranked (``np.unique``), which keeps their order and
    bounds every key by rows x span; so no width overflows.  ``np.bincount``
    counts the keys, and each state is read from one of its rows."""
    rows = len(finals)
    key, space = np.zeros(rows, dtype=np.int64), 1
    for col in (*finals.T, None):  # None: the last re-rank, before the count
        if space > rows:
            uniq, key = np.unique(key, return_inverse=True)
            key, space = key.reshape(rows), len(uniq)
        if col is not None:
            lo = int(col.min())
            span = int(col.max()) - lo + 1
            key *= span
            key += col
            key -= lo
            space *= span
    counts = np.bincount(key, minlength=space)
    where = np.empty(space, dtype=np.intp)
    where[key] = np.arange(rows)
    seen = np.flatnonzero(counts)
    return {Partition(row): c for row, c in zip(finals[where[seen]].tolist(),
                                                counts[seen].tolist())}


def chi2_sf(stat: float, dof: int) -> float:
    """Chi-square survival function: the regularized upper incomplete
    gamma function Q(dof/2, x), x = stat/2, in closed form: the terms x^b
    e^-x / Gamma(b + 1) for b = 0, 1, .. < dof/2, each one exp of its log,
    after erfc(sqrt x) with b = 1/2, 3/2, .. when dof is odd."""
    x = stat / 2
    if x <= 0:
        return 1.0
    total, b = (math.erfc(math.sqrt(x)), 0.5) if dof % 2 else (0.0, 0.0)
    while b < dof / 2:
        total += math.exp(b * math.log(x) - x - math.lgamma(b + 1))
        b += 1
    return total


class _BiasedGenerator:
    """Fault injection: a generator whose uniforms are raised to ``power``,
    which the chi-square harness must detect."""

    def __init__(self, rng: np.random.Generator, power: float):
        self._rng, self._power = rng, power

    def random(self, *args, **kwargs):
        return self._rng.random(*args, **kwargs) ** self._power


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
