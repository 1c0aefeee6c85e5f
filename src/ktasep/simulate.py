"""Seeded Monte Carlo samplers for the discrete processes, the
inhomogeneous (canonical) processes, and the continuous-time limit.

Randomness comes from numpy's counter-based Philox generator.  Stream
derivation rule: run ``r`` of a simulation with seed ``s`` uses
``SeedSequence(s, spawn_key=(r,))``, so results are independent of how
many runs execute.

The discrete samplers and the brute-force oracle in ``validate`` share
one update rule: particles move in ``update_order`` and each move is
``move``.  A discrete round takes one uniform per particle in that order,
CanonicalC included (its jump by inverse CDF, ``_inhom_walk``), so ``run``
draws its rounds in blocks of up to _BLOCK_DRAWS uniforms (``_rounds``),
picks the candidates, the draws that can jump, in one comparison per
block, each round under the law of its x_i, and does Python work only for
them, deciding no jump for a blocked particle packed behind its
neighbour.  Its ``Trajectory`` keeps
the rounds in which something moved, each as a tuple of positions that
becomes a ``Partition`` only when read, and ``run_final`` only the final
state.  The batch sampler (``batch_final``) runs the same rounds over
many samples at once: ``step_batch`` reads the same ``_RoundTables``,
draws each round's uniforms sample by sample in update order, picks the
draws that can jump with the same test (``_RoundTables.candidates``),
decides them with the same formulas and applies ``move``'s rule to whole
rows, so sample 0 of a one-sample batch is ``run_final``.  The tables
also check each parameter rule where its input is first read.

In continuous time each particle rings as its own Poisson process, so
``sample_continuous_final`` draws the particles' ring times first, the
first blocks of a run of particles in one call (``_ring_times``), and
applies the blocking or pushing rule to them by a last-passage recursion
over particles (``_row``), for every sample at once; ``run_continuous`` is
its one-sample case.  A particle's positions after its rings never
decrease, so the times at which it first reaches each level are read off
them.  Over the same ring times the recursion gives what firing the rings
in time order with ``move`` gives.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterator, Sequence

import numpy as np

from .conventions import UpdateOrder, PINNED_CONVENTIONS
from .kernels import (CaseId, check_alpha, check_beta, check_clock_rates, check_rate_count,
                      check_rate_x, check_sizes)
from .partitions import Partition


def rng_for(seed: int, run_index: int = 0) -> np.random.Generator:
    """The documented substream rule: Philox keyed by spawn_key=(run,)."""
    ss = np.random.SeedSequence(seed, spawn_key=(run_index,))
    return np.random.Generator(np.random.Philox(ss))


Rates = Sequence[float] | Callable[[int], float] | float


def _rate_floats(ell: int, rates: Rates) -> list:
    """pi_1, ..., pi_ell as floats from a callable of j, one number, or a
    list after ``check_rate_count``."""
    if callable(rates):
        return [float(rates(j)) for j in range(1, ell + 1)]
    if isinstance(rates, (int, float)):
        return [float(rates)] * ell
    check_rate_count(ell, len(rates))
    return [float(r) for r in rates[:ell]]


@dataclass
class SimConfig:
    """A discrete run's settings.  ``x`` is a list that repeats: x_i is
    x[(i - 1) % len(x)].  ``rates`` gives pi_1, ..., pi_ell as a list or a
    callable of j; ``alpha`` (CanonicalC) and ``beta_pos`` (CanonicalB)
    are callables of position, 0 when None."""

    case: CaseId
    ell: int
    steps: int = 0
    rates: Sequence[float] | Callable[[int], float] = (1.0,)
    x: Sequence[float] = (1.0,)
    alpha: Callable[[int], float] | None = None
    beta_pos: Callable[[int], float] | None = None
    seed: int = 0
    update: UpdateOrder = PINNED_CONVENTIONS.update
    start: Partition = field(default_factory=Partition)

    def __post_init__(self):
        check_sizes(ell=self.ell, steps=self.steps)

    def rate(self, j: int) -> float:
        if callable(self.rates):
            return float(self.rates(j))
        check_rate_count(self.ell, len(self.rates))
        return float(self.rates[j - 1])

    def x_of(self, i: int) -> float:
        return float(self.x[(i - 1) % len(self.x)])

    def alpha_of(self, k: int) -> float:
        return float(self.alpha(k)) if self.alpha is not None else 0.0

    def beta_pos_of(self, k: int) -> float:
        return float(self.beta_pos(k)) if self.beta_pos is not None else 0.0


class Trajectory:
    """A discrete run over rounds 0..steps, kept as its changes: (0, start),
    then (round, state) after each round in which something moved, in
    order.  ``steps`` defaults to the last change's round.

    A state is given as a ``Partition`` or, as ``run`` logs it, as the ell
    bosonic positions in a tuple.  A tuple becomes a ``Partition`` when it
    is first read, and that ``Partition`` replaces it, so a state read
    twice is one object."""

    def __init__(self, changes: list, ell: int = 0, steps: int | None = None):
        self._log = changes
        self.ell = ell  # particle count; 0 means the most parts of any state
        self.steps = changes[-1][0] if steps is None else steps

    def _state(self, k: int) -> Partition:
        t, p = self._log[k]
        if type(p) is tuple:
            p = Partition._trusted(p)
            self._log[k] = (t, p)
        return p

    @property
    def changes(self) -> list:
        """(round, Partition) per change, the start first."""
        return [(t, self._state(k)) for k, (t, _) in enumerate(self._log)]

    @property
    def snapshots(self) -> list:
        """(round, state) for every round 0..steps; a round in which nothing
        moved shares the state before it."""
        changes = self.changes
        ends = [t for t, _ in changes[1:]] + [self.steps + 1]
        return [(t, p) for (t0, p), t1 in zip(changes, ends) for t in range(t0, t1)]

    def final(self) -> Partition:
        return self._state(-1)

    def positions(self, picture: str = "bosonic") -> list:
        """Per snapshot, the ell particle positions: bosonic parts, or
        fermionic part(j) - j."""
        ell = self.ell or max(len(p.parts) for _, p in self.changes) or 1
        if picture == "bosonic":
            return [(t, list(p.padded(ell))) for t, p in self.snapshots]
        return [(t, [p.part(j) - j for j in range(1, ell + 1)]) for t, p in self.snapshots]


def sample_geometric(log_q: float, u: float) -> int:
    """Inverse-transform geometric from the law's log q (-inf for q = 0):
    P(w = k) = (1-q) q^k, k >= 0."""
    return math.floor(math.log1p(-u) / log_q)


def _site_success(case: CaseId, site, rate, x):
    """Success probability of one try at a site of rate ``site`` (alpha
    for CanonicalC, beta_pos for CanonicalB): CanonicalC's
    (alpha + pi) x / (1 + alpha x) per site passed, CanonicalB's
    (rho + beta) x / (1 + rho x) jump.  Elementwise on arrays, with the
    same operations in the same order as on floats."""
    if case is CaseId.CANONICAL_C:
        return (site + rate) * x / (1.0 + site * x)
    return (rate + site) * x / (1.0 + rate * x)


class _Lazy(dict):
    """A dict whose value at a missing key k is ``of(k)``, computed when
    first read."""

    def __init__(self, of: Callable):
        super().__init__()
        self.of = of

    def __missing__(self, k):
        v = self[k] = self.of(k)
        return v


def _inhom_walk(succ, k: int, u: float, stop=math.inf) -> int:
    """The site that an inhomogeneous geometric jump from site k lands on,
    by inverse CDF from the one uniform u.  The jump passes sites k, ...,
    k + w - 1 with probability p = succ[k] ... succ[k + w - 1], so the walk
    multiplies the successes into p and stops at the first site where
    u >= p, or at ``stop`` (the blocking neighbour).  A site of success 0
    (alpha = -pi) stops every walk."""
    p = 1.0
    while k < stop:
        p *= succ[k]
        if u >= p:
            return k
        k += 1
    return k


def _walk_batch(succ, k: np.ndarray, u: np.ndarray, stop: np.ndarray | None) -> np.ndarray:
    """``_inhom_walk`` of every draw at once: the sites that the jumps from
    sites ``k`` (moved in place) land on, by inverse CDF from the uniforms
    ``u``, each stopped at its entry of ``stop`` (None: no blocking
    neighbour).  One step multiplies every live draw's p by the success at
    its site, with the float products of the scalar walk in the same order,
    and ends the draws with u >= p.  The successes are read into an array
    from the nearest start up to the farthest site that a live draw reads,
    so a site of ``succ`` past the starts is first read, and its rule
    checked, where the scalar walks would first read it."""
    live = np.flatnonzero(k < stop) if stop is not None else np.arange(len(k))
    p = np.ones(len(live))
    base = int(k[live].min()) if len(live) else 0
    table = np.empty(0)
    while len(live):
        at = k[live] - base
        top = int(at.max())
        if top >= len(table):
            more = range(base + len(table), base + top + 1)
            table = np.concatenate((table, np.fromiter(map(succ.__getitem__, more), float,
                                                       len(more))))
        p *= table[at]
        go = ~(u[live] >= p)
        live, p = live[go], p[go]
        k[live] += 1
        if stop is not None:
            on = k[live] < stop[live]
            live, p = live[on], p[on]
    return k


def sample_inhom_geometric(alpha: Callable[[int], float], pi: float, x: float, start: int,
                           rng: np.random.Generator) -> int:
    """Inhomogeneous geometric jump from ``start``: P(w >= k) is the product
    of the successes (alpha_m + pi) x / (1 + alpha_m x) over sites start,
    ..., start + k - 1.  One uniform, by ``_inhom_walk``, the rule of
    CanonicalC's rounds.  Exact, no rejection."""
    succ = _Lazy(lambda k: _site_success(CaseId.CANONICAL_C, alpha(k), pi, x))
    return _inhom_walk(succ, start, rng.random()) - start


def inhom_geometric_pmf(alpha: Callable[[int], float], pi: float, x: float, maxval: int,
                        start: int = 0) -> list[float]:
    """Closed-form pmf of the landing position start..maxval (the last
    entry is a point mass, not a tail)."""
    out = [(1.0 - pi * x) / (1.0 + alpha(start) * x)]
    for k in range(start, maxval):
        out.append(out[-1] * (alpha(k) + pi) * x / (1.0 + alpha(k + 1) * x))
    return out


def update_order(case: CaseId, ell: int, update: UpdateOrder) -> range:
    """Particle order of one synchronous round.  Under the pinned order
    geometric cases run ell, ..., 1, so a blocked particle (C, CanonicalC)
    sees its left neighbour before that neighbour moves, and Bernoulli
    cases run 1, ..., ell, so a blocked particle (B, CanonicalB) sees it
    after.  The other order swaps both."""
    if case.geometric == (update is UpdateOrder.GEOMETRIC_DESCENDING):
        return range(ell, 0, -1)
    return range(1, ell + 1)


def move(pos: list, j: int, w, pushing: bool) -> None:
    """Move particle j of the bosonic positions ``pos`` by w in place.  A
    pushing particle carries every particle ahead of it that it passes; a
    blocked one stops at its left neighbour's current position.  w may be
    ``math.inf``."""
    new = pos[j - 1] + w
    pos[j - 1] = new
    if pushing:
        i = j - 2
        while i >= 0 and pos[i] < new:
            pos[i] = new
            i -= 1
    elif j > 1 and new > pos[j - 2]:
        pos[j - 1] = pos[j - 2]


# Uniforms in one block of rounds, or ring gaps in one run of particles'
# first blocks: 128 kilobytes of floats, whatever ell is
_BLOCK_DRAWS = 16384
# CanonicalB's and CanonicalC's success bound reaches _REACH_DRAWS // ell
# rounds past particle 1 at most, however long the block
_REACH_DRAWS = 4096


class _RoundTables:
    """What a round reads per particle, built once per run or batch from
    ``config``: the update order and the rates in that order, the law of
    each x_i read (``laws``; kept, so a cycling x builds each once),
    alpha (CanonicalC) or beta_pos (CanonicalB) by position from 0, in a
    table that grows as the particles advance, and the site successes per
    (pi_j, x_i).  Each parameter rule is checked where its input is first
    read: a new x_i (``laws``) against every rate and every position read
    so far, a new position (``site``) against every x_i read so far.  The
    tables change as a run goes on, so two threads must not run rounds
    with one of them at once.  Nothing they hold refers back to them, so
    they are freed when the run that built them returns."""

    def __init__(self, case: CaseId, config: SimConfig):
        self.case = case
        self.order = list(update_order(case, config.ell, config.update))
        rates = _rate_floats(config.ell, config.rates)
        self.indexed = list(enumerate(rates, start=1))  # (j, pi_j), as the checks name them
        self.low = min(self.indexed, key=operator.itemgetter(1), default=(0, 0.0))
        self.rates = np.array(rates)[[j - 1 for j in self.order]]
        self.rate_list = self.rates.tolist()
        self.check = check = check_alpha if case is CaseId.CANONICAL_C else check_beta
        site_of = config.alpha_of if case is CaseId.CANONICAL_C else config.beta_pos_of
        self.sites = sites = []
        self.xs = xs = {}  # x_i -> (i, x_i) at its first step i, for each x_i read so far
        low = self.low

        def site(k: int) -> float:
            """alpha_k (CanonicalC) or beta_pos_k (CanonicalB); a position
            read for the first time is checked against every x_i read so
            far and the smallest rate (``check_alpha``, ``check_beta``)."""
            for m in range(len(sites), k + 1):
                sites.append(check(m, site_of(m), xs.values(), low))
            return sites[k]

        # a closure, not a method: the success maps below hold it, and
        # nothing they hold may refer back to the tables
        self.site = site
        # (pi_j, x_i) -> site k -> success, shared by the particles of one
        # rate and kept across changes of x_i
        self.successes = _Lazy(lambda key: _Lazy(lambda k: _site_success(case, site(k), *key)))
        self.kept: dict = {}  # x_i -> its law (``_law``)
        self.x_of = config.x_of
        self.period = len(config.x)
        self.floored = case in (CaseId.A, CaseId.C)  # candidates at or above a floor

    def laws(self, first: int, n: int) -> tuple:
        """The laws (``_law``) of the distinct x_i that rounds first, ...,
        first + n - 1 read, in first-read order, and each round's index
        into them.  x repeats, so one period of it is read.  An x_i not
        read before is checked at its first round i: pi_j x_i for every
        particle (``check_rate_x``), then the site rule at every position
        read so far; then its law is built and kept."""
        seen: dict = {}
        index = []
        for i in range(first, first + min(n, self.period)):
            xi = self.x_of(i)
            if xi not in self.xs:
                check_rate_x(self.case, i, xi, self.indexed)
                for k, site in enumerate(self.sites):
                    self.check(k, site, [(i, xi)], self.low)
                self.xs[xi] = (i, xi)
                self.kept[xi] = self._law(xi)
            index.append(seen.setdefault(xi, len(seen)))
        return [self.kept[xi] for xi in seen], (index * -(-n // len(index)))[:n]

    def _law(self, xi: float) -> SimpleNamespace:
        """What the rounds at x_i read per particle i (in update order):
        its jump law ``jump[i]`` and its candidate threshold ``bar[i]``.  A
        and C: jump[i] is log q (-inf for q = 0), taken once per law for
        ``sample_geometric``, and i can jump only if u >= bar[i], a floor;
        the exact rule u >= 1 - q rounds within a few ulps of |log q| <= 745
        in ``sample_geometric``, far inside the 1e-9 relative and 1e-15
        absolute slack, so the floor never excludes a jump.  CanonicalC and
        CanonicalB: jump[i] is the site successes, and bar[i] the success
        bound over the first ``covered`` positions (``success_bound``),
        which grows with them.  Bernoulli (B, D): i jumps iff u < bar[i]."""
        v = self.rates * xi
        if self.case.canonical:
            jump, bar = [self.successes[rate, xi] for rate in self.rate_list], -math.inf
        elif self.case.geometric:
            jump = [math.log(q) if q > 0 else -math.inf for q in v.tolist()]
            bar = 1.0 - v * (1.0 + 1e-9) - 1e-15
        else:
            jump, bar = None, v / (1.0 + v)
        return SimpleNamespace(x=xi, jump=jump, bar=bar, covered=0)

    def success_bound(self, law: SimpleNamespace, hi: int) -> np.ndarray:
        """Each particle's (in update order) largest site success
        probability under ``law`` over positions 0..hi: no draw at or above
        its particle's bound is a success.  The bound is extended only over
        the positions it has not covered yet."""
        self.site(hi)
        if law.covered < len(self.sites):
            new = np.array(self.sites[law.covered:])[:, None]
            rates = sorted(set(self.rate_list))  # np.unique would import numpy.ma
            top = _site_success(self.case, new, np.array(rates), law.x).max(axis=0)
            top = top[np.searchsorted(rates, self.rates)]  # each distinct rate once
            law.bar, law.covered = np.maximum(law.bar, top), len(self.sites)
        return law.bar

    def candidates(self, u: np.ndarray, hi: int, laws: list, index: list) -> np.ndarray:
        """Which uniforms of ``u``, rows of rounds with particles in update
        order along the last axis, can jump: row r under laws[index[r]],
        every row under a single law.  A candidate is below the success
        bound over positions 0..hi (CanonicalC, CanonicalB; ``_rounds``
        keeps hi within _REACH_DRAWS // ell rounds of particle 1), at or
        above the floor (A, C) or below p_succ (B, D, whose candidates all
        jump unless blocked).  The test reads no position, so a candidate
        may be a blocked particle packed behind its neighbour, which
        ``_rounds`` passes over."""
        bars = [self.success_bound(law, hi) if self.case.canonical else law.bar for law in laws]
        bar = bars[0] if len(bars) == 1 else np.array(bars)[index]
        return u >= bar if self.floored else u < bar


def step_discrete(case: CaseId, state: Partition, time_index: int, config: SimConfig,
                  rng: np.random.Generator) -> Partition:
    """One synchronous round: each particle in ``update_order`` draws its
    jump from one uniform and ``move``s.  It is the one-round block of
    ``_rounds``, so it draws ``rng.random(ell)`` and consumes the stream as
    one scalar draw per particle in update order would.  A round in which
    nothing moves returns ``state``."""
    out: list = []
    _rounds(list(state.padded(config.ell)), time_index, 1, rng, _RoundTables(case, config), out)
    return Partition._trusted(out[-1][1]) if out else state


def _rounds(pos: list, first: int, n: int, rng: np.random.Generator, tables: _RoundTables,
            out: list | None) -> None:
    """Rounds first, ..., first + n - 1 of ``tables``' run from the bosonic
    positions ``pos``, which move in place; (round, positions as a tuple)
    after each round in which something moved is appended to ``out``,
    unless it is None.

    The block draws ``rng.random(n * ell)``: row r holds round first + r's
    uniforms in update order, so it consumes what n rounds of one scalar
    draw per particle would.  One numpy comparison
    (``_RoundTables.candidates``), each row against the law of its
    round's x_i (``_RoundTables.laws``), picks the candidates, the
    (round, particle) draws that can jump, and one loop walks these, not
    the rounds, so a round without a candidate costs nothing.  A blocked
    candidate packed behind its neighbour is passed over, since ``move``
    would leave it where it is; every other one is decided with the
    scalar formulas of its round's law (CanonicalC: ``_inhom_walk``) and
    ``move``s if it jumps.  Jump laws read a particle's position at the
    start of the round: the position-dependent cases (CanonicalB,
    CanonicalC) block, and a blocking move changes only the particle that
    moves.

    Their candidates are the draws below their particle's success bound
    over positions 0..hi, which covers the particle while particle 1, which
    no particle passes, is at or below hi.  hi is particle 1's position
    plus the rounds left, up to the reach of _REACH_DRAWS // ell rounds.
    When a round leaves particle 1 past hi, hi is set again from its new
    position, and the rounds left are selected again from the same
    draws."""
    if not pos:
        return
    u = rng.random(n * len(pos)).reshape(n, -1)
    case = tables.case
    canonical_b, canonical_c = case is CaseId.CANONICAL_B, case is CaseId.CANONICAL_C
    geometric = case.geometric and not canonical_c  # A and C
    bounded, order, pushing = case.canonical, tables.order, case.pushing
    laws, index = tables.laws(first, n)
    # round r's jump laws: one list per round, shared when x_i does not change
    jumps = [laws[0].jump] * n if len(laws) == 1 else [laws[k].jump for k in index]
    reach = max(1, _REACH_DRAWS // len(pos))

    def ended(r: int) -> bool:
        """Log round r, in which something moved; whether particle 1 has
        passed hi."""
        if out is not None:
            out.append((first + r, tuple(pos)))
        return bounded and pos[0] > hi

    r0 = 0
    while r0 < n:
        hi = pos[0] + min(reach, n - r0)
        rs, ps = tables.candidates(u[r0:], hi, laws, index[r0:]).nonzero()
        rs += r0
        r0, moving = n, -1  # the last round in which something moved
        for r, i, v in zip(rs.tolist(), ps.tolist(), u[rs, ps].tolist()):
            j = order[i]
            k = pos[j - 1]
            if not pushing and j > 1 and k == pos[j - 2]:
                continue  # packed behind its blocking neighbour
            if geometric:
                w = sample_geometric(jumps[r][i], v)
            elif canonical_c:
                w = _inhom_walk(jumps[r][i], k, v, pos[j - 2] if j > 1 else math.inf) - k
            elif canonical_b:
                w = v < jumps[r][i][k]
            else:
                w = 1
            if w:  # moves j, which is not packed
                if r != moving:
                    if moving >= 0 and ended(moving):
                        r0 = moving + 1
                        break
                    moving = r
                move(pos, j, w, pushing)
        else:
            if moving >= 0 and ended(moving):
                r0 = moving + 1


def step_batch(tables: _RoundTables, pos: np.ndarray, time_index: int, rng) -> np.ndarray:
    """Round ``time_index`` of ``tables``' run over a batch of independent
    runs: row j - 1 of ``pos`` (ell x samples) holds particle j's bosonic
    positions, which move in place.  The round draws ``rng.random((samples,
    ell))``: row b holds sample b's uniforms in update order, the draws of
    round ``time_index`` of a ``_rounds`` block, and one comparison
    (``_RoundTables.candidates``) under the law of the round's x_i
    (``_RoundTables.laws``) picks the draws that can jump.  The particles
    move in update order, each jump decided by the formulas of ``_rounds``
    from the particle's position at the start of the round, then pushing
    (A, D) or blocked by the particle before.  Every case decides a
    particle's candidates in whole arrays: CanonicalC by ``_walk_batch``,
    whose landing sites are ``_inhom_walk``'s."""
    ell, samples = pos.shape
    if not ell:
        return pos
    laws, index = tables.laws(time_index, 1)
    jump = laws[0].jump
    u = rng.random((samples, ell)).T.copy()  # row i: the i-th particle in update order
    hi = int(pos[0].max(initial=0))
    hit = tables.candidates(u.T, hi, laws, index).T  # the test reads particles along the last axis
    case = tables.case
    for i, j in enumerate(tables.order):
        row, v, b = pos[j - 1], u[i], np.flatnonzero(hit[i])
        if case is CaseId.CANONICAL_C:
            # the walk stops at the blocking neighbour, as in ``_rounds``
            row[b] = _walk_batch(jump[i], row[b], v[b], pos[j - 2, b] if j > 1 else None)
            continue
        if case.geometric:  # A and C: sample_geometric over the law's log q, with
            # math.log1p, since numpy picks its kernel by CPU
            logs = np.fromiter(map(math.log1p, (-v[b]).tolist()), float, len(b))
            row[b] += np.floor(logs / jump[i]).astype(np.int64)
        elif case is CaseId.CANONICAL_B:  # the successes at positions 0..hi
            succ = np.fromiter(map(jump[i].__getitem__, range(hi + 1)), float, hi + 1)
            row[b] += v[b] < succ[row[b]]
        else:  # B and D: every candidate jumps
            row[b] += 1
        if case.pushing:
            np.maximum(pos[:j - 1], row, out=pos[:j - 1])
        elif j > 1:
            np.minimum(row, pos[j - 2], out=row)
    return pos


def run(config: SimConfig, run_index: int = 0) -> Trajectory:
    """Deterministic given (seed, run_index): the start and the rounds in
    which something moved (``_run``), each logged as a tuple of positions
    that becomes a ``Partition`` when the ``Trajectory`` reads it."""
    changes = [(0, config.start)]
    _run(config, run_index, changes)
    return Trajectory(changes, config.ell, config.steps)


def run_final(config: SimConfig, run_index: int = 0) -> Partition:
    """``run(config, run_index).final()`` without keeping the rounds before
    it, so memory does not grow with the rounds."""
    return Partition._trusted(_run(config, run_index, None))


def _run(config: SimConfig, run_index: int, out: list | None) -> list:
    """The bosonic positions after ``config.steps`` rounds.  They run in
    blocks of ``_rounds``, which consume the stream as one round after
    another would and append their changes to ``out``."""
    tables = _RoundTables(config.case, config)
    rng = rng_for(config.seed, run_index)
    pos = list(config.start.padded(config.ell))
    block = max(1, _BLOCK_DRAWS // max(config.ell, 1))
    for first in range(1, config.steps + 1, block):
        n = min(block, config.steps + 1 - first)
        _rounds(pos, first, n, rng, tables, out)
    return pos


def sample_batch_final(config: SimConfig, samples: int, seed: int) -> np.ndarray:
    """Vectorized: final positions (samples x ell) after config.steps, drawn
    from run 0's stream of ``seed``."""
    return batch_final(config, samples, rng_for(seed))


def batch_final(config: SimConfig, samples: int, rng) -> np.ndarray:
    """``sample_batch_final`` drawing from ``rng``: a Generator, or any
    object with its ``random`` method.  Its rounds are ``step_batch``es
    over one ``_RoundTables``, so sample 0 of a one-sample batch from
    ``rng_for(seed, r)`` is ``run_final(config, r)``."""
    tables = _RoundTables(config.case, config)
    start = np.array(config.start.padded(config.ell), dtype=np.int64)
    pos = np.repeat(start[:, None], samples, axis=1)
    for i in range(1, config.steps + 1):
        step_batch(tables, pos, i, rng)
    return pos.T


def _clock_rates(ell: int, rates: Rates) -> list:
    """``_rate_floats`` after ``check_clock_rates``."""
    rate = _rate_floats(ell, rates)
    check_clock_rates(ell, rate)
    return rate


# A particle draws its ring gaps in blocks of its mean ring count before t
# plus _RING_SIGMAS standard deviations plus _RING_SLACK, so that a second
# block is rare
_RING_SIGMAS = 6
_RING_SLACK = 10
# Most rings a continuous run may expect (samples x sum_j pi_j t): 40 times
# the paper-scale run (ell = t = 500 at rate 1, 250,000 rings).  A larger
# run is refused before any draw, because a particle's first block is sized
# from its mean ring count and would not fit in memory.
MAX_RINGS = 10_000_000


def _ring_times(rates: list, t: float, samples: int, rng: np.random.Generator) -> Iterator:
    """Each particle's ring times, in the order of ``rates``: samples x
    width, or width alone for one sample.  Row b holds sample b's in
    increasing order up to the first column in which no sample's ring is
    before t; a ring at t or later never fires and reads inf.

    A ring time is a running sum of ``rng.standard_exponential`` gaps
    divided by the particle's rate.  A particle draws its gaps in a samples
    x n block, n = int(m + _RING_SIGMAS * sqrt(m)) + _RING_SLACK for m =
    rate * t; while some samples' last ring is before t, those samples (in
    order) draw one more block.  A particle with rate * t = 0 draws nothing.
    Runs of consecutive particles with one n draw their first blocks in one
    call, up to _BLOCK_DRAWS gaps (``_ring_run``), which consumes the stream
    as one block after another would."""
    batch = () if samples == 1 else (samples,)
    sizes = [int(m + _RING_SIGMAS * math.sqrt(m)) + _RING_SLACK if m else 0
             for m in (rate * t for rate in rates)]
    first = 0
    for n, group in itertools.groupby(sizes):
        end = first + len(list(group))
        while first < end:
            run = rates[first:min(end, first + max(1, _BLOCK_DRAWS // (samples * max(n, 1))))]
            rings = _ring_run(run, n, t, batch, rng)
            first += len(rings)
            yield from rings


def _ring_run(rates: list, n: int, t: float, batch: tuple, rng: np.random.Generator) -> list:
    """Ring times (``_ring_times``) of consecutive particles whose first
    blocks have n gaps, drawn in one call.  That consumes the stream as one
    block after another would while no particle needs a second block.  When
    one does, the run ends at it: the generator goes back to its state
    before the call and draws the blocks up to that particle's again, then
    that particle's further blocks (``_more_blocks``), so fewer particles
    than ``rates`` may come back.  With n = 0 nothing is drawn and every
    particle gets one column of inf."""
    k = len(rates)
    if not n:
        return [np.full(batch + (1,), np.inf) for _ in rates]
    rate = np.array(rates).reshape((k,) + (1,) * len(batch) + (1,))
    state = rng.bit_generator.state if k > 1 else None
    sums = rng.standard_exponential((k,) + batch + (n,)).cumsum(axis=-1)
    short = np.flatnonzero((sums[..., -1:] / rate < t).reshape(k, -1).any(axis=1))
    if len(short) and short[0] + 1 < k:
        k = int(short[0]) + 1
        rng.bit_generator.state = state
        sums = rng.standard_exponential((k,) + batch + (n,)).cumsum(axis=-1)
    rings = _up_to_t(sums / rate[:k], t)
    if len(short):
        rings[-1] = _up_to_t(_more_blocks(sums[-1], rates[k - 1], t, rng)[None], t)[0]
    return rings


def _more_blocks(sums: np.ndarray, rate: float, t: float, rng: np.random.Generator) -> np.ndarray:
    """One particle's ring times from its first block of running gap sums
    (samples x n, or n alone for one sample) after the further blocks of
    the samples whose last ring is before t."""
    n = sums.shape[-1]
    rows = sums.reshape(-1, n)
    while rows[:, -1].min() / rate < t:
        short = rows[:, -1] / rate < t
        more = rng.standard_exponential((int(short.sum()), n))
        more[:, 0] += rows[short, -1]
        block = np.full(rows.shape[:1] + (n,), np.inf)
        block[short] = more.cumsum(axis=1)
        rows = np.concatenate((rows, block), axis=1)
    return rows.reshape(sums.shape[:-1] + (-1,)) / rate


def _up_to_t(rings: np.ndarray, t: float) -> list:
    """Per particle of a stack of ring times, those up to and including the
    first column in which no sample's ring is before t, with every ring at
    t or later set to inf."""
    late = rings >= t
    rings[late] = np.inf
    widths = late.argmax(axis=-1).reshape(len(rings), -1).max(axis=1) + 1
    return [r[..., :w] for r, w in zip(rings, widths.tolist())]


def _passed(levels: np.ndarray, rings: np.ndarray, side: str) -> np.ndarray:
    """Per ring, how many of ``levels``' times in its own sample (row) lie
    before it (side "left") or at or before it ("right").  Complex keys
    sample + i*time sort as (sample, time) pairs, so one ``searchsorted``
    serves every sample."""
    if levels.ndim == 1:
        return levels.searchsorted(rings, side)

    def keys(times):
        out = np.empty(times.shape, dtype=complex)
        out.real = np.arange(len(times))[:, None]
        out.imag = times
        return out.ravel()

    found = np.searchsorted(keys(levels), keys(rings), side).reshape(rings.shape)
    return found - levels.shape[1] * np.arange(len(rings))[:, None]


def _row(rings: np.ndarray, s: int, levels: np.ndarray, prev_s: int, push: bool) -> tuple:
    """Particle j's row of the last-passage recursion, from its rings
    (``_ring_times``), its start s and the row before it: the level times
    of particle j - 1 (blocking) or j + 1 (pushing), which started at
    prev_s.  Arrays are per sample along their last axis, as
    ``_ring_times`` gives them.

    ``levels`` holds the times at which a particle first reaches prev_s +
    1, prev_s + 2, ..., inf for a level it does not reach before t.  Write
    P_k for particle j's position after its ring k at time r_k, P_0 = s.
    Blocking: ring k moves j unless that takes it past j - 1, which (the
    lower particle goes first in a tie) is at Q_k = prev_s + #(levels <=
    r_k), so P_k = min(P_{k-1} + 1, Q_k) and P_k - k is a running minimum.
    Pushing: j + 1, at R_k = prev_s + #(levels < r_k), has carried j up to
    it before ring k, so P_k = max(P_{k-1}, R_k) + 1, a running maximum.
    P never decreases, so ring k is the first at which j stands on levels
    P_{k-1} + 1, ..., P_k, unless (pushing) j + 1 carried j there earlier.
    Returns j's level times and its final positions: s plus the levels it
    reached before t."""
    w = rings.shape[-1]
    # gap[k] = P_k - k, from gap[0] = s: a running minimum of Q_k - k
    # (blocking) or maximum of R_k + 1 - k (pushing)
    gap = np.empty(rings.shape[:-1] + (w + 1,), dtype=np.int64)
    gap[..., 0] = s
    np.add(_passed(levels, rings, "left" if push else "right"),
           np.arange(prev_s + push - 1, prev_s + push - 1 - w, -1), out=gap[..., 1:])
    (np.maximum if push else np.minimum).accumulate(gap, axis=-1, out=gap)
    # the last ring fires in no sample: raised to the top level, it ends
    # every row there, so that ring k's time repeated P_k - P_{k-1} times
    # gives as many level times in every sample
    top = max(gap[..., -1:].ravel().tolist()) + w
    gap[..., -1] = top - w
    steps = gap[..., 1:] - gap[..., :-1]
    steps += 1
    times = rings.repeat(steps.ravel()).reshape(rings.shape[:-1] + (-1,))
    if push:  # j + 1 reaches no level past top before t
        carried = levels[..., s - prev_s:s - prev_s + times.shape[-1]]
        head = times[..., :carried.shape[-1]]
        np.minimum(head, carried, out=head)
    # the levels reached are those with a time before the last ring's, inf
    return times, s + _passed(times, rings[..., -1:], "left")[..., 0]


def sample_continuous_final(ell: int, t: float, rates: Rates, samples: int,
                            rng: np.random.Generator, push: bool = False,
                            start: Partition | None = None) -> np.ndarray:
    """Final bosonic positions (samples x ell) of continuous-time blocking
    (or, with ``push``, pushing) TASEP at time t, particle j ringing at rate
    pi_j.  A particle rings as its own Poisson process whatever the others
    do, so its rings are drawn first (``_ring_times``) and ``_row`` applies
    the dynamics: particles 1, ..., ell when blocking, each bounded by the
    one before, and ell, ..., 1 when pushing, each carried by the one
    behind.  Rings are drawn in that order, for runs of particles at once:
    at most _BLOCK_DRAWS gaps (or one particle's first block, if larger)
    and two rows live at once.  A run that expects more than ``MAX_RINGS``
    rings is refused before any draw."""
    if not 0 <= t < math.inf:
        raise ValueError(f"time horizon t = {t} outside [0, inf)")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rate = _clock_rates(ell, rates)
    try:
        expected = samples * math.fsum(r * t for r in rate)
    except OverflowError:  # the count passes the largest float
        expected = math.inf
    if expected > MAX_RINGS:
        raise ValueError(
            f"{expected:.4g} rings expected (samples x sum of pi_j t); at most {MAX_RINGS:,}"
        )
    s = (start or Partition()).padded(ell)
    order = range(ell - 1, -1, -1) if push else range(ell)
    levels = np.empty((0,) if samples == 1 else (samples, 0))
    # the row before particle 1 (blocking) or ell (pushing) never moves:
    # from far ahead it bounds nothing, from 0 it carries nothing
    prev_s = 0 if push else 1 << 62
    finals = [0] * ell
    for i, rings in zip(order, _ring_times([rate[i] for i in order], t, samples, rng)):
        levels, finals[i] = _row(rings, s[i], levels, prev_s, push)
        prev_s = s[i]
    return np.array(finals, dtype=np.int64).reshape(ell, samples).T.copy()


def run_continuous(ell: int, t: float, rates: Rates, rng: np.random.Generator, push: bool = False,
                   start: Partition | None = None) -> list[int]:
    """Bosonic positions at time t of one continuous-time run: the
    one-sample case of ``sample_continuous_final``."""
    return sample_continuous_final(ell, t, rates, 1, rng, push, start)[0].tolist()
