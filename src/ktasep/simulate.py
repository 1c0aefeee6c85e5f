"""Seeded Monte Carlo samplers for the discrete processes, the
inhomogeneous (canonical) processes, and the continuous-time limit.

Randomness comes from numpy's counter-based Philox generator.  Stream
derivation rule: run ``r`` of a simulation with seed ``s`` uses
``SeedSequence(s, spawn_key=(r,))``, so results are independent of how
many runs execute.

Every sampler and the brute-force oracle in ``validate`` share one update
rule: particles move in ``update_order`` and each move is ``move``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .conventions import UpdateOrder, PINNED_CONVENTIONS
from .kernels import CaseId
from .partitions import Partition


def rng_for(seed: int, run_index: int = 0) -> np.random.Generator:
    """The documented substream rule: Philox keyed by spawn_key=(run,)."""
    ss = np.random.SeedSequence(seed, spawn_key=(run_index,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class SimConfig:
    case: CaseId
    ell: int
    steps: int = 0
    t: float = 0.0
    rates: Sequence[float] | Callable[[int], float] = (1.0,)
    x: Sequence[float] | Callable[[int], float] = (1.0,)
    alpha: Callable[[int], float] | None = None
    beta_pos: Callable[[int], float] | None = None
    seed: int = 0
    update: UpdateOrder = PINNED_CONVENTIONS.update
    start: Partition = field(default_factory=Partition)

    def rate(self, j: int) -> float:
        if callable(self.rates):
            return float(self.rates(j))
        return float(self.rates[j - 1]) if j - 1 < len(self.rates) else 0.0

    def x_of(self, i: int) -> float:
        if callable(self.x):
            return float(self.x(i))
        return float(self.x[(i - 1) % len(self.x)])

    def alpha_of(self, k: int) -> float:
        return float(self.alpha(k)) if self.alpha is not None else 0.0

    def beta_pos_of(self, k: int) -> float:
        return float(self.beta_pos(k)) if self.beta_pos is not None else 0.0

    def _probes(self) -> tuple[list, list]:
        """(i, x_i) at the probed steps (the first eight) and (j, pi_j) for
        every particle."""
        steps = range(1, min(self.steps, 8) + 1) if self.steps else [1]
        return ([(i, self.x_of(i)) for i in steps],
                [(j, self.rate(j)) for j in range(1, self.ell + 1)])

    def validate(self) -> None:
        """Raise ValueError naming the violated constraint.  pi_j x_i is
        checked here at the probed steps and again wherever a run reads a
        new x_i (``_check_rate_x``); CanonicalC's alpha position by
        position where a run first reads it (``_checked_alpha``): no
        finite probe covers every step or position."""
        xs, rates = self._probes()
        for i, xi in xs:
            _check_rate_x(self.case, i, xi, rates)


def _check_rate_x(case: CaseId, i: int, xi: float, rates) -> None:
    """Raise ValueError naming the first (j, pi_j) of ``rates`` whose
    pi_j x_i leaves [0, 1) in a geometric case, or whose rho_j x_i is
    negative in a Bernoulli one."""
    geometric = case.geometric
    for j, r in rates:
        v = r * xi
        if geometric:
            if not (0.0 <= v < 1.0):
                raise ValueError(f"pi_{j}*x_{i} = {v} outside [0, 1)")
        elif v < 0:
            raise ValueError(f"rho_{j}*x_{i} = {v} negative")


def _checked_alpha(config: SimConfig) -> Callable[[int], float]:
    """``config.alpha_of``, raising ValueError for a position k whose
    alpha_k breaks alpha_k x_i > -1 at a probed x_i or alpha_k + pi_j >= 0
    at some rate."""
    xs, rates = config._probes()
    j_low, low = min(rates, key=lambda jr: jr[1], default=(0, 0.0))

    def alpha(k: int) -> float:
        a = config.alpha_of(k)
        for i, xi in xs:
            if a * xi <= -1:
                raise ValueError(f"alpha_{k}*x_{i} = {a * xi} <= -1")
        if a + low < 0:
            raise ValueError(f"alpha_{k}+pi_{j_low} = {a + low} < 0")
        return a

    return alpha


@dataclass
class Trajectory:
    snapshots: list  # list of (time, Partition)
    ell: int = 0  # particle count; 0 means the most parts of any snapshot

    def final(self) -> Partition:
        return self.snapshots[-1][1]

    def positions(self, picture: str = "bosonic") -> list:
        """Per snapshot, the ell particle positions: bosonic parts, or
        fermionic part(j) - j."""
        ell = self.ell or max(len(p.parts) for _, p in self.snapshots) or 1
        if picture == "bosonic":
            return [(t, list(p.padded(ell))) for t, p in self.snapshots]
        return [(t, [p.part(j) - j for j in range(1, ell + 1)]) for t, p in self.snapshots]


def sample_geometric(q: float, u: float) -> int:
    """Inverse-transform geometric: P(w = k) = (1-q) q^k, k >= 0."""
    if q <= 0.0:
        return 0
    return int(math.floor(math.log1p(-u) / math.log(q)))


def _site_success(case: CaseId, site, rate, x):
    """Success probability of one try at a site of rate ``site`` (alpha
    for CanonicalC, beta_pos for CanonicalB): CanonicalC's
    (alpha + pi) x / (1 + alpha x) per site passed, CanonicalB's
    (rho + beta) x / (1 + rho x) jump.  Elementwise on arrays, with the
    same operations in the same order as on floats."""
    if case is CaseId.CANONICAL_C:
        return (site + rate) * x / (1.0 + site * x)
    return (rate + site) * x / (1.0 + rate * x)


def sample_inhom_geometric(
    alpha: Callable[[int], float],
    pi: float,
    x: float,
    start: int,
    rng: np.random.Generator,
) -> int:
    """Inhomogeneous geometric jump: waiting time for a failure in a chain
    of Bernoulli trials with success (alpha_k + pi) x / (1 + alpha_k x) at
    position k.  Exact, no rejection."""
    k = start
    while True:
        if rng.random() >= _site_success(CaseId.CANONICAL_C, alpha(k), pi, x):
            return k - start
        k += 1


def inhom_geometric_pmf(
    alpha: Callable[[int], float], pi: float, x: float, maxval: int, start: int = 0
) -> list[float]:
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


# Uniforms in one block of rounds, and the largest block of the
# continuous-time buffer: a few tens of kilobytes, whatever ell is
_BLOCK_DRAWS = 4096
# continuous-time events that draw one scalar call at a time before the
# buffer starts
_SCALAR_DRAWS = 32


class _RoundTables:
    """What a round reads per particle, built once per run rather
    than once per particle per round: the update order and the rates in
    that order, per-x_i thresholds (rebuilt when x_i changes), and alpha
    (CanonicalC) or beta_pos (CanonicalB) by integer position from 0, in a
    table that grows as the particles advance.  The tables change as a run
    goes on, so two threads must not run rounds with one of them at once."""

    def __init__(self, case: CaseId, config: SimConfig):
        self.case = case
        self.order = list(update_order(case, config.ell, config.update))
        self.rates = np.array([config.rate(j) for j in self.order])
        self.rate_list = self.rates.tolist()
        self.site_of = _checked_alpha(config) if case is CaseId.CANONICAL_C else config.beta_pos_of
        self.sites: list = []
        self.xi = None

    def at_x(self, i: int, xi: float) -> None:
        """Per-x_i thresholds, after checking pi_j x_i for every particle.
        Geometric: particle i can jump only if
        u >= floor[i]; the exact rule u >= 1 - q rounds within a few ulps
        of |log q| <= 745 in ``sample_geometric``, far inside the 1e-9
        relative and 1e-15 absolute slack, so the floor never excludes a
        jump.  Bernoulli (B, D): particle i jumps iff u < p_succ[i]."""
        if xi == self.xi:
            return
        v = self.rates * xi
        bad = ~((v >= 0) & (v < 1)) if self.case.geometric else v < 0
        if bad.any():
            k = int(np.argmax(bad))
            _check_rate_x(self.case, i, xi, [(self.order[k], self.rate_list[k])])
        self.xi = xi
        if self.case.geometric:
            self.q_list = v.tolist()
            self.floor = 1.0 - v * (1.0 + 1e-9) - 1e-15
        else:
            self.p_succ = v / (1.0 + v)
        self.top, self.top_upto = -math.inf, 0

    def site(self, k: int) -> float:
        if k >= len(self.sites):
            self.sites.extend(self.site_of(i) for i in range(len(self.sites), k + 1))
        return self.sites[k]

    def success(self, i: int, pos: Sequence[int], xi: float) -> float:
        """Particle i's (in update order) site success probability at its
        position in ``pos``."""
        k = pos[self.order[i] - 1]
        return _site_success(self.case, self.site(k), self.rate_list[i], xi)

    def success_bound(self, hi: int) -> float:
        """The largest site success probability at x_i over positions
        0..hi and all rates: no draw at or above it is a success."""
        self.site(hi)
        if self.top_upto < len(self.sites):
            new = np.array(self.sites[self.top_upto:])[:, None]
            rates = np.array(sorted(set(self.rate_list)))  # np.unique would import numpy.ma
            top = _site_success(self.case, new, rates, self.xi).max()
            self.top, self.top_upto = max(self.top, float(top)), len(self.sites)
        return self.top


def step_discrete(
    case: CaseId,
    state: Partition,
    time_index: int,
    config: SimConfig,
    rng: np.random.Generator,
    tables: _RoundTables | None = None,
) -> Partition:
    """One synchronous round: each particle in ``update_order`` draws its
    jump and ``move``s.  ``tables`` are the run's ``_RoundTables``, built
    from ``case`` and ``config``; without them the round builds its own.

    The round consumes the random stream exactly as one scalar draw per
    particle in update order would (CanonicalC: one more per site a jump
    passes), but draws in bulk: it is the one-round block of ``_rounds``,
    and CanonicalC's draws are ``_canonical_c_jumps``.  A round in which
    nothing moves returns ``state``."""
    if tables is None:
        tables = _RoundTables(case, config)
    if case is not CaseId.CANONICAL_C:
        return _rounds(case, state, time_index, 1, config, rng, tables)[0]
    start = state.padded(config.ell)
    if not start:
        return state
    xi = config.x_of(time_index)
    tables.at_x(time_index, xi)
    jumps = _canonical_c_jumps(tables, start, xi, rng)
    if not jumps:
        return state
    pos = list(start)
    for i, w in jumps:
        move(pos, tables.order[i], w, False)
    return Partition._trusted(pos)


def _rounds(
    case: CaseId,
    state: Partition,
    first: int,
    n: int,
    config: SimConfig,
    rng: np.random.Generator,
    tables: _RoundTables,
) -> list:
    """The states after rounds first, ..., first + n - 1 of any case but
    CanonicalC, whose draw count depends on its own jumps.

    The block draws ``rng.random(n * ell)``: row r holds round first + r's
    uniforms in update order, so the block consumes what n rounds of one
    scalar draw per particle would.  One numpy comparison per stretch of
    rounds with one x_i picks the (round, particle) pairs that can jump;
    Python decides those exactly, in order, with the scalar formulas and
    ``move``s the ones that jump.  Jump laws read a particle's position
    before its own move, which is its position at the start of the round:
    the position-dependent case (CanonicalB) blocks, and a blocking move
    changes only the particle that moves.  CanonicalB's candidates lie
    below its success bound over every position the block can reach:
    particle 1 moves at most one site a round, and no particle passes it.
    A round in which nothing moves keeps the state before it."""
    m = config.ell
    start = state.padded(m)
    if not start:
        return [state] * n
    xs = [config.x_of(i) for i in range(first, first + n)]
    u = rng.random(n * m).reshape(n, m)
    geometric, canonical_b = case.geometric, case is CaseId.CANONICAL_B
    cand_r, cand_i, laws = [], [], []
    r0 = 0
    for r in range(1, n + 1):
        if r < n and xs[r] == xs[r0]:
            continue
        tables.at_x(first + r0, xs[r0])
        rows = u[r0:r]
        if geometric:
            hit = rows >= tables.floor
        elif canonical_b:
            hit = rows < tables.success_bound(start[0] + n)
        else:
            hit = rows < tables.p_succ
        rs, ps = hit.nonzero()
        cand_r.extend((rs + r0).tolist())
        cand_i.extend(ps.tolist())
        laws.extend([tables.q_list if geometric else xs[r0]] * (r - r0))
        r0 = r
    cand_u = u[cand_r, cand_i].tolist()
    order, pushing = tables.order, case.pushing
    pos, cur, out, c, nc = list(start), state, [], 0, len(cand_r)
    for r in range(n):
        moved = False
        while c < nc and cand_r[c] == r:
            i, v = cand_i[c], cand_u[c]
            c += 1
            if geometric:
                w = sample_geometric(laws[r][i], v)
            elif canonical_b:
                w = v < tables.success(i, pos, laws[r])
            else:
                w = 1
            if w:
                move(pos, order[i], w, pushing)
                moved = True
        if moved:
            cur = Partition._trusted(pos)
        out.append(cur)
    return out


def _canonical_c_jumps(tables: _RoundTables, start: tuple, xi: float, rng) -> list:
    """(update index, jump) of every CanonicalC particle that jumps.

    Particle i's first draw is draws[i + shift], where ``shift`` counts the
    extra draws of the jumps before it: a jump of w tries w + 1 sites, one
    draw each, so it takes the w stream values after its first.  Only a
    draw below the success bound can be a success, so numpy picks those
    out and Python checks them in order.  ``draws`` never holds more than
    one value per particle still to come, the least the scalar rule
    consumes, so the generator ends the round where that rule leaves it."""
    top = tables.success_bound(start[0])
    m = len(tables.order)
    draws, cands = [], []

    def top_up(n: int) -> None:
        new = rng.random(n)
        base = len(draws)
        cands.extend(base + p for p in (new < top).nonzero()[0].tolist())
        draws.extend(new.tolist())

    top_up(m)
    jumps, shift, i, c = [], 0, 0, 0
    while True:
        if c == len(cands):
            if len(draws) == m + shift:
                return jumps
            top_up(m + shift - len(draws))
            continue
        p = cands[c]
        c += 1
        idx = p - shift
        if idx < i or draws[p] >= tables.success(idx, start, xi):
            continue
        pi = tables.rate_list[idx]
        k0 = start[tables.order[idx] - 1]
        k = k0 + 1
        while True:
            shift += 1
            if idx + shift == len(draws):
                draws.append(rng.random())
            if draws[idx + shift] >= _site_success(CaseId.CANONICAL_C, tables.site(k), pi, xi):
                break
            k += 1
        jumps.append((idx, k - k0))
        i = idx + 1


def step_batch(
    case: CaseId,
    positions: np.ndarray,
    time_index: int,
    config: SimConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized synchronous round over a batch (rows are independent
    copies), column by column in ``update_order``.  Used by the statistics
    harness."""
    xi = config.x_of(time_index)
    rates = [(j, config.rate(j)) for j in update_order(case, config.ell, config.update)]
    _check_rate_x(case, time_index, xi, rates)
    pos = positions
    size = pos.shape[0]
    alpha = _checked_alpha(config) if case is CaseId.CANONICAL_C else None
    for j, rate in rates:
        col = j - 1
        if case is CaseId.A or case is CaseId.C:
            q = rate * xi
            w = rng.geometric(1.0 - q, size=size) - 1 if q > 0 else np.zeros(size, dtype=np.int64)
        elif case is CaseId.CANONICAL_C:
            w = _batch_inhom_jump(pos[:, col], alpha, rate, xi, rng)
        elif case is CaseId.CANONICAL_B:
            beta_here = _at_positions(config.beta_pos_of, pos[:, col])
            w = rng.random(size) < _site_success(case, beta_here, rate, xi)
        else:
            v = rate * xi
            w = rng.random(size) < v / (1.0 + v)
        new = pos[:, col] + w
        if case.pushing:
            pos[:, col] = new
            np.maximum(pos[:, :col], pos[:, col:col + 1], out=pos[:, :col])
        else:
            pos[:, col] = np.minimum(new, pos[:, col - 1]) if col > 0 else new
    return pos


def _at_positions(rate: Callable[[int], float], positions: np.ndarray) -> np.ndarray:
    """``rate(k)`` for every entry k of the integer array ``positions``,
    calling ``rate`` once per integer in [min, max], not once per entry."""
    if positions.size == 0:
        return np.zeros(0)
    lo, hi = int(positions.min()), int(positions.max())
    table = np.array([rate(k) for k in range(lo, hi + 1)], dtype=float)
    return table[positions - lo]


def _batch_inhom_jump(start: np.ndarray, alpha: Callable[[int], float], pi: float, xi: float,
                      rng) -> np.ndarray:
    """Per-row inhomogeneous geometric jumps at rate pi from ``start``."""
    cur = start.copy()
    active = np.ones(cur.shape[0], dtype=bool)
    while active.any():
        a = _at_positions(alpha, cur[active])
        step = rng.random(int(active.sum())) < _site_success(CaseId.CANONICAL_C, a, pi, xi)
        idx = np.flatnonzero(active)
        cur[idx[step]] += 1
        active[idx[~step]] = False
    return cur - start


def run(config: SimConfig, run_index: int = 0) -> Trajectory:
    """Deterministic given (seed, run_index).  Rounds run in blocks of
    ``_rounds`` (CanonicalC: one ``step_discrete`` per round), which
    consume the stream as one round after another would."""
    config.validate()
    rng = rng_for(config.seed, run_index)
    case = config.case
    tables = _RoundTables(case, config)
    state = config.start
    snaps = [(0, state)]
    canonical_c = case is CaseId.CANONICAL_C
    block = 1 if canonical_c else max(1, _BLOCK_DRAWS // max(config.ell, 1))
    for first in range(1, config.steps + 1, block):
        n = min(block, config.steps + 1 - first)
        if canonical_c:
            states = [step_discrete(case, state, first, config, rng, tables=tables)]
        else:
            states = _rounds(case, state, first, n, config, rng, tables)
        snaps.extend(zip(range(first, first + n), states))
        state = states[-1]
    return Trajectory(snaps, config.ell)


def sample_batch_final(
    config: SimConfig, samples: int, seed: int, batch_run_index: int = 0
) -> np.ndarray:
    """Vectorized: final positions (samples x ell) after config.steps."""
    config.validate()
    rng = rng_for(seed, batch_run_index)
    pos = np.tile(
        np.array(config.start.padded(config.ell), dtype=np.int64), (samples, 1)
    )
    for i in range(1, config.steps + 1):
        pos = step_batch(config.case, pos, i, config, rng)
    return pos


def run_continuous(
    ell: int,
    t: float,
    rates: Sequence[float] | Callable[[int], float] | float,
    rng: np.random.Generator,
    push: bool = False,
    start: Partition | None = None,
) -> list[int]:
    """Event-driven continuous-time TASEP with per-particle exponential
    clocks in a binary heap; only the fired particle's clock is re-drawn
    (memorylessness makes this distributionally identical to re-sorting
    the full list).  Returns bosonic positions.

    Each clock takes one uniform, in the order of one scalar draw per
    initial clock (particles 1, ..., ell) and then per event.  After the
    first ``_SCALAR_DRAWS`` events they are read from ``_uniforms``, and
    ``rng`` ends where the scalar draws would leave it."""
    if t < 0:
        raise ValueError("time horizon must be >= 0")
    if callable(rates):
        rate = [float(rates(j)) for j in range(1, ell + 1)]
    elif isinstance(rates, (int, float)):
        rate = [float(rates)] * ell
    else:
        rate = [float(r) for r in rates[:ell]] + [0.0] * (ell - len(rates))
    pos = list((start or Partition()).padded(ell))
    heap = []
    for j, r in enumerate(rate, start=1):
        if r > 0:
            heapq.heappush(heap, (-math.log1p(-rng.random()) / r, j))
    # a run of a few events draws them one scalar call at a time, as a
    # buffer would cost more than it saves there
    if heap and not _fire(heap, pos, t, rate, push, rng.random, _SCALAR_DRAWS):
        last: list = []
        _fire(heap, pos, t, rate, push, _uniforms(rng, last).__next__, None)
        _rewind(rng, last)
    return pos


def _fire(heap: list, pos: list, t: float, rate: list, push: bool, uniform, events) -> bool:
    """Fire the earliest clock of ``heap``, ``move`` its particle and
    re-draw its clock with ``uniform()``, until the earliest clock is at or
    past t (True) or ``events`` events have fired (False; None is no
    limit).  The clocks (time, j) are distinct, so replacing the earliest
    one fires the events in the order a pop and a push would."""
    log1p = math.log1p  # np.log1p differs in the last ulp on some inputs
    replace = heapq.heapreplace
    for _ in itertools.repeat(None) if events is None else range(events):
        when, j = heap[0]
        if when >= t:
            return True
        move(pos, j, 1, push)
        replace(heap, (when - log1p(-uniform()) / rate[j - 1], j))
    return False


def _uniforms(rng: np.random.Generator, last: list):
    """``rng.random()`` values one at a time, from blocks that double in
    size from ``2 * _SCALAR_DRAWS`` up to ``_BLOCK_DRAWS`` and hold the
    values the scalar calls would return.  ``last`` holds the generator
    state before the latest block, its size and its iterator, for
    ``_rewind``."""
    size = _SCALAR_DRAWS
    while True:
        size = min(2 * size, _BLOCK_DRAWS)
        state = rng.bit_generator.state
        it = iter(rng.random(size).tolist())
        last[:] = (state, size, it)
        yield from it


def _rewind(rng: np.random.Generator, last: list) -> None:
    """Put ``rng`` where one scalar draw per value taken from
    ``_uniforms`` leaves it: back before the latest block, then forward by
    the values taken from it."""
    if last:
        state, size, it = last
        left = operator.length_hint(it)
        if left:
            rng.bit_generator.state = state
            rng.random(size - left)
