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
import math
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

    def validate(self) -> None:
        """Raise ValueError naming the violated constraint."""
        probe_steps = range(1, min(self.steps, 8) + 1) if self.steps else [1]
        for i in probe_steps:
            xi = self.x_of(i)
            for j in range(1, self.ell + 1):
                v = self.rate(j) * xi
                if self.case.geometric:
                    if not (0.0 <= v < 1.0):
                        raise ValueError(f"pi_{j}*x_{i} = {v} outside [0, 1)")
                elif v < 0:
                    raise ValueError(f"rho_{j}*x_{i} = {v} negative")
                if self.case is CaseId.CANONICAL_C:
                    for k in range(0, 4):
                        a = self.alpha_of(k)
                        if a * xi <= -1:
                            raise ValueError(f"alpha_{k}*x_{i} = {a * xi} <= -1")
                        if a + self.rate(j) < 0:
                            raise ValueError(f"alpha_{k}+pi_{j} = {a + self.rate(j)} < 0")


@dataclass
class Trajectory:
    snapshots: list  # list of (time, Partition)

    def final(self) -> Partition:
        return self.snapshots[-1][1]

    def positions(self, picture: str = "bosonic") -> list:
        if picture == "bosonic":
            return [(t, list(p.padded(len(self.snapshots[-1][1].parts) or 1))) for t, p in self.snapshots]
        out = []
        for t, p in self.snapshots:
            ell = max(len(p.parts), 1)
            out.append((t, [p.part(j) - j for j in range(1, ell + 1)]))
        return out


def sample_geometric(q: float, u: float) -> int:
    """Inverse-transform geometric: P(w = k) = (1-q) q^k, k >= 0."""
    if q <= 0.0:
        return 0
    return int(math.floor(math.log1p(-u) / math.log(q)))


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
        a = alpha(k)
        p_succ = (a + pi) * x / (1.0 + a * x)
        if rng.random() >= p_succ:
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


def step_discrete(
    case: CaseId,
    state: Partition,
    time_index: int,
    config: SimConfig,
    rng: np.random.Generator,
) -> Partition:
    """One synchronous round: each particle in ``update_order`` draws its
    jump and ``move``s."""
    pos = list(state.padded(config.ell))
    xi = config.x_of(time_index)
    pushing = case.pushing
    plain_geometric = case is CaseId.A or case is CaseId.C
    for j in update_order(case, config.ell, config.update):
        if plain_geometric:
            w = sample_geometric(config.rate(j) * xi, rng.random())
        elif case is CaseId.CANONICAL_C:
            w = sample_inhom_geometric(config.alpha_of, config.rate(j), xi, pos[j - 1], rng)
        else:
            v = config.rate(j) * xi
            if case is CaseId.CANONICAL_B:
                v_succ = (config.rate(j) + config.beta_pos_of(pos[j - 1])) * xi
            else:
                v_succ = v
            w = rng.random() < v_succ / (1.0 + v)
        if w:
            move(pos, j, w, pushing)
    return Partition(pos)


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
    pos = positions
    size = pos.shape[0]
    for j in update_order(case, config.ell, config.update):
        col = j - 1
        if case is CaseId.A or case is CaseId.C:
            q = config.rate(j) * xi
            w = rng.geometric(1.0 - q, size=size) - 1 if q > 0 else np.zeros(size, dtype=np.int64)
        elif case is CaseId.CANONICAL_C:
            w = _batch_inhom_jump(pos[:, col], config, j, xi, rng)
        else:
            v = config.rate(j) * xi
            if case is CaseId.CANONICAL_B:
                beta_here = _at_positions(config.beta_pos_of, pos[:, col])
                v_succ = (config.rate(j) + beta_here) * xi
            else:
                v_succ = v
            w = rng.random(size) < v_succ / (1.0 + v)
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


def _batch_inhom_jump(start: np.ndarray, config: SimConfig, j: int, xi: float, rng) -> np.ndarray:
    """Per-row inhomogeneous geometric jumps of particle j from ``start``."""
    cur = start.copy()
    active = np.ones(cur.shape[0], dtype=bool)
    pi = config.rate(j)
    while active.any():
        a = _at_positions(config.alpha_of, cur[active])
        p_succ = (a + pi) * xi / (1.0 + a * xi)
        step = rng.random(int(active.sum())) < p_succ
        idx = np.flatnonzero(active)
        cur[idx[step]] += 1
        active[idx[~step]] = False
    return cur - start


def run(config: SimConfig, run_index: int = 0) -> Trajectory:
    """Deterministic given (seed, run_index)."""
    config.validate()
    rng = rng_for(config.seed, run_index)
    state = config.start
    snaps = [(0, state)]
    for i in range(1, config.steps + 1):
        state = step_discrete(config.case, state, i, config, rng)
        snaps.append((i, state))
    return Trajectory(snaps)


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
    the full list).  Returns bosonic positions."""
    if t < 0:
        raise ValueError("time horizon must be >= 0")

    def rate(j: int) -> float:
        if callable(rates):
            return float(rates(j))
        if isinstance(rates, (int, float)):
            return float(rates)
        return float(rates[j - 1]) if j - 1 < len(rates) else 0.0

    pos = list((start or Partition()).padded(ell))
    heap = []
    for j in range(1, ell + 1):
        r = rate(j)
        if r > 0:
            heapq.heappush(heap, (-math.log1p(-rng.random()) / r, j))
    while heap:
        when, j = heapq.heappop(heap)
        if when >= t:
            break
        move(pos, j, 1, push)
        r = rate(j)
        heapq.heappush(heap, (when - math.log1p(-rng.random()) / r, j))
    return pos
