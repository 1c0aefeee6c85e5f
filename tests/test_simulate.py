import collections
import functools
import hashlib
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from ktasep import simulate
from ktasep.conventions import UpdateOrder
from ktasep.kernels import CaseId, ConstraintError, ParamBinding, chain
from ktasep.multipoint import continuous_kernel
from ktasep.partitions import Partition
from ktasep.simulate import (
    SimConfig,
    Trajectory,
    batch_final,
    inhom_geometric_pmf,
    move,
    rng_for,
    run,
    run_continuous,
    run_final,
    sample_batch_final,
    sample_continuous_final,
    sample_geometric,
    sample_inhom_geometric,
    step_discrete,
    update_order,
)
from ktasep.validate import _histogram, brute_force_table, compare_counts

P_ = Partition


def test_fixed_seed_determinism():
    cfg = SimConfig(case=CaseId.A, ell=4, steps=5, rates=[0.5] * 4, x=[0.4], seed=9)
    t1 = run(cfg)
    t2 = run(cfg)
    assert [s for s in t1.snapshots] == [s for s in t2.snapshots]


def test_states_stay_partitions():
    # randomized steps across every case keep the state a partition
    rng = rng_for(123, 0)
    total = 0
    for case in CaseId:
        cfg = SimConfig(
            case=case,
            ell=5,
            steps=1,
            rates=[0.6, 0.5, 0.4, 0.3, 0.2],
            x=[0.5],
            alpha=(lambda k: 0.2) if case is CaseId.CANONICAL_C else None,
            beta_pos=(lambda k: 0.1 if k >= 1 else 0.0)
            if case is CaseId.CANONICAL_B
            else None,
            seed=1,
        )
        state = P_([])
        for i in range(400):
            state = step_discrete(case, state, 1, cfg, rng)
            total += 1
            assert all(
                state.parts[i] >= state.parts[i + 1]
                for i in range(len(state.parts) - 1)
            )
    assert total == 400 * len(CaseId)


def test_bernoulli_moves_at_most_one():
    rng = rng_for(7, 0)
    cfg = SimConfig(case=CaseId.D, ell=4, steps=1, rates=[0.9] * 4, x=[0.9], seed=1)
    state = P_([])
    for _ in range(300):
        new = step_discrete(CaseId.D, state, 1, cfg, rng)
        assert all(new.part(j) - state.part(j) <= 1 for j in range(1, 5))
        state = new


def test_blocking_cap_respected():
    rng = rng_for(17, 0)
    cfg = SimConfig(case=CaseId.C, ell=3, steps=1, rates=[0.8, 0.8, 0.8], x=[0.9], seed=1)
    state = P_([3, 1])
    for _ in range(200):
        new = step_discrete(CaseId.C, state, 1, cfg, rng)
        # each particle capped by the pre-update neighbour position
        for j in range(2, 4):
            assert new.part(j) <= state.part(j - 1)
        state = new


class Forced:
    """Stand-in generator that replays fixed uniforms, one at a time or
    ``size`` at once."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, size=None):
        if size is None:
            return self.draws.pop(0)
        return np.array([self.draws.pop(0) for _ in range(size)])


def test_forced_draw_blocking_example():
    # Case C, state (1,1), draws w1=1, w2=5, w3=0 -> (2,1): particle 2
    # fully blocked at the pre-update position of particle 1
    cfg = SimConfig(case=CaseId.C, ell=3, steps=1, rates=[0.5, 0.5, 0.5], x=[0.5], seed=0)
    # inverse transform: w = k for u in [1-q^k, 1-q^{k+1}); q = 0.25.
    # Update order is descending, so draws land on particles 3, 2, 1.
    q = 0.25
    u_w0 = 0.5             # -> w = 0
    u_w5 = 1 - q**5 * 0.7  # -> w = 5
    u_w1 = 0.8             # -> w = 1
    rngf = Forced([u_w0, u_w5, u_w1])
    out = step_discrete(CaseId.C, P_([1, 1]), 1, cfg, rngf)
    assert out == P_([2, 1])


def test_pushing_example_case_a():
    # particle 4 jumps 1 from (4,1,1,1): two pushes -> (4,2,2,2)
    cfg = SimConfig(case=CaseId.A, ell=4, steps=1, rates=[0.5] * 4, x=[0.5], seed=0)
    rngf = Forced([0.8, 0.0, 0.0, 0.0])  # w4=1, others 0 (descending order)
    out = step_discrete(CaseId.A, P_([4, 1, 1, 1]), 1, cfg, rngf)
    assert out == P_([4, 2, 2, 2])


def test_blocking_example_case_b():
    # Bernoulli cases move particles 1, ..., ell, so a blocked particle is
    # capped by its left neighbour's post-move position.  succ = 0.2 here:
    # a uniform of 0.0 moves, 0.9 does not.
    cfg = SimConfig(case=CaseId.B, ell=3, steps=1, rates=[0.5] * 3, x=[0.5], seed=0)
    # all three try: particle 2 follows particle 1 from (1,1) to (2,2)
    assert step_discrete(CaseId.B, P_([1, 1]), 1, cfg, Forced([0.0, 0.0, 0.0])) == P_([2, 2, 1])
    # particle 1 stays, so particle 2, sitting at it, stays too
    assert step_discrete(CaseId.B, P_([1, 1]), 1, cfg, Forced([0.9, 0.0, 0.0])) == P_([1, 1, 1])


def test_pushing_example_case_d():
    # only particle 4 moves (ascending order 1..4): it steps from 2 to 3 and
    # carries particles 3 and 2, which it passes; particle 1 at 4 stays
    cfg = SimConfig(case=CaseId.D, ell=4, steps=1, rates=[0.5] * 4, x=[0.5], seed=0)
    out = step_discrete(CaseId.D, P_([4, 2, 2, 2]), 1, cfg, Forced([0.9, 0.9, 0.9, 0.0]))
    assert out == P_([4, 3, 3, 3])


# sha256 of the integer outputs of _stream_outputs() at fixed seeds.  A
# change that reorders, adds or drops random draws, or alters the update
# rule, changes it and must update it on purpose.
STREAM_DIGEST = "efe629eee047dde333a8362c5c3adbae7c445c917f4d04e921035426408cbd7c"


def _stream_outputs():
    """(label, output) pairs: per (case, update order) the snapshots of
    ``run`` and the finals of ``sample_batch_final``, then the continuous
    runs."""
    out = []
    for update in UpdateOrder:
        for k, case in enumerate(CaseId):
            cfg = SimConfig(
                case=case, ell=5, steps=12, rates=[0.6, 0.5, 0.45, 0.4, 0.3], x=[0.5, 0.7],
                alpha=lambda m: 0.1 + 0.05 * (m % 3), beta_pos=lambda m: 0.1 if m >= 1 else 0.0,
                seed=40 + k, update=update, start=P_([3, 1, 1]),
            )
            label = f"{case.value}/{update.name}"
            out.append((f"stream/run/{label}", [list(p.padded(5)) for _, p in run(cfg).snapshots]))
            out.append((f"stream/batch/{label}", sample_batch_final(cfg, 64, 50 + k).tolist()))
    for push in (False, True):
        out.append((f"stream/continuous/push={push}",
                    run_continuous(6, 4.0, [1.0, 0.8, 1.2, 0.9, 1.1, 0.7], rng_for(60, int(push)),
                                   push=push, start=P_([2, 1]))))
    return out


def test_sampler_streams_pinned():
    assert _digest(_outputs("stream")) == STREAM_DIGEST


def _sine(k):
    return 0.5 * math.sin(k / 50.0) ** 6


# (case, rate, x, alpha, beta_pos): the long-trajectory physics of the
# benchmark's trajectory workload, at figure scale (few particles move in a
# round, unlike the ell=5 runs of STREAM_DIGEST)
LONG_PHYSICS = (
    (CaseId.A, 1.0, 0.01, None, None),
    (CaseId.B, 1.0, 0.01, None, None),
    (CaseId.C, 1.0, 0.01, None, None),
    (CaseId.D, 1.0, 0.01, None, None),
    (CaseId.CANONICAL_C, 1.0, 0.01, lambda k: -0.5, None),
    (CaseId.CANONICAL_C, 0.5, 0.2, _sine, None),
    (CaseId.CANONICAL_B, 1.0, 0.01, None, _sine),
)

# sha256 of every snapshot of _long_trajectories()
LONG_DIGEST = "b8adfc7e10404573c715538d164daed0ef883c404c46534017b9375571c021cd"


def _fan_start(ell):
    """The rarefaction fan at free-particle displacement ell / 2."""
    d = ell / 2
    return P_(int((math.sqrt(d) - math.sqrt(k)) ** 2) if k < d else 0 for k in range(1, ell + 1))


def _long_trajectories():
    """(label, snapshots) per physics row and ell."""
    out = []
    for k, (case, rate, x, alpha, beta) in enumerate(LONG_PHYSICS):
        for ell, steps in ((10, 300), (100, 60)):
            cfg = SimConfig(
                case=case, ell=ell, steps=steps, rates=lambda j, r=rate: r, x=[x],
                alpha=alpha, beta_pos=beta, seed=70 + k,
                start=P_([]) if case.pushing else _fan_start(ell),
            )
            out.append((f"long/{k}:{case.value}/ell={ell}", [p.parts for _, p in run(cfg).snapshots]))
    return out


def test_long_trajectories_pinned():
    assert _digest(_outputs("long")) == LONG_DIGEST


# sha256 of _block_outputs(): discrete runs at ell = 400 spanning several
# blocks of rounds under an x that changes inside a block, and continuous
# runs of about 5,000 rings each, with the draw that follows them
BLOCK_DIGEST = "c4f7fec326bea84ae395ec7910f35c545e32fc0e47b535e517f44c1b7c736d06"


def _block_outputs():
    """(label, output) per case, then per continuous run its positions and
    the draw that follows."""
    out = []
    x = lambda i: 0.1 if i % 7 else 0.3
    for k, case in enumerate(CaseId):
        cfg = SimConfig(
            case=case, ell=400, steps=35, rates=lambda j: 0.8 + 0.2 * (j % 3), x=x,
            alpha=lambda m: 0.5 * math.sin(m / 50.0) ** 6, beta_pos=_sine, seed=80 + k,
            start=P_([]) if case.pushing else _fan_start(400),
        )
        out.append((f"block/{case.value}", [p.parts for _, p in run(cfg).snapshots]))
    for push in (False, True):
        rng = rng_for(90, int(push))
        out.append((f"block/continuous/push={push}",
                    run_continuous(100, 50.0, lambda j: 0.9 + 0.1 * (j % 3), rng, push=push,
                                   start=P_([]) if push else _fan_start(100))))
        out.append((f"block/continuous/push={push}/next", rng.random()))
    return out


def test_block_streams_pinned():
    assert _digest(_outputs("block")) == BLOCK_DIGEST


def _shape_outputs():
    """(label, output) per continuous run at the trajectory benchmark's
    shapes, ell * t = 25,000 at rate 1 (pushing from [], blocking from the
    fan start), then the draw that follows it."""
    out = []
    for ell, t in ((10, 2500.0), (100, 250.0), (400, 62.5)):
        for push in (False, True):
            rng = rng_for(100 + ell, int(push))
            label = f"shape/continuous/ell={ell}/push={push}"
            out.append((label, run_continuous(ell, t, 1.0, rng, push=push,
                                              start=P_([]) if push else _fan_start(ell))))
            out.append((f"{label}/next", rng.random()))
    return out


@functools.lru_cache(maxsize=None)
def _outputs(source):
    """The (label, output) pairs of one pinned source, computed once for
    its combined digest and its per-case digests."""
    return tuple({"stream": _stream_outputs, "long": _long_trajectories,
                  "block": _block_outputs, "shape": _shape_outputs}[source]())


def _digest(pairs):
    """sha256 of the outputs of ``pairs`` in order: the combined digests."""
    return hashlib.sha256(repr([o for _, o in pairs]).encode()).hexdigest()


# The first 16 hex digits of the sha256 of each output above, by label, so
# that a change meant to move one case's stream shows that no other moved
CASE_DIGESTS = {
    "stream/run/A/GEOMETRIC_DESCENDING": "461326f18b351d4c",
    "stream/batch/A/GEOMETRIC_DESCENDING": "ecdfed4a3c47e05c",
    "stream/run/B/GEOMETRIC_DESCENDING": "5d2db9b048a69e81",
    "stream/batch/B/GEOMETRIC_DESCENDING": "ca9dd43ade6ffe8b",
    "stream/run/C/GEOMETRIC_DESCENDING": "13f5d932009e2509",
    "stream/batch/C/GEOMETRIC_DESCENDING": "f5e9dea14d097498",
    "stream/run/D/GEOMETRIC_DESCENDING": "091ce4d5ce8f3e8a",
    "stream/batch/D/GEOMETRIC_DESCENDING": "f6cb78f27bb23fb8",
    "stream/run/CanonicalC/GEOMETRIC_DESCENDING": "c1cf9f38dd84c96d",
    "stream/batch/CanonicalC/GEOMETRIC_DESCENDING": "218614dccad05851",
    "stream/run/CanonicalB/GEOMETRIC_DESCENDING": "2545db710ddf5d11",
    "stream/batch/CanonicalB/GEOMETRIC_DESCENDING": "8f3e1070f8bc453b",
    "stream/run/A/GEOMETRIC_ASCENDING": "66bdbfac95f9bcfe",
    "stream/batch/A/GEOMETRIC_ASCENDING": "0887bf30606870ba",
    "stream/run/B/GEOMETRIC_ASCENDING": "8c2b218a6c56040f",
    "stream/batch/B/GEOMETRIC_ASCENDING": "6fe8edf1565fb292",
    "stream/run/C/GEOMETRIC_ASCENDING": "401d3e5e938d62d2",
    "stream/batch/C/GEOMETRIC_ASCENDING": "2c73b155e7fdb9fd",
    "stream/run/D/GEOMETRIC_ASCENDING": "2fb29224e4f8f7a5",
    "stream/batch/D/GEOMETRIC_ASCENDING": "c4358462aed95071",
    "stream/run/CanonicalC/GEOMETRIC_ASCENDING": "efb432726f2b8a51",
    "stream/batch/CanonicalC/GEOMETRIC_ASCENDING": "ab8baeacaa308d47",
    "stream/run/CanonicalB/GEOMETRIC_ASCENDING": "81f88eeb5cadec0b",
    "stream/batch/CanonicalB/GEOMETRIC_ASCENDING": "7a17e65aa051ac54",
    "stream/continuous/push=False": "bb3ab5930af3b9d0",
    "stream/continuous/push=True": "1daa8c8dfed1fa19",
    "long/0:A/ell=10": "0f0dce35f1e23ea6",
    "long/0:A/ell=100": "ec78a502421519b5",
    "long/1:B/ell=10": "151ef70f8266234d",
    "long/1:B/ell=100": "8bea2d248eae0dba",
    "long/2:C/ell=10": "b6d85fa3ebe1f876",
    "long/2:C/ell=100": "1401133b8e287d20",
    "long/3:D/ell=10": "861d3dfad186d313",
    "long/3:D/ell=100": "af3348908d340af2",
    "long/4:CanonicalC/ell=10": "dc949eff12a0a183",
    "long/4:CanonicalC/ell=100": "dcadf0b72e073304",
    "long/5:CanonicalC/ell=10": "117732f87dcf29b6",
    "long/5:CanonicalC/ell=100": "284d0d2957d16094",
    "long/6:CanonicalB/ell=10": "7109618d8b5c5591",
    "long/6:CanonicalB/ell=100": "cde595cd56581b35",
    "block/A": "b2b81a06b1a6be40",
    "block/B": "4ec1f30ae6068a6e",
    "block/C": "3e8469bcce7a702c",
    "block/D": "c6314b24b80d7439",
    "block/CanonicalC": "08a68b97961c1217",
    "block/CanonicalB": "0c1ec3f334f27822",
    "block/continuous/push=False": "9ad5af8783475770",
    "block/continuous/push=False/next": "974e4ce0df79cc49",
    "block/continuous/push=True": "0e4569d275c2c43b",
    "block/continuous/push=True/next": "15221301158fce48",
    "shape/continuous/ell=10/push=False": "1e93ed4255f10b13",
    "shape/continuous/ell=10/push=False/next": "d8730cf885187a86",
    "shape/continuous/ell=10/push=True": "d3fb19e3d915a304",
    "shape/continuous/ell=10/push=True/next": "fa1b1a74661af44b",
    "shape/continuous/ell=100/push=False": "08c73d3adf269078",
    "shape/continuous/ell=100/push=False/next": "c90dcac8b25adb3c",
    "shape/continuous/ell=100/push=True": "f14b2e608ed20526",
    "shape/continuous/ell=100/push=True/next": "fc7098278d2894b1",
    "shape/continuous/ell=400/push=False": "05ff9c18dded2440",
    "shape/continuous/ell=400/push=False/next": "ec8a3c338b7432e0",
    "shape/continuous/ell=400/push=True": "9bec602fd3a48749",
    "shape/continuous/ell=400/push=True/next": "34417eff33f97cb5",
}


def test_case_digests_cover_every_output():
    labels = [label for source in ("stream", "long", "block", "shape")
              for label, _ in _outputs(source)]
    assert sorted(labels) == sorted(CASE_DIGESTS)


@pytest.mark.parametrize("label", sorted(CASE_DIGESTS))
def test_case_streams_pinned(label):
    output = dict(_outputs(label.split("/")[0]))[label]
    assert hashlib.sha256(repr(output).encode()).hexdigest()[:16] == CASE_DIGESTS[label]


def _scalar_round(case, state, time_index, config, rng):
    """The per-particle round: one scalar draw per particle and one
    ``move`` per particle in update order.  Reference for
    ``step_discrete``."""
    pos = list(state.padded(config.ell))
    xi = config.x_of(time_index)
    pushing = case.pushing
    plain_geometric = case is CaseId.A or case is CaseId.C
    for j in update_order(case, config.ell, config.update):
        if plain_geometric:
            w = sample_geometric(config.rate(j) * xi, rng.random())
        elif case is CaseId.CANONICAL_C:
            # inverse CDF: the jump passes site k while u < the product of
            # the successes at the sites from pos[j - 1] to k
            u, p, k = rng.random(), 1.0, pos[j - 1]
            while True:
                a = config.alpha_of(k)
                p *= (a + config.rate(j)) * xi / (1.0 + a * xi)
                if u >= p:
                    break
                k += 1
            w = k - pos[j - 1]
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


def test_round_matches_scalar_round():
    # Every case, both update orders, 0 <= ell <= 12, jump probabilities from
    # rare to near-certain (CanonicalC first-site success up to 0.6).  After
    # each round both generators give the same next draw, so the round
    # consumed exactly the scalar rule's draws.
    rounds = moved = 0
    for update in UpdateOrder:
        for k, case in enumerate(CaseId):
            for x in (0.02, 0.3, 0.7, 0.95):
                for ell in (0, 1, 5, 12):
                    seed = 1000 * k + int(100 * x) + ell
                    rates = [0.3 + 0.05 * (j % 5) for j in range(ell)]
                    if case is CaseId.CANONICAL_C:
                        rates = [0.5] * ell  # success (alpha + pi) x / (1 + alpha x) <= 0.59
                    cfg = SimConfig(
                        case=case, ell=ell, rates=rates, x=[x, 0.5 * x], update=update,
                        alpha=lambda m: 0.15 * (m % 3), beta_pos=lambda m: 0.2 * (m % 4),
                    )
                    state = P_([3, 1, 1][:ell])
                    fast, slow = rng_for(seed), rng_for(seed)
                    for i in range(1, 61):
                        new = step_discrete(case, state, i, cfg, fast)
                        assert new == _scalar_round(case, state, i, cfg, slow), (case, x, ell, i)
                        assert fast.random() == slow.random(), (case, x, ell, i)
                        moved += new != state
                        rounds += 1
                        state = new
    assert rounds == 2 * len(CaseId) * 4 * 4 * 60
    assert rounds // 4 < moved < rounds


def _scalar_run(config):
    """``run`` as a loop of ``_scalar_round``s on the run's generator."""
    rng, state = rng_for(config.seed), config.start
    snaps = [(0, state)]
    for i in range(1, config.steps + 1):
        state = _scalar_round(config.case, state, i, config, rng)
        snaps.append((i, state))
    return snaps


def test_run_matches_scalar_rounds_across_blocks(monkeypatch):
    # x changes every third round, inside each block of rounds (409 rounds
    # at ell = 10, 81 at ell = 50), and CanonicalB's candidate bound must
    # cover the positions a block of 10 rounds at ell = 400 reaches
    x = lambda i: (0.05, 0.3, 0.6)[(i // 3) % 3]
    for k, case in enumerate(CaseId):
        for ell, steps in ((10, 900), (50, 200)):
            cfg = SimConfig(case=case, ell=ell, steps=steps, x=x, seed=300 + k,
                            rates=lambda j: 0.3 + 0.1 * (j % 4),
                            alpha=lambda m: 0.15 * (m % 3), beta_pos=lambda m: 0.2 * (m % 4))
            assert run(cfg).snapshots == _scalar_run(cfg), (case, ell)
    cfg = SimConfig(case=CaseId.CANONICAL_B, ell=400, steps=35, x=[0.5], seed=7,
                    rates=lambda j: 0.9, beta_pos=_sine, start=_fan_start(400))
    snaps = run(cfg).snapshots
    assert snaps == _scalar_run(cfg)
    assert sum(a != b for (_, a), (_, b) in zip(snaps, snaps[1:])) == 35
    # CanonicalC's particle 1 jumps about 5 sites a round here, so it
    # passes the first bound's reach (its start plus the 409 rounds of a
    # block) inside the block, and the rounds left are selected again: the
    # bound is then read at more reaches than there are blocks
    reaches = []
    bound = simulate._RoundTables.success_bound
    monkeypatch.setattr(simulate._RoundTables, "success_bound",
                        lambda tables, law, hi: reaches.append(hi) or bound(tables, law, hi))
    cfg = SimConfig(case=CaseId.CANONICAL_C, ell=10, steps=900, seed=9,
                    x=lambda i: (0.8, 0.95, 0.6)[(i // 3) % 3], rates=lambda j: 0.9,
                    alpha=lambda m: 0.15 * (m % 3) - 0.1, start=P_([5, 2]))
    snaps = run(cfg).snapshots
    assert snaps == _scalar_run(cfg)
    assert snaps[409][1].part(1) > 5 + 409
    assert len(set(reaches)) > 3


# particles 2 and 4 have rate 0.3, so a site where alpha = -0.3 has
# success 0 for them and stops their walks
WALL_RATES = [0.5, 0.3, 0.45, 0.3, 0.5, 0.4]


@pytest.mark.parametrize("update", list(UpdateOrder), ids=lambda u: u.name)
@pytest.mark.parametrize("case", list(CaseId), ids=lambda c: c.value)
def test_candidate_loop_matches_scalar_rounds(case, update):
    # The loop that walks candidates, against one scalar draw and ``move``
    # per particle per round, over two blocks of rounds (682 at ell = 6):
    # x from a list of three, so x_i changes every round and each block
    # reads a new x_i at every round, or from a callable; a frozen particle
    # (rate 0), except in CanonicalC, whose alpha_k + pi_j must stay >= 0;
    # and in CanonicalC sites where alpha = -pi.
    base = dict(case=case, ell=6, steps=1000, update=update, start=P_([4, 2, 2]),
                beta_pos=lambda m: 0.2 * (m % 4))
    frozen = 0.2 if case is CaseId.CANONICAL_C else 0.0
    configs = [
        SimConfig(**base, seed=11, x=[0.05, 0.3, 0.6], rates=[0.5, frozen, 0.4, 0.5, 0.3, 0.45],
                  alpha=lambda m: 0.15 * (m % 3)),
        SimConfig(**base, seed=12, x=lambda i: 0.05 if i % 4 else 0.6, rates=WALL_RATES,
                  alpha=lambda m: -0.3 if m % 5 == 3 else 0.1),
    ]
    for cfg in configs:
        snaps = run(cfg).snapshots
        assert snaps == _scalar_run(cfg), cfg.seed
        assert len(snaps) == cfg.steps + 1
        assert run_final(cfg) == snaps[-1][1]
    if not (case.canonical or case.pushing):  # nothing carries the frozen particle
        assert {p.part(2) for _, p in run(configs[0]).snapshots} == {2}
    if case is CaseId.CANONICAL_C:  # the wall at site 3 holds particle 2
        assert run_final(configs[1]).part(2) == 3


@pytest.mark.parametrize("update", list(UpdateOrder), ids=lambda u: u.name)
def test_canonical_c_reselects_when_particle_1_outruns_the_bound(monkeypatch, update):
    # particle 1 jumps several sites a round, so it passes the first
    # bound's reach (its start plus the 682 rounds of a block at ell = 6)
    # inside the block, and the rounds left are selected again with a
    # larger reach
    reaches = []
    bound = simulate._RoundTables.success_bound
    monkeypatch.setattr(simulate._RoundTables, "success_bound",
                        lambda tables, law, hi: reaches.append(hi) or bound(tables, law, hi))
    cfg = SimConfig(case=CaseId.CANONICAL_C, ell=6, steps=700, seed=5, x=[1.6, 1.8],
                    rates=WALL_RATES, alpha=lambda m: -0.3 if m % 7 == 3 else 0.2,
                    update=update, start=P_([3, 1]))
    snaps = run(cfg).snapshots
    assert snaps == _scalar_run(cfg)
    assert snaps[682][1].part(1) > 3 + 682
    assert len(set(reaches)) > 2


def test_laws_index_each_round_by_x_of():
    # a block's laws are its distinct x_i in first-read order, and round
    # first + r reads the law at x_of(first + r), from any first round and
    # block length, whether x is a list (one period read) or a callable
    xs = ([0.1], [0.1, 0.2], [0.1, 0.1, 0.3], [0.2, 0.3, 0.2], [0.4, 0.4, 0.4, 0.1],
          lambda i: (0.05, 0.3, 0.6)[(i // 3) % 3])
    for x in xs:
        cfg = SimConfig(case=CaseId.A, ell=2, steps=50, rates=[0.5, 0.5], x=x)
        tables = simulate._RoundTables(CaseId.A, cfg)
        for first in range(1, 9):
            for n in (1, 2, 3, 7, 20):
                laws, index = tables.laws(first, n)
                read = [cfg.x_of(i) for i in range(first, first + n)]
                assert [laws[k].x for k in index] == read, (x, first, n)
                assert [law.x for law in laws] == list(dict.fromkeys(read)), (x, first, n)


def test_run_compares_once_per_block_when_x_alternates(monkeypatch):
    # x changes every round, yet each block of 40 rounds (ell = 100) picks
    # its candidates in one comparison, its rows read by the x_i of their
    # round: 75 calls for 3000 rounds
    calls = []
    candidates = simulate._RoundTables.candidates
    monkeypatch.setattr(simulate._RoundTables, "candidates",
                        lambda tables, *args: calls.append(1) or candidates(tables, *args))
    cfg = SimConfig(case=CaseId.C, ell=100, steps=3000, rates=[1.0] * 100, x=[0.01, 0.0101],
                    seed=1)
    run_final(cfg)
    assert len(calls) == 75


@pytest.mark.parametrize("case", list(CaseId), ids=lambda c: c.value)
def test_each_x_thresholds_built_once(monkeypatch, case):
    # x alternates between two values, so x_i changes every round: each
    # x_i's thresholds are built at its first read and kept, and its
    # success bound covers each position once, however often x returns
    built, covered, seen = [], collections.Counter(), []
    law, success = simulate._RoundTables._law, simulate._site_success

    def spy_law(tables, xi):
        built.append(xi)
        seen.append(tables)
        return law(tables, xi)

    def spy_success(case_, site, rate, x):
        if isinstance(site, np.ndarray):  # success_bound's new positions
            covered[x] += len(site)
        return success(case_, site, rate, x)

    monkeypatch.setattr(simulate._RoundTables, "_law", spy_law)
    monkeypatch.setattr(simulate, "_site_success", spy_success)
    cfg = SimConfig(case=case, ell=8, steps=400, rates=[0.5] * 8, x=[0.2, 0.25],
                    alpha=lambda m: 0.1 * (m % 3), beta_pos=lambda m: 0.2 * (m % 4))
    for name, sampler in SAMPLERS.items():
        built.clear()
        covered.clear()
        seen.clear()
        sampler(cfg)
        assert built == [0.2, 0.25], name
        sites = len(seen[0].sites)
        if case.canonical:
            assert sites > 2 and set(covered) == {0.2, 0.25}, name
        assert all(0 < c <= sites for c in covered.values()), (name, covered, sites)


def test_trajectory_keeps_changes():
    # x = 0 moves nobody: one change, the start, still expands to a
    # snapshot per round
    start = P_([3, 1])
    traj = run(SimConfig(case=CaseId.A, ell=3, steps=40, rates=[0.5] * 3, x=[0.0], start=start))
    assert traj.changes == [(0, start)] and traj.steps == 40
    assert traj.snapshots == [(t, start) for t in range(41)]
    assert all(p is start for _, p in traj.snapshots)
    assert traj.final() is start
    # a run that moves keeps only its moving rounds; rounds between two
    # changes share the earlier state's Partition
    cfg = SimConfig(case=CaseId.C, ell=4, steps=60, rates=[0.5] * 4, x=[0.1], seed=3,
                    start=P_([6, 4, 2, 1]))
    traj = run(cfg)
    snaps = traj.snapshots
    assert snaps == _scalar_run(cfg) and len(snaps) == 61
    assert 1 < len(traj.changes) < 61
    assert traj.changes[1:] == [s for s, (_, prev) in zip(snaps[1:], snaps) if s[1] != prev]
    assert all(p is q for (t, p), (_, q) in zip(snaps[1:], snaps) if t not in dict(traj.changes))
    assert traj.final() == snaps[-1][1] and run_final(cfg) == traj.final()
    bosonic, fermionic = traj.positions(), traj.positions("fermionic")
    assert [t for t, _ in bosonic] == list(range(61))
    assert bosonic[0][1] == [6, 4, 2, 1] and fermionic[0][1] == [5, 2, -1, -3]
    assert all(f == [b[j] - j - 1 for j in range(4)] for (_, b), (_, f) in zip(bosonic, fermionic))


def test_run_builds_partitions_only_when_read(monkeypatch):
    # run logs each changed round as a tuple of positions, so final() builds
    # one Partition however many rounds changed, and a state read twice is
    # one object
    cfg = SimConfig(case=CaseId.CANONICAL_C, ell=10, steps=3000, rates=[0.5] * 10, x=[0.2],
                    alpha=lambda k: 0.1 * (k % 3), seed=41)
    built, trusted = [], Partition._trusted
    monkeypatch.setattr(Partition, "_trusted",
                        classmethod(lambda cls, pos: built.append(pos) or trusted(pos)))
    traj = run(cfg)
    final = traj.final()
    assert traj.final() is final and len(built) <= 1
    monkeypatch.undo()
    assert len(traj.changes) > 1000
    snaps = _scalar_run(cfg)
    assert traj.snapshots == snaps
    assert traj.changes == [snaps[0]] + [s for s, (_, prev) in zip(snaps[1:], snaps) if s[1] != prev]
    assert traj.positions() == [(t, list(p.padded(10))) for t, p in snaps]
    assert traj.positions("fermionic") == [(t, [p.part(j) - j for j in range(1, 11)])
                                           for t, p in snaps]


# CanonicalC at ell = 3 from mu = (1): a rate above the others, jumps of
# several sites (x = 3/5) and a hard wall at site 3, where alpha_3 = -pi
# for particles 1 and 3
WALL_ALPHA = {0: F(0), 1: F(1, 4), 2: F(1, 10), 3: F(-1, 2)}
WALL_BINDING = ParamBinding.numeric(x=[F(3, 5)] * 2, rates=[F(1, 2), F(3, 5), F(1, 2)],
                                    alpha=lambda k: WALL_ALPHA.get(k, F(1, 5)))


def test_canonical_c_run_law_matches_chain():
    # the final states of independent runs against the exact two-step law
    b, mu, samples = WALL_BINDING, P_([1]), 10000
    b.check_admissible(CaseId.CANONICAL_C, 3)
    exact = chain(CaseId.CANONICAL_C, 2, mu, b, 3, cap=6)
    assert exact.tail == 0 and max(lam.part(1) for lam in exact.probs) == 3
    cfg = SimConfig(case=CaseId.CANONICAL_C, ell=3, steps=2, seed=17, start=mu,
                    rates=[float(r) for r in b.rates], x=[float(b.x[0])],
                    alpha=lambda k: float(b.alpha_of(k)))
    counts = collections.Counter(run(cfg, r).final() for r in range(samples))
    report = compare_counts(exact, counts, samples)
    assert report.dof >= 10 and report.p_value > 0.001, report


def _scalar_rings(rate, t, samples, rng):
    """Per sample, one particle's ring times before t by the documented
    draw rule, one scalar draw at a time: a block of n gaps per sample,
    then one more block for each sample whose last ring is before t."""
    m = rate * t
    if m == 0:
        return [[] for _ in range(samples)]
    n = int(m + simulate._RING_SIGMAS * math.sqrt(m)) + simulate._RING_SLACK
    sums = [[0.0] for _ in range(samples)]
    todo = range(samples)
    while todo:
        for b in todo:
            for _ in range(n):
                sums[b].append(sums[b][-1] + rng.standard_exponential())
        todo = [b for b in range(samples) if sums[b][-1] / rate < t]
    return [[x / rate for x in row[1:] if x / rate < t] for row in sums]


def _scalar_continuous(ell, t, rates, samples, rng, push=False, start=None):
    """Reference for ``sample_continuous_final``: the rings of particles
    1, ..., ell (blocking) or ell, ..., 1 (pushing) by ``_scalar_rings``,
    then per sample the event loop: every ring in time order, the lower
    particle first in a tie, ``move``s its particle by one."""
    rate = [float(rates(j)) for j in range(1, ell + 1)]
    order = range(ell, 0, -1) if push else range(1, ell + 1)
    rings = {j: _scalar_rings(rate[j - 1], t, samples, rng) for j in order}
    out = []
    for b in range(samples):
        pos = list((start or P_()).padded(ell))
        for _, j in sorted((r, j) for j in rings for r in rings[j][b]):
            move(pos, j, 1, push)
        out.append(pos)
    return out


def test_continuous_matches_scalar_events(monkeypatch):
    # over the same ring times the rows give what the event loop gives,
    # for one sample and for batches, with a zero rate (a frozen particle)
    # and a half-full start; then again with blocks of about m - sqrt(m)
    # gaps, so that most particles draw further blocks.  After each run both
    # generators give the same next draw.  Past particle 30 the rates come
    # in stretches of 25, whose first blocks are drawn in runs of particles
    # (_ring_run); with the shrunk blocks a particle in the middle of a run
    # draws further blocks, which ends the run there.
    rates = lambda j: (1.0, 0.7, 0.0, 1.3)[j % 4 if j <= 30 else j // 25 % 4]
    grid = ((5, 0.0, 2), (5, 0.5, 1), (5, 0.5, 6), (20, 8.0, 1), (20, 8.0, 3), (20, 40.0, 1),
            (30, 400.0, 1), (200, 20.0, 1), (200, 20.0, 3))
    for sigmas, slack in ((simulate._RING_SIGMAS, simulate._RING_SLACK), (-1, 1)):
        monkeypatch.setattr(simulate, "_RING_SIGMAS", sigmas)
        monkeypatch.setattr(simulate, "_RING_SLACK", slack)
        for push in (False, True):
            for ell, t, samples in grid:
                seed = 10 * ell + int(push)
                fast, slow = rng_for(seed), rng_for(seed)
                start = P_([]) if push else P_([ell // 2] * (ell // 2))
                got = sample_continuous_final(ell, t, rates, samples, fast, push=push, start=start)
                want = _scalar_continuous(ell, t, rates, samples, slow, push=push, start=start)
                assert got.tolist() == want, (sigmas, push, ell, t, samples)
                assert fast.random() == slow.random(), (sigmas, push, ell, t, samples)


def test_continuous_pushing_law_matches_kernel():
    # the pushing sampler against case A's continuous kernel, as criterion
    # 6 checks the blocking one against case C's; TV < 0.02
    n = 40000
    finals = sample_continuous_final(2, 1.0, [1.0, 0.5], n, rng_for(44), push=True)
    counts = collections.Counter(map(tuple, finals.tolist()))
    tv, covered = 0.0, 0.0
    for a in range(12):
        for b in range(a + 1):
            p = float(continuous_kernel(CaseId.A, 1.0, P_([]), P_([a, b]), 2, [F(1), F(1, 2)]))
            tv += abs(p - counts.pop((a, b), 0) / n)
            covered += p
    assert not counts and covered > 1 - 1e-6
    assert 0.5 * (tv + 1.0 - covered) < 0.02


def test_round_returns_state_when_nothing_moves():
    cfg = SimConfig(case=CaseId.C, ell=3, rates=[0.5] * 3, x=[0.5])
    state = P_([2, 1])
    assert step_discrete(CaseId.C, state, 1, cfg, Forced([0.1, 0.1, 0.1])) is state


def test_positions_give_ell_entries():
    # particles sitting at 0 keep their entries in both pictures
    traj = run(SimConfig(case=CaseId.A, ell=4, steps=3, rates=[0.5] * 4, x=[0.9], seed=3))
    for picture in ("bosonic", "fermionic"):
        assert all(len(p) == 4 for _, p in traj.positions(picture))
    assert traj.positions("fermionic")[0] == (0, [-1, -2, -3, -4])
    assert traj.positions("bosonic")[0] == (0, [0, 0, 0, 0])


def test_all_zero_jumps_keep_state():
    # uniforms chosen so every sampled jump is zero
    class Still:
        def __init__(self, geometric):
            self.geometric = geometric

        def random(self, size=None):
            u = 0.0 if self.geometric else 0.999
            return u if size is None else np.full(size, u)

    for case in (CaseId.A, CaseId.C):
        cfg = SimConfig(case=case, ell=3, steps=1, rates=[0.5] * 3, x=[0.5], seed=0)
        assert step_discrete(case, P_([2, 1]), 1, cfg, Still(True)) == P_([2, 1])
    for case in (CaseId.B, CaseId.D):
        cfg = SimConfig(case=case, ell=3, steps=1, rates=[0.5] * 3, x=[0.5], seed=0)
        assert step_discrete(case, P_([2, 1]), 1, cfg, Still(False)) == P_([2, 1])


def test_inhom_geometric_matches_plain_geometric():
    # alpha == 0 reduces to the ordinary geometric with parameter pi x
    rng = rng_for(5, 0)
    pi, x = 0.5, 0.8
    n = 40000
    counts = {}
    for _ in range(n):
        v = sample_inhom_geometric(lambda k: 0.0, pi, x, 0, rng)
        counts[v] = counts.get(v, 0) + 1
    q = pi * x
    for k in range(4):
        expect = (1 - q) * q**k
        assert abs(counts.get(k, 0) / n - expect) < 0.01


def test_inhom_pmf_masses():
    alpha = lambda k: 1.0 - k * math.exp(-k / 2.0)
    pmf = inhom_geometric_pmf(alpha, 0.5, 1.0, 120, 0)
    assert abs(sum(pmf) - 1.0) < 1e-12
    # zero mass beyond a hard wall: -alpha_k = pi stops particles at k
    alpha_wall = lambda k: -0.5 if k == 3 else 0.2
    pmf = inhom_geometric_pmf(alpha_wall, 0.5, 1.0, 10, 0)
    assert all(abs(p) < 1e-15 for p in pmf[4:])


def test_batch_matches_exact_single_step():
    b = ParamBinding.numeric(x=[F(1, 2)], rates=[F(1, 2), F(2, 5), F(1, 4)])
    exact = chain(CaseId.C, 1, P_([1]), b, 3, cap=10)
    cfg = SimConfig(
        case=CaseId.C, ell=3, steps=1, rates=[0.5, 0.4, 0.25], x=[0.5], seed=11,
        start=P_([1]),
    )
    pos = sample_batch_final(cfg, 60000, 11)
    counts = {}
    for row in pos:
        key = P_([int(v) for v in row])
        counts[key] = counts.get(key, 0) + 1
    for lam, p in exact.probs.items():
        if float(p) > 0.01:
            assert abs(counts.get(lam, 0) / 60000 - float(p)) < 0.01, lam


def test_batch_rate_calls_bounded_by_positions():
    # the position-dependent rates are looked up once per position a
    # column spans, not once per sample
    calls = []

    def counting(m):
        calls.append(m)
        return 0.1 + 0.05 * (m % 3)

    samples, steps, ell = 20000, 2, 3
    for case in (CaseId.CANONICAL_C, CaseId.CANONICAL_B):
        calls.clear()
        cfg = SimConfig(case=case, ell=ell, steps=steps, rates=[0.6, 0.5, 0.4], x=[0.5],
                        alpha=counting, beta_pos=counting, start=P_([1]))
        finals = sample_batch_final(cfg, samples, 3)
        reach = int(finals.max()) + 1
        # one site table per batch, filled once per position up to the
        # furthest a particle reads
        assert 0 < len(calls) <= reach < samples // 10, case


@pytest.mark.parametrize("update", list(UpdateOrder))
@pytest.mark.parametrize("case", list(CaseId))
def test_one_sample_batch_is_run(case, update):
    # The batch's rounds read run's tables and draw run's stream, so sample
    # 0 of a one-sample batch from rng_for(seed, r) is run_final(config, r):
    # under a list x and a callable x, with a zero rate (pi_3; CanonicalC
    # needs alpha_k + pi_j >= 0, so its rates stay positive), alpha_6 = -pi
    # (a site of success 0) and CanonicalC at pi x = 0.95, where particle 1
    # outruns the reach its first candidates were picked for
    canonical_c = case is CaseId.CANONICAL_C
    rates = [0.5] * 4 if canonical_c else [0.6, 0.5, 0.0, 0.4]
    xs = [[0.5, 0.3], lambda i: 0.5 if i % 3 else 0.3] + ([[1.9]] if canonical_c else [])
    outran = 0
    for x in xs:
        for wall in (False, True) if canonical_c else (False,):
            for steps in (1, 5, 40):
                cfg = SimConfig(
                    case=case, ell=4, steps=steps, rates=rates, x=x, seed=5, update=update,
                    alpha=lambda m, w=wall: -0.5 if w and m == 6 else 0.1 * (m % 3),
                    beta_pos=lambda m: 0.2 * (m % 4), start=P_([3, 1, 1]),
                )
                for r in range(8):
                    final = run_final(cfg, r)
                    got = batch_final(cfg, 1, rng_for(5, r))[0].tolist()
                    assert got == list(final.padded(4)), (x, wall, steps, r)
                    outran += final.part(1) > 3 + steps
    assert outran or not canonical_c


@pytest.mark.parametrize("case", list(CaseId))
def test_batch_matches_oracle_under_ascending_order(case):
    # the statistics harness samples the pinned update order; the batch
    # sampler under the other order against the oracle's table for it
    b = ParamBinding.numeric(
        x=[F(1, 5)], rates=[F(1, 2), F(1, 3), F(1, 7)],
        alpha=lambda k: F(1, 4 + k) if k >= 1 else F(0),
        beta_pos=lambda k: F(1, 6 + k) if k >= 1 else F(0),
    )
    update = UpdateOrder.GEOMETRIC_ASCENDING
    exact = brute_force_table(case, 1, P_([1, 1]), b, 3, 12, update)
    cfg = SimConfig(
        case=case, ell=3, steps=1, rates=[0.5, 1 / 3, 1 / 7], x=[0.2], update=update,
        alpha=lambda k: 1 / (4 + k) if k >= 1 else 0.0,
        beta_pos=lambda k: 1 / (6 + k) if k >= 1 else 0.0, start=P_([1, 1]),
    )
    samples = 100_000
    rep = compare_counts(exact, _histogram(sample_batch_final(cfg, samples, 7)), samples)
    assert rep.healthy, (rep.tv_distance, rep.p_value)


def _per_draw_walks(succ, k, u, stop):
    """The batch walk draw by draw: one ``_inhom_walk`` per entry."""
    stops = stop.tolist() if stop is not None else [math.inf] * len(k)
    return np.array([simulate._inhom_walk(succ, *draw) for draw in zip(k.tolist(), u.tolist(), stops)],
                    dtype=np.int64)


def test_walk_batch_is_the_scalar_walk():
    # The array walk lands every draw where _inhom_walk does: with and
    # without blocking stops (one at the draw's own site), for draws equal
    # to a product of successes, where u >= p stops a walk and u > p would
    # not, and for walks that pass the farthest start, so the success table
    # grows during the walk.  Under the stops, draws of u = 0 reach a site
    # of success 0 (alpha_9 = -pi) and stop there; without the stops such a
    # draw under u > p would walk for ever
    pi, x = 0.6, 1.2
    alpha = lambda m: -pi if m == 9 else 0.2 + 0.05 * (m % 3)

    def successes():
        return simulate._Lazy(lambda m: simulate._site_success(CaseId.CANONICAL_C, alpha(m), pi, x))

    rng = np.random.default_rng(4)
    k = rng.integers(0, 7, size=400)
    u = rng.random(400)
    table = successes()
    for d in range(0, 400, 4):  # ties short of site 9: u is the walk's p after d % 3 sites
        p = 1.0
        for m in range(k[d], k[d] + d % 3 + 1):
            p *= table[m]
        u[d] = p
    stops = k + rng.integers(0, 6, size=400)
    zeros = u.copy()
    zeros[1::8] = 0.0
    for u, stop in ((u, None), (zeros, stops)):
        scalar, read = successes(), successes()
        want = _per_draw_walks(scalar, k, u, stop)
        got = simulate._walk_batch(read, k.copy(), u, stop)
        assert got.tolist() == want.tolist()
        assert got.max() > k.max()
        assert max(read) == max(scalar)  # the farthest site the scalar walks read, no further
    assert (want == k).any() and (want == 9).sum() > 10


@pytest.mark.parametrize("update", list(UpdateOrder), ids=lambda u: u.name)
def test_canonical_c_batch_walk_reads_what_the_scalar_walk_reads(monkeypatch, update):
    # CanonicalC batches with the array walk and with one _inhom_walk per
    # candidate: the same finals, and the same farthest site read from
    # _RoundTables.site, so no site rule is checked before a walk reaches
    # it.  Particle 1 jumps about 3 sites a round past a wall at sites
    # 3 mod 7 for the rate-0.3 particles, so the walks outrun the sites
    # that success_bound has read
    cfg = SimConfig(case=CaseId.CANONICAL_C, ell=4, steps=6, seed=3, x=[1.2, 0.9],
                    rates=[0.6, 0.3, 0.6, 0.45], alpha=lambda m: -0.3 if m % 7 == 3 else 0.2,
                    update=update, start=P_([3, 1]))
    site = simulate._RoundTables.site

    def batch(walk):
        reads = []
        monkeypatch.setattr(simulate, "_walk_batch", walk)
        monkeypatch.setattr(simulate._RoundTables, "site",
                            lambda tables, k: reads.append(k) or site(tables, k))
        return sample_batch_final(cfg, 2000, 4), max(reads)

    finals, farthest = batch(simulate._walk_batch)
    want, scalar_farthest = batch(_per_draw_walks)
    assert finals.tolist() == want.tolist()
    assert farthest == scalar_farthest > 3 + 2 * cfg.steps


def test_continuous_time_zero():
    rng = rng_for(1, 0)
    assert run_continuous(4, 0.0, 1.0, rng) == [0, 0, 0, 0]


def test_continuous_horizon_is_finite():
    # an infinite horizon would draw without end; it is refused up front
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"outside \[0, inf\)"):
            run_continuous(4, t, 1.0, rng_for(1))


def test_continuous_poisson_mean():
    rng = rng_for(2, 0)
    n = 30000
    mean = sample_continuous_final(1, 3.0, 1.0, n, rng)[:, 0].sum() / n
    assert abs(mean - 3.0) < 4 * math.sqrt(3.0 / n)


def test_continuous_exclusion_order():
    rng = rng_for(3, 0)
    for _ in range(50):
        pos = run_continuous(5, 2.0, 1.0, rng, push=False)
        assert all(pos[i] >= pos[i + 1] for i in range(4))
        pos = run_continuous(5, 2.0, 1.0, rng, push=True)
        assert all(pos[i] >= pos[i + 1] for i in range(4))


SAMPLERS = {"run": run, "sample_batch_final": lambda c: sample_batch_final(c, 10, 1)}


def test_config_validation_errors():
    # rates are named in index order, as check_admissible names them
    a = SimConfig(case=CaseId.A, ell=2, steps=1, rates=[3.0, 3.0], x=[0.5], seed=0)
    b = SimConfig(case=CaseId.B, ell=2, steps=1, rates=[-1.0, 1.0], x=[0.5], seed=0)
    for sampler in SAMPLERS.values():
        with pytest.raises(ConstraintError, match=r"pi_1\*x_1 = 1.5 outside \[0, 1\)"):
            sampler(a)
        with pytest.raises(ConstraintError, match=r"rho_1\*x_1 = -0.5 negative"):
            sampler(b)


def test_each_distinct_x_checked_at_its_first_step():
    # a new x_i is checked at its first step i, against every rate and
    # every position read so far, and a new position against every x_i
    # read so far, so the message names x_i's first step
    cfg = SimConfig(case=CaseId.CANONICAL_B, ell=2, steps=20, rates=[0.5, 0.5],
                    x=[0.25, 0.5, 0.25, 0.5, 0.75], beta_pos=lambda k: 1.5 if k >= 3 else 0.0)
    # beta_3 x_i = 1.125 > 1 first at x_5 = 0.75: from [3, 3] both samplers
    # read position 3 before x_5; from [] the batch reads it after
    for start in (P_([3, 3]), P_([])):
        for sampler in SAMPLERS.values():
            with pytest.raises(ConstraintError, match=r"beta_3\*x_5 = 1.125 > 1"):
                sampler(replace(cfg, start=start))
    for sampler in SAMPLERS.values():
        with pytest.raises(ConstraintError, match=r"pi_1\*x_3 = 1.5 outside \[0, 1\)"):
            sampler(SimConfig(case=CaseId.A, ell=2, steps=20, rates=[0.5, 0.5],
                              x=[0.5, 0.5, 3.0]))


def test_rate_x_checked_at_every_step():
    # pi x = 1.5 only from step 10 on, so each sampler must check pi_j x_i
    # where it reads a new x_i
    cfg = SimConfig(case=CaseId.A, ell=2, steps=20, rates=[0.5, 0.5],
                    x=lambda i: 0.5 if i < 10 else 3.0, seed=1)
    for sampler in SAMPLERS.values():
        with pytest.raises(ConstraintError, match=r"pi_1\*x_10 = 1.5 outside \[0, 1\)"):
            sampler(cfg)


def test_canonical_c_alpha_checked_at_every_position():
    # alpha_k + pi_j < 0 only from k = 4 on, where the particles start: a
    # check of the first few positions would pass, so each sampler must
    # check alpha at every position it reads
    cfg = SimConfig(case=CaseId.CANONICAL_C, ell=2, steps=5, rates=[0.5, 0.5], x=[0.5],
                    alpha=lambda k: -0.9 if k >= 4 else 0.0, start=P_([5, 5]))
    # both read alpha from one site table, filled from position 0 up, so
    # both name the first position that breaks the rule
    with pytest.raises(ValueError, match=r"alpha_4\+pi_1 = .* < 0"):
        run(cfg)
    with pytest.raises(ValueError, match=r"alpha_4\+pi_1 = .* < 0"):
        sample_batch_final(cfg, 10, 1)
    cfg = SimConfig(case=CaseId.CANONICAL_C, ell=2, steps=5, rates=[0.5, 0.5], x=[1.8],
                    alpha=lambda k: -0.6 if k >= 4 else 0.0, start=P_([5, 5]))
    with pytest.raises(ValueError, match=r"alpha_4\*x_1 = .* <= -1"):
        sample_batch_final(cfg, 10, 1)


@pytest.mark.parametrize("beta,message", [(10.0, r"beta_1\*x_1 = 2.0 > 1"),
                                          (-1.0, r"beta_1\+rho_3 = .* < 0")],
                         ids=["beta_x_above_1", "beta_plus_rho_below_0"])
def test_canonical_b_beta_checked(beta, message):
    # a success (rho_j + beta_k) x / (1 + rho_j x) outside [0, 1] is a
    # constraint violation for both samplers, at the first site they read
    cfg = SimConfig(case=CaseId.CANONICAL_B, ell=3, steps=5, rates=[0.5, 1 / 3, 1 / 7],
                    x=[0.2], beta_pos=lambda k: beta if k >= 1 else 0.0, seed=1)
    with pytest.raises(ConstraintError, match=message):
        run(cfg)
    with pytest.raises(ConstraintError, match=message):
        sample_batch_final(cfg, 10, 1)


SHORT_RATES = {
    "run": lambda: run(SimConfig(case=CaseId.A, ell=3, steps=50, rates=[0.5], x=[0.5], seed=1)),
    "sample_batch_final": lambda: sample_batch_final(
        SimConfig(case=CaseId.A, ell=3, steps=50, rates=[0.5], x=[0.5]), 10, 1),
    "run_continuous": lambda: run_continuous(3, 5.0, [1.0], rng_for(1)),
    "sample_continuous_final": lambda: sample_continuous_final(3, 5.0, [1.0], 4, rng_for(1)),
}


@pytest.mark.parametrize("sampler", SHORT_RATES)
def test_samplers_refuse_a_short_rate_list(sampler):
    # three particles and one rate: the samplers do not freeze particles 2
    # and 3 by padding the list with zero rates
    with pytest.raises(ConstraintError, match=r"pi_2 missing: 3 particles need 3 rates, got 1"):
        SHORT_RATES[sampler]()


@pytest.mark.parametrize("sizes,name", [({"steps": -3}, "steps"), ({"ell": -1}, "ell")])
def test_negative_sizes_are_value_errors(sizes, name):
    # a usage error when the config is built, not a run without its start row
    with pytest.raises(ValueError, match=f"{name} must be >= 0") as err:
        SimConfig(**{"case": CaseId.C, "ell": 2, "steps": 1, **sizes})
    assert not isinstance(err.value, ConstraintError)


def test_continuous_rates_must_be_nonnegative():
    # a negative clock rate is a constraint violation for both samplers
    # and the kernel; a zero rate freezes its particle
    with pytest.raises(ConstraintError, match=r"pi_3 = -1.0 outside \[0, inf\)"):
        run_continuous(3, 2.0, [1.0, 1.0, -1.0], rng_for(1))
    with pytest.raises(ConstraintError, match=r"pi_1 = -0.5 outside"):
        sample_continuous_final(2, 2.0, -0.5, 10, rng_for(1), push=True)
    with pytest.raises(ConstraintError, match=r"pi_2 = -1 outside"):
        continuous_kernel(CaseId.C, 1.0, P_([]), [1], 2, [F(1), F(-1)])
    assert run_continuous(3, 2.0, [1.0, 0.0, 1.0], rng_for(1), start=P_([4, 2, 2]))[1:] == [2, 2]


# (pi_j, [x_1, ...], alpha_k, beta_k) at the edges of the parameter domain:
# pi x in {0, 1/2, 1}, rho x = -1/10, alpha x in {-1, -1/2} and alpha + pi
# in {-1/10, 0}.  Every value is exact in binary floating point, or keeps
# its sign when rounded.  The last two break a site rule only at x_9, after
# eight steps at x = 1/10: beta_0 x_9 = 3/2 and alpha_0 x_9 = -3/2.
BOUNDARY_BINDINGS = [
    (F(0), [F(1, 2)], None, None),
    (F(1), [F(1, 2)], None, None),
    (F(2), [F(1, 2)], None, None),
    (F(-1, 5), [F(1, 2)], None, None),
    (F(1), [F(1, 2)], F(-2), None),
    (F(1), [F(1, 2)], F(-1), None),
    (F(9, 10), [F(1, 2)], F(-1), None),
    (F(1), [F(1, 10)] * 8 + [F(3, 10)], None, F(5)),
    (F(0), [F(1, 10)] * 8 + [F(-1, 2)], F(3), None),
]


def _violated(check):
    """The letters of the inequality ``check()`` reports, or None."""
    try:
        check()
    except ConstraintError as exc:
        return str(exc).split(" = ")[0]
    return None


@pytest.mark.parametrize("case", list(CaseId))
def test_exact_and_sampler_checks_agree(case):
    ell = 2
    for rate, xs, a, b in BOUNDARY_BINDINGS:
        binding = ParamBinding.numeric(
            x=xs, rates=[rate] * ell, alpha=None if a is None else (lambda k, a=a: a),
            beta_pos=None if b is None else (lambda k, b=b: b))
        config = SimConfig(case=case, ell=ell, steps=len(xs), rates=[float(rate)] * ell,
                           x=[float(x) for x in xs],
                           alpha=None if a is None else (lambda k, a=a: float(a)),
                           beta_pos=None if b is None else (lambda k, b=b: float(b)))

        exact = _violated(lambda: binding.check_admissible(case, ell))
        for sampler in SAMPLERS.values():
            assert exact == _violated(lambda: sampler(config)), (case, rate, xs, a, b)


def test_fermionic_picture_transform():
    # a Trajectory built from a list of snapshots, one per round
    traj = Trajectory([(0, P_([])), (1, P_([2, 1]))])
    assert traj.steps == 1 and traj.snapshots == [(0, P_([])), (1, P_([2, 1]))]
    assert traj.final() == P_([2, 1])
    ferm = traj.positions("fermionic")
    assert ferm[-1][1] == [1, -1]


def test_continuous_ring_count_is_bounded(monkeypatch):
    # a row's first block is sized from its mean ring count, so a run that
    # expects more than MAX_RINGS rings (samples x sum of pi_j t) is
    # refused before any draw: t = 1e13 would ask for a 73 TiB block
    rng = rng_for(5)
    with pytest.raises(ValueError, match=r"1e\+13 rings expected .* at most 10,000,000"):
        run_continuous(1, 1e13, 1.0, rng)
    with pytest.raises(ValueError, match=r"rings expected"):
        sample_continuous_final(4, 3e6, [1.0, 0.5, 0.0, 0.5], 2, rng, push=True)
    # rates whose sum passes the largest float expect more than any bound
    with pytest.raises(ValueError, match=r"inf rings expected"):
        run_continuous(2, 1.0, 1e308, rng)
    assert (rng.random(4) == rng_for(5).random(4)).all()  # nothing was drawn
    # the bound counts every sample and particle, and a run at it is drawn
    monkeypatch.setattr(simulate, "MAX_RINGS", 60)
    with pytest.raises(ValueError, match=r"61 rings expected"):
        sample_continuous_final(1, 61.0, 1.0, 1, rng_for(5))
    assert sample_continuous_final(2, 10.0, [1.0, 2.0], 2, rng_for(5)).shape == (2, 2)


@pytest.mark.parametrize("push", [False, True])
def test_continuous_memory_is_bounded(push):
    # a paper-scale run (ell = t = 500, 250,000 rings) keeps one run of
    # first blocks (at most _BLOCK_DRAWS gaps, or one particle's block) and
    # two rows: well under 4 MB, however many particles there are
    tracemalloc.start()
    try:
        run_continuous(500, 500.0, 1.0, rng_for(1), push=push)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
