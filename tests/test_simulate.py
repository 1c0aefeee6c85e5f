import hashlib
import heapq
import math
from fractions import Fraction as F

import numpy as np
import pytest

from ktasep.conventions import UpdateOrder
from ktasep.kernels import CaseId
from ktasep.partitions import Partition
from ktasep.simulate import (
    SimConfig,
    Trajectory,
    inhom_geometric_pmf,
    move,
    rng_for,
    run,
    run_continuous,
    sample_batch_final,
    sample_geometric,
    sample_inhom_geometric,
    step_batch,
    step_discrete,
    update_order,
)

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
STREAM_DIGEST = "9514cec5c589425ebec25f8c2bd6dd038b8a0831c56ea79cf6b294e95d006372"


def _stream_outputs():
    out = []
    for update in UpdateOrder:
        for k, case in enumerate(CaseId):
            cfg = SimConfig(
                case=case, ell=5, steps=12, rates=[0.6, 0.5, 0.45, 0.4, 0.3], x=[0.5, 0.7],
                alpha=lambda m: 0.1 + 0.05 * (m % 3), beta_pos=lambda m: 0.1 if m >= 1 else 0.0,
                seed=40 + k, update=update, start=P_([3, 1, 1]),
            )
            out.append([list(p.padded(5)) for _, p in run(cfg).snapshots])
            out.append(sample_batch_final(cfg, 64, 50 + k).tolist())
    for push in (False, True):
        out.append(run_continuous(6, 4.0, [1.0, 0.8, 1.2, 0.9, 1.1, 0.7], rng_for(60, int(push)),
                                  push=push, start=P_([2, 1])))
    return out


def test_sampler_streams_pinned():
    digest = hashlib.sha256(repr(_stream_outputs()).encode()).hexdigest()
    assert digest == STREAM_DIGEST


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
LONG_DIGEST = "87529a2afc0cd8970e08d6cee37bc62dff324210e2b135410135b543b478549b"


def _fan_start(ell):
    """The rarefaction fan at free-particle displacement ell / 2."""
    d = ell / 2
    return P_(int((math.sqrt(d) - math.sqrt(k)) ** 2) if k < d else 0 for k in range(1, ell + 1))


def _long_trajectories():
    out = []
    for k, (case, rate, x, alpha, beta) in enumerate(LONG_PHYSICS):
        for ell, steps in ((10, 300), (100, 60)):
            cfg = SimConfig(
                case=case, ell=ell, steps=steps, rates=lambda j, r=rate: r, x=[x],
                alpha=alpha, beta_pos=beta, seed=70 + k,
                start=P_([]) if case.pushing else _fan_start(ell),
            )
            out.append([p.parts for _, p in run(cfg).snapshots])
    return out


def test_long_trajectories_pinned():
    digest = hashlib.sha256(repr(_long_trajectories()).encode()).hexdigest()
    assert digest == LONG_DIGEST


# sha256 of _block_outputs(): discrete runs at ell = 400 spanning several
# blocks of rounds under an x that changes inside a block, and continuous
# runs of about 5,000 events each, with the draw that follows them
BLOCK_DIGEST = "d83092778cf46945709ece4824821db69733c04717c96f4d7eee12caa1ed5e80"


def _block_outputs():
    out = []
    x = lambda i: 0.1 if i % 7 else 0.3
    for k, case in enumerate(CaseId):
        cfg = SimConfig(
            case=case, ell=400, steps=35, rates=lambda j: 0.8 + 0.2 * (j % 3), x=x,
            alpha=lambda m: 0.5 * math.sin(m / 50.0) ** 6, beta_pos=_sine, seed=80 + k,
            start=P_([]) if case.pushing else _fan_start(400),
        )
        out.append([p.parts for _, p in run(cfg).snapshots])
    for push in (False, True):
        rng = rng_for(90, int(push))
        out.append(run_continuous(100, 50.0, lambda j: 0.9 + 0.1 * (j % 3), rng, push=push,
                                  start=P_([]) if push else _fan_start(100)))
        out.append(rng.random())
    return out


def test_block_streams_pinned():
    digest = hashlib.sha256(repr(_block_outputs()).encode()).hexdigest()
    assert digest == BLOCK_DIGEST


def _scalar_round(case, state, time_index, config, rng):
    """The per-particle round: one scalar draw per particle (CanonicalC:
    one per site passed, then the failure) and one ``move`` per particle
    in update order.  Reference for ``step_discrete``."""
    pos = list(state.padded(config.ell))
    xi = config.x_of(time_index)
    pushing = case.pushing
    plain_geometric = case is CaseId.A or case is CaseId.C
    for j in update_order(case, config.ell, config.update):
        if plain_geometric:
            w = sample_geometric(config.rate(j) * xi, rng.random())
        elif case is CaseId.CANONICAL_C:
            k = pos[j - 1]
            while True:
                a = config.alpha_of(k)
                if rng.random() >= (a + config.rate(j)) * xi / (1.0 + a * xi):
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


def test_run_matches_scalar_rounds_across_blocks():
    # x changes every third round, inside each block of rounds (409 rounds
    # at ell = 10, 81 at ell = 50), and CanonicalB's candidate bound must
    # cover the positions a block of 10 rounds at ell = 400 reaches
    x = lambda i: (0.05, 0.3, 0.6)[(i // 3) % 3]
    for k, case in enumerate(CaseId):
        if case is CaseId.CANONICAL_C:
            continue
        for ell, steps in ((10, 900), (50, 200)):
            cfg = SimConfig(case=case, ell=ell, steps=steps, x=x, seed=300 + k,
                            rates=lambda j: 0.3 + 0.1 * (j % 4),
                            beta_pos=lambda m: 0.2 * (m % 4))
            assert run(cfg).snapshots == _scalar_run(cfg), (case, ell)
    cfg = SimConfig(case=CaseId.CANONICAL_B, ell=400, steps=35, x=[0.5], seed=7,
                    rates=lambda j: 0.9, beta_pos=_sine, start=_fan_start(400))
    snaps = run(cfg).snapshots
    assert snaps == _scalar_run(cfg)
    assert sum(a != b for (_, a), (_, b) in zip(snaps, snaps[1:])) == 35


def _scalar_continuous(ell, t, rates, rng, push=False, start=None):
    """The event loop with one scalar draw per clock: reference for
    ``run_continuous``."""
    rate = [float(rates(j)) for j in range(1, ell + 1)] if callable(rates) else rates
    pos = list((start or P_()).padded(ell))
    heap = []
    for j, r in enumerate(rate, start=1):
        if r > 0:
            heapq.heappush(heap, (-math.log1p(-rng.random()) / r, j))
    while heap:
        when, j = heapq.heappop(heap)
        if when >= t:
            break
        move(pos, j, 1, push)
        heapq.heappush(heap, (when - math.log1p(-rng.random()) / rate[j - 1], j))
    return pos


def test_continuous_matches_scalar_events():
    # a horizon inside the scalar draws (5 draws), and ones that end in
    # the buffer's second and fourth blocks (147 and 623 draws) and past
    # its cap (8,646); after each run both generators give the same next
    # draw
    rates = lambda j: (1.0, 0.7, 0.0, 1.3)[j % 4]
    for push in (False, True):
        for ell, t in ((5, 0.5), (20, 8.0), (20, 40.0), (30, 400.0)):
            seed = 10 * ell + int(push)
            fast, slow = rng_for(seed), rng_for(seed)
            start = P_([]) if push else P_([ell // 2] * (ell // 2))
            got = run_continuous(ell, t, rates, fast, push=push, start=start)
            assert got == _scalar_continuous(ell, t, rates, slow, push=push, start=start)
            assert fast.random() == slow.random(), (push, ell, t)


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
    from ktasep.kernels import ParamBinding, chain

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
        # CanonicalC draws one more round per position a jump passes
        rounds = reach if case is CaseId.CANONICAL_C else 1
        assert 0 < len(calls) <= steps * ell * (4 + rounds * reach) < samples // 10, case


def test_continuous_time_zero():
    rng = rng_for(1, 0)
    assert run_continuous(4, 0.0, 1.0, rng) == [0, 0, 0, 0]


def test_continuous_poisson_mean():
    rng = rng_for(2, 0)
    n = 30000
    total = sum(run_continuous(1, 3.0, 1.0, rng)[0] for _ in range(n))
    mean = total / n
    assert abs(mean - 3.0) < 4 * math.sqrt(3.0 / n)


def test_continuous_exclusion_order():
    rng = rng_for(3, 0)
    for _ in range(50):
        pos = run_continuous(5, 2.0, 1.0, rng, push=False)
        assert all(pos[i] >= pos[i + 1] for i in range(4))
        pos = run_continuous(5, 2.0, 1.0, rng, push=True)
        assert all(pos[i] >= pos[i + 1] for i in range(4))


def test_config_validation_errors():
    cfg = SimConfig(case=CaseId.A, ell=2, steps=1, rates=[3.0, 3.0], x=[0.5], seed=0)
    with pytest.raises(ValueError, match="pi_1"):
        cfg.validate()
    cfg = SimConfig(case=CaseId.B, ell=2, steps=1, rates=[-1.0, 1.0], x=[0.5], seed=0)
    with pytest.raises(ValueError, match="rho_1"):
        cfg.validate()


def test_rate_x_checked_at_every_step():
    # pi x = 1.5 only from step 10 on, past the steps validate probes, so
    # each sampler must check pi_j x_i where it reads a new x_i
    cfg = SimConfig(case=CaseId.A, ell=2, steps=20, rates=[0.5, 0.5],
                    x=lambda i: 0.5 if i < 10 else 3.0, seed=1)
    cfg.validate()
    with pytest.raises(ValueError, match=r"pi_2\*x_10 = 1.5 outside \[0, 1\)"):
        run(cfg)
    with pytest.raises(ValueError, match=r"pi_2\*x_10 = 1.5 outside \[0, 1\)"):
        sample_batch_final(cfg, 10, 1)


def test_canonical_c_alpha_checked_at_every_position():
    # alpha_k + pi_j < 0 only from k = 4 on, where the particles start: a
    # check of the first few positions passes, so each sampler must check
    # alpha at every position it reads
    cfg = SimConfig(case=CaseId.CANONICAL_C, ell=2, steps=5, rates=[0.5, 0.5], x=[0.5],
                    alpha=lambda k: -0.9 if k >= 4 else 0.0, start=P_([5, 5]))
    cfg.validate()
    with pytest.raises(ValueError, match=r"alpha_4\+pi_1 = .* < 0"):
        run(cfg)
    with pytest.raises(ValueError, match=r"alpha_5\+pi_1 = .* < 0"):
        sample_batch_final(cfg, 10, 1)
    cfg = SimConfig(case=CaseId.CANONICAL_C, ell=2, steps=5, rates=[0.5, 0.5], x=[1.8],
                    alpha=lambda k: -0.6 if k >= 4 else 0.0, start=P_([5, 5]))
    with pytest.raises(ValueError, match=r"alpha_5\*x_1 = .* <= -1"):
        sample_batch_final(cfg, 10, 1)


def test_fermionic_picture_transform():
    traj = Trajectory([(0, P_([])), (1, P_([2, 1]))])
    ferm = traj.positions("fermionic")
    assert ferm[-1][1] == [1, -1]
