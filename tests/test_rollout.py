from collections import deque

import numpy as np
import pytest

from wovr import rollout
from wovr.core import (InvariantViolation, MalformedHeader, Steps, TaskSpec, Trajectory,
                       derive_rng, derive_rngs, derive_seed, task_features)
from wovr.envs import ACTION_BOUND, CountingEnv, PickPlace2D, ReachPoint
from wovr.evalx import hallucination_rate
from wovr.grpo import ChunkPolicy
from wovr.pace import LearnedReward
from wovr.reward import RewardNet, predict_success, sparse_reward
from wovr.rollout import (
    KEYFRAME_CAPACITY,
    GroupSpec,
    GroupSpecs,
    _imagined_dynamics,
    _roll_group,
    as_scorer,
    harvest_keyframes,
    read_batch,
    rollout_imagined,
    rollout_real,
    round_robin,
    sample_start,
    write_batch,
)
from wovr.worldmodel import LearnedWorldModel, OracleWorldModel, WmNet, build_context

H = 4
T = 16


def make_policy(env, init_log_std=-1.0):
    policy = ChunkPolicy(env.state_dim, getattr(env, "n_tasks", 1), H,
                         env.action_dim, hidden=(16,), init_log_std=init_log_std)
    params = policy.init(derive_rng(0))
    return policy, params


def counting_traj(task_id, rewards, d=3):
    """Step i observes the state (i, ..., i) and emits a zero chunk."""
    n = len(rewards)
    obs = np.repeat(np.arange(n, dtype=float)[:, None], d, axis=1)
    return Trajectory(TaskSpec(task_id),
                      Steps(obs, np.zeros((n, H, 2)), rewards, np.full(n, -1.0)))


def fail_traj(task_id=0, n=8, d=3):
    return counting_traj(task_id, [0] * n, d)


def win_traj(task_id=0, n=3, d=3):
    return counting_traj(task_id, [0] * (n - 1) + [1], d)


def head(steps, m):
    """The first m rows of steps."""
    return Steps(steps.obs[:m], steps.chunk[:m], steps.reward[:m], steps.logp_old[:m])


# -- keyframes ------------------------------------------------------------------


def keyframe_store(*pairs):
    return deque(pairs, maxlen=KEYFRAME_CAPACITY)


def test_keyframes_evict_oldest_first():
    keyframes = keyframe_store()
    harvest_keyframes([fail_traj(n=KEYFRAME_CAPACITY + 1)], KEYFRAME_CAPACITY + 1, keyframes)
    assert len(keyframes) == KEYFRAME_CAPACITY
    kept = [state[0] for state, _ in keyframes]
    assert kept == [float(i) for i in range(1, KEYFRAME_CAPACITY + 1)]


def test_harvest_skips_successes():
    keyframes = keyframe_store()
    harvest_keyframes([win_traj(), win_traj()], 2, keyframes)
    assert len(keyframes) == 0


def test_harvest_takes_last_k_of_failures():
    keyframes = keyframe_store()
    harvest_keyframes([fail_traj(task_id=2, n=8)], 3, keyframes)
    taken = [(state[0], task) for state, task in list(keyframes)]
    assert taken == [(5.0, TaskSpec(2)), (6.0, TaskSpec(2)), (7.0, TaskSpec(2))]


def test_harvest_short_trajectory_takes_all():
    keyframes = keyframe_store()
    harvest_keyframes([fail_traj(n=1)], 3, keyframes)
    assert len(keyframes) == 1
    with pytest.raises(ValueError):
        harvest_keyframes([], 0, keyframes)


def test_harvest_entries_are_copies():
    keyframes = keyframe_store()
    traj = fail_traj(n=2)
    harvest_keyframes([traj], 1, keyframes)
    traj.steps.obs[-1, 0] = 123.0
    assert list(keyframes)[0][0][0] != 123.0


# -- start sampling ---------------------------------------------------------------


def reset_const(value):
    return lambda rng: np.full(2, value)


def test_sample_start_pkir_zero_always_initial():
    keyframes = keyframe_store((np.zeros(2), TaskSpec(0)))
    rng = derive_rng(1)
    for _ in range(50):
        _, kind = sample_start(keyframes, TaskSpec(0), 0.0, reset_const(9.0), rng)
        assert kind == "initial"


def test_sample_start_empty_buffer_falls_back():
    state, kind = sample_start(keyframe_store(), TaskSpec(0), 1.0, reset_const(9.0),
                               derive_rng(2))
    assert kind == "initial" and state[0] == 9.0


def test_sample_start_task_mismatch_falls_back():
    keyframes = keyframe_store((np.zeros(2), TaskSpec(1)))
    _, kind = sample_start(keyframes, TaskSpec(0), 1.0, reset_const(9.0), derive_rng(3))
    assert kind == "initial"


def test_sample_start_frequency():
    keyframes = keyframe_store((np.ones(2), TaskSpec(0)))
    rng = derive_rng(4)
    kinds = [
        sample_start(keyframes, TaskSpec(0), 0.5, reset_const(0.0), rng)[1]
        for _ in range(10_000)
    ]
    frac = kinds.count("keyframe") / len(kinds)
    assert 0.48 <= frac <= 0.52


def test_sample_start_returns_copy():
    keyframes = keyframe_store((np.ones(2), TaskSpec(0)))
    state, kind = sample_start(keyframes, TaskSpec(0), 1.0, reset_const(0.0), derive_rng(5))
    assert kind == "keyframe"
    state[0] = 55.0
    assert list(keyframes)[0][0][0] == 1.0


def test_sample_start_rejects_bad_pkir():
    with pytest.raises(ValueError):
        sample_start(keyframe_store(), TaskSpec(0), 1.5, reset_const(0.0), derive_rng(6))


def sample_start_reference(keyframes, task, p_kir, env_reset, rng):
    """sample_start as it matched keyframes by TaskSpec equality."""
    if rng.uniform() < p_kir:
        matching = [state for state, t in keyframes if t == task]
        if matching:
            return matching[rng.integers(len(matching))].copy(), "keyframe"
    return env_reset(rng), "initial"


def test_sample_start_matching_by_task_id_picks_the_reference_keyframe():
    """On a mixed-task deque, matching by task id picks the same keyframe, by
    the same draws, as matching by TaskSpec equality."""
    rng = np.random.default_rng(10)
    keyframes = keyframe_store(*((rng.normal(size=3), TaskSpec(int(t)))
                                 for t in rng.integers(0, 3, size=200)))
    kinds = set()
    for seed in range(40):
        task, p_kir = TaskSpec(seed % 4), (0.0, 0.5, 1.0)[seed % 3]
        got_rng, want_rng = derive_rng(seed), derive_rng(seed)
        got = sample_start(keyframes, task, p_kir, lambda r: r.normal(size=3), got_rng)
        want = sample_start_reference(keyframes, task, p_kir, lambda r: r.normal(size=3),
                                      want_rng)
        assert got[1] == want[1] and np.array_equal(got[0], want[0])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        kinds.add((task.task_id == 3, got[1]))
    # task 3 has no keyframes and falls back; the others start from both kinds
    assert kinds == {(False, "keyframe"), (False, "initial"), (True, "initial")}


# -- imagined rollouts --------------------------------------------------------------


def oracle_setup(env, task_id=0, size=3, seed=7):
    start = env.reset_state(TaskSpec(task_id), derive_rng(seed))
    group = GroupSpec(TaskSpec(task_id), start, "initial", size)
    wm = OracleWorldModel(env, context=4)
    reward = lambda frame, task: int(env.is_success(frame))
    return group, wm, reward


def test_rollout_imagined_t_zero_empty():
    env = ReachPoint()
    policy, params = make_policy(env)
    group, wm, reward = oracle_setup(env)
    trajs = rollout_imagined(policy, params, wm, reward, group, 0, H, seed=8)
    assert len(trajs) == group.size
    assert all(len(t.steps) == 0 and not t.success for t in trajs)


def test_rollout_imagined_requires_chunk_multiple():
    env = ReachPoint()
    policy, params = make_policy(env)
    group, wm, reward = oracle_setup(env)
    with pytest.raises(ValueError):
        rollout_imagined(policy, params, wm, reward, group, T + 1, H, seed=8)


def test_rollout_imagined_reward_always_one():
    env = ReachPoint()
    policy, params = make_policy(env)
    group, wm, _ = oracle_setup(env)
    always = lambda frame, task: 1
    trajs = rollout_imagined(policy, params, wm, always, group, T, H, seed=9)
    for t in trajs:
        assert t.success and len(t.steps) == 1
        assert t.steps.reward[0] == 1


def test_rollout_imagined_group_homogeneity():
    env = ReachPoint()
    policy, params = make_policy(env)
    group, wm, reward = oracle_setup(env, size=4)
    trajs = rollout_imagined(policy, params, wm, reward, group, T, H, seed=10)
    assert len(trajs) == 4
    for t in trajs:
        assert t.task.task_id == group.task.task_id
        assert np.array_equal(t.steps.obs[0], group.start_state)
    # members draw independent streams: their first chunks differ
    assert not np.array_equal(trajs[0].steps.chunk[0], trajs[1].steps.chunk[0])


def test_rollout_imagined_logp_matches_policy_density():
    env = ReachPoint()
    policy, params = make_policy(env)
    group, wm, reward = oracle_setup(env)
    trajs = rollout_imagined(policy, params, wm, reward, group, T, H, seed=11)
    for t in trajs:
        feats = task_features(t.steps.obs, t.task, policy.n_tasks)
        ref = policy.logprob(params, feats, t.steps.chunk.reshape(len(t.steps), -1))
        np.testing.assert_allclose(t.steps.logp_old, ref, rtol=1e-12)


def test_rollout_imagined_mid_chunk_success_truncates():
    """A reward that fires on frame 6, the second frame of chunk step 2, cuts
    the member there: two steps, rewards [0, 1], a history of frames 0..6."""
    env = ReachPoint()
    policy, params = make_policy(env)
    group, wm, _ = oracle_setup(env)
    member = ([group.task], group.start_state[None], [(12, 0)])  # tasks, starts, keys
    never = lambda frames, _tasks: np.zeros(len(frames), dtype=bool)
    _, (free,) = _roll_group(policy, params, _imagined_dynamics(wm), never, *member, T, H,
                             wm.noise_width)
    sixth = lambda frame, task: int(np.array_equal(frame, free[6]))
    (traj,), (history,) = _roll_group(policy, params, _imagined_dynamics(wm),
                                      as_scorer(sixth), *member, T, H, wm.noise_width)
    assert traj.success and len(traj.steps) == 2
    assert traj.steps.reward.tolist() == [0, 1]
    assert len(history) == 7 and np.array_equal(history, free[:7])
    assert rollout_imagined(policy, params, wm, sixth,
                            GroupSpec(group.task, group.start_state, "initial", 1),
                            T, H, seed=12) == [traj]


def test_rollout_imagined_aborts_on_nonfinite(caplog):
    env = ReachPoint()
    policy, params = make_policy(env)
    task = TaskSpec(0)
    start = env.reset_state(task, derive_rng(13))

    class BrokenWm:
        context = 4
        anchor_mode = "first"
        noise_width = 0

        def predict_chunk(self, anchors, memories, task, chunks, noise):
            return np.full((len(anchors), H, env.state_dim), np.nan)

    group = GroupSpec(task, start, "initial", 2)
    with caplog.at_level("WARNING"):
        trajs = rollout_imagined(policy, params, BrokenWm(), lambda f, t: 0,
                                 group, T, H, seed=14)
    assert len(trajs) == 2
    assert all(len(t.steps) == 0 and not t.success for t in trajs)
    assert any("aborted" in r.message for r in caplog.records)


class PoisonedPolicy:
    """policy, except that at its call number `at` one entry of the first
    row's chunk or log-density is replaced by bad."""

    def __init__(self, policy, at, column, bad):
        self.policy, self.flat, self.at, self.column, self.bad = policy, policy.flat, at, column, bad
        self.calls = 0

    def sample(self, params, obs, task, noise):
        chunks, logps = self.policy.sample(params, obs, task, noise)
        if self.calls == self.at:
            if self.column == "chunk":
                chunks[0, 1, 0] = self.bad
            else:
                logps[0] = self.bad
        self.calls += 1
        return chunks, logps


def test_non_finite_policy_output_on_a_recorded_step_raises():
    """The batch's one check still sees every recorded step: a non-finite
    log-density on a recorded step raises InvariantViolation in real and
    imagined rollouts, and so does a non-finite chunk in an imagined one
    whose model predicts finite frames from it. The real env refuses a
    non-finite action itself (ValueError) before the step is recorded."""
    env = ReachPoint()
    policy, params = make_policy(env)
    task = TaskSpec(1)
    start = env.reset_state(task, derive_rng(21))

    class StillWm:
        """Every frame of a chunk is the zero state, whatever the chunk."""
        context = 2
        anchor_mode = "first"
        noise_width = 0

        def predict_chunk(self, anchors, memories, task, chunks, noise):
            return np.zeros((len(anchors), H, env.state_dim))

    for bad in (np.nan, np.inf):
        for column in ("chunk", "logp"):
            with pytest.raises(InvariantViolation):
                rollout_imagined(PoisonedPolicy(policy, 1, column, bad), params, StillWm(),
                                 lambda f, t: 0, GroupSpec(task, start, "initial", 3), T, H,
                                 seed=22)
        with pytest.raises(InvariantViolation):
            rollout_real(PoisonedPolicy(policy, 1, "logp", bad), params, env, task, 3, T, H,
                         seed=23)
        with pytest.raises(ValueError, match="non-finite action"):
            rollout_real(PoisonedPolicy(policy, 1, "chunk", bad), params, env, task, 3, T, H,
                         seed=23)
    # unpoisoned, the same rollouts run to the end
    assert len(rollout_imagined(policy, params, StillWm(), lambda f, t: 0,
                                GroupSpec(task, start, "initial", 3), T, H, seed=22)) == 3
    assert len(rollout_real(policy, params, env, task, 3, T, H, seed=23)) == 3


def roll_member_reference(policy, params, wm, reward_fn, task, start, T, H, seed, i):
    """Member i of a group rolled alone: the per-member loop that the lockstep
    loop replaced, with every batched call made on a single row, and each
    chunk step drawing its policy and model noise from derive_rng(seed, i, 1)
    and derive_rng(seed, i, 2) as it goes, so the whole-episode draws of the
    lockstep loop must give the same rows."""
    policy_rng, model_rng = derive_rng(seed, i, 1), derive_rng(seed, i, 2)
    history = [np.asarray(start, dtype=np.float64)]
    records = []
    success = False
    while len(records) * H < T and not success:
        obs = history[-1]
        chunks, logps = policy.sample(params, obs[None], task,
                                      policy_rng.normal(size=(1, policy.flat)))
        anchors, memories = build_context([history], wm.context, wm.anchor_mode)
        frames = wm.predict_chunk(anchors, memories, task, chunks,
                                  model_rng.normal(size=(1, H * len(obs))))[0]
        if not np.all(np.isfinite(frames)):
            break
        reward = 0
        for frame in frames:
            history.append(frame)
            if reward_fn(frame, task):
                reward = 1
                break
        success = reward == 1
        records.append((obs, chunks[0], reward, float(logps[0])))
    obs, chunks, rewards, logps = zip(*records)
    return Trajectory(task, Steps(np.array(obs), np.array(chunks), rewards, logps))


def test_group_member_matches_member_rolled_alone():
    env = ReachPoint()
    policy, params = make_policy(env)
    net = WmNet(env.state_dim, env.action_dim, env.n_tasks, horizon=H, context=2,
                width=32, act_emb_dim=8)
    wm = LearnedWorldModel(net, net.init(derive_rng(20)), steps=3)
    reward = lambda frame, task: int(frame[0] > 2.0)
    lengths = set()
    for seed in range(4):
        task = TaskSpec(seed)
        start = env.reset_state(task, derive_rng(seed))
        group = rollout_imagined(policy, params, wm, reward,
                                 GroupSpec(task, start, "initial", 4), 2 * T, H, seed)
        for i, traj in enumerate(group):
            alone = roll_member_reference(policy, params, wm, reward, task, start,
                                          2 * T, H, seed, i)
            lengths.add(len(traj.steps))
            assert len(traj.steps) == len(alone.steps)
            assert traj.success == alone.success
            assert traj.steps.reward.tolist() == alone.steps.reward.tolist()
            np.testing.assert_allclose(traj.steps.obs, alone.steps.obs, rtol=1e-9)
            np.testing.assert_allclose(traj.steps.chunk, alone.steps.chunk, rtol=1e-9)
            np.testing.assert_allclose(traj.steps.logp_old, alone.steps.logp_old, rtol=1e-9)
    # members finished at different chunk steps, some ran to T
    assert len(lengths) > 2 and 2 * T // H in lengths


def test_update_batch_equals_per_group_rollouts():
    """One rollout_imagined over a GroupSpecs of mixed tasks and start kinds
    rolls each group as its own call at the group's seed would: equal
    rewards, lengths, tasks and kinds, floats within 1e-12, and bit for bit
    for a group that never runs on with one member alone (a single row takes
    another matmul kernel, which may round its last bits differently)."""
    env = ReachPoint()
    policy, params = make_policy(env)
    net = WmNet(env.state_dim, env.action_dim, env.n_tasks, horizon=H, context=2,
                width=32, act_emb_dim=8)
    wm = LearnedWorldModel(net, net.init(derive_rng(20)), steps=3)
    reward = x_past_reward(env, 2.0)
    G, depth = 4, 2 * T
    outcomes, lengths, bit_equal = set(), set(), 0
    for trial in range(4):
        specs, seeds = [], []
        for g in range(6):
            task = TaskSpec((g + trial) % env.n_tasks)
            start = env.reset_state(task, derive_rng(30, trial, g))
            specs.append(GroupSpec(task, start, ("initial", "keyframe")[g % 2], G))
            seeds.append(derive_seed(31, trial, g))
        specs = GroupSpecs(specs)
        batched = rollout_imagined(policy, params, wm, reward, specs, depth, H, seeds)
        assert specs.size == len(batched) == 6 * G
        for g, (spec, seed) in enumerate(zip(specs, seeds)):
            alone = rollout_imagined(policy, params, wm, reward, spec, depth, H, seed)
            got = batched[g * G:(g + 1) * G]
            for a, b in zip(got, alone, strict=True):
                assert a.task == b.task == spec.task
                assert a.steps.reward.tolist() == b.steps.reward.tolist()
                for x, y in ((a.steps.obs, b.steps.obs), (a.steps.chunk, b.steps.chunk),
                             (a.steps.logp_old, b.steps.logp_old)):
                    np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)
                outcomes.add(b.success)
                lengths.add(len(b.steps))
            running = [sum(len(t.steps) > k for t in alone) for k in range(depth // H)]
            if 1 not in running:
                assert got == alone
                bit_equal += 1
    assert outcomes == {True, False} and depth // H in lengths and len(lengths) > 3
    assert bit_equal >= 8


class PoisonedWm(OracleWorldModel):
    """Oracle dynamics, except that the given (call, row) pairs come back NaN."""

    def __init__(self, env, poison):
        super().__init__(env, context=4)
        self.poison = poison
        self.calls = 0

    def predict_chunk(self, anchors, memories, task, chunks, noise):
        frames = super().predict_chunk(anchors, memories, task, chunks, noise)
        for call, row in self.poison:
            if call == self.calls:
                frames[row] = np.nan
        self.calls += 1
        return frames


@pytest.mark.parametrize("poison", [[(2, 1)], [(0, 0), (3, 1)]])
def test_abort_stays_with_its_member(caplog, poison):
    env = ReachPoint()
    expert = NoisyExpertPolicy(env, H, noise=4.5)
    reward = lambda frame, task: int(env.is_success(frame))
    task = TaskSpec(1)
    start = env.reset_state(task, derive_rng(25))
    group = GroupSpec(task, start, "initial", 4)
    clean = rollout_imagined(expert, {}, OracleWorldModel(env, context=4), reward, group,
                             64, H, seed=22)
    # the member behind each poisoned row: the row-th member still running
    aborted = {}
    for call, row in poison:
        running = [i for i, t in enumerate(clean)
                   if len(t.steps) > call and i not in aborted]
        aborted[running[row]] = call
    with caplog.at_level("WARNING"):
        trajs = rollout_imagined(expert, {}, PoisonedWm(env, poison), reward, group,
                                 64, H, seed=22)
    warnings = [r for r in caplog.records
                if r.getMessage().startswith("rollout member aborted")]
    assert len(warnings) == len(aborted)
    for i, (traj, ref) in enumerate(zip(trajs, clean)):
        if i in aborted:
            assert len(traj.steps) == aborted[i] and not traj.success
            assert traj.steps == head(ref.steps, aborted[i])
        else:
            assert traj == ref  # ran on to T or to success, untouched
    kept = [t for i, t in enumerate(trajs) if i not in aborted]
    assert any(t.success for t in kept) and any(len(t.steps) == 64 // H for t in kept)


def x_past_reward(env, c):
    """A one-layer LearnedReward that fires once the agent's x passes about c."""
    net = RewardNet(env.state_dim, env.n_tasks, hidden=())
    w = np.zeros((env.state_dim + env.n_tasks, 1))
    w[0, 0] = 60.0
    return LearnedReward(net, {"rw.w0": w, "rw.b0": np.array([-60.0 * c])}, 0.9)


def per_frame_form(reward):
    """reward's one-frame form, reward(frame, task) -> 0/1."""
    return lambda frame, task: sparse_reward(
        predict_success(reward.net, reward.params, frame, task), reward.threshold)


def test_batched_reward_rolls_like_its_per_frame_form(caplog):
    """One batch call per chunk step cuts members where per-frame calls do."""
    env = ReachPoint()
    reward = x_past_reward(env, 0.72)
    expert = NoisyExpertPolicy(env, H, noise=4.5)
    task = TaskSpec(1)
    seen = set()
    for seed in range(4):
        start = env.reset_state(task, derive_rng(25 + seed))
        runs = []
        for fn in (reward.batch, as_scorer(per_frame_form(reward))):
            wm = PoisonedWm(env, [(1, 1)])
            with caplog.at_level("WARNING"):
                runs.append(_roll_group(expert, {}, _imagined_dynamics(wm), fn, [task] * 6,
                                        np.repeat(start[None], 6, axis=0),
                                        [(seed, i) for i in range(6)], 64, H,
                                        wm.noise_width))
        (trajs, histories), (ref_trajs, ref_histories) = runs
        assert trajs == ref_trajs
        assert len(histories) == len(ref_histories)
        for a, b in zip(histories, ref_histories):
            assert np.array_equal(np.array(a), np.array(b))
        for traj, history in zip(trajs, histories):
            if traj.success:
                seen.add("last frame" if (len(history) - 1) % H == 0 else "mid-chunk")
            elif len(traj.steps) == 64 // H:
                seen.add("ran to T")
            else:
                seen.add("aborted")
    assert seen == {"last frame", "mid-chunk", "ran to T", "aborted"}


def test_hallucination_rate_same_for_batched_and_per_frame_reward():
    env = ReachPoint()
    reward = x_past_reward(env, 0.72)
    expert = NoisyExpertPolicy(env, H, noise=2.0)
    wm = OracleWorldModel(env, context=4)
    for task_id in range(2):
        task = TaskSpec(task_id)
        batched = hallucination_rate(expert, {}, wm, reward, env, task, 12, 64, H, seed=26)
        plain = hallucination_rate(expert, {}, wm, per_frame_form(reward), env, task,
                                   12, 64, H, seed=26)
        assert batched == plain
        assert batched["rate"] > 0.0


# -- real rollouts --------------------------------------------------------------------


def test_rollout_real_deterministic_and_tagged():
    env = PickPlace2D()
    policy, params = make_policy(env)
    a = rollout_real(policy, params, env, TaskSpec(2), 5, T, H, seed=15)
    b = rollout_real(policy, params, env, TaskSpec(2), 5, T, H, seed=15)
    assert len(a) == 5
    assert a == b
    assert all(t.task.task_id == 2 for t in a)
    c = rollout_real(policy, params, env, TaskSpec(2), 5, T, H, seed=16)
    assert a != c


class ExpertPolicy:
    """Test double: unrolls the scripted controller one chunk ahead."""

    def __init__(self, env, horizon):
        self.env = env
        self.horizon = horizon
        self.flat = horizon * env.action_dim

    def sample(self, params, obs, task, noise):
        chunks = []
        for state in np.asarray(obs, dtype=np.float64):
            chunk = []
            for _ in range(self.horizon):
                action = self.env.expert_action(state)
                state = self.env.step(state, action)
                chunk.append(action)
            chunks.append(chunk)
        return np.array(chunks), np.zeros(len(chunks))


class NoisyExpertPolicy(ExpertPolicy):
    """Expert chunks plus Gaussian action noise, scale * noise row i on row i."""

    def __init__(self, env, horizon, noise):
        super().__init__(env, horizon)
        self.noise = noise

    def sample(self, params, obs, task, noise):
        chunks, logps = super().sample(params, obs, task, noise)
        return chunks + self.noise * np.reshape(noise, chunks.shape), logps


def test_rollout_real_expert_succeeds():
    env = PickPlace2D()
    expert = ExpertPolicy(env, H)
    for task_id in range(4):
        trajs = rollout_real(expert, {}, env, TaskSpec(task_id), 2, 64, H, seed=17)
        assert all(t.success for t in trajs)


def test_rollout_real_record_frames_consistent():
    env = PickPlace2D()
    expert = ExpertPolicy(env, H)
    trajs, eps = rollout_real(expert, {}, env, TaskSpec(0), 3, 64, H, seed=18,
                              record_frames=True)
    for traj, ep in zip(trajs, eps):
        assert ep.states.shape[0] == ep.actions.shape[0] + 1
        assert np.array_equal(ep.states[0], traj.steps.obs[0])
        # replaying the recorded actions through the env reproduces the states
        state = ep.states[0]
        for k, action in enumerate(ep.actions):
            state = env.step(state, action)
            assert np.array_equal(state, ep.states[k + 1])
        assert env.is_success(ep.states[-1]) == traj.success


def test_rollout_real_needs_one_start_per_episode():
    env = ReachPoint()
    policy, params = make_policy(env)
    start = env.reset_state(TaskSpec(0), derive_rng(0))
    for n, starts in ((3, [start]), (1, [start] * 3)):
        with pytest.raises(ValueError, match="one start per episode"):
            rollout_real(policy, params, env, TaskSpec(0), n, T, H, seed=1, starts=starts)


def test_rollout_real_counts_env_steps():
    env = CountingEnv(ReachPoint())
    policy, params = make_policy(ReachPoint(), init_log_std=-2.0)
    trajs = rollout_real(policy, params, env, TaskSpec(0), 2, T, H, seed=19)
    executed = sum(len(t.steps) for t in trajs) * H
    assert env.steps == executed
    assert env.resets == 2


def test_collect_real_round_robin_streams():
    """A real collection is one lockstep rollout_real call over round_robin's
    tasks and keys: episode i on task i % n_tasks under the key
    (derive_seed(seed, tag, i), 0). Each equals its own one-episode rollout at that seed in task,
    length and rewards, with floats within 1e-12 (a batch of rows takes
    another matmul kernel than a lone row), and an n = 1 collection equals
    it bit for bit."""
    for env, policy, params in (
            (ReachPoint(), *make_policy(ReachPoint(), init_log_std=2.0)),
            (PickPlace2D(), NoisyExpertPolicy(PickPlace2D(), H, noise=1.0), {})):
        counter, n = CountingEnv(env), 24
        tasks, keys = round_robin(env.n_tasks, n, 5, 73)
        assert [task.task_id for task in tasks] == [i % 4 for i in range(n)]
        assert keys == [(derive_seed(5, 73, i), 0) for i in range(n)]
        trajs, frames = rollout_real(policy, params, counter, tasks, n, 64, H, keys,
                                     record_frames=True)
        assert counter.resets == n
        assert counter.steps == H * sum(len(t.steps) for t in trajs)
        lengths, outcomes = set(), set()
        for i, (traj, ep) in enumerate(zip(trajs, frames, strict=True)):
            [want], [want_ep] = rollout_real(policy, params, env, TaskSpec(i % 4), 1, 64, H,
                                             derive_seed(5, 73, i), record_frames=True)
            assert traj.task == want.task == TaskSpec(i % 4)
            assert traj.steps.reward.tolist() == want.steps.reward.tolist()
            assert (ep.task, ep.states.shape) == (want_ep.task, want_ep.states.shape)
            for x, y in ((traj.steps.obs, want.steps.obs), (traj.steps.chunk, want.steps.chunk),
                         (traj.steps.logp_old, want.steps.logp_old),
                         (ep.states, want_ep.states), (ep.actions, want_ep.actions)):
                np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)
            lengths.add(len(traj.steps))
            outcomes.add(traj.success)
        # episodes ended at different chunk steps, by success or at T
        assert outcomes == {True, False} and len(lengths) > 2 and 64 // H in lengths
        one_tasks, one_keys = round_robin(env.n_tasks, 1, 5, 73)
        [one], [one_ep] = rollout_real(policy, params, env, one_tasks, 1, 64, H, one_keys,
                                       record_frames=True)
        [want], [want_ep] = rollout_real(policy, params, env, TaskSpec(0), 1, 64, H,
                                         derive_seed(5, 73, 0), record_frames=True)
        assert one == want and one_ep == want_ep


def test_rollout_real_needs_one_task_and_seed_per_episode():
    env = ReachPoint()
    policy, params = make_policy(env)
    tasks = [TaskSpec(0), TaskSpec(1)]
    for task, seed in ((tasks, 1), (TaskSpec(0), [1, 2]), (tasks, [1, 2, 3])):
        with pytest.raises(ValueError, match="one task and one seed per episode"):
            rollout_real(policy, params, env, task, 3, T, H, seed)


# -- oracle substitution ----------------------------------------------------------------


def test_oracle_substitution_bit_identical():
    for env, noise in ((PickPlace2D(), 1.0), (ReachPoint(), 2.0)):
        learned, params = make_policy(env, init_log_std=-0.5)
        for policy in (learned, NoisyExpertPolicy(env, H, noise)):
            for size in (1, 4):
                check_oracle_substitution(env, policy, params, size)


def test_a_model_derives_only_the_streams_it_reads(monkeypatch):
    """An oracle rollout of n members derives their n policy streams and no
    model stream; a learned model's derives n of each."""
    env = ReachPoint()
    policy, params = make_policy(env)
    keys = []

    def counting(batch):
        keys.extend(batch)
        return derive_rngs(batch)

    monkeypatch.setattr(rollout, "derive_rngs", counting)
    group, oracle, reward = oracle_setup(env, size=5)
    net = WmNet(env.state_dim, env.action_dim, env.n_tasks, horizon=H, context=2,
                width=8, act_emb_dim=4)
    learned = LearnedWorldModel(net, net.init(derive_rng(20)), steps=2)
    assert (oracle.noise_width, learned.noise_width) == (0, H * env.state_dim)
    for wm, roles in ((oracle, [1] * 5), (learned, [1] * 5 + [2] * 5)):
        keys.clear()
        rollout_imagined(policy, params, wm, reward, group, T, H, seed=31)
        assert [key[-1] for key in keys] == roles
        assert [key[:2] for key in keys] == [(31, i) for i in range(5)] * (len(roles) // 5)


def check_oracle_substitution(env, policy, params, size):
    wm = OracleWorldModel(env, context=4)
    reward = lambda frame, task: int(env.is_success(frame))
    lengths, mixed, beyond = set(), False, False
    for seed in range(6):
        task = TaskSpec(seed % env.n_tasks)
        start = env.reset_state(task, derive_rng(seed, 0, 0))
        group = GroupSpec(task, start, "initial", size)
        imagined = rollout_imagined(policy, params, wm, reward, group, 64, H, seed=seed)
        real = rollout_real(policy, params, env, task, size, 64, H, seed=seed,
                            starts=[start] * size)
        assert imagined == real
        lengths.update(len(t.steps) for t in real)
        mixed |= len({len(t.steps) for t in real}) > 1
        beyond |= any((np.abs(t.steps.chunk) > ACTION_BOUND).any() for t in real)
        if size == 1:  # default starts reset from derive_rng(seed, 0, 0)
            assert rollout_real(policy, params, env, task, 1, 64, H, seed=seed) == real
    # both paths were fed raw chunks beyond the bound, as the policy sent them
    assert beyond
    if isinstance(policy, NoisyExpertPolicy):
        # episodes end at different chunk steps, by success or at T; with
        # G=4, the members of one group do
        assert len(lengths) > 1 and 64 // H in lengths
        assert mixed or size == 1


# -- persistence -----------------------------------------------------------------------


def test_batch_roundtrip_with_manifest(tmp_path):
    trajs = [fail_traj(n=2), win_traj(n=3)]
    manifest = {"policy": "abc123", "wm": "def456", "p_kir": 0.5, "seed": 7}
    path = tmp_path / "batch.traj"
    write_batch(path, trajs, manifest)
    loaded, loaded_manifest = read_batch(path)
    assert loaded == trajs
    assert loaded_manifest == manifest


@pytest.mark.parametrize("manifest", [b"\xff\xfe{}", b'{"n": 2', b"[]", b"[" * 100000],
                         ids=["invalid-utf8", "bad-json", "not-an-object", "deep-nesting"])
def test_read_batch_rejects_corrupt_manifest(tmp_path, manifest):
    path = tmp_path / "batch.traj"
    write_batch(path, [fail_traj(n=2)], {"n": 1})
    (tmp_path / "batch.traj.manifest.json").write_bytes(manifest)
    with pytest.raises(MalformedHeader):
        read_batch(path)
