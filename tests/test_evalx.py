import numpy as np
import pytest

from wovr import evalx, rollout
from wovr.core import TaskSpec, derive_rng, derive_rngs
from wovr.envs import PickPlace2D, ReachPoint, step_chunks
from wovr.evalx import EvalReport, hallucination_rate, horizon_error, success_rate
from wovr.grpo import ChunkPolicy
from wovr.rollout import _roll_group, as_scorer
from wovr.worldmodel import LearnedWorldModel, OracleWorldModel, WmNet

H = 4
T = 32


def make_policy(env, init_log_std=-1.0, seed=0):
    policy = ChunkPolicy(env.state_dim, env.n_tasks, H, env.action_dim,
                         hidden=(16,), init_log_std=init_log_std)
    return policy, policy.init(derive_rng(seed))


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


class FrozenWm:
    """Degenerate model: every predicted frame repeats the row's newest frame."""

    noise_width = 0

    def predict_chunk(self, frames, rows, length, task, chunks, noise):
        return np.array([np.tile(frame, (len(chunk), 1))
                         for frame, chunk in zip(frames[rows, length - 1], chunks)])


# -- success rate -----------------------------------------------------------------


def test_success_rate_expert_is_one():
    env = PickPlace2D()
    expert = ExpertPolicy(env, H)
    assert success_rate(expert, {}, env, TaskSpec(1), 5, 64, H, seed=0) == 1.0


def test_success_rate_random_policy_near_zero():
    env = PickPlace2D()
    policy, params = make_policy(env, init_log_std=0.0)
    rate = success_rate(policy, params, env, TaskSpec(0), 50, T, H, seed=1)
    assert rate <= 0.05


def test_success_rate_single_trial_binary():
    env = ReachPoint()
    policy, params = make_policy(env)
    rate = success_rate(policy, params, env, TaskSpec(0), 1, T, H, seed=2)
    assert rate in (0.0, 1.0)
    with pytest.raises(ValueError):
        success_rate(policy, params, env, TaskSpec(0), 0, T, H, seed=2)


def test_success_rate_seed_deterministic():
    env = ReachPoint()
    policy, params = make_policy(env, init_log_std=0.5)
    a = success_rate(policy, params, env, TaskSpec(2), 20, T, H, seed=3)
    b = success_rate(policy, params, env, TaskSpec(2), 20, T, H, seed=3)
    assert a == b


# -- hallucination rate --------------------------------------------------------------


def test_hallucination_zero_under_oracle():
    env = PickPlace2D()
    policy, params = make_policy(env, init_log_std=-0.5)
    wm = OracleWorldModel(env)
    truth = lambda frame, task: int(env.is_success(frame))
    stats = hallucination_rate(policy, params, wm, truth, env, TaskSpec(0),
                               10, T, H, seed=4)
    assert stats == {"rate": 0.0, "spurious": 0.0, "missed": 0.0, "n": 10}


def test_hallucination_reward_always_one_matches_replay_failure():
    env = PickPlace2D()
    policy, params = make_policy(env, init_log_std=-0.5)
    wm = OracleWorldModel(env)
    always = lambda frame, task: 1
    n, seed = 12, 5
    stats = hallucination_rate(policy, params, wm, always, env, TaskSpec(0),
                               n, T, H, seed=seed)
    # imagined success is forced on every first frame, so mismatches are
    # exactly the episodes whose first real action does not succeed
    starts = [env.reset_state(TaskSpec(0), derive_rng(seed, i, 0)) for i in range(n)]
    chunks, _ = policy.sample(params, np.array(starts), TaskSpec(0),
                              np.array([derive_rng(seed, i, 1).normal(size=policy.flat)
                                        for i in range(n)]))
    replay_success = sum(env.is_success(env.step(start, chunk[0]))
                         for start, chunk in zip(starts, chunks))
    assert stats["missed"] == 0.0
    assert stats["spurious"] == stats["rate"]
    assert stats["rate"] == pytest.approx(1.0 - replay_success / n)


def test_hallucination_replays_only_the_imagined_frames():
    """A real success after the imagined success frame is not agreement."""
    env = ReachPoint()

    class SlowExpert:
        """Heads straight for the target, 0.02 per step (0.4 of a step)."""

        flat = H * env.action_dim

        def sample(self, params, obs, task, noise):
            chunks = []
            for state in np.asarray(obs, dtype=np.float64):
                chunk = []
                for _ in range(H):
                    delta = state[2:4] - state[0:2]
                    dist = np.linalg.norm(delta)
                    action = (delta if dist <= 0.02 else 0.02 * delta / dist) / env.step_cap
                    state = env.step(state, action)
                    chunk.append(action)
                chunks.append(chunk)
            return np.array(chunks), np.zeros(len(chunks))

    # fires at distance <= 0.08; the first such frame is over 0.06 away, so
    # never within the env's 0.05 success radius
    near = lambda frame, task: int(np.linalg.norm(frame[0:2] - frame[2:4]) <= 0.08)
    stats = hallucination_rate(SlowExpert(), {}, OracleWorldModel(env), near,
                               env, TaskSpec(0), 20, T, H, seed=3)
    assert stats == {"rate": 1.0, "spurious": 1.0, "missed": 0.0, "n": 20}


def test_hallucination_reads_no_frame_past_an_episode():
    """Episodes of different lengths replay in one padded batch; a frame past
    an episode's own end is not its real outcome. The expert never opens
    the grip, and the reward fires once the held object is within the
    success radius of the target: every episode is spurious, although the
    zero-action padding of the shorter ones (an open command) releases their
    object there."""
    env = PickPlace2D()

    class NoRelease(ExpertPolicy):
        def sample(self, params, obs, task, noise):
            chunks, logps = super().sample(params, obs, task, noise)
            chunks[..., 2] = 1.0
            return chunks, logps

    held_at_target = lambda frame, task: int(
        frame[7] > 0.5 and np.linalg.norm(frame[3:5] - frame[5:7]) <= env.success_radius)
    wm = OracleWorldModel(env)
    keys = [(9, i) for i in range(12)]
    starts = np.array([env.reset_state(TaskSpec(2), derive_rng(*key, 0)) for key in keys])
    _, histories = _roll_group(NoRelease(env, H), {}, wm, as_scorer(held_at_target),
                               [TaskSpec(2)] * 12, starts, keys, 64, H)
    assert len({len(h) for h in histories}) > 2  # the batch replay pads
    stats = hallucination_rate(NoRelease(env, H), {}, wm, held_at_target, env, TaskSpec(2),
                               12, 64, H, seed=9)
    assert stats == {"rate": 1.0, "spurious": 1.0, "missed": 0.0, "n": 12}


def test_hallucination_decomposition_sums():
    env = ReachPoint()
    policy, params = make_policy(env, init_log_std=0.0)
    wm = FrozenWm()
    coin = lambda frame, task: int(frame[0] > 0.5)
    stats = hallucination_rate(policy, params, wm, coin, env, TaskSpec(1),
                               16, T, H, seed=6)
    assert stats["rate"] == stats["spurious"] + stats["missed"]
    assert 0.0 <= stats["rate"] <= 1.0


def test_hallucination_rejects_zero_trials():
    env = ReachPoint()
    policy, params = make_policy(env)
    with pytest.raises(ValueError):
        hallucination_rate(policy, params, OracleWorldModel(env),
                           lambda f, t: 0, env, TaskSpec(0), 0, T, H, seed=7)


def test_hallucination_seed_deterministic():
    env = ReachPoint()
    policy, params = make_policy(env, init_log_std=0.0)
    wm = FrozenWm()
    fn = lambda frame, task: int(frame[0] > 0.5)
    a = hallucination_rate(policy, params, wm, fn, env, TaskSpec(0), 8, T, H, seed=8)
    b = hallucination_rate(policy, params, wm, fn, env, TaskSpec(0), 8, T, H, seed=8)
    assert a == b


# -- horizon error ---------------------------------------------------------------------


def test_horizon_error_oracle_exactly_zero():
    env = PickPlace2D()
    policy, params = make_policy(env, init_log_std=-0.5)
    wm = OracleWorldModel(env)
    curve = horizon_error(wm, policy, params, env, TaskSpec(0), [8, 16, 32],
                          4, T, H, seed=9)
    assert [h for h, _ in curve] == [8, 16, 32]
    assert all(e == 0.0 for _, e in curve)


def test_horizon_error_oracle_derives_no_model_stream(monkeypatch):
    """An oracle reads no noise, so its replay derives no (seed, i, 2)
    stream: only the real rollout's n start and n policy streams."""
    env = PickPlace2D()
    policy, params = make_policy(env)
    keys = []

    def counting(batch):
        keys.extend(batch)
        return derive_rngs(batch)

    monkeypatch.setattr(evalx, "derive_rngs", counting)
    monkeypatch.setattr(rollout, "derive_rngs", counting)
    horizon_error(OracleWorldModel(env), policy, params, env, TaskSpec(0),
                  [8, 16], 3, T, H, seed=9)
    assert keys == [(9, i, 0) for i in range(3)] + [(9, i, 1) for i in range(3)]


def test_horizon_error_frozen_model_grows():
    env = ReachPoint()

    class DriftPolicy:
        flat = H * env.action_dim

        def sample(self, params, obs, task, noise):
            n = len(obs)
            return np.tile([env.step_cap, env.step_cap], (n, H, 1)), np.zeros(n)

    wm = FrozenWm()
    curve = horizon_error(wm, DriftPolicy(), {}, env, TaskSpec(3), [4, 8], 3,
                          T, H, seed=10)
    errs = [e for _, e in curve]
    assert all(e >= 0.0 for e in errs)
    assert errs[0] > 0.0
    # the drifting agent walks away from the frozen prediction monotonically
    assert errs[0] < errs[1]


def horizon_reference(wm, policy, params, env, task, horizons, n, seed):
    """horizon_error as a per-step loop: at every chunk step each episode
    draws its policy noise from derive_rng(seed, i, 1) and its model-replay
    noise from derive_rng(seed, i, 2), one row at a time."""
    depth, d = horizons[-1], env.state_dim
    policy_rngs = [derive_rng(seed, i, 1) for i in range(n)]
    model_rngs = [derive_rng(seed, i, 2) for i in range(n)]
    real, model = np.empty((n, depth + 1, d)), np.empty((n, depth + 1, d))
    real[:, 0] = model[:, 0] = [env.reset_state(task, derive_rng(seed, i, 0))
                                for i in range(n)]
    for now in range(0, depth, H):
        chunks, _ = policy.sample(params, real[:, now], np.full(n, task.task_id),
                                  np.array([rng.normal(size=policy.flat) for rng in policy_rngs]))
        real[:, now + 1:now + H + 1] = step_chunks(env, real[:, now], chunks)
        model[:, now + 1:now + H + 1] = wm.predict_chunk(
            model, np.arange(n), now + 1, task, chunks, np.array([rng.normal(size=H * d)
                                                                  for rng in model_rngs]))
    return [(h, float(np.mean([np.mean((r[h] - m[h]) ** 2) for r, m in zip(real, model)])))
            for h in horizons]


def test_horizon_error_matches_per_step_reference():
    """The whole-episode noise draws of horizon_error give, bit for bit, the
    curve of a loop that draws every chunk step's noise as it goes."""
    env = ReachPoint()
    policy, params = make_policy(env, init_log_std=-0.5)
    net = WmNet(env.state_dim, env.action_dim, env.n_tasks, horizon=H, context=2,
                width=32, act_emb_dim=8)
    wm = LearnedWorldModel(net, net.init(derive_rng(20)), steps=3)
    for task_id, seed in ((0, 13), (3, 14)):
        task = TaskSpec(task_id)
        curve = horizon_error(wm, policy, params, env, task, [4, 12, 24], 5, T, H, seed)
        assert curve == horizon_reference(wm, policy, params, env, task, [4, 12, 24], 5, seed)
        assert all(e > 0.0 for _, e in curve)


def test_horizon_error_seed_deterministic():
    env = ReachPoint()
    policy, params = make_policy(env, init_log_std=0.0)
    wm = FrozenWm()
    a = horizon_error(wm, policy, params, env, TaskSpec(0), [8, 16], 3, T, H, seed=12)
    b = horizon_error(wm, policy, params, env, TaskSpec(0), [8, 16], 3, T, H, seed=12)
    assert a == b


# -- report ------------------------------------------------------------------------------


def test_report_roundtrip(tmp_path):
    report = EvalReport(
        seeds=[0, 1, 2],
        checkpoint_hashes={"policy": "aa", "wm": "bb"},
        success_rate=0.75,
        sr_trials=20,
        hallucination={"rate": 0.1, "spurious": 0.1, "missed": 0.0, "n": 10},
        horizon_curve=[(8, 0.01), (16, 0.04)],
    ).validate()
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "curve.csv"
    report.write(json_path, csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "horizon,mse"
    assert lines[1].startswith("8,")
    again = EvalReport.from_json(json_path.read_text())
    assert again == report


def test_report_validation_rejects_bad_rates():
    with pytest.raises(ValueError):
        EvalReport(success_rate=1.5).validate()
    with pytest.raises(ValueError):
        EvalReport(horizon_curve=[(16, 0.1), (8, 0.2)]).validate()
    for bad in (EvalReport(hallucination={"rate": 0.5, "spurious": 7.0, "missed": 0.0}),
                EvalReport(hallucination={"rate": 0.5, "spurious": 0.5, "missed": -3.0}),
                EvalReport(hallucination={"rate": 0.5, "spurious": 0.5, "missed": 0.5,
                                          "n": 4}),
                EvalReport(hallucination={"rate": 0.5, "spurious": 0.25, "missed": 0.25,
                                          "n": -4}),
                EvalReport(hallucination={"rate": 0.5, "spurious": 0.25, "missed": 0.25,
                                          "n": 4.0}),
                EvalReport(hallucination={"rate": 0.5, "spurious": 0.25, "missed": 0.25}),
                EvalReport(success_rate=0.5, sr_trials=-5),
                EvalReport(horizon_curve=[(-8, 0.1), (0, 0.2)]),
                EvalReport(horizon_curve=[(0, 0.1)]),
                EvalReport(horizon_curve=[(8, -1e-3)])):
        with pytest.raises(ValueError):
            bad.validate()
    # a diverged model's NaN error is still a readable report
    EvalReport(horizon_curve=[(8, 0.1), (16, float("nan"))]).validate()
    # the rate is the sum of its parts up to rounding, as hallucination_rate writes it
    EvalReport(hallucination={"rate": 3 / 10, "spurious": 1 / 10, "missed": 2 / 10,
                              "n": 10}).validate()
