import numpy as np
import pytest

from wovr import grpo, nn
from wovr.core import Steps, TaskSpec, Trajectory, derive_rng, task_features
from wovr.envs import ACTION_BOUND
from wovr.grpo import (
    ChunkPolicy,
    GroupBatch,
    build_group,
    group_advantages,
    grpo_objective,
    grpo_update,
    step_batch,
)
from wovr.nn import value_and_grad


def unit_policy():
    """H=1, a_dim=1 policy with zero mean and unit std, fully by hand."""
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(4,))
    params = pol.init(np.random.default_rng(0))
    for k in params:
        params[k] = np.zeros_like(params[k])
    return pol, params


def logprob1(pol, params, obs, chunk, task=TaskSpec(0)):
    """Density of one stored chunk at one observation (1-D rows in, a float out)."""
    return float(pol.logprob(params, task_features(obs, task, pol.n_tasks), np.reshape(chunk, -1)))


def traj_of(rows, task_id=0):
    """A trajectory of (obs, chunk, reward, logp_old) rows."""
    obs, chunks, rewards, logps = zip(*rows)
    return Trajectory(TaskSpec(task_id),
                      Steps(np.array(obs, dtype=float), np.array(chunks, dtype=float),
                            rewards, logps))


def one_step_traj(obs, chunk, reward, logp, task_id=0):
    return traj_of([(obs, np.reshape(chunk, (1, 1)), reward, logp)], task_id)


def test_logprob_analytic_standard_normal():
    pol, params = unit_policy()
    obs = np.array([0.3, -0.1])
    at_mean = logprob1(pol, params, obs, np.array([[0.0]]))
    assert at_mean == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)
    one_std = logprob1(pol, params, obs, np.array([[1.0]]))
    assert one_std == pytest.approx(at_mean - 0.5, abs=1e-12)


def test_logprob_integrates_to_one():
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(8,))
    params = pol.init(np.random.default_rng(3))
    obs = np.array([0.4, 0.9])
    mu = pol.mean(params, obs, TaskSpec(0))[0]
    sigma = np.exp(pol.log_std(params))[0]
    grid = np.linspace(mu - 8 * sigma, mu + 8 * sigma, 4001)
    dens = [np.exp(logprob1(pol, params, obs, np.array([[a]]))) for a in grid]
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)


def test_sample_determinism_and_density_consistency():
    pol = ChunkPolicy(obs_dim=3, n_tasks=2, horizon=4, a_dim=2)
    params = pol.init(np.random.default_rng(1))
    obs = np.array([0.1, 0.2, 0.3])
    # noise wide enough that the chunk leaves the env's action bound
    noise = 8.0 * derive_rng(9).normal(size=(1, pol.flat))
    c1, lp1 = pol.sample(params, obs[None], TaskSpec(1), noise)
    c2, lp2 = pol.sample(params, obs[None], TaskSpec(1), noise.copy())
    assert np.array_equal(c1, c2) and np.array_equal(lp1, lp2)
    assert c1.shape == (1, 4, 2) and lp1.shape == (1,)
    assert np.abs(c1).max() > ACTION_BOUND  # sample clips nothing
    # the stored density is the density of the stored chunk; one row
    # takes numpy's vector path, so it is bit-identical to the 1-D logprob
    assert lp1[0] == logprob1(pol, params, obs, c1[0], TaskSpec(1))
    # row i reads noise row i only: row 1 alone matches row 1 of the batch
    obs2 = np.stack([obs, -obs])
    noise2 = np.concatenate([noise, derive_rng(10).normal(size=(1, pol.flat))])
    cb, lpb = pol.sample(params, obs2, TaskSpec(1), noise2)
    c_alone, lp_alone = pol.sample(params, obs2[1:], TaskSpec(1), noise2[1:])
    np.testing.assert_allclose(cb[1], c_alone[0], rtol=1e-9)
    assert lpb[1] == pytest.approx(lp_alone[0], rel=1e-9)
    np.testing.assert_allclose(cb[0], c1[0], rtol=1e-9)
    # the chunk is mean + std * noise, as drawn
    mu = pol.mean(params, obs2, TaskSpec(1))
    assert np.array_equal(cb.reshape(2, -1), mu + np.exp(pol.log_std(params)) * noise2)


def test_sample_rejects_noise_of_another_shape():
    pol = ChunkPolicy(obs_dim=3, n_tasks=2, horizon=4, a_dim=2)
    params = pol.init(np.random.default_rng(1))
    obs = np.zeros((2, 3))
    for shape in ((2, pol.flat - 1), (1, pol.flat), (2, 4, 2), (pol.flat,)):
        with pytest.raises(ValueError, match="noise must be"):
            pol.sample(params, obs, TaskSpec(0), np.zeros(shape))


def test_log_std_clamped():
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1)
    params = pol.init(np.random.default_rng(0))
    params["pi.log_std"][:] = 9.0
    assert np.all(pol.log_std(params) == 2.0)
    pol.clamp(params)
    assert np.all(params["pi.log_std"] == 2.0)


def test_build_group_returns_are_episode_outcomes():
    """A return is 1.0 for an episode that ends at its reward step, whatever
    the step, and 0.0 for one without a reward."""
    t1 = one_step_traj([0.0, 0.0], [[0.1]], reward=1, logp=0.0)
    rows = [(np.zeros(2), np.zeros((1, 1)), r, 0.0) for r in (0, 0, 1)]
    group = build_group([t1, traj_of(rows), traj_of(rows[:2])])
    assert group.returns.tolist() == [1.0, 1.0, 0.0]
    np.testing.assert_allclose(group.advantages, [1 / 3, 1 / 3, -2 / 3], atol=1e-15)


def test_group_advantages_mean_subtraction():
    np.testing.assert_allclose(group_advantages([1, 0, 0, 1]), [0.5, -0.5, -0.5, 0.5])
    np.testing.assert_allclose(group_advantages([0.7, 0.7, 0.7]), [0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(group_advantages([0.9801, 0.0]), [0.49005, -0.49005], atol=1e-12)
    with pytest.raises(ValueError):
        group_advantages([1.0])


def test_group_advantages_location_invariance_exact():
    base = np.array([1.0, 0.0, 1.0, 0.0])
    np.testing.assert_array_equal(group_advantages(base), group_advantages(base + 1.0))


def test_advantages_zero_sum_within_rounding():
    rng = np.random.default_rng(5)
    for _ in range(20):
        returns = rng.uniform(0, 1, size=8)
        advs = group_advantages(returns)
        assert abs(advs.sum()) <= 1e-12 * 8 * max(1.0, np.abs(returns).max())


def test_group_batch_rejects_nonzero_sum():
    trajs = [one_step_traj([0, 0], [[0.0]], 1, 0.0), one_step_traj([0, 0], [[0.0]], 0, 0.0)]
    with pytest.raises(ValueError):
        GroupBatch(trajs, np.array([1.0, 0.0]), np.array([0.6, -0.5]))


def pinned_ratio_group(pol, params, rho_pos, rho_neg):
    """Two one-step members with advantages +1 and -1 whose ratios are pinned
    at rho_pos and rho_neg by storing logp_old = logprob - log(rho)."""
    obs = np.array([0.0, 0.0])
    trajs = [one_step_traj(obs, [[chunk]], 0,
                           logprob1(pol, params, obs, [[chunk]]) - np.log(rho))
             for chunk, rho in ((0.3, rho_pos), (-0.3, rho_neg))]
    return GroupBatch(trajs, np.array([1.0, -1.0]), np.array([1.0, -1.0]))


def test_objective_clips_each_member_term():
    """Each member's term is min(rho A, clip(rho, 1-eps, 1+eps) A)."""
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(6,))
    params = pol.init(np.random.default_rng(3))

    def objective(rho_pos, rho_neg):
        group = pinned_ratio_group(pol, params, rho_pos, rho_neg)
        return float(grpo_objective(pol, params, step_batch(pol, [group]), clip_eps=0.2).data)

    # the objective is the two terms averaged over the group's trajectories
    for (rho_pos, rho_neg), (term_pos, term_neg) in [
        ((1.0, 1.0), (1.0, -1.0)),   # rho = 1: the advantage itself
        ((1.5, 1.0), (1.2, -1.0)),   # A > 0, rho past 1 + eps: clipped
        ((1.0, 0.5), (1.0, -0.8)),   # A < 0, rho below 1 - eps: clipped
        ((0.5, 1.0), (0.5, -1.0)),   # A > 0, small rho: the unclipped min
        ((1.0, 1.5), (1.0, -1.5)),   # A < 0, large rho: the unclipped, more negative
    ]:
        assert objective(rho_pos, rho_neg) == pytest.approx(0.5 * (term_pos + term_neg),
                                                            abs=1e-12)
    # magnitude bound for A >= 0: the term never exceeds (1 + eps) A
    rng = np.random.default_rng(0)
    for _ in range(100):
        term_pos = 2.0 * objective(float(rng.uniform(0.01, 5.0)), 1.0) + 1.0
        assert term_pos <= 1.2 + 1e-12


def bandit_group(pol, params, chunks_rewards):
    trajs = []
    obs = np.array([0.0, 0.0])
    for chunk, reward in chunks_rewards:
        lp = logprob1(pol, params, obs, np.array([[chunk]]))
        trajs.append(one_step_traj(obs, [[chunk]], reward, lp))
    return build_group(trajs)


def test_objective_collapses_to_mean_advantage_at_rho_one():
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(6,))
    params = pol.init(np.random.default_rng(2))
    group = bandit_group(pol, params, [(0.5, 1), (-0.5, 0), (0.2, 0), (-0.1, 1)])
    obj = grpo_objective(pol, params, step_batch(pol, [group]), clip_eps=0.2)
    assert float(obj.data) == pytest.approx(group.advantages.mean(), abs=1e-12)


def test_length_normalization_constant_per_step():
    # all-fail trajectories of different lengths get identical weight in total
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(6,))
    params = pol.init(np.random.default_rng(6))
    obs = np.array([0.1, -0.4])

    def fail_traj(n):
        return traj_of([(obs, [[0.3]], 0, logprob1(pol, params, obs, [[0.3]]))] * n)

    win = one_step_traj(obs, [[0.2]], 1, logprob1(pol, params, obs, [[0.2]]))
    short = build_group([win, fail_traj(1)])
    long = build_group([win, fail_traj(6)])
    # identical per-step terms, so length normalization makes contributions equal
    o_short = float(grpo_objective(pol, params, step_batch(pol, [short]), 0.2).data)
    o_long = float(grpo_objective(pol, params, step_batch(pol, [long]), 0.2).data)
    assert o_short == pytest.approx(o_long, abs=1e-12)


def test_objective_gradcheck_vs_finite_differences():
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=2, a_dim=1, hidden=(4,))
    params = pol.init(np.random.default_rng(7))
    obs_rng = np.random.default_rng(11)

    def two_step_traj(reward_pattern):
        rows = []
        for r in reward_pattern:
            obs = obs_rng.normal(size=2)
            chunk = obs_rng.normal(size=(2, 1))
            lp = logprob1(pol, params, obs, chunk) + obs_rng.normal() * 0.1
            rows.append((obs, chunk, r, lp))
        return traj_of(rows)

    group = build_group([two_step_traj([0, 1]), two_step_traj([0, 0])])
    batch = step_batch(pol, [group])
    _, grads = value_and_grad(lambda p: grpo_objective(pol, p, batch, 0.2), params)

    eps = 1e-5
    for k in ("pi.w0", "pi.log_std"):
        fd = np.zeros_like(params[k])
        it = np.nditer(fd, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            for sign in (1, -1):
                shifted = {kk: vv.copy() for kk, vv in params.items()}
                shifted[k][idx] += sign * eps
                val = float(grpo_objective(pol, shifted, batch, 0.2).data)
                fd[idx] += sign * val / (2 * eps)
        np.testing.assert_allclose(grads[k], fd, rtol=1e-4, atol=1e-8)


def test_update_increases_winning_chunk_probability():
    pol, params = unit_policy()
    group = bandit_group(pol, params, [(0.5, 1), (-0.5, 0)])
    obs = np.array([0.0, 0.0])
    before = logprob1(pol, params, obs, [[0.5]])
    new_params, _, logs = grpo_update(pol, params, [group], 0.2, inner_epochs=1, lr=1e-2)
    after = logprob1(pol, new_params, obs, [[0.5]])
    assert after > before
    assert logs and "objective" in logs[0]


def test_update_zero_advantages_is_identity():
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(4,))
    params = pol.init(np.random.default_rng(9))
    group = bandit_group(pol, params, [(0.1, 1), (0.4, 1)])  # equal returns
    new_params, _, _ = grpo_update(pol, params, [group], 0.2, inner_epochs=2, lr=3e-4)
    for k in params:
        np.testing.assert_array_equal(new_params[k], params[k])


def test_update_aborts_on_nonfinite_and_restores():
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(4,))
    params = pol.init(np.random.default_rng(10))
    # a failed trajectory with absurdly small behavior density blows the
    # ratio up to +inf, and its negative advantage drags the objective to -inf
    broken = one_step_traj([0.0, 0.0], [[0.3]], 0, -1e308)
    ok = one_step_traj([0.0, 0.0], [[0.1]], 1, 0.0)
    group = build_group([broken, ok])
    with np.errstate(over="ignore", invalid="ignore"):
        new_params, _, logs = grpo_update(pol, params, [group], 0.2, inner_epochs=1, lr=3e-4)
    assert logs[-1].get("aborted")
    for k in params:
        np.testing.assert_array_equal(new_params[k], params[k])


def test_update_abort_in_a_later_epoch_rolls_back_the_optimizer(monkeypatch):
    """An abort in inner epoch 2 hands back the entry params and the entry
    optimizer state: its step count and every m and v array, though epoch 1
    had already stepped Adam."""
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(4,))
    params = pol.init(np.random.default_rng(14))
    winner = bandit_group(pol, params, [(0.5, 1), (-0.5, 0)])
    warm_params, warm, _ = grpo_update(pol, params, [winner], 0.2, inner_epochs=1, lr=1e-2)
    entry = {"step": warm["step"], "m": {k: v.copy() for k, v in warm["m"].items()},
             "v": {k: v.copy() for k, v in warm["v"].items()}}
    calls = []

    def second_nan(*args):
        calls.append(1)
        obj = grpo_objective(*args)
        return obj * np.nan if len(calls) == 2 else obj

    monkeypatch.setattr(grpo, "grpo_objective", second_nan)
    group = bandit_group(pol, warm_params, [(0.4, 1), (-0.3, 0)])
    new_params, state, logs = grpo_update(pol, warm_params, [group], 0.2, inner_epochs=2,
                                          lr=1e-2, opt_state=warm)
    assert len(calls) == 2 and "objective" in logs[0] and logs[-1] == {"aborted": True}
    for k in params:
        np.testing.assert_array_equal(new_params[k], warm_params[k])
    assert state["step"] == entry["step"]
    for moment in ("m", "v"):
        assert state[moment].keys() == entry[moment].keys()
        for k in entry[moment]:
            np.testing.assert_array_equal(state[moment][k], entry[moment][k])


def test_step_batch_rows_match_per_step_reference():
    pol = ChunkPolicy(obs_dim=2, n_tasks=2, horizon=2, a_dim=1, hidden=(4,))
    rng = np.random.default_rng(13)

    def traj(task_id, rewards):
        n = len(rewards)
        return Trajectory(TaskSpec(task_id),
                          Steps(rng.normal(size=(n, 2)), rng.normal(size=(n, 2, 1)), rewards,
                                rng.normal(size=n)))

    groups = [build_group([traj(0, [0, 1]), traj(0, [0, 0, 0]), traj(0, [])]),
              build_group([traj(1, [1]), traj(1, [0, 0, 1])])]
    # one row per recorded step, in trajectory order
    rows = [(t, adv, j) for g in groups for t, adv in zip(g.trajectories, g.advantages)
            for j in range(len(t.steps))]
    assert len(rows) == 2 + 3 + 0 + 1 + 3
    n_traj = 5
    reference = (
        [task_features(t.steps.obs[j], t.task, pol.n_tasks) for t, _, j in rows],
        [t.steps.chunk[j].reshape(-1) for t, _, j in rows],
        [t.steps.logp_old[j] for t, _, j in rows],
        [1.0 / (n_traj * len(t.steps)) for t, _, _ in rows],
        [adv for _, adv, _ in rows],
    )
    batch = step_batch(pol, groups)
    for got, want in zip(batch, reference):
        np.testing.assert_array_equal(got, np.array(want))
    # every member with a valid step weighs 1 / n_traj in total
    assert batch.weights.sum() == pytest.approx(4 / n_traj, abs=1e-15)


def test_update_without_valid_steps_only_steps_adam():
    """Every member aborted on its first chunk step: there is no row to fit."""
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(4,))
    params = pol.init(np.random.default_rng(12))
    none = Steps(np.zeros((0, 2)), np.zeros((0, 1, 1)), [], [])
    empty = [build_group([Trajectory(TaskSpec(0), none) for _ in range(3)])
             for _ in range(2)]
    assert step_batch(pol, empty) is None
    new_params, opt, logs = grpo_update(pol, params, empty, 0.2, inner_epochs=3, lr=3e-4)
    for k in params:
        np.testing.assert_array_equal(new_params[k], params[k])
    assert opt["step"] == 3
    assert logs == [{"mean_ratio": 1.0, "clip_fraction": 0.0, "n_steps": 0,
                     "objective": 0.0}] * 3
    # a warm optimizer steps on a zero gradient, so its momentum carries on
    winner = bandit_group(pol, params, [(0.5, 1), (-0.5, 0)])
    warm_params, warm, _ = grpo_update(pol, params, [winner], 0.2, inner_epochs=1, lr=1e-2)
    ref_state = {"step": warm["step"], "m": dict(warm["m"]), "v": dict(warm["v"])}
    zero = {k: np.zeros_like(v) for k, v in params.items()}
    ref = warm_params
    for _ in range(2):
        ref = pol.clamp(nn.adam_step(ref, zero, ref_state, lr=1e-2))
    moved, warm, _ = grpo_update(pol, warm_params, empty, 0.2, inner_epochs=2, opt_state=warm,
                                 lr=1e-2)
    assert warm["step"] == ref_state["step"] == 3
    for k in params:
        np.testing.assert_array_equal(moved[k], ref[k])
    assert any(not np.array_equal(moved[k], warm_params[k]) for k in params)
