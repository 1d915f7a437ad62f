import numpy as np
import pytest

from wovr.core import StepRecord, TaskSpec, Trajectory, derive_rng
from wovr.grpo import (
    ChunkPolicy,
    GroupBatch,
    build_group,
    discounted_return,
    group_advantages,
    grpo_objective,
    grpo_update,
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
    return float(pol.logprob(params, pol.features(obs, task), np.reshape(chunk, -1)))


def one_step_traj(obs, chunk, reward, logp, task_id=0):
    step = StepRecord(np.asarray(obs, dtype=float), np.asarray(chunk, dtype=float).reshape(1, 1),
                      reward, logp, done=bool(reward))
    return Trajectory.build(TaskSpec(task_id), "initial", [step])


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


def test_sample_box_determinism_and_density_consistency():
    pol = ChunkPolicy(obs_dim=3, n_tasks=2, horizon=4, a_dim=2)
    params = pol.init(np.random.default_rng(1))
    obs = np.array([0.1, 0.2, 0.3])
    c1, lp1 = pol.sample(params, obs[None], TaskSpec(1), [derive_rng(9)])
    c2, lp2 = pol.sample(params, obs[None], TaskSpec(1), [derive_rng(9)])
    assert np.array_equal(c1, c2) and np.array_equal(lp1, lp2)
    assert c1.shape == (1, 4, 2) and lp1.shape == (1,)
    assert np.all(c1 >= pol.action_low) and np.all(c1 <= pol.action_high)
    # the stored density is the density of the stored (clipped) chunk; one row
    # takes numpy's vector path, so it is bit-identical to the 1-D logprob
    assert lp1[0] == logprob1(pol, params, obs, c1[0], TaskSpec(1))
    # batched rows draw per row: row 1 alone matches row 1 of the batch
    obs2 = np.stack([obs, -obs])
    cb, lpb = pol.sample(params, obs2, TaskSpec(1), [derive_rng(9), derive_rng(10)])
    c_alone, lp_alone = pol.sample(params, obs2[1:], TaskSpec(1), [derive_rng(10)])
    np.testing.assert_allclose(cb[1], c_alone[0], rtol=1e-9)
    assert lpb[1] == pytest.approx(lp_alone[0], rel=1e-9)
    np.testing.assert_allclose(cb[0], c1[0], rtol=1e-9)


def test_log_std_clamped():
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1)
    params = pol.init(np.random.default_rng(0))
    params["pi.log_std"][:] = 9.0
    assert np.all(pol.log_std(params) == 2.0)
    pol.clamp(params)
    assert np.all(params["pi.log_std"] == 2.0)


def test_discounted_return_examples():
    t1 = one_step_traj([0.0, 0.0], [[0.1]], reward=1, logp=0.0)
    assert discounted_return(t1, 1.0) == 1.0
    steps = [
        StepRecord(np.zeros(2), np.zeros((1, 1)), 0, 0.0, False),
        StepRecord(np.zeros(2), np.zeros((1, 1)), 0, 0.0, False),
        StepRecord(np.zeros(2), np.zeros((1, 1)), 1, 0.0, True),
    ]
    t3 = Trajectory.build(TaskSpec(0), "initial", steps)
    assert discounted_return(t3, 0.99) == pytest.approx(0.9801, abs=1e-12)
    t0 = Trajectory.build(TaskSpec(0), "initial", steps[:2])
    assert discounted_return(t0, 0.5) == 0.0
    with pytest.raises(ValueError):
        discounted_return(t1, 0.0)


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


def test_clipped_term_table():
    """Each member's term is min(rho A, clip(rho, 1-eps, 1+eps) A)."""
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(6,))
    params = pol.init(np.random.default_rng(3))

    def objective(rho_pos, rho_neg):
        group = pinned_ratio_group(pol, params, rho_pos, rho_neg)
        return float(grpo_objective(pol, params, [group], clip_eps=0.2).data)

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
    return build_group(trajs, gamma=1.0)


def test_objective_collapses_to_mean_advantage_at_rho_one():
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(6,))
    params = pol.init(np.random.default_rng(2))
    group = bandit_group(pol, params, [(0.5, 1), (-0.5, 0), (0.2, 0), (-0.1, 1)])
    obj = grpo_objective(pol, params, [group], clip_eps=0.2)
    assert float(obj.data) == pytest.approx(group.advantages.mean(), abs=1e-12)


def test_mask_completeness_objective_and_gradient():
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(6,))
    params = pol.init(np.random.default_rng(4))
    obs = np.array([0.3, 0.7])
    rng = np.random.default_rng(8)

    def traj_with_tail(n_tail):
        steps = [
            StepRecord(obs, np.array([[0.4]]), 0, logprob1(pol, params, obs, [[0.4]]), False),
            StepRecord(obs, np.array([[-0.2]]), 1, logprob1(pol, params, obs, [[-0.2]]), False),
        ]
        for _ in range(n_tail):  # junk beyond valid_len
            junk_obs = rng.normal(size=2)
            junk_chunk = rng.normal(size=(1, 1))
            steps.append(StepRecord(junk_obs, junk_chunk, 0, float(rng.normal()), False))
        return Trajectory.build(TaskSpec(0), "initial", steps)

    def failed():
        return Trajectory.build(
            TaskSpec(0), "initial",
            [StepRecord(obs, np.array([[0.9]]), 0,
                        logprob1(pol, params, obs, [[0.9]]), False)],
        )

    g_clean = build_group([traj_with_tail(0), failed()], 1.0)
    g_tail = build_group([traj_with_tail(3), failed()], 1.0)
    assert g_clean.trajectories[0].valid_len == g_tail.trajectories[0].valid_len == 2

    def objective_and_grads(groups):
        return value_and_grad(lambda p: grpo_objective(pol, p, groups, 0.2), params)

    v1, grads1 = objective_and_grads([g_clean])
    v2, grads2 = objective_and_grads([g_tail])
    assert v1 == v2
    for k in grads1:
        np.testing.assert_array_equal(grads1[k], grads2[k])


def test_length_normalization_constant_per_step():
    # all-fail trajectories of different lengths get identical weight in total
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(6,))
    params = pol.init(np.random.default_rng(6))
    obs = np.array([0.1, -0.4])

    def fail_traj(n):
        steps = [
            StepRecord(obs, np.array([[0.3]]), 0,
                       logprob1(pol, params, obs, [[0.3]]), False)
            for _ in range(n)
        ]
        return Trajectory.build(TaskSpec(0), "initial", steps)

    win = one_step_traj(obs, [[0.2]], 1, logprob1(pol, params, obs, [[0.2]]))
    short = build_group([win, fail_traj(1)], 1.0)
    long = build_group([win, fail_traj(6)], 1.0)
    # identical per-step terms, so length normalization makes contributions equal
    o_short = float(grpo_objective(pol, params, [short], 0.2).data)
    o_long = float(grpo_objective(pol, params, [long], 0.2).data)
    assert o_short == pytest.approx(o_long, abs=1e-12)


def test_objective_gradcheck_vs_finite_differences():
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=2, a_dim=1, hidden=(4,))
    params = pol.init(np.random.default_rng(7))
    obs_rng = np.random.default_rng(11)

    def two_step_traj(reward_pattern):
        steps = []
        for r in reward_pattern:
            obs = obs_rng.normal(size=2)
            chunk = obs_rng.normal(size=(2, 1))
            lp = logprob1(pol, params, obs, chunk) + obs_rng.normal() * 0.1
            steps.append(StepRecord(obs, chunk, r, lp, False))
        return Trajectory.build(TaskSpec(0), "initial", steps)

    group = build_group([two_step_traj([0, 1]), two_step_traj([0, 0])], 0.97)
    _, grads = value_and_grad(lambda p: grpo_objective(pol, p, [group], 0.2), params)

    eps = 1e-5
    for k in ("pi.w0", "pi.log_std"):
        fd = np.zeros_like(params[k])
        it = np.nditer(fd, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            for sign in (1, -1):
                shifted = {kk: vv.copy() for kk, vv in params.items()}
                shifted[k][idx] += sign * eps
                val = float(grpo_objective(pol, shifted, [group], 0.2).data)
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
    new_params, _, _ = grpo_update(pol, params, [group], 0.2, inner_epochs=2)
    for k in params:
        np.testing.assert_array_equal(new_params[k], params[k])


def test_update_aborts_on_nonfinite_and_restores():
    pol = ChunkPolicy(obs_dim=2, n_tasks=1, horizon=1, a_dim=1, hidden=(4,))
    params = pol.init(np.random.default_rng(10))
    # a failed trajectory with absurdly small behavior density blows the
    # ratio up to +inf, and its negative advantage drags the objective to -inf
    broken = one_step_traj([0.0, 0.0], [[0.3]], 0, -1e308)
    ok = one_step_traj([0.0, 0.0], [[0.1]], 1, 0.0)
    group = build_group([broken, ok], 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        new_params, _, logs = grpo_update(pol, params, [group], 0.2, inner_epochs=1)
    assert logs[-1].get("aborted")
    for k in params:
        np.testing.assert_array_equal(new_params[k], params[k])
