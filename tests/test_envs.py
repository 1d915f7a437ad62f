import numpy as np
import pytest

from wovr.core import TaskSpec, derive_rng
from wovr.envs import (CountingEnv, PickPlace2D, ReachPoint, get_env,
                       replay_frames, scripted_demo)


@pytest.fixture
def env():
    return PickPlace2D()


def mk_state(gripper, grip, obj, target, held):
    return np.array([*gripper, grip, *obj, *target, held], dtype=np.float64)


def test_reset_deterministic_and_seed_sensitive(env):
    s1 = env.reset_state(TaskSpec(2), derive_rng(5))
    s2 = env.reset_state(TaskSpec(2), derive_rng(5))
    s3 = env.reset_state(TaskSpec(2), derive_rng(6))
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1[3:5], s3[3:5])
    assert s1[2] == 0.0 and s1[7] == 0.0  # open, nothing held


def test_reset_rejects_unknown_task(env):
    with pytest.raises(ValueError):
        env.reset_state(TaskSpec(4), derive_rng(0))
    with pytest.raises(KeyError):
        get_env("nonexistent")


def test_zero_action_is_fixed_point(env):
    state = mk_state([0.3, 0.3], 0.0, [0.6, 0.6], [0.25, 0.25], 0.0)
    nxt = env.step(state, [0.0, 0.0, -1.0])
    assert np.array_equal(nxt, state)
    assert not env.is_success(nxt)


def test_step_is_pure(env):
    state = env.reset_state(TaskSpec(0), derive_rng(1))
    action = np.array([0.03, -0.02, -1.0])
    a = env.step(state, action)
    b = env.step(state, action)
    assert isinstance(a, np.ndarray) and a.shape == (env.state_dim,)
    assert np.array_equal(a, b)


def test_motion_capped_and_clamped(env):
    state = mk_state([0.98, 0.5], 0.0, [0.2, 0.2], [0.25, 0.25], 0.0)
    nxt = env.step(state, [1.0, -1.0, -1.0])
    assert nxt[0] == 1.0  # 0.98 + 0.05 clamped to the box
    assert nxt[1] == 0.45
    for _ in range(30):
        state = env.step(state, [2.0, 2.0, -1.0])
    assert np.all(state[0:2] <= 1.0)


def test_grasp_within_radius(env):
    state = mk_state([0.5, 0.5], 0.0, [0.53, 0.5], [0.25, 0.25], 0.0)
    nxt = env.step(state, [0.0, 0.0, 1.0])
    assert nxt[7] == 1.0 and nxt[2] == 1.0
    assert np.array_equal(nxt[3:5], nxt[0:2])  # object snapped to gripper


def test_no_grasp_outside_radius(env):
    state = mk_state([0.5, 0.5], 0.0, [0.56, 0.5], [0.25, 0.25], 0.0)
    nxt = env.step(state, [0.0, 0.0, 1.0])
    assert nxt[7] == 0.0


def test_held_object_tracks_gripper(env):
    state = mk_state([0.5, 0.5], 1.0, [0.5, 0.5], [0.25, 0.25], 1.0)
    nxt = env.step(state, [-0.05, -0.03, 1.0])
    assert np.array_equal(nxt[3:5], nxt[0:2])
    assert nxt[7] == 1.0


def test_release_at_target_is_success(env):
    state = mk_state([0.26, 0.25], 1.0, [0.26, 0.25], [0.25, 0.25], 1.0)
    nxt = env.step(state, [0.0, 0.0, -1.0])
    assert env.is_success(nxt)
    assert nxt[7] == 0.0 and nxt[2] == 0.0


def test_release_far_from_target_not_success(env):
    state = mk_state([0.6, 0.6], 1.0, [0.6, 0.6], [0.25, 0.25], 1.0)
    nxt = env.step(state, [0.0, 0.0, -1.0])
    assert not env.is_success(nxt)
    assert nxt[7] == 0.0
    assert np.array_equal(nxt[3:5], [0.6, 0.6])  # released in place


def test_is_success_boundaries(env):
    at = mk_state([0.1, 0.1], 0.0, [0.25, 0.25], [0.25, 0.25], 0.0)
    assert env.is_success(at)
    near = mk_state([0.1, 0.1], 0.0, [0.25 + 0.051, 0.25], [0.25, 0.25], 0.0)
    assert not env.is_success(near)
    edge = mk_state([0.1, 0.1], 0.0, [0.30, 0.25], [0.25, 0.25], 0.0)
    assert env.is_success(edge)  # exactly at the radius counts
    held = mk_state([0.25, 0.25], 1.0, [0.25, 0.25], [0.25, 0.25], 1.0)
    assert not env.is_success(held)  # must release first


def test_step_rejects_bad_actions(env):
    state = env.reset_state(TaskSpec(0), derive_rng(0))
    with pytest.raises(ValueError):
        env.step(state, [0.0, 0.0])
    with pytest.raises(ValueError):
        env.step(state, [np.nan, 0.0, 0.0])


def test_expert_succeeds_on_every_task_noise_free(env):
    for task_id in range(env.n_tasks):
        for seed in range(5):
            traj = scripted_demo(env, TaskSpec(task_id), seed, noise_level=0.0)
            assert traj.success, f"expert failed task {task_id} seed {seed}"
            assert traj.steps[-1].reward == 1  # the demo ends at its reward step


def test_demo_deterministic(env):
    t1 = scripted_demo(env, TaskSpec(1), 3, noise_level=0.4)
    t2 = scripted_demo(env, TaskSpec(1), 3, noise_level=0.4)
    assert t1 == t2


def test_demo_noise_changes_outcome_distribution(env):
    outcomes = [scripted_demo(env, TaskSpec(0), s, noise_level=0.6).success for s in range(30)]
    assert not all(outcomes)  # heavy noise breaks the controller sometimes


def test_demo_actions_respect_box(env):
    traj = scripted_demo(env, TaskSpec(2), 11, noise_level=1.0)
    for step in traj.steps:
        assert np.all(step.chunk >= env.action_low)
        assert np.all(step.chunk <= env.action_high)


def test_demo_valid_len_matches_first_success(env):
    traj = scripted_demo(env, TaskSpec(0), 2, noise_level=0.0)
    rewards = [s.reward for s in traj.steps]
    assert rewards.index(1) + 1 == traj.valid_len


def test_reachpoint_expert_and_dynamics():
    env = ReachPoint()
    state = env.reset_state(TaskSpec(3), derive_rng(0))
    for _ in range(64):
        state = env.step(state, env.expert_action(state))
        if env.is_success(state):
            break
    assert env.is_success(state)


def test_counting_env_tracks_steps_and_resets():
    env = CountingEnv(PickPlace2D())
    state = env.reset_state(TaskSpec(0), derive_rng(0))
    for _ in range(7):
        state = env.step(state, [0.01, 0.0, -1.0])
    assert env.steps == 7 and env.resets == 1
    assert env.state_dim == 8  # attribute delegation


def test_counting_env_sees_demo_steps():
    env = CountingEnv(PickPlace2D())
    traj = scripted_demo(env, TaskSpec(0), 0, noise_level=0.0)
    executed = sum(1 for _ in traj.steps)
    assert env.resets == 1
    # chunks stop early at success, so steps < chunks * 8 but >= chunks
    assert executed * 1 <= env.steps <= executed * 8


def test_replay_frames_reconstructs_demo_exactly(env):
    traj = scripted_demo(env, TaskSpec(2), 5, noise_level=0.2)
    counted = CountingEnv(PickPlace2D())
    ep = replay_frames(counted, traj)
    assert ep.states.shape[0] == ep.actions.shape[0] + 1
    np.testing.assert_array_equal(ep.states[0], traj.steps[0].obs)
    if traj.success:
        assert env.is_success(ep.states[-1])
        assert not any(env.is_success(s) for s in ep.states[:-1])
    # replay is pure recomputation of stored data, but it does step the env
    assert counted.steps == ep.actions.shape[0] and counted.resets == 0
    ep2 = replay_frames(env, traj)
    assert ep == ep2


def test_replay_frames_matches_recorded_rollout(env):
    from wovr.grpo import ChunkPolicy
    from wovr.rollout import rollout_real

    policy = ChunkPolicy(env.state_dim, env.n_tasks, 8, env.action_dim)
    params = policy.init(derive_rng(21))
    trajs, eps = rollout_real(policy, params, env, TaskSpec(1), 4, 64, 8,
                              seed=9, record_frames=True)
    for traj, recorded in zip(trajs, eps):
        replayed = replay_frames(env, traj)
        np.testing.assert_array_equal(replayed.states, recorded.states)
        np.testing.assert_array_equal(replayed.actions, recorded.actions)


def test_replay_frames_rejects_empty_trajectory(env):
    from wovr.core import Trajectory

    with pytest.raises(ValueError):
        replay_frames(env, Trajectory(TaskSpec(0), "initial", []))
