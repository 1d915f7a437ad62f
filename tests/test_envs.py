import itertools

import numpy as np
import pytest

from wovr.core import (ENV_NAMES, FrameEpisode, Steps, TaskSpec, Trajectory, derive_rng,
                       derive_rngs)
from wovr.envs import (ACTION_BOUND, CountingEnv, PickPlace2D, ReachPoint, get_env,
                       replay_episodes, replay_frames, scripted_demo, step_chunks)


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


# each task's target, as the envs place it
TARGETS = [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]


def per_episode_reset(env, task_id: int, rng) -> np.ndarray:
    """The reset of one episode as it was written before resets ran over a
    batch: one uniform call per drawn position, in state order."""
    if env.name == "pickplace2d":
        gripper = 0.5 + rng.uniform(-0.05, 0.05, size=2)
        obj = 0.5 + rng.uniform(-0.12, 0.12, size=2)
        return np.array([*gripper, 0.0, *obj, *TARGETS[task_id], 0.0])
    agent = 0.5 + rng.uniform(-0.12, 0.12, size=2)
    return np.array([*agent, *TARGETS[task_id]])


@pytest.mark.parametrize("name", ENV_NAMES)
def test_reset_states_equal_the_per_episode_reset_bit_for_bit(name):
    env = get_env(name)
    n = 1500
    task_ids = np.random.default_rng(4).permutation(np.arange(n) % env.n_tasks)
    keys = [(seed, 0) for seed in range(n)]
    want = np.array([per_episode_reset(env, t, rng)
                     for t, rng in zip(task_ids.tolist(), derive_rngs(keys))])
    got = env.reset_states(task_ids, derive_rngs(keys))
    assert got.shape == (n, env.state_dim) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    for t in range(env.n_tasks):  # B = 1, as a batch and as reset_state
        one = env.reset_states([t], [derive_rng(t, 9)])
        assert one.shape == (1, env.state_dim)
        assert one.tobytes() == per_episode_reset(env, t, derive_rng(t, 9)).tobytes()
        assert (env.reset_state(TaskSpec(t), derive_rng(t, 9)).tobytes()
                == one[0].tobytes())


@pytest.mark.parametrize("name", ENV_NAMES)
def test_reset_states_rejects_a_bad_task_anywhere_in_the_batch(name):
    env = get_env(name)
    for ids in ([4, 0, 1], [0, 1, env.n_tasks], [2, -1, 3], [7]):
        with pytest.raises(ValueError, match="registered for"):
            env.reset_states(ids, derive_rngs([(i,) for i in range(len(ids))]))
    with pytest.raises(ValueError):  # one stream per task id
        env.reset_states([0, 1], [derive_rng(0)])


def test_counting_env_counts_one_reset_per_batch_row():
    env = CountingEnv(ReachPoint())
    keys = [(k,) for k in range(5)]
    states = env.reset_states(np.arange(5) % 4, derive_rngs(keys))
    assert env.resets == 5 and env.steps == 0
    assert np.array_equal(states, ReachPoint().reset_states(np.arange(5) % 4,
                                                            derive_rngs(keys)))
    env.reset_state(TaskSpec(1), derive_rng(0))
    assert env.resets == 6


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
    assert env.is_success(at) is True
    near = mk_state([0.1, 0.1], 0.0, [0.25 + 0.051, 0.25], [0.25, 0.25], 0.0)
    assert not env.is_success(near)
    edge = mk_state([0.1, 0.1], 0.0, [0.30, 0.25], [0.25, 0.25], 0.0)
    assert env.is_success(edge)  # exactly at the radius counts
    held = mk_state([0.25, 0.25], 1.0, [0.25, 0.25], [0.25, 0.25], 1.0)
    assert not env.is_success(held)  # must release first


def test_step_rejects_bad_actions(env):
    state = env.reset_state(TaskSpec(0), derive_rng(0))
    for bad in ([0.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0, -np.inf],
                [[0.0, 0.0, 1.0]], [0.0, 0.0, 1.0, 0.0]):
        with pytest.raises(ValueError):
            env.step(state, bad)
    with pytest.raises(ValueError):
        ReachPoint().step(np.zeros(4), [0.0, -np.inf])


# Per-state reference kernels on numpy arrays (np.clip, np.linalg.norm), kept
# from when an action's motion entries were position deltas, capped at
# +-step_cap. The kernels in wovr.envs read a motion entry in steps, so at
# action a they must reproduce a reference at reference_units(env, a) byte for
# byte, on one state and on every row of a batch, for |a| beyond the action
# bound too.


def reference_units(env, action):
    """The action in the reference's units: motion entries times step_cap,
    pickplace's grip command as it is."""
    out = np.array(action, dtype=np.float64)
    out[..., :2] *= env.step_cap
    return out


def check_action_reference(action, dim):
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (dim,):
        raise ValueError(f"action has shape {action.shape}, expected ({dim},)")
    if not np.all(np.isfinite(action)):
        raise ValueError("non-finite action")
    return action


def pickplace_step_reference(env, state, action):
    action = check_action_reference(action, env.action_dim)
    gripper = state[0:2].copy()
    obj = state[3:5].copy()
    target = state[5:7]
    held = state[7] > 0.5
    close_cmd = action[2] > 0.0
    gripper = np.clip(gripper + np.clip(action[:2], -env.step_cap, env.step_cap), 0.0, 1.0)
    if held:
        obj = gripper.copy()
    if close_cmd:
        if not held and np.linalg.norm(gripper - obj) <= env.grasp_radius:
            held = True
            obj = gripper.copy()
    else:
        held = False
    return np.array([*gripper, 1.0 if close_cmd else 0.0, *obj, *target, 1.0 if held else 0.0])


def pickplace_is_success_reference(env, state):
    grip_open = state[2] < 0.5
    not_held = state[7] < 0.5
    near = np.linalg.norm(state[3:5] - state[5:7]) <= env.success_radius
    return bool(grip_open and not_held and near)


def reachpoint_step_reference(env, state, action):
    action = check_action_reference(action, env.action_dim)
    agent = np.clip(state[0:2] + np.clip(action, -env.step_cap, env.step_cap), 0.0, 1.0)
    return np.array([*agent, *state[2:4]])


def reachpoint_is_success_reference(env, state):
    return bool(np.linalg.norm(state[0:2] - state[2:4]) <= env.success_radius)


def near_radius(rng, center, radius):
    """Points at, just inside and just outside radius of center, on random
    bearings and on the axes, plus the center itself."""
    out = [np.array(center, dtype=np.float64)]
    for r in (radius, np.nextafter(radius, 0.0), np.nextafter(radius, 1.0),
              radius * (1 - 1e-9), radius * (1 + 1e-9)):
        for theta in (np.pi / 4, np.pi, *rng.uniform(0.0, 2 * np.pi, 2)):
            out.append(center + r * np.array([np.cos(theta), np.sin(theta)]))
        out.append(center + np.array([r, 0.0]))
        out.append(center - np.array([0.0, r]))
    return out


WALLS = [0.0, -0.0, 1.0, 1e-300, 0.01, 0.99, 1.0 - 1e-16, 0.5]
ACTION_VALUES = [0.0, -0.0, 5e-324, -1e-300, 1e-17, 0.05, -0.05, 0.0499999, 1.0, -1.0,
                 2.0, -2.0, 1e300, -1e300]


def sweep_actions(rng, dim, n):
    """Zero, tiny and saturated values on every axis, then seeded normals."""
    fixed = [np.array(a) for a in itertools.product(ACTION_VALUES, repeat=dim)]
    take = rng.choice(len(fixed), size=min(n, len(fixed)), replace=False)
    return [fixed[i] for i in take] + list(rng.normal(scale=0.6, size=(n, dim)))


def assert_same_bytes(new, ref):
    assert isinstance(new, np.ndarray) and new.dtype == ref.dtype
    assert new.tobytes() == ref.tobytes(), (new, ref)


def pickplace_sweep(env):
    """(state, action) pairs: grippers at and near the walls, objects around
    the grasp radius and the target's success radius, grip open and closed,
    each state under a close-in-place command and a swept action."""
    rng = np.random.default_rng(20)
    grippers = [np.array(g) for g in itertools.product(WALLS, repeat=2)]
    grippers += list(rng.uniform(0.0, 1.0, size=(8, 2)))
    targets = [np.array([0.25, 0.25]), np.array([0.75, 0.75])]
    states = []
    for k, gripper in enumerate(grippers):
        target = targets[k % 2]
        # objects around the grasp radius of the gripper and the success
        # radius of the target, with the grip open and closed; a held object
        # sits at the gripper
        for obj in (near_radius(rng, gripper, env.grasp_radius)
                    + near_radius(rng, target, env.success_radius)):
            states += [mk_state(gripper, grip, obj, target, 0.0) for grip in (0.0, 1.0)]
        states += [mk_state(gripper, grip, gripper, target, 1.0) for grip in (0.0, 1.0)]
    actions = sweep_actions(rng, env.action_dim, 64)
    # closing in place tests the grasp radius where the object was placed
    still = [np.array([0.0, 0.0, 1.0]), np.array([-0.0, 0.0, 5e-324]),
             np.array([0.0, -0.0, -1.0])]
    return [(state, action) for k, state in enumerate(states)
            for action in (still[k % 3], actions[k % len(actions)])]


def reachpoint_sweep(env):
    """(state, action) pairs: agents at and near the walls, targets around
    the success radius of each agent, two swept actions per state."""
    rng = np.random.default_rng(21)
    agents = [np.array(a) for a in itertools.product(WALLS, repeat=2)]
    agents += list(rng.uniform(0.0, 1.0, size=(8, 2)))
    # targets around the success radius of each agent
    states = [np.array([*agent, *target]) for agent in agents
              for target in near_radius(rng, agent, env.success_radius)]
    actions = sweep_actions(rng, env.action_dim, 64)
    return [(state, action) for k, state in enumerate(states)
            for action in (actions[k % len(actions)], actions[(k + 37) % len(actions)])]


def test_pickplace_kernels_match_numpy_reference(env):
    outcomes = set()
    for state, action in pickplace_sweep(env):
        success = env.is_success(state)
        assert type(success) is bool
        assert success == pickplace_is_success_reference(env, state)
        nxt = env.step(state, action)
        assert_same_bytes(nxt, pickplace_step_reference(env, state, reference_units(env, action)))
        outcomes.add((state[7], nxt[7], env.is_success(nxt)))
    # the sweep reached grasps, releases, held carries and successes
    assert {(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)} <= {o[:2] for o in outcomes}
    assert any(o[2] for o in outcomes) and not all(o[2] for o in outcomes)


def test_reachpoint_kernels_match_numpy_reference():
    env = ReachPoint()
    pairs = reachpoint_sweep(env)
    hits = 0
    for k, (state, action) in enumerate(pairs):
        assert_same_bytes(env.step(state, action), reachpoint_step_reference(
            env, state, reference_units(env, action)))
        if k % 2 == 0:  # each state comes with two actions
            success = env.is_success(state)
            assert type(success) is bool
            assert success == reachpoint_is_success_reference(env, state)
            hits += success
    assert 0 < hits < len(pairs) // 2


SWEEPS = {"pickplace2d": (pickplace_sweep, pickplace_step_reference,
                          pickplace_is_success_reference),
          "reachpoint": (reachpoint_sweep, reachpoint_step_reference,
                         reachpoint_is_success_reference)}


@pytest.mark.parametrize("name", ENV_NAMES)
@pytest.mark.parametrize("batch", [(-1,), (4, -1)], ids=["rows", "grid"])
def test_batched_kernels_match_reference_row_by_row(name, batch):
    """The reference sweep stacked into one batch: one step and one
    is_success call equal the per-state reference byte for byte, row by row."""
    env = get_env(name)
    sweep, step_ref, success_ref = SWEEPS[name]
    pairs = sweep(env)
    pairs = pairs[:len(pairs) - len(pairs) % 4]
    states = np.stack([s for s, _ in pairs]).reshape(*batch, env.state_dim)
    actions = np.stack([a for _, a in pairs]).reshape(*batch, env.action_dim)
    nxt, success = env.step(states, actions), env.is_success(states)
    assert nxt.shape == states.shape and success.shape == states.shape[:-1]
    assert success.dtype == bool
    nxt, success = nxt.reshape(len(pairs), -1), success.reshape(-1)
    for row, (state, action) in enumerate(pairs):
        assert_same_bytes(nxt[row], step_ref(env, state, reference_units(env, action)))
        assert success[row] == success_ref(env, state)
    next_success = env.is_success(nxt)
    assert next_success.any() and not next_success.all()
    assert next_success.tolist() == [success_ref(env, s) for s in nxt]


@pytest.mark.parametrize("name", ENV_NAMES)
def test_batched_step_rejects_mismatched_actions(name):
    env = get_env(name)
    states = np.tile(env.reset_state(TaskSpec(0), derive_rng(0)), (3, 1))
    for bad in (np.zeros(env.action_dim), np.zeros((2, env.action_dim)),
                np.zeros((3, 1, env.action_dim))):
        with pytest.raises(ValueError, match="action has shape"):
            env.step(states, bad)
    actions = np.zeros((3, env.action_dim))
    actions[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        env.step(states, actions)


@pytest.mark.parametrize("name", ENV_NAMES)
def test_kernels_match_numpy_reference_along_episodes(name):
    """Seeded episodes from reset states, stepped by both kernels side by side
    under expert, noisy and saturated commands."""
    env = get_env(name)
    step_ref, success_ref = {
        "pickplace2d": (pickplace_step_reference, pickplace_is_success_reference),
        "reachpoint": (reachpoint_step_reference, reachpoint_is_success_reference)}[name]
    rng = np.random.default_rng(22)
    for episode in range(40):
        state = env.reset_state(TaskSpec(episode % env.n_tasks), rng)
        noise = (0.0, 0.3, 1.5, 4.0)[episode % 4]
        for _ in range(64):
            action = env.expert_action(state) + noise * rng.normal(size=env.action_dim)
            nxt = env.step(state, action)
            assert_same_bytes(nxt, step_ref(env, state, reference_units(env, action)))
            assert env.is_success(nxt) is success_ref(env, nxt)
            state = nxt


def test_expert_succeeds_on_every_task_noise_free(env):
    for task_id in range(env.n_tasks):
        for seed in range(5):
            traj = scripted_demo(env, TaskSpec(task_id), seed, noise_level=0.0)
            assert traj.success, f"expert failed task {task_id} seed {seed}"
            assert traj.steps.reward[-1] == 1  # the demo ends at its reward step


def test_demo_deterministic(env):
    t1 = scripted_demo(env, TaskSpec(1), 3, noise_level=0.4)
    t2 = scripted_demo(env, TaskSpec(1), 3, noise_level=0.4)
    assert t1 == t2
    assert not t1.steps.logp_old.any()  # noisy demos too


def test_demo_noise_changes_outcome_distribution(env):
    outcomes = [scripted_demo(env, TaskSpec(0), s, noise_level=2.0).success for s in range(30)]
    assert not all(outcomes)  # heavy noise breaks the controller sometimes


def test_demo_actions_respect_box(env):
    """A demo records its noisy actions as sent, beyond the action bound too,
    and the env executes each within the bound: a step moves the gripper at
    most step_cap per axis."""
    traj = scripted_demo(env, TaskSpec(2), 11, noise_level=1.0)
    assert np.abs(traj.steps.chunk[..., :2]).max() > ACTION_BOUND
    states = replay_frames(env, traj).states
    assert np.abs(np.diff(states[:, 0:2], axis=0)).max() <= env.step_cap * (1 + 1e-12)


@pytest.mark.parametrize("name", ENV_NAMES)
def test_step_reads_actions_in_steps_clamped_to_the_bound(name):
    """An action a moves by step_cap * clip(a, -ACTION_BOUND, ACTION_BOUND):
    a step and its clip give the same bytes, and a full step reaches
    step_cap exactly."""
    env = get_env(name)
    rng = np.random.default_rng(23)
    states = np.stack([env.reset_state(TaskSpec(t % env.n_tasks), rng) for t in range(64)])
    actions = rng.normal(scale=3.0, size=(64, env.action_dim))
    assert (np.abs(actions) > ACTION_BOUND).any() and (np.abs(actions) < ACTION_BOUND).any()
    assert_same_bytes(env.step(states, actions),
                      env.step(states, np.clip(actions, -ACTION_BOUND, ACTION_BOUND)))
    full = np.zeros(env.action_dim)
    full[0] = ACTION_BOUND
    start = np.full(env.state_dim, 0.5)
    assert env.step(start, full)[0] == 0.5 + env.step_cap


def test_demo_valid_len_matches_first_success(env):
    traj = scripted_demo(env, TaskSpec(0), 2, noise_level=0.0)
    rewards = traj.steps.reward.tolist()
    assert rewards.index(1) + 1 == len(traj.steps)


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


def test_counting_env_counts_batch_rows():
    env = CountingEnv(ReachPoint())
    states = np.stack([env.reset_state(TaskSpec(t), derive_rng(t)) for t in range(4)])
    env.step(states, np.zeros((4, 2)))
    env.step(states[:3], np.zeros((3, 2)))
    env.step(states[0], np.zeros(2))
    assert env.steps == 8 and env.resets == 4
    frames = step_chunks(env, states, np.zeros((4, 5, 2)))
    assert frames.shape == (4, 5, 4) and env.steps == 28


def test_counting_env_sees_demo_steps():
    env = CountingEnv(PickPlace2D())
    traj = scripted_demo(env, TaskSpec(0), 0, noise_level=0.0)
    executed = len(traj.steps)
    assert env.resets == 1
    # chunks stop early at success, so steps < chunks * 8 but >= chunks
    assert executed * 1 <= env.steps <= executed * 8


def test_replay_frames_reconstructs_demo_exactly(env):
    traj = scripted_demo(env, TaskSpec(2), 5, noise_level=0.2)
    counted = CountingEnv(PickPlace2D())
    ep = replay_frames(counted, traj)
    assert ep.states.shape[0] == ep.actions.shape[0] + 1
    np.testing.assert_array_equal(ep.states[0], traj.steps.obs[0])
    if traj.success:
        assert env.is_success(ep.states[-1])
        assert not any(env.is_success(s) for s in ep.states[:-1])
    # replay is pure recomputation of stored data, but it does step the env,
    # every stored action slot of the trajectory
    assert counted.steps == len(traj.steps.actions) and counted.resets == 0
    ep2 = replay_frames(env, traj)
    assert ep == ep2


def test_replay_frames_matches_recorded_rollout(env):
    from wovr.grpo import ChunkPolicy
    from wovr.rollout import rollout_real

    # a wide policy, so the stored chunks hold raw actions beyond the bound
    policy = ChunkPolicy(env.state_dim, env.n_tasks, 8, env.action_dim, init_log_std=0.5)
    params = policy.init(derive_rng(21))
    trajs, eps = rollout_real(policy, params, env, TaskSpec(1), 4, 64, 8,
                              seed=9, record_frames=True)
    assert max(np.abs(ep.actions).max() for ep in eps) > ACTION_BOUND
    for traj, recorded in zip(trajs, eps):
        replayed = replay_frames(env, traj)
        np.testing.assert_array_equal(replayed.states, recorded.states)
        np.testing.assert_array_equal(replayed.actions, recorded.actions)


def test_replay_frames_rejects_empty_trajectory(env):
    with pytest.raises(ValueError):
        replay_frames(env, Trajectory(TaskSpec(0), []))
    with pytest.raises(ValueError):
        replay_episodes(env, [scripted_demo(env, TaskSpec(0), 0),
                              Trajectory(TaskSpec(0), [])])
    assert replay_episodes(env, []) == []


def replay_reference(env, traj):
    """The per-state replay loop that the batched replay replaced: one state
    per step call, stopping at the first success frame."""
    states = [traj.steps.obs[0]]
    for act in traj.steps.actions:
        states.append(env.step(states[-1], act))
        if env.is_success(states[-1]):
            break
    return FrameEpisode(traj.task, np.array(states), traj.steps.actions[:len(states) - 1])


def held_at_target():
    """A pickplace trajectory that ends holding the object at the target,
    grip closed; one more zero action (an open command) would release it
    there, a success."""
    env = PickPlace2D()
    start = mk_state((0.3, 0.3), 0.0, (0.3, 0.3), (0.25, 0.25), 0.0)
    chunk = np.array([[0.0, 0.0, 1.0], [-1.0, -1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    traj = Trajectory(TaskSpec(0), Steps(start[None], chunk[None], [0], [0.0]))
    last = replay_reference(env, traj).states[-1]
    assert not env.is_success(last) and env.is_success(env.step(last, np.zeros(3)))
    return traj


@pytest.mark.parametrize("name", ENV_NAMES)
def test_replay_episodes_match_the_per_state_loop(name):
    """One batched replay of demos of mixed lengths gives, episode by
    episode, the bytes the per-state loop gives: successes mid-chunk and on a
    chunk's last frame, failures that run to max_len, and (on pickplace) a
    short episode whose zero-action padding would release its object at the
    target."""
    env = get_env(name)
    seen = set()
    for noise in (0.0, 1.0):
        demos = [scripted_demo(env, TaskSpec(i % env.n_tasks), i, noise, chunk=4,
                               max_len=(8, 16, 64)[i % 3]) for i in range(16)]
        # the noisy demos hold raw actions beyond the bound, as sent
        assert (max(np.abs(d.steps.chunk[..., :2]).max() for d in demos) > ACTION_BOUND) == (
            noise > 0)
        if name == "pickplace2d":
            demos.append(held_at_target())
        assert len({len(d.steps) for d in demos}) > 1
        for demo, ep in zip(demos, replay_episodes(env, demos), strict=True):
            ref = replay_reference(env, demo)
            assert ep.task == ref.task
            assert ep.states.tobytes() == ref.states.tobytes()
            assert ep.actions.tobytes() == ref.actions.tobytes()
            if not demo.success:
                seen.add("ran to max_len")
                assert len(ep.actions) == len(demo.steps.actions)
            else:
                seen.add("mid-chunk" if len(ep.actions) % 4 else "last frame")
    assert seen == {"ran to max_len", "mid-chunk", "last frame"}
