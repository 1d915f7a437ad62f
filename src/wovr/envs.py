"""Toy manipulation environments with exact, pure-function dynamics.

All dynamics are deterministic: step(state, action) -> next state is a pure
function, the only randomness lives in reset. Success is a separate predicate,
is_success(state); step never evaluates it, so a caller that needs the sparse
reward asks for it once, on the frames it keeps. Both kernels take one state
(d,) or a batch (..., d), so a caller with many states (a lockstep rollout,
a frame set to label) makes one call for all of them; step_chunks steps B
states through their chunks one action column at a time, and reset_states
resets n states from n streams at once (reset_state resets one). PickPlace2D
deliberately has a contact discontinuity (the grasp), where learned models go wrong.

An action's motion entries are fractions of the per-step reach step_cap,
clamped to +-ACTION_BOUND only where an action is executed: here and in the
world model's forward (WmNet.u_apply). Everything else passes it as sent.
"""
from __future__ import annotations

import numpy as np

from .core import FrameEpisode, Steps, TaskSpec, Trajectory, derive_rng

# target positions shared by both environments, one per task id
_TARGETS = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
ACTION_BOUND = 1.0  # a full step


# The kernels below take one state (d,) or a batch (..., d) with a matching
# action (a_dim,) or (..., a_dim), and state every rule once over the batch.
# Clamps are np.clip, which keeps x on a tie (np.clip(-0.0, 0.0, 1.0) is
# -0.0, where np.maximum gives 0.0).


def _check_action(action, batch: tuple, dim: int) -> np.ndarray:
    """The action as a float64 array of shape batch + (dim,); ValueError on a
    wrong shape or a non-finite entry."""
    action = np.asarray(action, dtype=np.float64)
    if action.shape != batch + (dim,):
        raise ValueError(f"action has shape {action.shape}, expected {batch + (dim,)}")
    if not np.isfinite(action).all():
        raise ValueError("non-finite action")
    return action


def _move(xy: np.ndarray, a: np.ndarray, cap: float) -> np.ndarray:
    """Positions (..., 2) after a step of cap * a, a clamped to the bound."""
    return np.clip(xy + cap * np.clip(a, -ACTION_BOUND, ACTION_BOUND), 0.0, 1.0)


def _dist(v: np.ndarray) -> np.ndarray:
    """Lengths of the rows of v (..., 2), bit for bit as np.linalg.norm of each."""
    # np.linalg.norm of one row is sqrt of a BLAS dot, whose fused multiply-add
    # rounds differently from x*x + y*y on a tenth of random vectors; vecdot
    # takes the same dot per row
    return np.sqrt(np.vecdot(v, v))


def _result(flags: np.ndarray):
    """A batch's flags as an array, one state's as a bool."""
    return flags if flags.ndim else bool(flags)


def _reset_states(env, task_ids, rngs) -> np.ndarray:
    """Fresh states (n, d), row i on task_ids[i] from rngs[i]: columns reset_cols
    are 0.5 + uniform(-reset_half, reset_half) bit for bit, one random() call per
    stream mapped as uniform maps it; target_cols hold the task's target."""
    ids = np.asarray(task_ids, dtype=np.int64)
    if len(ids) != len(rngs) or not ((ids >= 0) & (ids < env.n_tasks)).all():
        raise ValueError(f"need one stream per task id, each registered for {env.name}")
    u = np.empty((len(ids), len(env.reset_cols)))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    low, high = -env.reset_half, env.reset_half
    out = np.zeros((len(ids), env.state_dim))
    out[:, env.reset_cols] = 0.5 + (low + (high - low) * u)
    out[:, env.target_cols] = _TARGETS[ids]
    return out


def _reset_state(env, task: TaskSpec, rng: np.random.Generator) -> np.ndarray:
    """reset_states of one task and stream, (d,)."""
    return env.reset_states([task.task_id], [rng])[0]


class PickPlace2D:
    """Gripper, object, target in the unit square.

    State layout (8,): gripper x, y, grip (0 open / 1 closed), object x, y,
    target x, y, held flag. Action (3,): dx, dy in units of step_cap (the
    per-step reach, so +-1 is a full step and more is clamped to it), grip
    command (> 0 closes). Grasping requires a close command within
    grasp_radius of the object; success is the object resting within
    success_radius of the target with the grip open.
    """

    name = "pickplace2d"
    state_dim = 8
    action_dim = 3
    n_tasks = 4
    step_cap = 0.05
    grasp_radius = 0.04
    success_radius = 0.05

    reset_cols, target_cols = [0, 1, 3, 4], slice(5, 7)
    reset_half = np.array([0.05, 0.05, 0.12, 0.12])
    reset_states, reset_state = _reset_states, _reset_state

    def step(self, state: np.ndarray, action) -> np.ndarray:
        state = np.asarray(state, dtype=np.float64)
        action = _check_action(action, state.shape[:-1], self.action_dim)
        held = state[..., 7] > 0.5
        close_cmd = action[..., 2] > 0.0
        gripper = _move(state[..., 0:2], action[..., 0:2], self.step_cap)
        # a held object moves with the gripper; a close command grasps a free
        # object within the grasp radius and keeps hold of a held one; an open
        # command releases in place (a no-op when nothing is held)
        grasped = close_cmd & (_dist(gripper - state[..., 3:5]) <= self.grasp_radius)
        attached = held | grasped
        out = np.empty_like(state)
        out[..., 0:2] = gripper
        out[..., 2] = close_cmd
        out[..., 3:5] = np.where(attached[..., None], gripper, state[..., 3:5])
        out[..., 5:7] = state[..., 5:7]
        out[..., 7] = attached & close_cmd
        return out

    def is_success(self, state: np.ndarray):
        """Whether the object rests released within success_radius of the
        target: a bool for one state, a bool array for a batch."""
        state = np.asarray(state, dtype=np.float64)
        return _result((state[..., 2] < 0.5) & (state[..., 7] < 0.5)
                       & (_dist(state[..., 3:5] - state[..., 5:7]) <= self.success_radius))

    def expert_action(self, state: np.ndarray) -> np.ndarray:
        """Waypoint controller: approach-and-grasp, carry, release. Each
        motion is the delta to the waypoint in steps, clamped to a full step.

        The grip closes during the whole approach, so the grasp fires on the
        first step that lands inside the grasp radius; under action noise
        this retries for free instead of needing a separate fragile close
        step. Succeeds on every task at zero noise.
        """
        gripper, obj, target, held = state[0:2], state[3:5], state[5:7], state[7] > 0.5
        delta = (target if held else obj) - gripper
        if held and np.linalg.norm(delta) <= 0.01:
            return np.array([0.0, 0.0, -1.0])
        return np.array([*np.clip(delta / self.step_cap, -ACTION_BOUND, ACTION_BOUND), 1.0])


class ReachPoint:
    """Point agent moving to a target; the no-contact smoke-test environment."""

    name = "reachpoint"
    state_dim = 4
    action_dim = 2
    n_tasks = 4
    step_cap = 0.05
    success_radius = 0.05

    reset_cols, reset_half, target_cols = [0, 1], np.array([0.12, 0.12]), slice(2, 4)
    reset_states, reset_state = _reset_states, _reset_state

    def step(self, state: np.ndarray, action) -> np.ndarray:
        state = np.asarray(state, dtype=np.float64)
        action = _check_action(action, state.shape[:-1], self.action_dim)
        out = state.copy()
        out[..., 0:2] = _move(state[..., 0:2], action, self.step_cap)
        return out

    def is_success(self, state: np.ndarray):
        """Whether the agent is within success_radius of the target: a bool
        for one state, a bool array for a batch."""
        state = np.asarray(state, dtype=np.float64)
        return _result(_dist(state[..., 0:2] - state[..., 2:4]) <= self.success_radius)

    def expert_action(self, state: np.ndarray) -> np.ndarray:
        return np.clip((state[2:4] - state[0:2]) / self.step_cap, -ACTION_BOUND, ACTION_BOUND)


_REGISTRY = {"pickplace2d": PickPlace2D, "reachpoint": ReachPoint}


def get_env(name: str):
    if name not in _REGISTRY:
        raise KeyError(f"unknown environment {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]()


def step_chunks(env, states, chunks) -> np.ndarray:
    """Step env from each of B states (B, d) through its chunk (B, H, a_dim),
    all B at once, one action column per call; the frames, (B, H, d)."""
    states = np.asarray(states, dtype=np.float64)
    chunks = np.asarray(chunks, dtype=np.float64)
    frames = np.empty(chunks.shape[:2] + states.shape[-1:])
    for j in range(chunks.shape[1]):
        states = frames[:, j] = env.step(states, chunks[:, j])
    return frames


class CountingEnv:
    """Instrumented wrapper: counts real steps and resets, delegates the rest.

    The step counter is the ground truth for rollout-budget audits, so every
    real transition must flow through one of these.
    """

    def __init__(self, env):
        self.env = env
        self.steps = 0
        self.resets = 0

    def __getattr__(self, name):
        return getattr(self.env, name)

    def reset_state(self, task, rng):
        self.resets += 1
        return self.env.reset_state(task, rng)

    def reset_states(self, task_ids, rngs):
        """env.reset_states, counting one reset per row."""
        self.resets += len(rngs)
        return self.env.reset_states(task_ids, rngs)

    def step(self, state, action):
        """env.step, counting one step per state: a batch (B, d) counts B."""
        self.steps += int(np.prod(np.shape(state)[:-1]))
        return self.env.step(state, action)


def scripted_demo(env, task: TaskSpec, seed: int, noise_level: float = 0.0,
                  chunk: int = 8, max_len: int = 64) -> Trajectory:
    """Run the waypoint expert with additive Gaussian action noise of
    noise_level steps, recording the noisy actions as sent.

    Returns a chunk-granular trajectory that ends at the first chunk with a
    frame satisfying env.is_success, or after max_len steps; that chunk
    carries reward 1, every other one 0. Every step records logp_old 0.0:
    cloning reads a demo's observations and chunks, replay its chunks, and
    nothing reads the controller's density.
    """
    if noise_level < 0:
        raise ValueError("noise_level must be non-negative")
    if max_len % chunk != 0:
        raise ValueError("max_len must be a multiple of the chunk length")
    rng = derive_rng(seed, task.task_id, 7)
    state = env.reset_state(task, rng)
    n = max_len // chunk
    obs, chunks = np.zeros((n, env.state_dim)), np.zeros((n, chunk, env.action_dim))
    reward = np.zeros(n, dtype=np.uint8)
    for k in range(n):
        obs[k] = state
        for j in range(chunk):
            chunks[k, j] = env.expert_action(state) + noise_level * rng.normal(size=env.action_dim)
            state = env.step(state, chunks[k, j])
            if env.is_success(state):
                reward[k] = 1
                break
        # pad unexecuted slots with repeats of the last command so the chunk
        # keeps its fixed shape; they were never applied
        chunks[k, j + 1:] = chunks[k, j]
        if reward[k]:
            n = k + 1
            break
    return Trajectory(task, Steps(obs[:n], chunks[:n], reward[:n], np.zeros(n)))


def first_hits(hits) -> np.ndarray:
    """Index of each row's first True in hits (B, L), L if none: the one rule
    by which rollouts and replay cut an episode at its first success frame."""
    return (~np.asarray(hits, dtype=bool)).cumprod(axis=1).sum(axis=1)


def replay_actions(env, starts, actions):
    """Step B starts (d,) through their action sequences (n_i, a_dim) in one
    step_chunks call, padded with zero actions to the longest, then one
    is_success call. Returns (frames, success): frames[i] holds start i and
    sequence i's frames up to its first success frame, and success[i] says
    whether it reached one within its own n_i actions; no padded frame counts."""
    sizes = np.array([len(a) for a in actions])
    padded = np.zeros((len(actions), sizes.max(), env.action_dim))
    for row, a in zip(padded, actions):
        row[:len(a)] = a
    stepped = step_chunks(env, starts, padded)
    first = first_hits(env.is_success(stepped))
    frames = np.concatenate([np.asarray(starts, dtype=np.float64)[:, None], stepped], axis=1)
    return [f[:c + 1] for f, c in zip(frames, np.minimum(first + 1, sizes))], first < sizes


def replay_episodes(env, trajectories) -> list[FrameEpisode]:
    """Every env frame of each trajectory, recovered exactly (the dynamics are
    deterministic) by re-stepping its stored chunks from its start, all in
    one replay_actions batch, and cut at its first success frame, as
    rollouts cut their histories; a demo's padded slots are never kept."""
    if not all(traj.steps for traj in trajectories):
        raise ValueError("cannot replay an empty trajectory")
    if not trajectories:
        return []
    actions = [traj.steps.actions for traj in trajectories]
    frames, _ = replay_actions(env, [traj.steps.obs[0] for traj in trajectories], actions)
    return [FrameEpisode(traj.task, f, a[:len(f) - 1])
            for traj, f, a in zip(trajectories, frames, actions)]


def replay_frames(env, traj: Trajectory) -> FrameEpisode:
    """replay_episodes of one trajectory."""
    return replay_episodes(env, [traj])[0]
