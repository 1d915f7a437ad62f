"""Toy manipulation environments with exact, pure-function dynamics.

All dynamics are deterministic: step(state, action) -> next state is a pure
function, the only randomness lives in reset. Success is a separate predicate,
is_success(state); step never evaluates it, so a caller that needs the sparse
reward asks for it once, on the frames it keeps. PickPlace2D deliberately
contains a contact discontinuity (the grasp) because that is where learned
dynamics models go wrong in interesting ways.
"""
from __future__ import annotations

import math

import numpy as np

from .core import FrameEpisode, StepRecord, TaskSpec, Trajectory, derive_rng

# target positions shared by both environments, one per task id
_TARGETS = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])


# The kernels below run on Python floats: the state and action are read once
# with tolist() and the next state is built as one array. Each clamp is
# min(max(x, lo), hi), which keeps x on a tie exactly as np.clip does.


def _check_action(action, dim: int) -> list[float]:
    """The action as dim Python floats; ValueError on a wrong shape or non-finite entry."""
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (dim,):
        raise ValueError(f"action has shape {action.shape}, expected ({dim},)")
    values = action.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite action")
    return values


def _move(x: float, dx: float, cap: float) -> float:
    """One coordinate after a step of dx, capped at +-cap, clamped to [0, 1]."""
    return min(max(x + min(max(dx, -cap), cap), 0.0), 1.0)


def _dist(x: float, y: float) -> float:
    """Length of (x, y), bit for bit as np.linalg.norm computes it."""
    # np.linalg.norm is sqrt of a BLAS dot, whose fused multiply-add rounds
    # differently from x*x + y*y or math.hypot on a tenth of random vectors
    v = np.array((x, y))
    return math.sqrt(v.dot(v))


class PickPlace2D:
    """Gripper, object, target in the unit square.

    State layout (8,): gripper x, y, grip (0 open / 1 closed), object x, y,
    target x, y, held flag. Action (3,): dx, dy (motion capped per step),
    grip command (> 0 closes). Grasping requires a close command within
    grasp_radius of the object; success is the object resting within
    success_radius of the target with the grip open.
    """

    name = "pickplace2d"
    state_dim = 8
    action_dim = 3
    n_tasks = 4
    # policy emission box; wide enough that saturated travel commands (+-1)
    # plus exploration noise almost never hit the walls
    action_low = -2.0
    action_high = 2.0
    step_cap = 0.05
    grasp_radius = 0.04
    success_radius = 0.05

    def reset_state(self, task: TaskSpec, rng: np.random.Generator) -> np.ndarray:
        if task.task_id >= self.n_tasks:
            raise ValueError(f"task {task.task_id} not registered for {self.name}")
        gripper = 0.5 + rng.uniform(-0.05, 0.05, size=2)
        obj = 0.5 + rng.uniform(-0.12, 0.12, size=2)
        target = _TARGETS[task.task_id]
        return np.array([*gripper, 0.0, *obj, *target, 0.0])

    def step(self, state: np.ndarray, action) -> np.ndarray:
        dx, dy, grip = _check_action(action, self.action_dim)
        gx, gy, _, ox, oy, tx, ty, held = state.tolist()
        held = held > 0.5
        close_cmd = grip > 0.0

        gx, gy = _move(gx, dx, self.step_cap), _move(gy, dy, self.step_cap)
        if held:
            ox, oy = gx, gy
        if close_cmd:
            if not held and _dist(gx - ox, gy - oy) <= self.grasp_radius:
                held = True
                ox, oy = gx, gy
        else:
            held = False  # open releases in place (no-op when nothing is held)

        return np.array([gx, gy, 1.0 if close_cmd else 0.0, ox, oy, tx, ty, 1.0 if held else 0.0])

    def is_success(self, state: np.ndarray) -> bool:
        _, _, grip, ox, oy, tx, ty, held = state.tolist()
        return grip < 0.5 and held < 0.5 and _dist(ox - tx, oy - ty) <= self.success_radius

    def expert_action(self, state: np.ndarray) -> np.ndarray:
        """Waypoint controller: approach-and-grasp, carry, release.

        The grip closes during the whole approach, so the grasp fires on the
        first step that lands inside the grasp radius; under action noise
        this retries for free instead of needing a separate fragile close
        step. Succeeds on every task at zero noise.
        """
        gripper = state[0:2]
        obj = state[3:5]
        target = state[5:7]
        held = state[7] > 0.5
        if not held:
            return np.array([*_travel(obj - gripper, self.step_cap), 1.0])
        delta = target - gripper
        if np.linalg.norm(delta) > 0.01:
            return np.array([*_travel(delta, self.step_cap), 1.0])
        return np.array([0.0, 0.0, -1.0])


class ReachPoint:
    """Point agent moving to a target; the no-contact smoke-test environment."""

    name = "reachpoint"
    state_dim = 4
    action_dim = 2
    n_tasks = 4
    action_low = -2.0
    action_high = 2.0
    step_cap = 0.05
    success_radius = 0.05

    def reset_state(self, task: TaskSpec, rng: np.random.Generator) -> np.ndarray:
        if task.task_id >= self.n_tasks:
            raise ValueError(f"task {task.task_id} not registered for {self.name}")
        agent = 0.5 + rng.uniform(-0.12, 0.12, size=2)
        return np.array([*agent, *_TARGETS[task.task_id]])

    def step(self, state: np.ndarray, action) -> np.ndarray:
        dx, dy = _check_action(action, self.action_dim)
        ax, ay, tx, ty = state.tolist()
        return np.array([_move(ax, dx, self.step_cap), _move(ay, dy, self.step_cap), tx, ty])

    def is_success(self, state: np.ndarray) -> bool:
        ax, ay, tx, ty = state.tolist()
        return _dist(ax - tx, ay - ty) <= self.success_radius

    def expert_action(self, state: np.ndarray) -> np.ndarray:
        return _travel(state[2:4] - state[0:2], self.step_cap)


def _travel(delta: np.ndarray, cap: float) -> np.ndarray:
    """Exact delta when within per-step reach, else a saturated unit command."""
    return np.where(np.abs(delta) <= cap, delta, np.sign(delta))


_REGISTRY = {"pickplace2d": PickPlace2D, "reachpoint": ReachPoint}


def get_env(name: str):
    if name not in _REGISTRY:
        raise KeyError(f"unknown environment {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]()


def step_chunks(env, states, chunks) -> np.ndarray:
    """Step env from each of B states through its (H, a_dim) chunk; (B, H, d)."""
    out = []
    for state, chunk in zip(states, chunks):
        frames = []
        for action in chunk:
            state = env.step(state, action)
            frames.append(state)
        out.append(frames)
    return np.array(out)


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

    def step(self, state, action):
        self.steps += 1
        return self.env.step(state, action)


def scripted_demo(env, task: TaskSpec, seed: int, noise_level: float = 0.0,
                  chunk: int = 8, max_len: int = 64) -> Trajectory:
    """Run the waypoint expert with additive Gaussian action noise.

    Returns a chunk-granular trajectory that ends at the first chunk with a
    frame satisfying env.is_success, or after max_len steps; that chunk
    carries reward 1, every other one 0. logp_old is the exact Gaussian log-density of the recorded actions
    under the noisy controller (0.0 for the degenerate noise-free case).
    """
    if noise_level < 0:
        raise ValueError("noise_level must be non-negative")
    if max_len % chunk != 0:
        raise ValueError("max_len must be a multiple of the chunk length")
    rng = derive_rng(seed, task.task_id, 7)
    state = env.reset_state(task, rng)
    steps: list[StepRecord] = []
    for _ in range(max_len // chunk):
        obs = state.copy()
        actions = np.zeros((chunk, env.action_dim))
        means = np.zeros_like(actions)
        reward = 0
        taken = 0
        for j in range(chunk):
            mean = env.expert_action(state)
            act = mean + noise_level * rng.normal(size=env.action_dim)
            act = np.clip(act, env.action_low, env.action_high)
            actions[j] = act
            means[j] = mean
            taken = j + 1
            state = env.step(state, act)
            if env.is_success(state):
                reward = 1
                break
        # pad unexecuted slots with repeats of the last command so the chunk
        # keeps its fixed shape; they were never applied
        for j in range(taken, chunk):
            actions[j] = actions[taken - 1]
            means[j] = means[taken - 1]
        if noise_level > 0:
            var = noise_level**2
            logp = float(
                -0.5 * np.sum((actions - means) ** 2) / var
                - actions.size * (0.5 * np.log(2.0 * np.pi * var))
            )
        else:
            logp = 0.0
        steps.append(StepRecord(obs, actions, reward, logp))
        if reward:
            break
    return Trajectory(task, "initial", steps)


def replay_frames(env, traj: Trajectory) -> FrameEpisode:
    """Re-step a trajectory's stored chunks to recover every env frame.

    The dynamics are deterministic, so feeding the recorded actions from the
    recorded start reproduces the original episode exactly. Replay stops at
    the first success frame inside a chunk, matching how rollouts cut their
    frame history; padded slots after a demo's terminal step are never
    reached.
    """
    if not traj.steps:
        raise ValueError("cannot replay an empty trajectory")
    state = np.asarray(traj.steps[0].obs, dtype=np.float64)
    states = [state]
    actions: list[np.ndarray] = []
    for act in (act for rec in traj.steps for act in rec.chunk):
        state = env.step(state, act)
        states.append(state)
        actions.append(np.asarray(act, dtype=np.float64))
        if env.is_success(state):
            break
    return FrameEpisode(traj.task, np.array(states), np.array(actions))
