"""Closed-loop rollouts: policy against world model (imagined) or env (real).

One lockstep loop, _roll_group, serves both. It advances every member of a
group together: per chunk step one batched policy sample over the members
still running, then one batched dynamics call. Imagined, that is one
build_context over the members' histories and the world model's
predict_chunk(anchors, memories, task, chunks, rngs) -> (B, H, d); real, it
is env steps from each member's newest frame. A member is cut at its first
reward frame. The reward is reward_fn(frame, task) -> 0/1, read frame by
frame up to the first hit; a reward that also has batch(frames (N, d), task)
-> (N,) bool (the learned reward, pace.LearnedReward) instead scores every
running member's H frames in one call per chunk step, so it must be a pure
function of the frame. Every member draws from its own derive_rng(seed, i, ·)
streams, so swapping the learned model for the true dynamics (and the learned
reward for the true success predicate) reproduces real rollouts bit for bit
under the same seeds. Keyframe initialized rollouts restart a fraction of
groups from the (state, task) pairs of recent failures, kept in a
deque(maxlen=KEYFRAME_CAPACITY), instead of the episode start.
"""
from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    FrameEpisode,
    MalformedHeader,
    StepRecord,
    TaskSpec,
    Trajectory,
    derive_rng,
    derive_seed,
    read_store,
    write_store,
)
from .envs import step_chunks
from .worldmodel import build_context

log = logging.getLogger(__name__)


KEYFRAME_CAPACITY = 512


def harvest_keyframes(trajectories, k: int, keyframes: deque) -> deque:
    """Append (state, task) for the last-k chunk-step observations of every
    failed trajectory to keyframes, a deque(maxlen=KEYFRAME_CAPACITY) that
    evicts its oldest entries first."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for traj in trajectories:
        if not traj.success:
            keyframes.extend((step.obs.copy(), traj.task) for step in traj.steps[-k:])
    return keyframes


def sample_start(keyframes: deque, task: TaskSpec, p_kir: float,
                 env_reset, rng: np.random.Generator):
    """Keyframe start with probability p_kir, else a fresh env reset.

    Falls back to env_reset when no stored keyframe matches the task. The
    p_kir coin is drawn before the fallback check so the keyframe fraction
    among populated tasks is exactly p_kir.
    """
    if not 0.0 <= p_kir <= 1.0:
        raise ValueError("p_kir must lie in [0, 1]")
    use_kir = rng.uniform() < p_kir
    if use_kir:
        matching = [state for state, t in keyframes if t == task]
        if matching:
            return matching[rng.integers(len(matching))].copy(), "keyframe"
    return env_reset(rng), "initial"


@dataclass(frozen=True)
class GroupSpec:
    """Shared starting point for one advantage group of G rollouts."""

    task: TaskSpec
    start_state: np.ndarray
    start_kind: str
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("group size must be >= 1")
        object.__setattr__(self, "start_state",
                           np.asarray(self.start_state, dtype=np.float64))


def _first_hit(reward_fn, frames, task) -> int:
    """Index of the first frame reward_fn fires on, len(frames) if none; the
    frames after it are never scored."""
    for j, frame in enumerate(frames):
        if reward_fn(frame, task):
            return j
    return len(frames)


def _first_hits(batch, frames, task) -> np.ndarray:
    """_first_hit of every row of frames (B, H, d), from one batch call over
    all B * H frames."""
    n, h, d = frames.shape
    hits = np.asarray(batch(frames.reshape(n * h, d), task), dtype=bool).reshape(n, h)
    return np.where(hits.any(axis=1), hits.argmax(axis=1), h)


def _roll_group(policy, params, dynamics, reward_fn, task, starts, start_kind,
                T, H, seed):
    """Closed-loop episodes of every member of a group, advanced in lockstep.

    Member i starts at starts[i] and draws from derive_rng(seed, i, 1) for the
    policy and derive_rng(seed, i, 2) for the dynamics. Each chunk step makes
    one batched policy.sample over the active members and one batched
    dynamics(histories, chunks, rngs) -> (B, H, d) call, then cuts each member
    at its first reward frame. A reward with a batch(frames (N, d), task) ->
    (N,) bool method scores every finite member's H frames in one call; a
    plain reward_fn(frame, task) -> 0/1 reads a member's frames one by one
    and stops at the first hit. A member whose predicted frames are not all
    finite stops alone, with one warning, keeping the steps it recorded
    before; its frames are never scored.

    Returns (trajectories, frame histories); a history holds every executed
    frame of its member, cut at the success frame.
    """
    if T % H != 0:
        raise ValueError("T must be a multiple of the chunk horizon")
    n = len(starts)
    batch = getattr(reward_fn, "batch", None)
    policy_rngs = [derive_rng(seed, i, 1) for i in range(n)]
    model_rngs = [derive_rng(seed, i, 2) for i in range(n)]
    histories = [[np.asarray(start, dtype=np.float64)] for start in starts]
    records = [[] for _ in range(n)]
    active = list(range(n))
    for k in range(T // H):
        if not active:
            break
        obs = np.array([histories[i][-1] for i in active])
        chunks, logps = policy.sample(params, obs, task, [policy_rngs[i] for i in active])
        frames = np.asarray(dynamics([histories[i] for i in active], chunks,
                                     [model_rngs[i] for i in active]), dtype=np.float64)
        finite = np.isfinite(frames).reshape(len(active), -1).all(axis=1)
        if batch is not None and finite.any():
            first = np.full(len(active), H)
            first[finite] = _first_hits(batch, frames[finite], task)
        still = []
        for row, i in enumerate(active):
            if not finite[row]:
                log.warning("rollout member aborted at chunk-step %d: member %d "
                            "predicted a non-finite frame", k, i)
                continue
            hit = first[row] if batch is not None else _first_hit(reward_fn, frames[row], task)
            histories[i].extend(frames[row][:hit + 1])
            reward = int(hit < H)
            records[i].append(StepRecord(obs=obs[row], chunk=chunks[row], reward=reward,
                                         logp_old=float(logps[row])))
            if not reward:
                still.append(i)
        active = still
    trajectories = [Trajectory(task, start_kind, steps) for steps in records]
    return trajectories, histories


def _imagined_dynamics(wm, task: TaskSpec):
    """_roll_group dynamics that step every active member through wm."""

    def dynamics(histories, chunks, rngs):
        anchors, memories = build_context(histories, wm.context, wm.anchor_mode)
        return wm.predict_chunk(anchors, memories, task, chunks, rngs)

    return dynamics


def _real_dynamics(env):
    """_roll_group dynamics that step every active member in env."""

    def dynamics(histories, chunks, _rngs):
        return step_chunks(env, [history[-1] for history in histories], chunks)

    return dynamics


def rollout_imagined(policy, params, wm, reward_fn, group: GroupSpec,
                     T: int, H: int, seed: int) -> list[Trajectory]:
    """G imagined trajectories from the group's shared start, in lockstep.

    wm provides context/anchor_mode and the batched
    predict_chunk(anchors, memories, task, chunks, rngs) -> (B, H, d), one
    row per active member, fed by one build_context call per chunk step.
    reward_fn(frame, task) -> 0/1 is the thresholded learned reward, or the
    true predicate in oracle tests. A plain callable is called per frame up
    to a member's first hit; one with a batch(frames (N, d), task) -> (N,)
    bool method, like pace.LearnedReward, scores all active members' frames
    in one call per chunk step, frames past a hit included, so it must be a
    pure function of the frame.
    Member i draws from derive_rng(seed, i, 1) for the policy and
    derive_rng(seed, i, 2) for the model, so members are independent and
    reproducible in isolation up to the rounding of batched rows.
    """
    trajectories, _ = _roll_group(policy, params, _imagined_dynamics(wm, group.task),
                                  reward_fn, group.task,
                                  [group.start_state] * group.size, group.start_kind,
                                  T, H, seed)
    return trajectories


def _executed_actions(traj: Trajectory, n_frames: int, H: int) -> np.ndarray:
    """Concatenate each step's executed chunk prefix (the last may be cut)."""
    actions = []
    for j, rec in enumerate(traj.steps):
        take = min(H, n_frames - j * H)
        actions.extend(rec.chunk[:take])
    a_dim = traj.steps[0].chunk.shape[1] if traj.steps else 0
    return np.array(actions).reshape(len(actions), a_dim)


def rollout_real(policy, params, env, task: TaskSpec, n: int, T: int, H: int,
                 seed: int, starts=None, record_frames: bool = False):
    """n real-env trajectories; evaluation and data collection only.

    The n episodes run through rollout_imagined's lockstep loop with the env
    as the dynamics and env.is_success as the per-frame reward, so an
    OracleWorldModel group reproduces them bit for bit. Episode i resets from
    derive_rng(seed, i, 0) unless explicit starts are given; the policy
    stream is derive_rng(seed, i, 1), mirroring rollout_imagined member
    streams. With record_frames, also returns one (states, actions) frame
    episode per trajectory for model training.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def true_reward(frame, _task):
        return int(env.is_success(frame))

    if starts is None:
        starts = [env.reset_state(task, derive_rng(seed, i, 0)) for i in range(n)]
    starts = [starts[i] for i in range(n)]
    trajectories, histories = _roll_group(policy, params, _real_dynamics(env), true_reward,
                                          task, starts, "initial", T, H, seed)
    if not record_frames:
        return trajectories
    episodes = [FrameEpisode(task, np.array(history),
                             _executed_actions(traj, len(history) - 1, H))
                for traj, history in zip(trajectories, histories)]
    return trajectories, episodes


def collect_real(policy, params, env, n: int, T: int, H: int, seed: int, tag: int, *, roll):
    """n fresh-start real episodes with their frames, tasks round-robin.

    Episode i runs task i % env.n_tasks as one roll(..., 1, ...,
    derive_seed(seed, tag, i), record_frames=True) call. roll is rollout_real
    as the caller's module names it, so a wrapper installed there (the
    benchmark's tracer times rollout_real per calling module) sees every
    episode.
    """
    trajectories, frames = [], []
    for i in range(n):
        t, f = roll(policy, params, env, TaskSpec(i % env.n_tasks), 1, T, H,
                    derive_seed(seed, tag, i), record_frames=True)
        trajectories += t
        frames += f
    return trajectories, frames


def write_batch(path, trajectories, manifest: dict):
    """Persist a rollout batch next to a JSON manifest (sorted keys)."""
    write_store(path, trajectories)
    with open(str(path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)


def read_batch(path):
    """The batch's trajectories and manifest; a corrupt manifest is MalformedHeader."""
    trajectories = read_store(path)
    with open(str(path) + ".manifest.json", "rb") as fh:
        raw = fh.read()
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
        raise MalformedHeader(f"batch manifest is not UTF-8 JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise MalformedHeader(f"batch manifest is a {type(manifest).__name__}, not an object")
    return trajectories, manifest
