"""Closed-loop rollouts: policy against world model (imagined) or env (real).

One lockstep loop, _roll_group, serves both. It advances every member it is
given together: per chunk step one batched policy sample over the members
still running, then one batched dynamics call. Imagined, that is one
build_context over the members' histories and the world model's
predict_chunk(anchors, memories, tasks, chunks, rngs) -> (B, H, d); real, it
is env steps from each member's newest frame. A member is cut at its first
reward frame. The reward is reward_fn(frame, task) -> 0/1, read frame by frame
up to the first hit; a reward that also has batch(frames (N, d), tasks) ->
(N,) bool (the learned reward, pace.LearnedReward) instead scores every
running member's H frames in one call per chunk step, so it must be a pure
function of the frame. The members' core.Steps are gathered once, from the
batches every chunk step kept, when all have stopped. Members need not share a
task: each carries its own task, start, start kind and stream key, and per-row
task ids reach the policy, the model and the reward through core's one one-hot
rule (task_tokens). So one GRPO update rolls all its groups (a GroupSpecs) as
one batch of up to groups * G rows per call. Every member draws from its own
derive_rng(*key, ·) streams, so swapping the learned model for the true
dynamics (and the learned reward for the true success predicate) reproduces
real rollouts bit for bit under the same seeds. Keyframe initialized rollouts
restart a fraction of groups from the (state, task) pairs of recent failures,
kept in a deque(maxlen=KEYFRAME_CAPACITY), instead of the episode start;
imagined RL harvests an update's failures only after the whole update rolled
out (pace._rl_stage).
"""
from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    FrameEpisode,
    MalformedHeader,
    Steps,
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
            keyframes.extend(zip(traj.steps.obs[-k:].copy(), [traj.task] * k))
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


class GroupSpecs(tuple):
    """The GroupSpecs of one GRPO update, rolled out as one lockstep batch.

    size is the number of members they roll, like GroupSpec.size, so the
    benchmark's tracer counts the members of either from the same attribute.
    """

    @property
    def size(self) -> int:
        return sum(group.size for group in self)


class Member(NamedTuple):
    """One lockstep member: it draws from derive_rng(*key, 1) for the policy
    and derive_rng(*key, 2) for the dynamics."""

    task: TaskSpec
    start: np.ndarray
    kind: str
    key: tuple


def _members(task: TaskSpec, starts, kind: str, seed: int) -> list[Member]:
    """One group's members: member i starts at starts[i] with key (seed, i)."""
    return [Member(task, start, kind, (seed, i)) for i, start in enumerate(starts)]


def _first_hit(reward_fn, frames, task) -> int:
    """Index of the first frame reward_fn fires on, len(frames) if none; the
    frames after it are never scored."""
    for j, frame in enumerate(frames):
        if reward_fn(frame, task):
            return j
    return len(frames)


def _first_hits(batch, frames, task_ids) -> np.ndarray:
    """_first_hit of every row of frames (B, H, d), row i of task task_ids[i],
    from one batch call over all B * H frames."""
    n, h, d = frames.shape
    hits = batch(frames.reshape(n * h, d), np.repeat(task_ids, h))
    hits = np.asarray(hits, dtype=bool).reshape(n, h)
    return np.where(hits.any(axis=1), hits.argmax(axis=1), h)


def _roll_group(policy, params, dynamics, reward_fn, members, T, H,
                model_stream: bool = True):
    """Closed-loop episodes of the members, advanced in lockstep.

    Each chunk step makes one batched policy.sample over the active members
    and one batched dynamics(histories, task ids, chunks, rngs) -> (B, H, d)
    call, then cuts each member at its first reward frame. Members may differ
    in task and start; all histories stay one length, since a member leaves
    the batch at its success frame. A reward with a batch(frames (N, d),
    task ids (N,)) -> (N,) bool method scores every finite member's H frames
    in one call; a plain reward_fn(frame, task) -> 0/1 reads a member's
    frames one by one and stops at the first hit. A member whose predicted
    frames are not all finite stops alone, with one warning, keeping the
    steps it recorded before; its frames are never scored. Dynamics that
    draw nothing (the real env) run with model_stream False, and then the
    members' model streams are not built; their rngs are None. Each member's
    Steps are gathered at the end from the kept batches (_member_steps).

    Returns (trajectories, frame histories); a history holds every executed
    frame of its member, cut at the success frame.
    """
    if T % H != 0:
        raise ValueError("T must be a multiple of the chunk horizon")
    n = len(members)
    batch = getattr(reward_fn, "batch", None)
    task_ids = np.array([m.task.task_id for m in members])
    policy_rngs = [derive_rng(*m.key, 1) for m in members]
    model_rngs = [derive_rng(*m.key, 2) if model_stream else None for m in members]
    histories = [[np.asarray(m.start, dtype=np.float64)] for m in members]
    batches = []  # per chunk step: the obs, chunks, rewards and logps of its rows
    rows = [[] for _ in range(n)]  # member i's rows, numbered across all batches
    offset, active = 0, list(range(n))
    for k in range(T // H):
        if not active:
            break
        ids = task_ids[active]
        obs = np.array([histories[i][-1] for i in active])
        chunks, logps = policy.sample(params, obs, ids, [policy_rngs[i] for i in active])
        frames = np.asarray(dynamics([histories[i] for i in active], ids, chunks,
                                     [model_rngs[i] for i in active]), dtype=np.float64)
        finite = np.isfinite(frames).reshape(len(active), -1).all(axis=1)
        if batch is not None and finite.any():
            first = np.full(len(active), H)
            first[finite] = _first_hits(batch, frames[finite], ids[finite])
        rewards = []
        for row, i in enumerate(active):
            hit = H  # an aborted row is none of its member's rows: never read
            if not finite[row]:
                log.warning("rollout member aborted at chunk-step %d: member %d "
                            "predicted a non-finite frame", k, i)
            else:
                hit = (int(first[row]) if batch is not None
                       else _first_hit(reward_fn, frames[row], members[i].task))
                histories[i].extend(frames[row][:hit + 1])
                rows[i].append(offset + row)
            rewards.append(hit < H)
        batches.append((obs, chunks, rewards, logps))
        offset += len(active)
        active = [i for i, ok, reward in zip(active, finite, rewards) if ok and not reward]
    trajectories = [Trajectory(m.task, m.kind, steps)
                    for m, steps in zip(members, _member_steps(batches, rows))]
    return trajectories, histories


def _member_steps(batches, rows) -> list[Steps]:
    """Each member's Steps: its rows, numbered across _roll_group's batches,
    from one concatenation and one gather per column for all members."""
    if not batches:  # no chunk step ran
        return [Steps(np.zeros((0, 0)), np.zeros((0, 0, 0)), [], []) for _ in rows]
    order = np.array([row for member_rows in rows for row in member_rows], dtype=np.int64)
    columns = [np.concatenate(col)[order] for col in zip(*batches)]
    bounds = np.cumsum([0] + [len(member_rows) for member_rows in rows])
    return [Steps(*(col[lo:hi] for col in columns)) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _imagined_dynamics(wm):
    """_roll_group dynamics that step every active member through wm."""

    def dynamics(histories, tasks, chunks, rngs):
        anchors, memories = build_context(histories, wm.context, wm.anchor_mode)
        return wm.predict_chunk(anchors, memories, tasks, chunks, rngs)

    return dynamics


def _real_dynamics(env):
    """_roll_group dynamics that step every active member in env; they draw
    nothing, so run them with model_stream False."""

    def dynamics(histories, _tasks, chunks, _rngs):
        return step_chunks(env, [history[-1] for history in histories], chunks)

    return dynamics


def rollout_imagined(policy, params, wm, reward_fn, groups, T: int, H: int,
                     seed) -> list[Trajectory]:
    """Imagined trajectories of every member of groups, in one lockstep batch.

    groups is one GroupSpec with an int seed, or a GroupSpecs with one seed
    per group; the result lists every member, group by group. Member i of the
    group with seed s starts from its group's start and draws from
    derive_rng(s, i, 1) for the policy and derive_rng(s, i, 2) for the model,
    so members are independent and reproducible in isolation up to the
    rounding of batched rows (a batch that shrinks to one row takes another
    matmul kernel). wm provides context/anchor_mode and the batched
    predict_chunk(anchors, memories, task ids, chunks, rngs) -> (B, H, d),
    one row per active member, fed by one build_context call per chunk step.
    reward_fn(frame, task) -> 0/1 is the thresholded learned reward, or the
    true predicate in oracle tests. A plain callable is called per frame up
    to a member's first hit; one with a batch(frames (N, d), task ids (N,))
    -> (N,) bool method, like pace.LearnedReward, scores all active members'
    frames in one call per chunk step, frames past a hit included, so it
    must be a pure function of the frame.
    """
    if isinstance(groups, GroupSpec):
        groups, seed = (groups,), (seed,)
    members = [member for group, s in zip(groups, seed, strict=True)
               for member in _members(group.task, [group.start_state] * group.size,
                                      group.start_kind, s)]
    trajectories, _ = _roll_group(policy, params, _imagined_dynamics(wm), reward_fn,
                                  members, T, H)
    return trajectories


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
    elif len(starts) != n:
        raise ValueError(f"need one start per episode, {n}, got {len(starts)}")
    members = _members(task, starts, "initial", seed)
    trajectories, histories = _roll_group(policy, params, _real_dynamics(env), true_reward,
                                          members, T, H, model_stream=False)
    if not record_frames:
        return trajectories
    # every chunk but the last runs whole; a success frame cuts the last
    episodes = [FrameEpisode(task, np.array(history), traj.steps.actions[:len(history) - 1])
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
