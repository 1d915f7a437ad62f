"""Closed-loop rollouts: policy against world model (imagined) or env (real).

One lockstep loop, _roll_group, serves both. It advances every member it is
given together: per chunk step one batched policy sample over the members
still running, then one batched dynamics call. Every member's frames live
in one preallocated (n, T + 1, d) array and its steps in preallocated
(n, T/H, ...) columns that each chunk step writes in place; the members'
histories and their trajectories' core.Steps are views of these arrays.
Dynamics read only the rows they need: imagined, one build_context gather
of the active members' context rows feeds the world model's
predict_chunk(anchors, memories, tasks, chunks, rngs) -> (B, H, d); real,
the env steps every active member from its newest frame, one action column
per call (envs.step_chunks). A member is cut at its first reward frame. The
reward is one scorer, score(frames (N, d), task ids (N,)) -> (N,) bool (the
learned reward's pace.LearnedReward.batch, or the env's success predicate in
real rollouts), that scores every running member's H frames in one call per
chunk step, so it must be a pure function of the frame. Members need not
share a task: each carries its own task, start, start kind and stream key,
and per-row task ids reach the policy, the model and the reward through
core's one one-hot rule (task_tokens). So one GRPO update rolls all its
groups (a GroupSpecs) as one batch of up to groups * G rows per call, and a
real collection rolls all its episodes as one batch. Every member draws from
its own derive_rng(*key, ·) streams, so swapping the learned model for the
true dynamics (and the learned reward for the true success predicate)
reproduces real rollouts bit for bit under the same seeds; a batch derives
all its members' streams in one core.derive_rngs call, which gives each
stream bit for bit as derive_rng would. Keyframe initialized rollouts
restart a fraction of groups from the (state, task) pairs of recent
failures, kept in a deque(maxlen=KEYFRAME_CAPACITY), instead of the episode
start; imagined RL harvests an update's failures only after the whole
update rolled out (pace._rl_stage).
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
    derive_rngs,
    derive_seeds,
    read_store,
    write_store,
)
from .envs import first_hits, step_chunks
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


def as_scorer(reward):
    """reward as _roll_group's scorer, score(frames (N, d), task ids (N,)) ->
    (N,) bool: its batch method if it has one (pace.LearnedReward), else its
    per-frame reward(frame, task) -> 0/1 on every frame. Only bench/checks.py
    still passes per-frame rewards; this adapter goes with ROADMAP item 10's
    benchmark change."""
    batch = getattr(reward, "batch", None)
    if batch is not None:
        return batch
    return lambda frames, task_ids: np.array(
        [bool(reward(frame, TaskSpec(int(t)))) for frame, t in zip(frames, task_ids)],
        dtype=bool)


def _roll_group(policy, params, dynamics, score, members, T, H,
                model_stream: bool = True):
    """Closed-loop episodes of the members, advanced in lockstep.

    Every member's frames live in one preallocated (n, T + 1, d) array, and
    its steps in preallocated (n, T/H, ...) columns, each written in place a
    chunk step at a time. Each chunk step makes one batched policy.sample over
    the active members, from their newest frames, and one batched
    dynamics(frames, rows, length, task ids, chunks, rngs) -> (B, H, d) call:
    rows are the B active members, all of whose histories are frames[row,
    :length], since a member leaves the batch at its success frame. One
    score(frames (N, d), task ids (N,)) -> (N,) bool call then scores every
    finite member's H frames, and each member is cut at its first hit
    (envs.first_hits). Members may differ in task and start. A member whose
    predicted frames are not all finite stops alone, with one warning,
    keeping the steps it recorded before; its frames are never scored.
    Every member's policy stream derive_rng(*key, 1) and model stream
    derive_rng(*key, 2) come from one derive_rngs call over the whole batch.
    Dynamics that draw nothing (the real env) run with model_stream False,
    and then the members' model streams are not built; their rngs are None.

    Returns (trajectories, frame histories); a history holds every executed
    frame of its member, cut at the success frame. Histories and each
    trajectory's Steps are views of the shared arrays.
    """
    if T % H != 0:
        raise ValueError("T must be a multiple of the chunk horizon")
    n, n_chunks = len(members), T // H
    task_ids = np.array([m.task.task_id for m in members])
    streams = derive_rngs([(*m.key, 1) for m in members]
                          + [(*m.key, 2) for m in members if model_stream])
    policy_rngs, model_rngs = streams[:n], streams[n:] or [None] * n
    starts = np.array([m.start for m in members], dtype=np.float64)
    frames = np.empty((n, T + 1, starts.shape[1]))
    frames[:, 0] = starts
    chunk = np.zeros((n, n_chunks, 0, 0))  # replaced by (n, T/H, H, a_dim) at the first sample
    reward = np.zeros((n, n_chunks), dtype=np.uint8)
    logp = np.empty((n, n_chunks))
    n_steps = np.zeros(n, dtype=np.int64)  # chunk steps each member recorded
    length = np.ones(n, dtype=np.int64)  # frames in each member's history
    active = np.arange(n)
    for k in range(n_chunks):
        if not active.size:
            break
        now, ids = k * H, task_ids[active]  # every active member's newest frame is row now
        chunks, logps = policy.sample(params, frames[active, now], ids,
                                      [policy_rngs[i] for i in active])
        predicted = np.asarray(dynamics(frames, active, now + 1, ids, chunks,
                                        [model_rngs[i] for i in active]), dtype=np.float64)
        if not k:
            chunk = np.empty((n, n_chunks) + np.shape(chunks)[1:])
        frames[active, now + 1:now + H + 1] = predicted
        chunk[active, k], logp[active, k] = chunks, logps
        finite = np.isfinite(predicted).reshape(len(active), -1).all(axis=1)
        first = np.full(len(active), H)  # an aborted row is never scored
        if finite.any():
            hits = score(predicted[finite].reshape(-1, predicted.shape[2]),
                         np.repeat(ids[finite], H))
            first[finite] = first_hits(np.reshape(hits, (-1, H)))
        for i in active[~finite]:
            log.warning("rollout member aborted at chunk-step %d: member %d "
                        "predicted a non-finite frame", k, i)
        hit = first < H
        n_steps[active[finite]] = k + 1
        length[active[finite]] = now + 1 + np.minimum(first[finite] + 1, H)
        reward[active[hit], k] = 1
        active = active[finite & ~hit]
    # chunk step k starts from frame k * H, so the obs column is a strided view
    obs = frames[:, 0:T:H]
    trajectories = [Trajectory(m.task, m.kind, Steps(obs[i, :s], chunk[i, :s], reward[i, :s],
                                                     logp[i, :s]))
                    for i, (m, s) in enumerate(zip(members, n_steps))]
    return trajectories, [frames[i, :size] for i, size in enumerate(length)]


def _imagined_dynamics(wm):
    """_roll_group dynamics that step every active member through wm, from
    the context rows of their histories."""

    def dynamics(frames, rows, length, tasks, chunks, rngs):
        anchors, memories = build_context(frames[:, :length], wm.context, wm.anchor_mode, rows)
        return wm.predict_chunk(anchors, memories, tasks, chunks, rngs)

    return dynamics


def _real_dynamics(env):
    """_roll_group dynamics that step every active member in env from its
    newest frame; they draw nothing, so run them with model_stream False."""

    def dynamics(frames, rows, length, _tasks, chunks, _rngs):
        return step_chunks(env, frames[rows, length - 1], chunks)

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
    one row per active member, fed by one build_context gather per chunk step.
    reward_fn is the thresholded learned reward (pace.LearnedReward), or the
    true predicate in oracle tests, turned into _roll_group's scorer once
    (as_scorer). It scores all active members' frames in one call per chunk
    step, frames past a hit included, so it must be a pure function of the
    frame.
    """
    if isinstance(groups, GroupSpec):
        groups, seed = (groups,), (seed,)
    members = [member for group, s in zip(groups, seed, strict=True)
               for member in _members(group.task, [group.start_state] * group.size,
                                      group.start_kind, s)]
    trajectories, _ = _roll_group(policy, params, _imagined_dynamics(wm),
                                  as_scorer(reward_fn), members, T, H)
    return trajectories


def rollout_real(policy, params, env, task, n: int, T: int, H: int, seed,
                 starts=None, record_frames: bool = False):
    """n real-env trajectories; evaluation and data collection only.

    The n episodes run as one batch through rollout_imagined's lockstep loop,
    with the env as the dynamics and env.is_success, over every running
    episode's frames once per chunk step, as the reward, so an
    OracleWorldModel group reproduces them bit for bit. task is one TaskSpec
    or a list of n, one per episode, and seed one int or a list of n. Under
    one seed, episode i resets from derive_rng(seed, i, 0) unless explicit
    starts are given, and its policy stream is derive_rng(seed, i, 1),
    mirroring rollout_imagined member streams. Under a list, episode i draws
    from derive_rng(seed[i], 0, ·), as the one episode of a call at seed[i]
    would. The reset streams of all n episodes come from one derive_rngs
    call, as their policy streams do in _roll_group. With record_frames,
    also returns one (states, actions) frame episode per trajectory for model
    training.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tasks = [task] * n if isinstance(task, TaskSpec) else list(task)
    keys = [(seed, i) for i in range(n)] if np.ndim(seed) == 0 else [(s, 0) for s in seed]
    if len(tasks) != n or len(keys) != n:
        raise ValueError(f"need one task and one seed per episode, {n}, "
                         f"got {len(tasks)} and {len(keys)}")
    if starts is None:
        starts = [env.reset_state(t, rng)
                  for t, rng in zip(tasks, derive_rngs([(*key, 0) for key in keys]))]
    elif len(starts) != n:
        raise ValueError(f"need one start per episode, {n}, got {len(starts)}")
    members = [Member(t, start, "initial", key) for t, start, key in zip(tasks, starts, keys)]
    trajectories, histories = _roll_group(policy, params, _real_dynamics(env),
                                          lambda frames, _tasks: env.is_success(frames),
                                          members, T, H, model_stream=False)
    if not record_frames:
        return trajectories
    # every chunk but the last runs whole; a success frame cuts the last
    episodes = [FrameEpisode(traj.task, history, traj.steps.actions[:len(history) - 1])
                for traj, history in zip(trajectories, histories)]
    return trajectories, episodes


def collect_real(policy, params, env, n: int, T: int, H: int, seed: int, tag: int, *, roll):
    """n fresh-start real episodes with their frames, tasks round-robin.

    Episode i runs task i % env.n_tasks under derive_seed(seed, tag, i), as
    the one episode of a rollout_real call at that seed would. The n seeds
    come from one derive_seeds call, and all n episodes run as one lockstep
    batch in one roll(..., record_frames=True) call. roll is rollout_real as
    the caller's module names it, so a wrapper installed there (the
    benchmark's tracer times rollout_real per calling module) sees the
    collection.
    """
    tasks = [TaskSpec(i % env.n_tasks) for i in range(n)]
    seeds = derive_seeds([(seed, tag, i) for i in range(n)])
    return roll(policy, params, env, tasks, n, T, H, seeds, record_frames=True)


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
