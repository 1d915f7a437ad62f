"""Closed-loop rollouts: policy against a simulator, learned (imagined) or real.

A simulator has one contract, predict_chunk(frames, rows, length, task ids,
chunks, noise) -> (B, H, d): the next H frames of the histories frames[rows,
:length]. A LearnedWorldModel gathers its own context from them; the real env
is an OracleWorldModel, which steps each row's newest frame. One lockstep
loop, _roll_group, serves both. It advances every member it is given together:
per chunk step one batched policy sample over the members still running, then
one batched predict_chunk call. Every member's frames live in one preallocated
(n, T + 1, d) array and its steps in preallocated (n, T/H, ...) columns that
each chunk step writes in place; the members' histories and their
trajectories' core.Steps are views of these arrays. The randomness is drawn
before the loop: each member's policy stream derive_rng(*key, 1) draws its
whole episode's standard-normal action noise, (T/H, H * a_dim), in one call
(draw_noise), and its model stream derive_rng(*key, 2) the flow's start noise,
(T/H, H * d), in another (a model that reads no noise, such as the true
dynamics, derives none); one normal call of k rows gives the values of k
one-row calls on the same stream, so a member's chunk step k reads exactly the
draw a per-step loop would have made. The policy (grpo.ChunkPolicy.sample) and
the simulator then take noise rows and are pure functions of their inputs. A
member is cut at its first reward frame. The reward is one scorer,
score(frames (N, d), task ids (N,)) -> (N,) bool (the learned reward's
pace.LearnedReward.batch, or the env's success predicate in real rollouts),
that scores every running member's H frames in one call per chunk step, so it
must be a pure function of the frame.
Members need not share a task: each carries its own task, start and stream
key, and per-row task ids reach the policy, the model and the
reward through core's one one-hot rule (task_tokens). A key is a tuple of
non-negative ints: (seed, i) for member i of a group or one-seed call, (s, 0)
for a collection episode under its own seed s (round_robin). So one GRPO
update rolls all its groups (a GroupSpecs) as one batch of up to groups * G
rows per call, and a real collection, or an SR eval over every task, rolls
all its episodes as one batch. The batch's step columns are checked once,
after the loop (core.episode_steps), not once per member. Every
member draws from its own derive_rng(*key, ·) streams, so swapping the
learned model for the true dynamics (and the learned reward for the true
success predicate) reproduces real rollouts bit for bit under the same
seeds; a batch derives all its members' streams in one core.derive_rngs
call, which gives each stream bit for bit as derive_rng would. Fresh
episodes reset from their keys' stream 0, all in one call (reset_starts).
Keyframe initialized rollouts restart a fraction of groups from the (state,
task) pairs of recent failures, kept in a deque(maxlen=KEYFRAME_CAPACITY),
instead of the episode start; imagined RL harvests an update's failures only
after the whole update rolled out (pace._rl_stage).
"""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    FrameEpisode,
    TaskSpec,
    Trajectory,
    derive_rngs,
    derive_seeds,
    episode_steps,
    read_json,
    read_store,
    write_json,
    write_store,
)
from .envs import first_hits
# imported by name only: the benchmark's tracer wraps wovr.rollout.build_context
from .worldmodel import OracleWorldModel, build_context  # noqa: F401

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
        task_id = task.task_id  # an int compare, not the dataclass __eq__, per entry
        matching = [state for state, t in keyframes if t.task_id == task_id]
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


def reset_starts(env, tasks, keys) -> np.ndarray:
    """The reset rule of a fresh episode: episode i starts at
    env.reset_state(tasks[i], derive_rng(*keys[i], 0)); the starts (n, d)
    come from one derive_rngs call and one env.reset_states call."""
    return env.reset_states([task.task_id for task in tasks],
                            derive_rngs([(*key, 0) for key in keys]))


def round_robin(n_tasks: int, n: int, seed: int, tag: int):
    """A real collection of n fresh-start episodes: (tasks, keys) for
    rollout_real, episode i on task i % n_tasks under the key
    (derive_seed(seed, tag, i), 0), as the one episode of a rollout_real call
    at that seed would run. The n seeds come from one derive_seeds call."""
    return ([TaskSpec(i % n_tasks) for i in range(n)],
            [(s, 0) for s in derive_seeds([(seed, tag, i) for i in range(n)])])


def draw_noise(rngs, n_chunks: int, width: int) -> np.ndarray:
    """Each stream's whole-episode standard-normal noise, (len(rngs),
    n_chunks, width): one normal(size=(n_chunks, width)) call per stream,
    whose row k holds the values a normal(size=width) call at chunk step k
    of a per-step loop would draw."""
    noise = np.empty((len(rngs), n_chunks, width))
    for row, rng in zip(noise, rngs):
        row[...] = rng.normal(size=row.shape)
    return noise


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


def _roll_group(policy, params, sim, score, tasks, starts, keys, T, H):
    """Closed-loop episodes of n members in the simulator sim, advanced in
    lockstep: member i runs task tasks[i] from starts[i] (starts is (n, d))
    under the stream key keys[i].

    Every member's frames live in one preallocated (n, T + 1, d) array, and
    its steps in preallocated (n, T/H, ...) columns, each written in place a
    chunk step at a time. Before the loop, every member's policy stream
    derive_rng(*key, 1) and, if sim.noise_width is nonzero, its model stream
    derive_rng(*key, 2) come from one derive_rngs call over the whole batch,
    and each stream draws its member's whole episode in one call
    (draw_noise): policy noise (T/H, policy.flat), drawn into the chunk
    column itself, whose row k each step reads and then overwrites with the
    chunk drawn from it, and model noise (T/H, sim.noise_width). A simulator
    that reads no noise (an OracleWorldModel) derives no model stream and
    gets (B, 0) noise rows. Each chunk step makes one batched
    policy.sample(params, obs, task ids, noise rows) over the active members,
    from their newest frames, and one sim.predict_chunk(frames, rows, length,
    task ids, chunks, noise rows) -> (B, H, d) call: rows are the B active
    members, all of whose histories are frames[row, :length], since a member
    leaves the batch at its success frame. One score(frames (N, d), task ids
    (N,)) -> (N,) bool call then scores every finite member's H frames,
    and each member is cut at its first hit (envs.first_hits). Members may
    differ in task and start. A member whose predicted frames are not all
    finite stops alone, with one warning, keeping the steps it recorded
    before; its frames are never scored.

    Returns (trajectories, frame histories); a history holds every executed
    frame of its member, cut at the success frame. Histories and each
    trajectory's Steps are views of the shared arrays. The Steps rule
    (core.check_steps) runs once over the whole batch's columns, masked to
    each member's recorded steps (core.episode_steps), so a non-finite chunk
    or log-density on a recorded step raises InvariantViolation.
    """
    if T % H != 0:
        raise ValueError("T must be a multiple of the chunk horizon")
    n, n_chunks = len(tasks), T // H
    task_ids = np.array([task.task_id for task in tasks])
    frames = np.empty((n, T + 1, np.shape(starts)[1]))
    frames[:, 0] = starts
    noise_width = sim.noise_width
    streams = derive_rngs([(*key, 1) for key in keys]
                          + [(*key, 2) for key in keys if noise_width])
    chunk = draw_noise(streams[:n], n_chunks, policy.flat)
    model_noise = (draw_noise(streams[n:], n_chunks, noise_width) if noise_width
                   else np.empty((n, n_chunks, 0)))
    reward = np.zeros((n, n_chunks), dtype=np.uint8)
    logp = np.empty((n, n_chunks))
    n_steps = np.zeros(n, dtype=np.int64)  # chunk steps each member recorded
    length = np.ones(n, dtype=np.int64)  # frames in each member's history
    active = np.arange(n)
    for k in range(n_chunks):
        if not active.size:
            break
        now, ids = k * H, task_ids[active]  # every active member's newest frame is row now
        chunks, logps = policy.sample(params, frames[active, now], ids, chunk[active, k])
        predicted = np.asarray(sim.predict_chunk(frames, active, now + 1, ids, chunks,
                                                 model_noise[active, k]), dtype=np.float64)
        frames[active, now + 1:now + H + 1] = predicted
        chunk[active, k] = np.reshape(chunks, (len(active), policy.flat))
        logp[active, k] = logps
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
    chunk = chunk.reshape(n, n_chunks, H, policy.flat // H)
    # chunk step k starts from frame k * H, so the obs column is a strided view
    obs = frames[:, 0:T:H]
    steps = episode_steps(obs, chunk, reward, logp, n_steps)
    trajectories = [Trajectory(task, s) for task, s in zip(tasks, steps)]
    return trajectories, [frames[i, :size] for i, size in enumerate(length)]


def rollout_imagined(policy, params, wm, reward_fn, groups, T: int, H: int,
                     seed) -> list[Trajectory]:
    """Imagined trajectories of every member of groups, in one lockstep batch.

    groups is one GroupSpec with an int seed, or a GroupSpecs with one seed
    per group; the result lists every member, group by group. Of the group
    with seed s, member i < size starts from the group's start and draws from
    derive_rng(s, i, 1) for the policy and derive_rng(s, i, 2) for the model,
    the latter only if the model reads noise (wm.noise_width > 0), each
    stream's whole episode drawn before the first step (_roll_group),
    so members are independent and reproducible in isolation up to the
    rounding of batched rows (a batch that shrinks to one row takes another
    matmul kernel). wm is the simulator, stepped through its predict_chunk
    once per chunk step over every active member.
    reward_fn is the thresholded learned reward (pace.LearnedReward), or the
    true predicate in oracle tests, turned into _roll_group's scorer once
    (as_scorer). It scores all active members' frames in one call per chunk
    step, frames past a hit included, so it must be a pure function of the
    frame.
    """
    if isinstance(groups, GroupSpec):
        groups, seed = (groups,), (seed,)
    tasks = [group.task for group in groups for _ in range(group.size)]
    keys = [(s, i) for group, s in zip(groups, seed, strict=True) for i in range(group.size)]
    starts = np.repeat([group.start_state for group in groups],
                       [group.size for group in groups], axis=0)
    trajectories, _ = _roll_group(policy, params, wm, as_scorer(reward_fn),
                                  tasks, starts, keys, T, H)
    return trajectories


def rollout_real(policy, params, env, task, n: int, T: int, H: int, seed,
                 starts=None, record_frames: bool = False):
    """n real-env trajectories; evaluation and data collection only.

    The n episodes run as one batch through rollout_imagined's lockstep loop,
    with OracleWorldModel(env) as the simulator and env.is_success, over every
    running episode's frames once per chunk step, as the reward, so an
    oracle-backed imagined group reproduces them bit for bit. task is one
    TaskSpec or a list of n, one per episode, and seed one int or a list of n
    stream keys. Under one seed, episode i has key (seed, i); under a list,
    episode i has key seed[i]. So a key (s, 0) runs as the one episode of a
    call at seed s would, and the keys (s, i) of several seeds run the
    episodes of several one-seed calls in one batch. Unless explicit starts
    are given, an episode resets from stream 0 of its key (reset_starts), and
    its policy stream is stream 1, mirroring rollout_imagined member streams.
    A real collection passes the tasks and keys of round_robin;
    evalx.success_rate passes every task's episodes, each keyed as its
    one-task call keys it. With record_frames, also returns one (states, actions) frame
    episode per trajectory for model training.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tasks = [task] * n if isinstance(task, TaskSpec) else list(task)
    keys = [(seed, i) for i in range(n)] if np.ndim(seed) == 0 else list(seed)
    if len(tasks) != n or len(keys) != n:
        raise ValueError(f"need one task and one seed per episode, {n}, "
                         f"got {len(tasks)} and {len(keys)}")
    if starts is None:
        starts = reset_starts(env, tasks, keys)
    elif len(starts) != n:
        raise ValueError(f"need one start per episode, {n}, got {len(starts)}")
    trajectories, histories = _roll_group(policy, params, OracleWorldModel(env),
                                          lambda frames, _tasks: env.is_success(frames),
                                          tasks, starts, keys, T, H)
    if not record_frames:
        return trajectories
    # every chunk but the last runs whole; a success frame cuts the last
    episodes = [FrameEpisode(traj.task, history, traj.steps.actions[:len(history) - 1])
                for traj, history in zip(trajectories, histories)]
    return trajectories, episodes


def write_batch(path, trajectories, manifest: dict):
    """Persist a rollout batch next to a JSON manifest (sorted keys)."""
    write_store(path, trajectories)
    write_json(str(path) + ".manifest.json", manifest)


def read_batch(path):
    """The batch's trajectories and manifest; a corrupt manifest is MalformedHeader."""
    trajectories = read_store(path)
    with open(str(path) + ".manifest.json", "rb") as fh:
        return trajectories, read_json(fh.read(), "batch manifest")
