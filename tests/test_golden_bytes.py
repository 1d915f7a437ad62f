"""The on-disk bytes of a store, a frame set and a checkpoint stay as pinned.

Each file is built from scripted demos, whose noise comes from PCG64
streams, and from a policy's initial parameters, so no matrix product shapes
the data.
The digests are literal: a change to how a trajectory, an episode or a
parameter dict is held in memory must not move a single written byte.
"""
import hashlib

import numpy as np

from wovr import nn
from wovr.core import (TaskSpec, Trajectory, derive_rng, read_frames, read_store,
                       write_frames, write_store)
from wovr.envs import ReachPoint, replay_frames, scripted_demo
from wovr.grpo import ChunkPolicy
from wovr.rollout import GroupSpec, rollout_imagined
from wovr.worldmodel import OracleWorldModel

H = 4
STORE_SHA256 = "66e86371726534b779b200d3fa51ed0a6b70bcad44673c4d9bb70934583cc0e9"
FRAMES_SHA256 = "de7a1727a102b5755de14ef92a9b98e514a95b18c3d4b317d5a00dad0d1483c7"
CHECKPOINT_SHA256 = "75709edb588e7ec0693efdfdbb17274627c97b0adfa0541be5c8e04dd73ef920"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_trajectories(env):
    success = scripted_demo(env, TaskSpec(0), 24, noise_level=0.02, chunk=H, max_len=32)
    # one chunk of four capped moves cannot reach the target
    failure = scripted_demo(env, TaskSpec(1), 22, noise_level=0.02, chunk=H, max_len=H)
    other_task = Trajectory(TaskSpec(3), failure.steps)
    # a zero-length rollout records no step
    policy = ChunkPolicy(env.state_dim, env.n_tasks, H, env.action_dim, hidden=(4,))
    (empty,) = rollout_imagined(policy, policy.init(derive_rng(0)), OracleWorldModel(env),
                                lambda _frame, _task: 0,
                                GroupSpec(TaskSpec(2), np.full(env.state_dim, 0.5),
                                          "initial", 1), 0, H, 0)
    return [success, failure, other_task, empty]


def test_written_bytes_match_their_pinned_digests(tmp_path):
    env = ReachPoint()
    trajs = golden_trajectories(env)
    assert [(t.success, len(t.steps)) for t in trajs] == [
        (True, 2), (False, 1), (False, 1), (False, 0)]
    store, frames, checkpoint = (tmp_path / name for name in ("s.wovs", "f.wovf", "c.wovc"))
    write_store(store, trajs)
    assert read_store(store) == trajs
    episodes = [replay_frames(env, t) for t in trajs[:2]]
    write_frames(frames, episodes, env.name)
    assert read_frames(frames) == (episodes, env.name)
    policy = ChunkPolicy(env.state_dim, env.n_tasks, H, env.action_dim, hidden=(8, 8))
    nn.save_params(checkpoint, policy.init(derive_rng(5)))
    assert (sha256(store), sha256(frames), sha256(checkpoint)) == (
        STORE_SHA256, FRAMES_SHA256, CHECKPOINT_SHA256)
