"""The oracle rung of the simulator ladder, as a learning gate.

With true dynamics and the true success predicate, imagined GRPO is RL in
the real env, so it must improve a behaviour-cloned base policy. Each seed
clones reachpoint's default demos at the default 60 epochs, then runs 320
GRPO updates of 4 groups of 8 in an OracleWorldModel at rl.lr = 1e-3 from
fresh starts only (no keyframes). Success rate is over 4 tasks x 50 real
episodes, task t at seed 99 + t. A policy whose stored density is not the
density of the chunk it sent (a chunk clipped at emission, its density read
at the clip) drifts its mean out of the action bound and collapses here.
"""
from collections import deque

import numpy as np
import pytest

from wovr.cli import build_policy, clone_demos
from wovr.core import TaskSpec, derive_seeds, make_config, task_features
from wovr.envs import get_env, scripted_demo
from wovr.evalx import success_rate
from wovr.pace import _rl_stage
from wovr.rollout import KEYFRAME_CAPACITY
from wovr.worldmodel import OracleWorldModel

SEEDS = (0, 1, 2)
EVAL_N = 50


class TrueReward:
    """The env's success predicate as a rollout scorer."""

    def __init__(self, env):
        self.env = env

    def batch(self, frames, _tasks):
        return self.env.is_success(frames)


def mean_sr(env, policy, params, cfg) -> float:
    run = cfg["run"]
    return success_rate(policy, params, env, [TaskSpec(t) for t in range(env.n_tasks)], EVAL_N,
                        run["max_episode_len"], run["chunk"], [99 + t for t in range(env.n_tasks)])


def oracle_rung(seed: int) -> tuple[float, float, float]:
    """(base SR, final SR, max |mean action| over demo states) at seed."""
    cfg = make_config({"seed": seed, "env": "reachpoint", "rl": {"lr": 1.0e-3},
                       "run": {"kir_fraction": 0.0},
                       "plan": {"rl_updates_per_stage": 320, "groups_per_update": 4}})
    env, run, n = get_env(cfg["env"]), cfg["run"], cfg["demo"]["n"]
    # the demos and the clone of `wovr demo-gen` and `wovr clone` at this seed
    demos = [scripted_demo(env, TaskSpec(i % env.n_tasks), s, cfg["demo"]["noise"],
                           chunk=run["chunk"], max_len=run["max_episode_len"])
             for i, s in enumerate(derive_seeds([(seed, 71, i) for i in range(n)]))]
    policy = build_policy(env, cfg)
    base, _ = clone_demos(demos, policy, cfg)
    final, _ = _rl_stage(policy, base, OracleWorldModel(env), TrueReward(env),
                         env, cfg, deque(maxlen=KEYFRAME_CAPACITY), tag=14)
    feats = np.concatenate([task_features(d.steps.obs, d.task, env.n_tasks) for d in demos])
    max_mu = float(np.abs(policy.trunk(final, feats)).max())
    return mean_sr(env, policy, base, cfg), mean_sr(env, policy, final, cfg), max_mu


@pytest.mark.slow
def test_grpo_improves_the_base_policy_under_true_dynamics():
    runs = [oracle_rung(seed) for seed in SEEDS]
    gains = [final - base for base, final, _ in runs]
    assert all(gain >= 0.0 for gain in gains), runs
    assert np.mean(gains) >= 0.05, runs
    assert all(max_mu < 5.0 for _, _, max_mu in runs), runs
