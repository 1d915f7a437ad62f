"""Evaluation: real success rate, hallucination rate, error-vs-horizon curves.

The hallucination metric is the outcome mismatch between an imagined rollout
and an open-loop replay of its executed actions in the real env. The horizon
curve replays real action sequences through the model closed-loop and reports
state MSE at increasing depths. Every metric vanishes when the model is the
environment oracle, which pins the plumbing.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import TaskSpec, derive_rng
from .envs import step_chunks
from .rollout import _executed_actions, _imagined_dynamics, _roll_group, rollout_real


def success_rate(policy, params, env, task: TaskSpec, n: int, T: int, H: int,
                 seed: int) -> float:
    """Fraction of n independent real episodes that reach success."""
    if n < 1:
        raise ValueError("n must be >= 1")
    trajs = rollout_real(policy, params, env, task, n, T, H, seed)
    return sum(t.success for t in trajs) / n


def hallucination_rate(policy, params, wm, reward_fn, env, task: TaskSpec,
                       n: int, T: int, H: int, seed: int) -> dict:
    """Imagined-vs-real outcome mismatch over n paired episodes.

    Episode i is member i of one lockstep imagined group, started from
    derive_rng(seed, i, 0) as in rollout_real. Its executed actions, up to its
    last imagined frame, are replayed open loop in the real env from the same
    start. Returns rate plus the two one-sided fractions: spurious (imagined
    success, real failure — the dangerous direction) and missed (imagined
    failure, real success).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    starts = [env.reset_state(task, derive_rng(seed, i, 0)) for i in range(n)]
    trajectories, histories = _roll_group(policy, params, _imagined_dynamics(wm, task),
                                          reward_fn, task, starts, "initial", T, H, seed)
    spurious = missed = 0
    for start, traj, history in zip(starts, trajectories, histories):
        actions = _executed_actions(traj, len(history) - 1, H)
        real = any(env.is_success(frame) for frame in step_chunks(env, [start], [actions])[0])
        if traj.success and not real:
            spurious += 1
        elif real and not traj.success:
            missed += 1
    return {
        "rate": (spurious + missed) / n,
        "spurious": spurious / n,
        "missed": missed / n,
        "n": n,
    }


def horizon_error(wm, policy, params, env, task: TaskSpec, horizons,
                  n: int, T: int, H: int, seed: int) -> list[tuple[int, float]]:
    """Mean squared state error of closed-loop model replay at each horizon.

    The n episodes run together: the policy runs in the real env for
    max(horizons) frames with one batched sample per chunk step (success does
    not stop the recording; every horizon needs a state), then the same
    action chunks are replayed through the model closed-loop from the same
    starts, one batched predict_chunk per chunk step. Episode i draws from
    derive_rng(seed, i, ·). The curve pairs each horizon L with the mean over
    episodes of the state MSE at frame L.
    """
    horizons = [int(h) for h in horizons]
    if not horizons:
        raise ValueError("horizons must be non-empty")
    if any(h < 1 or h % H != 0 for h in horizons):
        raise ValueError("every horizon must be a positive multiple of H")
    if sorted(set(horizons)) != horizons:
        raise ValueError("horizons must be strictly increasing")
    if horizons[-1] > T:
        raise ValueError("horizon exceeds the episode cap")
    if n < 1:
        raise ValueError("n must be >= 1")
    depth = horizons[-1]
    starts = [env.reset_state(task, derive_rng(seed, i, 0)) for i in range(n)]
    policy_rngs = [derive_rng(seed, i, 1) for i in range(n)]
    model_rngs = [derive_rng(seed, i, 2) for i in range(n)]
    # real recording, fixed length: one batched policy call per chunk step
    real_states = [[s] for s in starts]
    chunks = []
    for _ in range(depth // H):
        obs = np.array([states[-1] for states in real_states])
        batch, _ = policy.sample(params, obs, task, policy_rngs)
        chunks.append(batch)
        for states, rows in zip(real_states, step_chunks(env, obs, batch)):
            states.extend(rows)
    # model replay of the same chunks, closed loop on its own frames
    model_states = [[s] for s in starts]
    dynamics = _imagined_dynamics(wm, task)
    for batch in chunks:
        frames = np.asarray(dynamics(model_states, batch, model_rngs), dtype=np.float64)
        for states, rows in zip(model_states, frames):
            states.extend(rows)
    return [(h, float(np.mean([np.mean((real[h] - model[h]) ** 2)
                               for real, model in zip(real_states, model_states)])))
            for h in horizons]


@dataclass
class EvalReport:
    """One evaluation bundle; any metric may be absent (None)."""

    seeds: list = field(default_factory=list)
    checkpoint_hashes: dict = field(default_factory=dict)
    success_rate: float | None = None
    sr_trials: int | None = None
    hallucination: dict | None = None
    horizon_curve: list | None = None

    def validate(self):
        for name, rate in (("success_rate", self.success_rate),
                           ("hallucination rate",
                            self.hallucination["rate"] if self.hallucination else None)):
            if rate is not None and not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} outside [0, 1]")
        if self.horizon_curve is not None:
            hs = [h for h, _ in self.horizon_curve]
            if sorted(set(hs)) != hs:
                raise ValueError("horizon list must be strictly increasing")
        return self

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        raw = json.loads(text)
        curve = raw.get("horizon_curve")
        if curve is not None:
            curve = [(int(h), float(e)) for h, e in curve]
        return cls(
            seeds=raw.get("seeds", []),
            checkpoint_hashes=raw.get("checkpoint_hashes", {}),
            success_rate=raw.get("success_rate"),
            sr_trials=raw.get("sr_trials"),
            hallucination=raw.get("hallucination"),
            horizon_curve=curve,
        ).validate()

    def write(self, json_path, csv_path=None):
        with open(json_path, "w") as fh:
            fh.write(self.to_json())
        if csv_path is not None and self.horizon_curve is not None:
            lines = ["horizon,mse"]
            lines += [f"{h},{e!r}" for h, e in self.horizon_curve]
            with open(csv_path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
