"""Group-relative policy optimization over imagined trajectories.

The policy emits an action chunk (H low-level actions) per call, so there is
exactly one importance ratio per recorded step. A return is the episode's
outcome, 1.0 for success and 0.0 otherwise, and advantages are group returns
minus the group mean, nothing else: no std normalization, no KL penalty, no
value baseline. An episode ends at its reward step (core.check_steps), so
every recorded step is in the mask: each update stacks every step of its
groups into one StepBatch, once, and every inner epoch's objective reads it.
The surrogate is plain numpy over `ratios` that records the tape on Tensor
leaves, so the ratio stats, taken once per update, share its one formula.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nn
from .core import Trajectory, task_features
from .nn import Mlp, value_and_grad

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_2PI = float(np.log(2.0 * np.pi))


class ChunkPolicy:
    """Diagonal-Gaussian policy over flattened action chunks.

    Mean comes from an Mlp on (obs, task one-hot); the log-std vector is a
    free state-independent parameter, clamped to [-5, 2]. sample turns one
    standard-normal noise row of width flat = H * a_dim per observation into a
    chunk; the rollout draws those rows from each member's policy stream, so
    sampling itself draws nothing. A sample is the chunk as drawn, never
    clipped, and its log-density is that chunk's, so the behavior density of
    a stored chunk is exactly reproducible later and is the density of what
    the policy sent; the env and the world model clamp an action where they
    execute it (envs.ACTION_BOUND).
    """

    name = "pi"  # the prefix of every parameter key

    def __init__(self, obs_dim, n_tasks, horizon, a_dim, hidden=(64, 64), init_log_std=-1.5):
        self.obs_dim = obs_dim
        self.n_tasks = n_tasks
        self.horizon = horizon
        self.a_dim = a_dim
        self.flat = horizon * a_dim
        self.init_log_std = init_log_std
        self.trunk = Mlp(self.name, [obs_dim + n_tasks, *hidden, self.flat])

    def init(self, rng: np.random.Generator) -> dict:
        params = self.trunk.init(rng)
        params[f"{self.name}.log_std"] = np.full(self.flat, self.init_log_std)
        return params

    def mean(self, params: dict, obs, task) -> np.ndarray:
        return self.trunk(params, task_features(obs, task, self.n_tasks))

    def log_std(self, params: dict) -> np.ndarray:
        return np.clip(params[f"{self.name}.log_std"], LOG_STD_MIN, LOG_STD_MAX)

    def _density(self, log_sigma, mu, flat_chunks):
        z = flat_chunks - mu
        z *= np.exp(-log_sigma)
        z *= z
        logp = np.sum(z, axis=-1)
        logp *= -0.5
        logp -= np.sum(log_sigma)
        logp -= 0.5 * self.flat * LOG_2PI
        return logp

    def sample(self, params: dict, obs, task, noise):
        """One chunk per row of obs (B, d), row i from the standard-normal
        noise row noise[i] (B, H*a_dim): mean + std * noise.

        Returns ((B, H, a_dim) chunks, (B,) behavior log-densities). A pure
        function of its inputs; the caller draws the noise.
        """
        noise, b = np.asarray(noise, dtype=np.float64), np.shape(obs)[0]
        if noise.shape != (b, self.flat):
            raise ValueError(f"noise must be (B, {self.flat}) for {b} rows, got {noise.shape}")
        mu = self.mean(params, obs, task)
        log_sigma = self.log_std(params)
        flat = np.exp(log_sigma) * noise
        flat += mu
        return flat.reshape(b, self.horizon, self.a_dim), self._density(log_sigma, mu, flat)

    def logprob(self, params: dict, feats: np.ndarray, chunks: np.ndarray):
        """Log-densities of stored chunks (N, H*a_dim) given features (N, obs+tasks).

        One row (obs+tasks,) with one flat chunk gives a scalar. A Tensor when
        params are Tensor leaves.
        """
        return self._density(self.log_std(params), self.trunk(params, feats), chunks)

    def clamp(self, params: dict) -> dict:
        params[f"{self.name}.log_std"] = self.log_std(params)
        return params


def group_advantages(returns) -> np.ndarray:
    returns = np.asarray(returns, dtype=np.float64)
    if returns.size < 2:
        raise ValueError("a group needs at least 2 members")
    return returns - returns.mean()


@dataclass
class GroupBatch:
    """One rollout group with its returns and mean-subtracted advantages."""

    trajectories: list[Trajectory]
    returns: np.ndarray
    advantages: np.ndarray

    def __post_init__(self):
        g = len(self.trajectories)
        if self.returns.shape != (g,) or self.advantages.shape != (g,):
            raise ValueError("returns/advantages must have one entry per member")
        bound = 1e-12 * g * max(1.0, np.abs(self.returns).max())
        if abs(self.advantages.sum()) > bound:
            raise ValueError("advantages must sum to zero within rounding")


def build_group(trajectories: list[Trajectory]) -> GroupBatch:
    returns = np.array([float(t.success) for t in trajectories])
    return GroupBatch(trajectories, returns, group_advantages(returns))


class StepBatch(NamedTuple):
    """One row per recorded step of an update's groups, in trajectory order."""

    feats: np.ndarray       # (N, obs+tasks) policy inputs
    chunks: np.ndarray      # (N, H*a_dim) stored flat chunks
    logp_old: np.ndarray    # (N,) behavior log-densities
    weights: np.ndarray     # (N,) 1 / (n_traj * T) of the row's trajectory
    advantages: np.ndarray  # (N,) the row's trajectory advantage


def step_batch(policy: ChunkPolicy, groups: list[GroupBatch]) -> StepBatch | None:
    """Stack every recorded step of every trajectory; None if there is none.

    An episode ends at its reward step, so its recorded steps are exactly
    the ones that GRPO's mask keeps: no step after termination exists to be
    excluded. n_traj counts every member, including those with no step. The
    steps' obs, chunks and log-densities are gathered in one concatenation
    each, the features in one task_features call over per-row task ids, and
    each row's weight and advantage are its trajectory's, repeated. Every
    log-density is finite: core.check_steps rejected the steps otherwise.
    """
    trajs = [traj for group in groups for traj in group.trajectories]
    lens = np.array([len(traj.steps) for traj in trajs], dtype=np.int64)
    kept = np.flatnonzero(lens)  # a member without steps has no (n, d) columns to join
    if not kept.size:
        return None
    steps = [trajs[i].steps for i in kept]
    lens, task_ids = lens[kept], np.array([trajs[i].task.task_id for i in kept])
    return StepBatch(
        task_features(np.concatenate([s.obs for s in steps]), np.repeat(task_ids, lens),
                      policy.n_tasks),
        np.concatenate([s.chunk for s in steps]).reshape(-1, policy.flat),
        np.concatenate([s.logp_old for s in steps]),
        np.repeat(1.0 / (len(trajs) * lens), lens),
        np.repeat(np.concatenate([g.advantages for g in groups])[kept], lens),
    )


def ratios(policy: ChunkPolicy, params: dict, batch: StepBatch):
    """Importance ratios pi / pi_old of the batch's rows, (N,)."""
    return np.exp(policy.logprob(params, batch.feats, batch.chunks) - batch.logp_old)


def grpo_objective(policy: ChunkPolicy, params: dict, batch: StepBatch, clip_eps: float):
    """Length-normalized clipped surrogate, a scalar (a tape scalar on Tensor leaves).

    (1 / n_traj) * sum_i (1 / T_i) * sum_{t <= T_i}
        min(rho_t * A_i, clip(rho_t, 1-eps, 1+eps) * A_i)

    over the T_i recorded steps of trajectory i: an episode ends at its
    reward step, so these are the steps that GRPO's termination mask keeps.
    """
    rho = ratios(policy, params, batch)
    advs = batch.advantages
    surrogate = np.minimum(rho * advs, np.clip(rho, 1.0 - clip_eps, 1.0 + clip_eps) * advs)
    return np.sum(surrogate * batch.weights)


def grpo_update(policy: ChunkPolicy, params: dict, groups: list[GroupBatch],
                clip_eps: float, inner_epochs: int, lr: float,
                opt_state: dict | None = None) -> tuple[dict, dict, dict]:
    """Gradient-ascent epochs on the clipped surrogate of the groups' StepBatch.

    Returns (params', opt_state, record): the ratio stats at params'
    (mean_ratio, clip_fraction, n_steps), taken once after the last epoch,
    and that epoch's objective, so E epochs run E + 1 policy forwards. A
    non-finite objective or gradient aborts the whole update: it hands back
    the original parameters, rolls opt_state back to its entry step count
    and moments, and records {"aborted": True}. When no member has a step
    (each aborted on its first chunk step) the objective is 0 with a zero
    gradient, on which Adam still steps, so its momentum carries on.
    """
    if not groups:
        raise ValueError("no groups to update on")
    batch = step_batch(policy, groups)
    if opt_state is None:
        opt_state = nn.adam_init(params)
    # adam_step writes none of its input arrays (params, m, v), so the entry
    # dicts, shallow-copied, are the whole state to roll back to
    original = params
    entry = {"step": opt_state["step"], "m": dict(opt_state["m"]), "v": dict(opt_state["v"])}
    if batch is None:
        zero = {k: np.zeros_like(v) for k, v in params.items()}
        for _ in range(inner_epochs):
            params = policy.clamp(nn.adam_step(params, zero, opt_state, lr=lr))
        return params, opt_state, {"mean_ratio": 1.0, "clip_fraction": 0.0, "n_steps": 0,
                                   "objective": 0.0}
    for _ in range(inner_epochs):
        value, grads = value_and_grad(
            lambda leaves: -grpo_objective(policy, leaves, batch, clip_eps), params
        )
        if not np.isfinite(value) or any(not np.all(np.isfinite(g)) for g in grads.values()):
            opt_state.update(entry)
            return original, opt_state, {"aborted": True}
        params = policy.clamp(nn.adam_step(params, grads, opt_state, lr=lr))
    rho = ratios(policy, params, batch)
    outside = (rho < 1.0 - clip_eps) | (rho > 1.0 + clip_eps)
    return params, opt_state, {"mean_ratio": float(rho.mean()),
                               "clip_fraction": float(outside.mean()),
                               "n_steps": int(rho.size), "objective": -value}
