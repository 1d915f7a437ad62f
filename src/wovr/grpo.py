"""Group-relative policy optimization over imagined trajectories.

The policy emits an action chunk (H low-level actions) per call, so there is
exactly one importance ratio per recorded step. Advantages are group returns
minus the group mean, nothing else: no std normalization, no KL penalty, no
value baseline.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .core import Trajectory, one_hot
from .nn import Mlp, Tensor, clip, exp, minimum, tsum, value_and_grad

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_2PI = float(np.log(2.0 * np.pi))


class ChunkPolicy:
    """Diagonal-Gaussian policy over flattened action chunks.

    Mean comes from an Mlp on (obs, task one-hot); the log-std vector is a
    free state-independent parameter, clamped to [-5, 2]. Samples are clipped
    to the action box at emission and the stored log-density is evaluated at
    the clipped value, so the behavior density of a stored chunk is exactly
    reproducible later.
    """

    def __init__(self, obs_dim, n_tasks, horizon, a_dim, hidden=(64, 64),
                 action_low=-2.0, action_high=2.0, init_log_std=-1.5, name="pi"):
        self.obs_dim = obs_dim
        self.n_tasks = n_tasks
        self.horizon = horizon
        self.a_dim = a_dim
        self.flat = horizon * a_dim
        self.action_low = action_low
        self.action_high = action_high
        self.init_log_std = init_log_std
        self.name = name
        self.trunk = Mlp(name, [obs_dim + n_tasks, *hidden, self.flat])

    def init(self, rng: np.random.Generator) -> dict:
        params = self.trunk.init(rng)
        params[f"{self.name}.log_std"] = np.full(self.flat, self.init_log_std)
        return params

    def features(self, obs: np.ndarray, task) -> np.ndarray:
        """(obs, task one-hot) for one row (d,) or a batch of rows (B, d)."""
        obs = np.asarray(obs, dtype=np.float64)
        token = np.broadcast_to(one_hot(task.task_id, self.n_tasks),
                                obs.shape[:-1] + (self.n_tasks,))
        return np.concatenate([obs, token], axis=-1)

    def mean(self, params: dict, obs, task) -> np.ndarray:
        return self.trunk(params, self.features(obs, task))

    def log_std(self, params: dict) -> np.ndarray:
        return np.clip(params[f"{self.name}.log_std"], LOG_STD_MIN, LOG_STD_MAX)

    def _density(self, params: dict, mu, flat_chunks):
        log_sigma = self.log_std(params)
        z = (flat_chunks - mu) * np.exp(-log_sigma)
        return -0.5 * np.sum(z * z, axis=-1) - np.sum(log_sigma) - 0.5 * self.flat * LOG_2PI

    def sample(self, params: dict, obs, task, rngs: list[np.random.Generator]):
        """One chunk per row of obs (B, d), row i drawing from rngs[i].

        Returns ((B, H, a_dim) chunks, (B,) behavior log-densities). The noise
        is drawn per row and then stacked, so a row's draws do not depend on
        the other rows.
        """
        mu = self.mean(params, obs, task)
        sigma = np.exp(self.log_std(params))
        noise = np.array([rng.normal(size=self.flat) for rng in rngs])
        clipped = np.clip(mu + sigma * noise, self.action_low, self.action_high)
        logp = self._density(params, mu, clipped)
        return clipped.reshape(len(rngs), self.horizon, self.a_dim), logp

    def logprob(self, params: dict, feats: np.ndarray, chunks: np.ndarray):
        """Log-densities of stored chunks (N, H*a_dim) given features (N, obs+tasks).

        One row (obs+tasks,) with one flat chunk gives a scalar. A Tensor when
        params are Tensor leaves.
        """
        return self._density(params, self.trunk(params, feats), chunks)

    def clamp(self, params: dict) -> dict:
        params[f"{self.name}.log_std"] = np.clip(
            params[f"{self.name}.log_std"], LOG_STD_MIN, LOG_STD_MAX
        )
        return params


def discounted_return(traj: Trajectory, gamma: float) -> float:
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    return float(sum(step.reward * gamma**t for t, step in enumerate(traj.steps)))


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


def build_group(trajectories: list[Trajectory], gamma: float) -> GroupBatch:
    returns = np.array([discounted_return(t, gamma) for t in trajectories])
    return GroupBatch(trajectories, returns, group_advantages(returns))


def _flatten_valid_steps(policy: ChunkPolicy, groups: list[GroupBatch]):
    """Stack every in-mask step of every trajectory into flat arrays.

    Steps beyond valid_len are excluded entirely, which realizes the mask:
    they cannot contribute to the objective or its gradient.
    """
    feats, chunks, logp_old, weights, advs = [], [], [], [], []
    n_traj = sum(len(g.trajectories) for g in groups)
    for group in groups:
        for traj, adv in zip(group.trajectories, group.advantages):
            t_valid = traj.valid_len
            if t_valid == 0:
                continue
            for step in traj.steps[:t_valid]:
                feats.append(policy.features(step.obs, traj.task))
                chunks.append(np.asarray(step.chunk).reshape(policy.flat))
                logp_old.append(step.logp_old)
                weights.append(1.0 / (n_traj * t_valid))
                advs.append(adv)
    if not feats:
        return None
    return (
        np.array(feats),
        np.array(chunks),
        np.array(logp_old),
        np.array(weights),
        np.array(advs),
    )


def grpo_objective(policy: ChunkPolicy, params: dict, groups: list[GroupBatch],
                   clip_eps: float):
    """Masked, length-normalized clipped surrogate, as a tape scalar.

    (1 / n_traj) * sum_i (1 / T_i_valid) * sum_{t <= T_i_valid}
        min(rho_t * A_i, clip(rho_t, 1-eps, 1+eps) * A_i)
    """
    flat = _flatten_valid_steps(policy, groups)
    if flat is None:
        return Tensor(0.0)
    feats, chunks, logp_old, weights, advs = flat
    if not np.all(np.isfinite(logp_old)):
        raise ValueError("missing or non-finite behavior log-density")
    rho = exp(policy.logprob(params, feats, chunks) - logp_old)
    surrogate = minimum(rho * advs, clip(rho, 1.0 - clip_eps, 1.0 + clip_eps) * advs)
    return tsum(surrogate * weights)


def ratio_stats(policy: ChunkPolicy, params: dict, groups: list[GroupBatch],
                clip_eps: float) -> dict:
    flat = _flatten_valid_steps(policy, groups)
    if flat is None:
        return {"mean_ratio": 1.0, "clip_fraction": 0.0, "n_steps": 0}
    feats, chunks, logp_old, _, _ = flat
    rho = np.exp(policy.logprob(params, feats, chunks) - logp_old)
    outside = (rho < 1.0 - clip_eps) | (rho > 1.0 + clip_eps)
    return {
        "mean_ratio": float(rho.mean()),
        "clip_fraction": float(outside.mean()),
        "n_steps": int(rho.size),
    }


def grpo_update(policy: ChunkPolicy, params: dict, groups: list[GroupBatch],
                clip_eps: float, inner_epochs: int, opt_state: dict | None = None,
                lr: float = 3e-4) -> tuple[dict, dict, list[dict]]:
    """Gradient-ascent epochs on the clipped surrogate.

    Returns (params', opt_state, per-epoch stats). A non-finite objective or
    gradient aborts the whole update and hands back the original parameters.
    """
    if not groups:
        raise ValueError("no groups to update on")
    original = {k: v.copy() for k, v in params.items()}
    if opt_state is None:
        opt_state = nn.adam_init(params)
    logs = []
    for _ in range(inner_epochs):
        value, grads = value_and_grad(
            lambda leaves: -grpo_objective(policy, leaves, groups, clip_eps), params
        )
        if not np.isfinite(value) or any(not np.all(np.isfinite(g)) for g in grads.values()):
            return original, opt_state, logs + [{"aborted": True}]
        params = policy.clamp(nn.adam_step(params, grads, opt_state, lr=lr))
        stats = ratio_stats(policy, params, groups, clip_eps)
        stats["objective"] = -value
        logs.append(stats)
    return params, opt_state, logs
