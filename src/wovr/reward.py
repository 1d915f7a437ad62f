"""Learned sparse reward: a binary success classifier, thresholded to 0/1.

The classifier maps (state, task token) to a success logit. Its training data
is columns over collected frames (states, task ids, labels), labeled by the
environment's own success predicate, with negative rows subsampled and the
positive class reweighted, since success states are a sliver of any corpus.
"""
from __future__ import annotations

import numpy as np

from . import nn
from .core import FrameEpisode, TaskSpec, task_features
from .nn import Mlp, softplus, tmean, value_and_grad


class RewardNet:
    """Architecture container; parameters live in an external dict."""

    def __init__(self, obs_dim: int, n_tasks: int, hidden=(64, 64)):
        self.obs_dim = obs_dim
        self.n_tasks = n_tasks
        self.mlp = Mlp("rw", [obs_dim + n_tasks, *hidden, 1])

    def init(self, rng: np.random.Generator) -> dict:
        return self.mlp.init(rng)

    def logit(self, params: dict, feats: np.ndarray):
        """Success logits of feature rows (N, obs+tasks) -> (N,); one row -> 0-d."""
        return self.mlp(params, feats)[..., 0]


def bce_with_logits(logits, labels: np.ndarray, pos_weight: float = 1.0):
    """Mean binary cross-entropy from logits (tape-friendly, overflow-safe).

    pos_weight multiplies the positive-label term only; with pos_weight 1 a
    logit of 0 costs exactly ln 2 on either label.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be 0 or 1")
    pos = softplus(-logits) * (pos_weight * labels)
    neg = softplus(logits) * (1.0 - labels)
    return tmean(pos + neg)


def success_probs(net: RewardNet, params: dict, feats: np.ndarray) -> np.ndarray:
    """Success probabilities of feature rows (N, obs+tasks) -> (N,): the
    sigmoid (nn.sigmoid) of each classifier logit."""
    return nn.sigmoid(net.logit(params, feats))


def predict_success(net: RewardNet, params: dict, obs, task: TaskSpec) -> float:
    """Success probability of one state: success_probs on a single row."""
    return float(success_probs(net, params, task_features(obs, task, net.n_tasks)[None])[0])


def sparse_reward(prob: float, threshold: float = 0.5) -> int:
    """Indicator reward: 1 iff the success probability reaches the threshold."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    return 1 if prob >= threshold else 0


def label_episode_frames(episodes: list[FrameEpisode], env) -> tuple:
    """Every frame as columns (states (N, d), task ids (N,), labels (N,) uint8),
    episode by episode, labeled by one env.is_success call over all N states."""
    states = np.concatenate([ep.states for ep in episodes])
    task_ids = np.repeat([ep.task.task_id for ep in episodes],
                         [len(ep.states) for ep in episodes])
    return states, task_ids, env.is_success(states).astype(np.uint8)


def subsample_negatives(labels: np.ndarray, rng: np.random.Generator,
                        max_ratio: float) -> np.ndarray:
    """Kept row indices: every positive, then at most max_ratio negatives per
    positive (one draw without replacement), each part in row order."""
    pos, neg = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
    cap = int(max_ratio * len(pos))
    if len(neg) > cap:
        neg = neg[np.sort(rng.choice(len(neg), size=cap, replace=False))]
    return np.concatenate([pos, neg])


def train_classifier(examples: tuple, net: RewardNet, rng: np.random.Generator,
                     reward: dict) -> tuple[dict, list[float]]:
    """Fit the success classifier; returns (params, per-epoch mean losses).

    examples are label_episode_frames' columns, and reward is the config's
    reward section, validated by core.validate_config: epochs, batch_size and
    Adam's lr, neg_ratio and pos_weight. Negatives are subsampled to at most
    neg_ratio per positive (ValueError if that keeps none). The positive term
    is then reweighted by pos_weight: None uses the post-subsample n_neg/n_pos
    ratio, "sqrt" its square root (trades recall for precision, which matters
    when the classifier gates imagined rollouts), and a number is taken as-is.
    """
    states, task_ids, labels = examples
    n_pos = int(np.count_nonzero(labels == 1))
    if n_pos == 0 or n_pos == len(labels):
        raise ValueError("training data must contain both classes")
    keep = subsample_negatives(labels, rng, reward["neg_ratio"])
    n_neg = len(keep) - n_pos
    if n_neg == 0:
        raise ValueError(f"reward.neg_ratio {reward['neg_ratio']} keeps no negative "
                         f"for {n_pos} positives")
    ratio = n_neg / n_pos
    pos_weight = reward["pos_weight"]
    if pos_weight is None:
        pos_weight = ratio
    elif pos_weight == "sqrt":
        pos_weight = ratio**0.5
    else:
        pos_weight = float(pos_weight)

    feats = task_features(states[keep], task_ids[keep], net.n_tasks)
    labels = labels[keep].astype(np.float64)

    params = net.init(rng)
    opt = nn.adam_init(params)
    losses, batch_size = [], reward["batch_size"]
    for _ in range(reward["epochs"]):
        order = rng.permutation(len(keep))
        epoch_losses = []
        for lo in range(0, len(order), batch_size):
            idx = order[lo : lo + batch_size]
            fb, yb = feats[idx], labels[idx]

            def loss_fn(p):
                return bce_with_logits(net.logit(p, fb), yb, pos_weight)

            value, grads = value_and_grad(loss_fn, params)
            params = nn.adam_step(params, grads, opt, lr=reward["lr"])
            epoch_losses.append(value)
        losses.append(float(np.mean(epoch_losses)))
    return params, losses
