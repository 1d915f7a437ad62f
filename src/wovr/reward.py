"""Learned sparse reward: a binary success classifier, thresholded to 0/1.

The classifier maps (state, task token) to a success logit. Training data is
labeled by the environment's own success predicate on collected frames, with
negatives subsampled and the positive class reweighted, since success states
are a sliver of any rollout corpus.
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


def label_episode_frames(episodes: list[FrameEpisode], env) -> list:
    """(state, task, label) for every frame, labeled by the env's own predicate."""
    out = []
    for ep in episodes:
        for state in ep.states:
            out.append((state, ep.task, int(env.is_success(state))))
    return out


def subsample_negatives(examples: list, rng: np.random.Generator,
                        max_ratio: float) -> list:
    """Keep all positives and at most max_ratio negatives per positive."""
    pos = [ex for ex in examples if ex[2] == 1]
    neg = [ex for ex in examples if ex[2] == 0]
    cap = int(max_ratio * len(pos))
    if len(neg) > cap:
        keep = rng.choice(len(neg), size=cap, replace=False)
        neg = [neg[i] for i in sorted(keep)]
    return pos + neg


def train_classifier(examples: list, net: RewardNet, rng: np.random.Generator,
                     reward: dict) -> tuple[dict, list[float]]:
    """Fit the success classifier; returns (params, per-epoch mean losses).

    reward is the config's reward section, validated by core.validate_config:
    epochs, batch_size and Adam's lr, neg_ratio and pos_weight. Negatives are
    subsampled to at most neg_ratio per positive. The positive term is then
    reweighted by pos_weight: None uses the post-subsample n_neg/n_pos ratio,
    "sqrt" its square root (trades recall for precision, which matters when
    the classifier gates imagined rollouts), and a number is taken as-is.
    """
    n_pos = sum(1 for ex in examples if ex[2] == 1)
    n_neg = len(examples) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("training data must contain both classes")
    examples = subsample_negatives(examples, rng, reward["neg_ratio"])
    n_pos = sum(1 for ex in examples if ex[2] == 1)
    ratio = (len(examples) - n_pos) / n_pos
    pos_weight = reward["pos_weight"]
    if pos_weight is None:
        pos_weight = ratio
    elif pos_weight == "sqrt":
        pos_weight = ratio**0.5
    else:
        pos_weight = float(pos_weight)

    feats = np.array([task_features(obs, task, net.n_tasks) for obs, task, _ in examples])
    labels = np.array([lab for _, _, lab in examples], dtype=np.float64)

    params = net.init(rng)
    opt = nn.adam_init(params)
    losses, batch_size = [], reward["batch_size"]
    for _ in range(reward["epochs"]):
        order = rng.permutation(len(examples))
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
