"""Each model has one forward: plain numpy on array params, the tape on Tensor leaves.

Both modes must give the same numbers, bit for bit, so the simulator that
imagined rollouts sample from is exactly the model that training fits.
"""
import numpy as np
import pytest

from wovr.core import TaskSpec, task_features
from wovr.grpo import ChunkPolicy
from wovr.nn import Mlp, Tensor
from wovr.reward import RewardNet
from wovr.worldmodel import WmNet


def perturbed(params, rng):
    """Move every param off its init, so zero-initialized heads do work too."""
    return {k: v + 0.3 * rng.normal(size=v.shape) for k, v in params.items()}


def mlp_case(rng):
    mlp = Mlp("f", [3, 5, 2])
    x = rng.normal(size=(4, 3))
    return perturbed(mlp.init(rng), rng), lambda p: mlp(p, x)


def wm_case(b):
    def make(rng):
        net = WmNet(2, 2, n_tasks=2, horizon=3, context=2, width=16, act_emb_dim=6)
        x = rng.normal(size=(b, net.out_dim))
        anchors = rng.normal(size=(b, net.d))
        memories = rng.normal(size=(b, net.context, net.d))
        tasks = np.eye(2)[rng.integers(0, 2, size=b)]
        chunks = rng.normal(size=(b, net.horizon * net.a_dim))
        return (perturbed(net.init(rng), rng),
                lambda p: net.u_apply(p, x, anchors, memories, tasks, chunks, 0.35))
    return make


def logit_case(rows):
    def make(rng):
        net = RewardNet(3, 2, hidden=(8, 8))
        feats = task_features(rng.normal(size=3), TaskSpec(1), 2)
        if rows:
            feats = np.stack([feats, task_features(rng.normal(size=3), TaskSpec(0), 2),
                              task_features(rng.normal(size=3), TaskSpec(1), 2)])
        return perturbed(net.init(rng), rng), lambda p: net.logit(p, feats)
    return make


def logprob_case(rng):
    pol = ChunkPolicy(obs_dim=3, n_tasks=2, horizon=2, a_dim=2, hidden=(8,))
    feats = task_features(rng.normal(size=(5, 3)), TaskSpec(1), pol.n_tasks)
    chunks = rng.normal(size=(5, pol.flat))
    return perturbed(pol.init(rng), rng), lambda p: pol.logprob(p, feats, chunks)


CASES = {
    "mlp": mlp_case,
    "wm-u_apply-b1": wm_case(1),
    "wm-u_apply-b3": wm_case(3),
    "reward-logit-row": logit_case(rows=False),
    "reward-logit-rows": logit_case(rows=True),
    "policy-logprob": logprob_case,
}


@pytest.mark.parametrize("name", list(CASES))
def test_forward_same_numbers_on_arrays_and_tensor_leaves(name):
    params, forward = CASES[name](np.random.default_rng(7))
    plain = forward(params)
    assert isinstance(plain, (np.ndarray, np.generic))
    taped = forward({k: Tensor(v, requires_grad=True) for k, v in params.items()})
    assert isinstance(taped, Tensor) and taped.requires_grad
    np.testing.assert_array_equal(plain, taped.data)

