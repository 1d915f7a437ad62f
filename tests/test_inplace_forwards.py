"""Inference forwards update only arrays they created, never their inputs.

Every input and param array below is write-protected, so a forward that
wrote one would raise ValueError. Each result must equal, byte for byte, the
out-of-place expression the forward replaced, written out here with a fresh
array per operation; and on the tape the gradients must keep their bits too.
B = 1 rows take numpy's matrix-vector kernel, B >= 2 rows the matrix one.
"""
import numpy as np
import pytest

from wovr import nn
from wovr.core import TaskSpec, task_features, task_tokens
from wovr.envs import ACTION_BOUND
from wovr.grpo import LOG_2PI, ChunkPolicy
from wovr.nn import Mlp, Tensor, tmean, tsum, value_and_grad
from wovr.pace import LearnedReward
from wovr.reward import RewardNet, success_probs
from wovr.worldmodel import (N_TIME_FEATS, RfBatch, WmNet, rf_loss, sample_chunk,
                             time_features)


def frozen(a):
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def frozen_ids(rng, n_tasks, b):
    ids = rng.integers(0, n_tasks, size=b)
    ids.setflags(write=False)
    return ids


def frozen_params(params, rng):
    """Every param moved off its init (so zero-initialized heads do work),
    each array write-protected."""
    return {k: frozen(v + 0.3 * rng.normal(size=v.shape)) for k, v in params.items()}


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def mlp_ref(mlp, params, x):
    """Mlp's old forward: x @ w + b, then np.tanh on every hidden layer."""
    last = len(mlp.keys) - 1
    for i, (w, b) in enumerate(mlp.keys):
        x = x @ params[w] + params[b]
        if i < last:
            x = np.tanh(x)
    return x


def u_apply_ref(net, params, x, anchors, memories, tasks, chunks, t):
    """WmNet.u_apply's old forward; works on Tensor params as on arrays."""
    b, w = x.shape[0], net.width
    act_emb = mlp_ref(net.act_proj, params, np.clip(chunks, -ACTION_BOUND, ACTION_BOUND))
    tfeat = np.broadcast_to(time_features(t), (b, N_TIME_FEATS))
    trunk_in = np.concatenate([x, anchors, memories.reshape(b, net.context * net.d), tasks,
                               act_emb], axis=1)

    def condition(features, block):
        ss = mlp_ref(net.mods[block], params, np.concatenate([act_emb, tfeat], axis=-1))
        return features * (1.0 + ss[..., :w]) + ss[..., w:]

    h = condition(np.tanh(mlp_ref(net.layer_in, params, trunk_in)), 0)
    h = condition(np.tanh(mlp_ref(net.layer_mid, params, h)), 1)
    return mlp_ref(net.layer_out, params, h)


def modulate_ref(features, ss, w):
    """The FiLM modulation as the expression it replaced; on Tensors it
    records five nodes: two takes of ss, + 1.0, * and +."""
    return features * (ss[..., :w] + 1.0) + ss[..., w:]


class FiveNodeWmNet(WmNet):
    """WmNet with its modulation recorded as modulate_ref's five nodes."""

    def condition(self, params, features, act_emb, time_emb, block=0):
        fused = np.concatenate([act_emb, time_emb], axis=-1)
        return modulate_ref(features, self.mods[block](params, fused), self.width)


def density_ref(policy, log_sigma, mu, flat):
    z = (flat - mu) * np.exp(-log_sigma)
    return -0.5 * np.sum(z * z, axis=-1) - np.sum(log_sigma) - 0.5 * policy.flat * LOG_2PI


def sigmoid_ref(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def wm_inputs(net, b, rng):
    return (frozen(rng.normal(size=(b, net.out_dim))), frozen(rng.normal(size=(b, net.d))),
            frozen(rng.normal(size=(b, net.context, net.d))),
            frozen(np.eye(net.n_tasks)[rng.integers(0, net.n_tasks, size=b)]),
            frozen(1.5 * rng.normal(size=(b, net.horizon * net.a_dim))))


WM = dict(d=3, a_dim=2, n_tasks=2, horizon=4, context=2, width=16, act_emb_dim=6)


@pytest.mark.parametrize("shape", [(4,), (1, 4), (5, 4)])
def test_mlp_writes_no_input(shape):
    rng = np.random.default_rng(1)
    mlp = Mlp("f", [4, 7, 6, 3])
    params = frozen_params(mlp.init(rng), rng)
    x = frozen(rng.normal(size=shape))
    same_bytes(mlp(params, x), mlp_ref(mlp, params, x))


@pytest.mark.parametrize("b", [1, 6, 64])
def test_modulate_plain_path_writes_only_features(b):
    rng = np.random.default_rng(7)
    ss = frozen(rng.normal(size=(b, 256)))
    features = rng.normal(size=(b, 128))
    want = modulate_ref(frozen(features), ss, 128)
    out = nn.modulate(features, ss)
    assert out is features
    same_bytes(out, want)


@pytest.mark.parametrize("b", [1, 3, 64])
def test_u_apply_writes_no_input(b):
    rng = np.random.default_rng(2)
    net = WmNet(**WM)
    params = frozen_params(net.init(rng), rng)
    inputs = wm_inputs(net, b, rng)
    same_bytes(net.u_apply(params, *inputs, 0.35), u_apply_ref(net, params, *inputs, 0.35))


@pytest.mark.parametrize("b", [1, 3])
def test_sample_chunk_writes_no_input(b):
    rng = np.random.default_rng(3)
    net = WmNet(**WM)
    params = frozen_params(net.init(rng), rng)
    noise, anchors, memories, _, chunks = wm_inputs(net, b, rng)
    ids = frozen_ids(rng, net.n_tasks, b)
    steps, dt = 3, 1.0 / 3
    x = noise
    for k in range(steps):
        x = x + dt * u_apply_ref(net, params, x, anchors, memories,
                                 task_tokens(ids, net.n_tasks, (b,)), chunks, k * dt)
    want = x.reshape(b, net.horizon, net.d)
    same_bytes(sample_chunk(net, params, anchors, memories, ids,
                            chunks.reshape(b, net.horizon, net.a_dim), steps, noise), want)
    # a writable noise array comes back unchanged too
    writable = np.array(noise)
    same_bytes(sample_chunk(net, params, anchors, memories, ids, chunks, steps, writable), want)
    same_bytes(writable, noise)


@pytest.mark.parametrize("b", [1, 4])
def test_policy_sample_writes_no_input(b):
    rng = np.random.default_rng(4)
    policy = ChunkPolicy(obs_dim=3, n_tasks=2, horizon=2, a_dim=2, hidden=(8, 8))
    params = frozen_params(policy.init(rng), rng)
    obs, ids = frozen(rng.normal(size=(b, 3))), frozen_ids(rng, 2, b)
    noise = frozen(rng.normal(size=(b, policy.flat)))
    chunks, logp = policy.sample(params, obs, ids, noise)
    mu = mlp_ref(policy.trunk, params, task_features(obs, ids, policy.n_tasks))
    log_sigma = np.clip(params["pi.log_std"], -5.0, 2.0)
    flat = mu + np.exp(log_sigma) * noise
    same_bytes(chunks, flat.reshape(b, policy.horizon, policy.a_dim))
    same_bytes(logp, density_ref(policy, log_sigma, mu, flat))
    # logprob of one row (a 0-d result) and of rows, against the same expression
    feats = frozen(task_features(obs, ids, policy.n_tasks))
    same_bytes(policy.logprob(params, feats, frozen(flat)),
               density_ref(policy, log_sigma, mu, flat))
    mu0 = mlp_ref(policy.trunk, params, feats[0])
    same_bytes(policy.logprob(params, feats[0], frozen(flat[0])),
               density_ref(policy, log_sigma, mu0, flat[0]))


@pytest.mark.parametrize("b", [1, 6])
def test_learned_reward_batch_writes_no_input(b):
    rng = np.random.default_rng(5)
    net = RewardNet(3, 2, hidden=(8, 8))
    params = frozen_params(net.init(rng), rng)
    # logits of both signs and large magnitudes, so both sigmoid branches run
    params = {k: frozen(4.0 * v) for k, v in params.items()}
    frames, ids = frozen(rng.normal(size=(b, 3))), frozen_ids(rng, 2, b)
    feats = frozen(task_features(frames, ids, net.n_tasks))
    logits = mlp_ref(net.mlp, params, feats)[..., 0]
    probs = sigmoid_ref(logits)
    same_bytes(success_probs(net, params, feats), probs)
    same_bytes(LearnedReward(net, params, 0.5).batch(frames, ids), probs >= 0.5)
    one = mlp_ref(net.mlp, params, feats[0])[..., 0]
    same_bytes(success_probs(net, params, feats[0]), sigmoid_ref(one))


def test_sigmoid_writes_no_input_and_matches_both_branches():
    x = frozen([-800.0, -30.0, -1.5, -0.0, 0.0, 1e-300, 2.0, 40.0, 800.0, np.nan])
    with np.errstate(invalid="ignore"):
        same_bytes(nn.sigmoid(x), sigmoid_ref(x))
    same_bytes(nn.sigmoid(frozen(-3.0)), sigmoid_ref(np.array(-3.0)))


def test_tape_gradients_equal_the_old_expressions():
    """`a *= b` on a Tensor records the node `a = a * b` did: rf-style and
    log-density losses give the old expressions' gradients bit for bit."""
    rng = np.random.default_rng(6)
    net = WmNet(**WM)
    params = frozen_params(net.init(rng), rng)
    inputs = wm_inputs(net, 5, rng)
    target = rng.normal(size=(5, net.out_dim))

    def loss(forward):
        def fn(p):
            err = forward(p, *inputs, 0.6) - target
            return tmean(err * err)
        return fn

    new_value, new_grads = value_and_grad(loss(net.u_apply), params)
    old_value, old_grads = value_and_grad(loss(lambda p, *a: u_apply_ref(net, p, *a)), params)
    assert new_value == old_value
    for k in params:
        same_bytes(new_grads[k], old_grads[k])

    policy = ChunkPolicy(obs_dim=3, n_tasks=2, horizon=2, a_dim=2, hidden=(8,))
    pparams = frozen_params(policy.init(rng), rng)
    feats = frozen(task_features(rng.normal(size=(7, 3)), TaskSpec(1), 2))
    chunks = frozen(rng.normal(size=(7, policy.flat)))
    new_value, new_grads = value_and_grad(
        lambda p: tmean(policy.logprob(p, feats, chunks)), pparams)
    old_value, old_grads = value_and_grad(
        lambda p: tmean(density_ref(policy, policy.log_std(p),
                                    mlp_ref(policy.trunk, p, feats), chunks)), pparams)
    assert new_value == old_value
    for k in pparams:
        same_bytes(new_grads[k], old_grads[k])


def modulate_grads(modulate, features, ss, r):
    """Forward bytes and the (features, ss) gradients of sum(modulate * r)."""
    f, h = Tensor(features, requires_grad=True), Tensor(ss, requires_grad=True)
    out = modulate(f, h)
    forward = out.data.copy()
    tsum(out * r).backward()
    return forward, f.grad, h.grad


@pytest.mark.parametrize("b", [1, 6, 64])
def test_modulate_node_equals_the_five_node_expression(b):
    rng = np.random.default_rng(8)
    features, ss = rng.normal(size=(b, 128)), rng.normal(size=(b, 256))
    r = rng.normal(size=(b, 128))
    node = nn.modulate(Tensor(features, requires_grad=True), Tensor(ss, requires_grad=True))
    assert len(node._vjps) == 2  # one node, straight onto features and ss
    got = modulate_grads(nn.modulate, features, ss, r)
    want = modulate_grads(lambda f, h: modulate_ref(f, h, 128), features, ss, r)
    for g, w in zip(got, want):
        same_bytes(g, w)


def test_modulate_keeps_the_sign_of_a_zero_gradient():
    """The one difference: the five nodes sum two zero-padded scatters into
    ss's gradient, which turns a -0.0 entry into +0.0; the concatenation
    keeps it. Elsewhere the bytes are equal, and the values are equal."""
    features = np.array([[0.5, -0.0, 2.0]])
    ss = np.array([[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]])
    # g * features is -0.0 at columns 1 and 2 of the scale half; g is -0.0
    # at column 2 of the shift half
    r = np.array([[1.5, 2.0, -0.0]])
    _, f_new, ss_new = modulate_grads(nn.modulate, features, ss, r)
    _, f_old, ss_old = modulate_grads(lambda f, h: modulate_ref(f, h, 3), features, ss, r)
    same_bytes(f_new, f_old)
    assert np.array_equal(ss_new, ss_old)
    signed = np.zeros((1, 6), dtype=bool)
    signed[0, [1, 2, 5]] = True
    assert np.array_equal(np.signbit(ss_new), signed)
    assert not np.signbit(ss_old).any()
    same_bytes(ss_new[~signed], ss_old[~signed])


def test_rf_loss_grads_equal_the_five_node_modulation():
    """Every WmNet param's gradient through rf_loss keeps its bytes; act_emb
    feeds the trunk and both heads, so the bytes also pin the order its three
    gradients are summed in."""
    rng = np.random.default_rng(9)
    net, ref = WmNet(**WM), FiveNodeWmNet(**WM)
    params = frozen_params(net.init(rng), rng)
    x0, anchors, memories, tasks, chunks = wm_inputs(net, 6, rng)
    batch = RfBatch(x0=x0, x1=frozen(rng.normal(size=x0.shape)), anchors=anchors,
                    memories=memories, tasks=tasks, chunks=chunks, t=0.4)
    value, grads = value_and_grad(lambda p: rf_loss(net, p, batch), params)
    ref_value, ref_grads = value_and_grad(lambda p: rf_loss(ref, p, batch), params)
    assert value == ref_value
    assert grads.keys() == ref_grads.keys() == params.keys()
    for k in params:
        same_bytes(grads[k], ref_grads[k])
