import numpy as np
import pytest

from wovr.core import FrameEpisode, TaskSpec, derive_rng
from wovr.nn import Tensor, value_and_grad
from wovr.worldmodel import (
    AnchoredContext,
    OracleWorldModel,
    RfBatch,
    WmNet,
    build_context,
    make_rf_batch,
    noisy_context,
    rf_interpolate,
    rf_loss,
    sample_chunk,
    train_wm,
    window_index,
)

D, A_DIM, H, C = 2, 2, 4, 2


def small_net(width=32, anchor_mode="first"):
    return WmNet(D, A_DIM, n_tasks=1, horizon=H, context=C, width=width,
                 act_emb_dim=8, anchor_mode=anchor_mode)


def linear_episode(rng, n=24, drift=0.05):
    states = [rng.uniform(-0.5, 0.5, size=D)]
    actions = []
    a = rng.uniform(-1, 1, size=A_DIM)
    for i in range(n):
        if i % 4 == 0:
            a = rng.uniform(-1, 1, size=A_DIM)
        actions.append(a.copy())
        states.append(states[-1] + drift * a)
    return FrameEpisode(TaskSpec(0), np.array(states), np.array(actions))


def random_batch(net, rng, b=3):
    return RfBatch(
        x0=rng.normal(size=(b, net.out_dim)),
        x1=rng.normal(size=(b, net.out_dim)),
        anchors=rng.normal(size=(b, net.d)),
        memories=rng.normal(size=(b, net.context, net.d)),
        tasks=np.tile(np.array([1.0]), (b, 1)),
        chunks=rng.normal(size=(b, net.horizon * net.a_dim)),
        t=float(rng.uniform()),
    )


# -- context ----------------------------------------------------------------


def test_build_context_pads_with_anchor():
    o0 = np.array([1.0, 2.0])
    ctx = build_context([o0], 4, TaskSpec(0))
    assert np.array_equal(ctx.anchor, o0)
    assert ctx.memory.shape == (4, 2)
    assert all(np.array_equal(row, o0) for row in ctx.memory)


def test_build_context_takes_last_c():
    frames = [np.array([float(i), 0.0]) for i in range(10)]
    ctx = build_context(frames, 4, TaskSpec(0))
    assert np.array_equal(ctx.anchor, frames[0])
    assert np.array_equal(ctx.memory[:, 0], [6.0, 7.0, 8.0, 9.0])


def test_build_context_degenerate_c_zero():
    ctx = build_context([np.ones(2)], 0, TaskSpec(0))
    assert ctx.memory.shape == (0, 2)


def test_build_context_rejects_empty():
    with pytest.raises(ValueError):
        build_context([], 4, TaskSpec(0))


def test_build_context_last_anchor_mode():
    frames = [np.array([float(i), 0.0]) for i in range(6)]
    ctx = build_context(frames, 2, TaskSpec(0), anchor_mode="last")
    assert np.array_equal(ctx.anchor, frames[-1])


# -- interpolation and context noise -----------------------------------------


def test_rf_interpolate_endpoints_and_linearity():
    rng = np.random.default_rng(0)
    x0, x1 = rng.normal(size=5), rng.normal(size=5)
    xt, v = rf_interpolate(x0, x1, 0.0)
    assert np.array_equal(xt, x0) and np.array_equal(v, x1 - x0)
    xt, _ = rf_interpolate(x0, x1, 1.0)
    assert np.array_equal(xt, x1)
    xt, v = rf_interpolate(np.zeros(3), np.array([2.0, 4.0, -6.0]), 0.5)
    assert np.array_equal(xt, [1.0, 2.0, -3.0])
    assert np.array_equal(v, [2.0, 4.0, -6.0])
    with pytest.raises(ValueError):
        rf_interpolate(x0, x1, 1.5)


def test_noisy_context_blend_and_anchor_immutability():
    rng = np.random.default_rng(1)
    ctx = build_context([rng.normal(size=2) for _ in range(5)], 3, TaskSpec(0))
    noise = rng.normal(size=ctx.memory.shape)
    same = noisy_context(ctx, 0.0, noise)
    assert np.array_equal(same.memory, ctx.memory)
    full = noisy_context(ctx, 1.0, noise)
    assert np.array_equal(full.memory, noise)
    mid = noisy_context(ctx, 0.2, noise)
    np.testing.assert_allclose(mid.memory, 0.8 * ctx.memory + 0.2 * noise, atol=1e-15)
    for out in (same, full, mid):
        assert out.anchor.tobytes() == ctx.anchor.tobytes()
    with pytest.raises(ValueError):
        noisy_context(ctx, 0.1, noise[:-1])


# -- conditioning -------------------------------------------------------------


def test_condition_is_identity_at_init():
    net = small_net()
    params = net.init(derive_rng(3))
    rng = np.random.default_rng(2)
    feats = rng.normal(size=net.width)
    act_emb = rng.normal(size=net.act_emb_dim)
    temb = rng.normal(size=5)
    for block in (0, 1):
        out = net.condition(params, Tensor(feats), act_emb, temb, block)
        np.testing.assert_array_equal(out.data, feats)
    batched = rng.normal(size=(4, net.width))
    out = net.condition(params, Tensor(batched), rng.normal(size=(4, net.act_emb_dim)),
                        rng.normal(size=(4, 5)), 0)
    np.testing.assert_array_equal(out.data, batched)


def test_condition_discriminates_actions_after_training():
    net = small_net()
    params = net.init(derive_rng(4))
    rng = np.random.default_rng(5)
    batch = random_batch(net, rng, b=16)

    def loss(p):
        return rf_loss(net, p, batch)

    from wovr import nn
    _, grads = value_and_grad(loss, params)
    opt = nn.adam_init(params)
    params = nn.adam_step(params, grads, opt, lr=1e-2)

    state = rng.normal(size=(1, net.out_dim))
    anchor, memory = rng.normal(size=(1, D)), rng.normal(size=(1, C, D))
    task = np.ones((1, 1))
    chunk_a = np.full((1, H * A_DIM), 0.5)
    chunk_b = np.full((1, H * A_DIM), -0.5)
    out_a = net.u_apply(params, state, anchor, memory, task, chunk_a, 0.3)
    out_b = net.u_apply(params, state, anchor, memory, task, chunk_b, 0.3)
    assert not np.allclose(out_a, out_b)


# -- rf loss -------------------------------------------------------------------


def test_rf_loss_zero_net_equals_target_power():
    net = small_net()
    params = {k: np.zeros_like(v) for k, v in net.init(derive_rng(6)).items()}
    batch = random_batch(net, np.random.default_rng(7))
    loss = float(rf_loss(net, params, batch).data)
    expected = np.mean((batch.x1 - batch.x0) ** 2)
    assert loss == pytest.approx(expected, rel=1e-12)


def test_rf_loss_gradcheck():
    net = WmNet(D, A_DIM, n_tasks=1, horizon=2, context=2, width=6, act_emb_dim=4)
    params = net.init(derive_rng(8))
    batch = random_batch(net, np.random.default_rng(9), b=2)
    _, grads = value_and_grad(lambda p: rf_loss(net, p, batch), params)
    eps = 1e-5
    for k in ("wm_in.w0", "wm_mod0.w0", "wm_act.w0", "wm_out.b0"):
        fd = np.zeros_like(params[k])
        it = np.nditer(fd, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            vals = []
            for sign in (1, -1):
                shifted = {kk: vv.copy() for kk, vv in params.items()}
                shifted[k][idx] += sign * eps
                vals.append(float(rf_loss(net, shifted, batch).data))
            fd[idx] = (vals[0] - vals[1]) / (2 * eps)
        np.testing.assert_allclose(grads[k], fd, rtol=1e-4, atol=1e-8)


def test_tape_and_numpy_forwards_agree():
    net = small_net()
    params = net.init(derive_rng(10))
    rng = np.random.default_rng(11)
    batch = random_batch(net, rng, b=3)
    xt, _ = rf_interpolate(batch.x0, batch.x1, batch.t)
    numpy_out = net.u_apply(params, xt, batch.anchors, batch.memories, batch.tasks,
                            batch.chunks, batch.t)
    # a row alone agrees with the same row in the batch up to gemm rounding
    for i in range(3):
        single = net.u_apply(params, xt[i:i + 1], batch.anchors[i:i + 1],
                             batch.memories[i:i + 1], batch.tasks[i:i + 1],
                             batch.chunks[i:i + 1], batch.t)
        np.testing.assert_allclose(single[0], numpy_out[i], rtol=0, atol=1e-12)


# -- sampling ------------------------------------------------------------------


def test_sample_chunk_constant_field_step_invariance():
    net = small_net()
    params = {k: np.zeros_like(v) for k, v in net.init(derive_rng(12)).items()}
    v_star = np.linspace(-1.0, 1.0, net.out_dim)
    params["wm_out.b0"] = v_star.copy()
    ctx = AnchoredContext(np.zeros(D), np.zeros((C, D)), TaskSpec(0))
    chunk = np.zeros((H, A_DIM))
    outs = [sample_chunk(net, params, [ctx], chunk[None], s, [derive_rng(13)])[0]
            for s in (1, 5, 50)]
    x_init = derive_rng(13).normal(size=net.out_dim)
    expected = (x_init + v_star).reshape(H, D)
    np.testing.assert_array_equal(outs[0], expected)  # single step is exact
    for out in outs[1:]:
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_sample_chunk_shape_and_determinism():
    net = small_net()
    params = net.init(derive_rng(14))
    ctx = AnchoredContext(np.zeros(D), np.zeros((C, D)), TaskSpec(0))
    chunk = np.ones((H, A_DIM)) * 0.1
    a = sample_chunk(net, params, [ctx, ctx], [chunk, -chunk], 5,
                     [derive_rng(15), derive_rng(16)])
    b = sample_chunk(net, params, [ctx, ctx], [chunk, -chunk], 5,
                     [derive_rng(15), derive_rng(16)])
    assert a.shape == (2, H, D)
    assert np.array_equal(a, b)
    # row i draws its noise from rngs[i] only: alone it gives the same frames
    alone = sample_chunk(net, params, [ctx], [-chunk], 5, [derive_rng(16)])
    np.testing.assert_allclose(alone[0], a[1], rtol=1e-9)
    with pytest.raises(ValueError):
        sample_chunk(net, params, [ctx], [chunk], 0, [derive_rng(15)])


def test_sample_chunk_does_not_mutate_context():
    net = small_net()
    params = net.init(derive_rng(16))
    ctx = AnchoredContext(np.ones(D), np.ones((C, D)), TaskSpec(0))
    before = (ctx.anchor.tobytes(), ctx.memory.tobytes())
    sample_chunk(net, params, [ctx], np.zeros((1, H, A_DIM)), 3, [derive_rng(17)])
    assert (ctx.anchor.tobytes(), ctx.memory.tobytes()) == before


def test_oracle_world_model_steps_real_dynamics():
    from wovr.envs import PickPlace2D
    env = PickPlace2D()
    oracle = OracleWorldModel(env, context=4)
    state = env.reset_state(TaskSpec(0), derive_rng(18))
    ctx = build_context([state], 4, TaskSpec(0))
    chunk = np.tile([0.05, 0.0, -1.0], (8, 1))
    frames = oracle.predict_chunk([ctx, ctx], [chunk, -chunk], [derive_rng(19)] * 2)
    assert frames.shape == (2, 8, env.state_dim)
    for row, sign in zip(frames, (1, -1)):
        ref = state
        for a in sign * chunk:
            ref, _, _ = env.step(ref, a)
        assert np.array_equal(row[-1], ref)


# -- training ------------------------------------------------------------------


def test_window_index_skips_short_episodes():
    rng = np.random.default_rng(20)
    long_ep = linear_episode(rng, n=6)
    short_ep = linear_episode(rng, n=2)  # shorter than H=4
    idx = window_index([long_ep, short_ep], H)
    assert all(e == 0 for e, _ in idx)
    assert len(idx) == 3


def test_train_wm_zero_epochs_returns_init():
    rng = np.random.default_rng(21)
    eps = [linear_episode(rng) for _ in range(3)]
    net = small_net()
    init = net.init(derive_rng(22))
    params, losses = train_wm(eps, net, derive_rng(23), epochs=0, init_params=init)
    assert losses == []
    for k in init:
        np.testing.assert_array_equal(params[k], init[k])
    params[k].flat[0] = 99.0  # returned dict is a copy, not a view
    assert init[k].flat[0] != 99.0


def test_train_wm_rejects_bad_input():
    net = small_net()
    with pytest.raises(ValueError):
        train_wm([], net, derive_rng(0))
    rng = np.random.default_rng(24)
    bad = FrameEpisode(TaskSpec(0), rng.normal(size=(5, 3)), rng.normal(size=(4, A_DIM)))
    with pytest.raises(ValueError):
        train_wm([bad], net, derive_rng(0))


@pytest.fixture(scope="module")
def linear_fixture_data():
    rng = np.random.default_rng(100)
    train_eps = [linear_episode(rng) for _ in range(40)]
    test_eps = [linear_episode(rng) for _ in range(10)]
    return train_eps, test_eps


@pytest.fixture(scope="module")
def linear_fixture_run(linear_fixture_data):
    train_eps, test_eps = linear_fixture_data
    net = WmNet(D, A_DIM, n_tasks=1, horizon=H, context=C, width=64, act_emb_dim=16)
    params, losses = train_wm(train_eps, net, derive_rng(101), epochs=240,
                              batch_size=16, lr=2e-3, p_noisy=0.0, lr_floor=0.02)
    return net, params, losses, test_eps


def test_linear_fixture_one_chunk_mse(linear_fixture_run):
    # mean over held-out windows and 8 independent sampler draws per window
    net, params, _, test_eps = linear_fixture_run
    srng = derive_rng(102)
    errs = []
    for _ in range(8):
        for ep in test_eps:
            for s in (0, 5, 10):
                ctx = build_context([ep.states[i] for i in range(s + 1)], C, ep.task)
                pred = sample_chunk(net, params, [ctx], ep.actions[None, s : s + H], 5,
                                    [srng])[0]
                errs.append(np.mean((pred - ep.states[s + 1 : s + 1 + H]) ** 2))
    assert np.mean(errs) < 1e-3


def test_linear_fixture_long_run_descends(linear_fixture_run):
    _, _, losses, _ = linear_fixture_run
    assert np.all(np.isfinite(losses))
    smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
    assert smooth[-1] < 0.25 * smooth[0]


def test_default_length_run_loss_non_increasing_smoothed(linear_fixture_data):
    train_eps, _ = linear_fixture_data
    net = WmNet(D, A_DIM, n_tasks=1, horizon=H, context=C, width=64, act_emb_dim=16)
    _, losses = train_wm(train_eps, net, derive_rng(101), epochs=15,
                         batch_size=64, lr=2e-3, p_noisy=0.0)
    smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
    assert np.all(np.diff(smooth) <= 0)
    assert smooth[-1] < smooth[0]


def test_linear_fixture_action_sensitivity(linear_fixture_run):
    net, params, _, test_eps = linear_fixture_run
    ep = test_eps[0]
    ctx = build_context([ep.states[i] for i in range(5)], C, ep.task)
    plus = np.full((H, A_DIM), 0.6)
    minus = np.full((H, A_DIM), -0.6)
    srng = derive_rng(103)
    pred_plus = np.mean([sample_chunk(net, params, [ctx], [plus], 5, [srng])[0]
                         for _ in range(8)], axis=0)
    pred_minus = np.mean([sample_chunk(net, params, [ctx], [minus], 5, [srng])[0]
                          for _ in range(8)], axis=0)
    diff = pred_plus - pred_minus  # should be positive everywhere: +0.6 vs -0.6 drift
    assert np.all(diff[-1] > 0)
    assert np.mean(diff > 0) > 0.9


def test_noisy_training_still_learns():
    rng = np.random.default_rng(104)
    eps = [linear_episode(rng) for _ in range(10)]
    net = small_net()
    params, losses = train_wm(eps, net, derive_rng(105), epochs=10, batch_size=32,
                              lr=2e-3, p_noisy=0.5, t_ctx_max=0.2)
    assert losses[-1] < losses[0]
    assert np.all(np.isfinite(losses))
