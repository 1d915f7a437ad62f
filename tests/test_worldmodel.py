import copy

import numpy as np
import pytest

from wovr.core import FrameEpisode, TaskSpec, derive_rng, make_config, one_hot
from wovr.envs import ACTION_BOUND
from wovr.nn import Mlp, Tensor, tsum, value_and_grad
from wovr.worldmodel import (
    LearnedWorldModel,
    OracleWorldModel,
    RfBatch,
    WmNet,
    build_context,
    make_rf_batch,
    rf_corpus,
    rf_interpolate,
    rf_loss,
    sample_chunk,
    train_wm,
    window_index,
)

D, A_DIM, H, C = 2, 2, 4, 2


def wm_section(**values):
    return make_config({"wm": values})["wm"]


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


def context_reference(history, c, anchor_mode="first"):
    """One history's context, built frame by frame: the per-history builder
    that the batched build_context replaced, kept apart from context_rows."""
    anchor = np.asarray(history[0] if anchor_mode == "first" else history[-1],
                        dtype=np.float64)
    recent = [np.asarray(h, dtype=np.float64) for h in history[-c:]] if c > 0 else []
    pad = [anchor] * (c - len(recent))
    memory = np.array(pad + recent) if c > 0 else np.zeros((0, anchor.shape[0]))
    return anchor.copy(), memory


def test_build_context_matches_reference():
    rng = np.random.default_rng(1)
    for n in (1, 3, 10):
        histories = [list(rng.normal(size=(n, D))) for _ in range(3)]
        for c in (0, 1, 4, 9):
            for anchor_mode in ("first", "last"):
                anchors, memories = build_context(histories, c, anchor_mode)
                assert anchors.shape == (3, D) and memories.shape == (3, c, D)
                for i, history in enumerate(histories):
                    anchor, memory = context_reference(history, c, anchor_mode)
                    np.testing.assert_array_equal(anchors[i], anchor)
                    np.testing.assert_array_equal(memories[i], memory)


def test_build_context_pads_with_anchor():
    o0 = np.array([1.0, 2.0])
    anchors, memories = build_context([[o0], [2.0 * o0]], 4)
    assert memories.shape == (2, 4, 2)
    np.testing.assert_array_equal(anchors, [o0, 2.0 * o0])
    np.testing.assert_array_equal(memories[0], np.tile(o0, (4, 1)))
    np.testing.assert_array_equal(memories[1], np.tile(2.0 * o0, (4, 1)))


def test_build_context_takes_last_c():
    frames = [np.array([float(i), 0.0]) for i in range(10)]
    anchors, memories = build_context([frames], 4)
    np.testing.assert_array_equal(anchors[0], frames[0])
    np.testing.assert_array_equal(memories[0, :, 0], [6.0, 7.0, 8.0, 9.0])


def test_build_context_degenerate_c_zero():
    anchors, memories = build_context([[np.ones(2)], [np.zeros(2)]], 0)
    assert anchors.shape == (2, 2)
    assert memories.shape == (2, 0, 2)


def test_build_context_last_anchor_mode():
    frames = [np.array([float(i), 0.0]) for i in range(6)]
    anchors, memories = build_context([frames], 2, anchor_mode="last")
    np.testing.assert_array_equal(anchors[0], frames[-1])
    np.testing.assert_array_equal(memories[0, :, 0], [4.0, 5.0])


def test_build_context_rejects_empty():
    with pytest.raises(ValueError):
        build_context([], 4)
    with pytest.raises(ValueError):
        build_context([[]], 4)
    with pytest.raises(ValueError):
        build_context([[np.ones(D)]], 4, anchor_mode="middle")


def test_build_context_rejects_ragged():
    with pytest.raises(ValueError):
        build_context([[np.ones(D)], [np.ones(D), np.zeros(D)]], 4)
    with pytest.raises(ValueError):
        build_context([[np.ones(D), np.zeros(D)], []], 0)


# -- interpolation -------------------------------------------------------------


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


class MatmulAddMlp(Mlp):
    """Mlp as its layers were recorded before nn.linear: a matmul node, then
    an add node for the bias."""

    def __call__(self, params, x):
        for i, (w, b) in enumerate(self.keys):
            x = x @ params[w] + params[b]
            if i < self.n_layers - 1:
                x = np.tanh(x)
        return x


def test_rf_grads_equal_matmul_add_tape():
    net = small_net()
    rng = derive_rng(15)
    # perturbed off init, so the zero-init modulation heads are live
    params = {k: v + 0.1 * rng.normal(size=v.shape) for k, v in net.init(rng).items()}
    batch = random_batch(net, np.random.default_rng(16), b=6)
    ref = small_net()
    for name in ("layer_in", "layer_mid", "layer_out", "act_proj"):
        block = getattr(ref, name)
        setattr(ref, name, MatmulAddMlp(block.name, block.sizes, block.zero_init_last))
    ref.mods = [MatmulAddMlp(m.name, m.sizes, m.zero_init_last) for m in ref.mods]

    def ref_loss(p):
        # the loss tail as it was recorded too: sub as + (-1 * v), mean as sum * 1/n
        x_t, v = rf_interpolate(batch.x0, batch.x1, batch.t)
        err = ref.u_tape(p, x_t, batch.anchors, batch.memories, batch.tasks,
                         batch.chunks, batch.t) + v * -1.0
        return tsum(err * err) * (1.0 / err.data.size)

    value, grads = value_and_grad(lambda p: rf_loss(net, p, batch), params)
    ref_value, ref_grads = value_and_grad(ref_loss, params)
    assert value == ref_value
    # act_emb feeds the trunk and both modulation heads: three gradients are
    # summed into it, so equal bytes pin the order they are summed in
    assert grads.keys() == ref_grads.keys()
    for k in grads:
        assert grads[k].tobytes() == ref_grads[k].tobytes(), k


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


def test_u_apply_reads_a_chunk_clamped_to_the_action_bound():
    """The model reads a chunk as the env executes it: a chunk and its clip
    give the same velocities bit for bit, in sampling and in the training
    loss and its gradient; within the bound the chunk still matters."""
    net = small_net()
    params = net.init(derive_rng(16))
    batch = random_batch(net, np.random.default_rng(17), b=5)
    batch.chunks = 3.0 * batch.chunks
    assert (np.abs(batch.chunks) > ACTION_BOUND).any()
    clipped = copy.copy(batch)
    clipped.chunks = np.clip(batch.chunks, -ACTION_BOUND, ACTION_BOUND)
    xt, _ = rf_interpolate(batch.x0, batch.x1, batch.t)
    raw_out, clip_out = (net.u_apply(params, xt, b.anchors, b.memories, b.tasks, b.chunks, b.t)
                         for b in (batch, clipped))
    assert raw_out.tobytes() == clip_out.tobytes()
    (raw_loss, raw_grads), (clip_loss, clip_grads) = (
        value_and_grad(lambda p, b=b: rf_loss(net, p, b), params) for b in (batch, clipped))
    assert raw_loss == clip_loss
    assert all(raw_grads[k].tobytes() == clip_grads[k].tobytes() for k in params)
    inside = net.u_apply(params, xt, batch.anchors, batch.memories, batch.tasks,
                         0.5 * clipped.chunks, batch.t)
    assert not np.array_equal(inside, clip_out)


# -- sampling ------------------------------------------------------------------


def test_sample_chunk_constant_field_step_invariance():
    net = small_net()
    params = {k: np.zeros_like(v) for k, v in net.init(derive_rng(12)).items()}
    v_star = np.linspace(-1.0, 1.0, net.out_dim)
    params["wm_out.b0"] = v_star.copy()
    anchors, memories = np.zeros((1, D)), np.zeros((1, C, D))
    chunk = np.zeros((H, A_DIM))
    x_init = derive_rng(13).normal(size=net.out_dim)
    outs = [sample_chunk(net, params, anchors, memories, TaskSpec(0), chunk[None], s,
                         x_init[None])[0]
            for s in (1, 5, 50)]
    expected = (x_init + v_star).reshape(H, D)
    np.testing.assert_array_equal(outs[0], expected)  # single step is exact
    for out in outs[1:]:
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_sample_chunk_shape_and_determinism():
    net = small_net()
    params = net.init(derive_rng(14))
    anchors, memories, task = np.zeros((2, D)), np.zeros((2, C, D)), TaskSpec(0)
    chunk = np.ones((H, A_DIM)) * 0.1
    noise = derive_rng(15).normal(size=(2, net.out_dim))
    a = sample_chunk(net, params, anchors, memories, task, [chunk, -chunk], 5, noise)
    b = sample_chunk(net, params, anchors, memories, task, [chunk, -chunk], 5, noise.copy())
    assert a.shape == (2, H, D)
    assert np.array_equal(a, b)
    # row i starts from noise[i] only: alone it gives the same frames
    alone = sample_chunk(net, params, anchors[1:], memories[1:], task, [-chunk], 5, noise[1:])
    np.testing.assert_allclose(alone[0], a[1], rtol=1e-9)
    with pytest.raises(ValueError):
        sample_chunk(net, params, anchors[:1], memories[:1], task, [chunk], 0, noise[:1])


def test_sample_chunk_rejects_noise_of_another_shape():
    """The noise is one (H * d) row per context row; a model whose horizon
    differs from the caller's chunk sees rows of the wrong width."""
    net = small_net()
    params = net.init(derive_rng(14))
    anchors, memories = np.zeros((2, D)), np.zeros((2, C, D))
    chunks = np.zeros((2, H, A_DIM))
    for shape in ((2, net.out_dim + D), (2, net.out_dim - D), (1, net.out_dim),
                  (2, H, D)):
        with pytest.raises(ValueError, match="noise must be"):
            sample_chunk(net, params, anchors, memories, TaskSpec(0), chunks, 5,
                         np.zeros(shape))


def test_sample_chunk_does_not_mutate_context():
    net = small_net()
    params = net.init(derive_rng(16))
    anchors, memories = np.ones((1, D)), np.ones((1, C, D))
    before = (anchors.tobytes(), memories.tobytes())
    sample_chunk(net, params, anchors, memories, TaskSpec(0), np.zeros((1, H, A_DIM)), 3,
                 derive_rng(17).normal(size=(1, net.out_dim)))
    assert (anchors.tobytes(), memories.tobytes()) == before


def test_learned_predict_chunk_is_build_context_then_sample_chunk():
    """predict_chunk(frames, rows, length, ...) gathers the context of the
    histories frames[rows, :length] under the net's context length and
    anchor mode, and samples from it: equal, bit for bit, to build_context
    over those histories and sample_chunk done by hand, for histories
    shorter and longer than the context."""
    rng = derive_rng(18)
    frames, rows = rng.normal(size=(5, 9, D)), np.array([0, 2, 3])
    chunks = rng.uniform(-1.0, 1.0, size=(3, H, A_DIM))
    for anchor_mode in ("first", "last"):
        net = small_net(anchor_mode=anchor_mode)
        params = net.init(derive_rng(19))
        wm = LearnedWorldModel(net, params, steps=3)
        for length in (1, 6, 9):
            noise = rng.normal(size=(3, wm.noise_width))
            anchors, memories = build_context(frames[rows, :length], C, anchor_mode)
            want = sample_chunk(net, params, anchors, memories, TaskSpec(0), chunks, 3, noise)
            got = wm.predict_chunk(frames, rows, length, TaskSpec(0), chunks, noise)
            assert np.array_equal(got, want), (anchor_mode, length)


def test_oracle_world_model_steps_real_dynamics():
    """The oracle steps each row's newest frame, frames[row, length - 1],
    whatever the frames before it, a history of one frame included."""
    from wovr.envs import PickPlace2D
    env = PickPlace2D()
    oracle = OracleWorldModel(env)
    assert oracle.noise_width == 0
    rng = derive_rng(18)
    frames = np.array([[env.reset_state(TaskSpec(0), rng) for _ in range(3)] for _ in range(2)])
    chunk = np.tile([0.05, 0.0, -1.0], (8, 1))
    for length in (1, 3):
        got = oracle.predict_chunk(frames, [1, 0], length, TaskSpec(0), [chunk, -chunk],
                                   np.empty((2, 0)))
        assert got.shape == (2, 8, env.state_dim)
        for row, state, sign in zip(got, frames[[1, 0], length - 1], (1, -1)):
            for a, frame in zip(sign * chunk, row):
                state = env.step(state, a)
                assert np.array_equal(frame, state)


# -- training ------------------------------------------------------------------


def test_window_index_skips_short_episodes():
    rng = np.random.default_rng(20)
    long_ep = linear_episode(rng, n=6)
    short_ep = linear_episode(rng, n=2)  # shorter than H=4
    idx = window_index([long_ep, short_ep, long_ep], H)
    np.testing.assert_array_equal(idx, [(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2)])


def make_rf_batch_reference(net, episodes, picks, rng, p_noisy, t_ctx_max, t=None):
    """The per-window loop make_rf_batch replaced: one context_reference per pick."""
    h, c, d = net.horizon, net.context, net.d
    x1, anchors, memories, tasks, chunks = [], [], [], [], []
    for e, s in picks:
        ep = episodes[e]
        anchor, memory = context_reference([ep.states[i] for i in range(s + 1)], c,
                                           net.anchor_mode)
        if p_noisy > 0 and rng.uniform() < p_noisy:
            t_ctx = rng.uniform(0.0, t_ctx_max)
            memory = (1.0 - t_ctx) * memory + t_ctx * rng.normal(size=memory.shape)
        x1.append(ep.states[s + 1 : s + 1 + h].reshape(h * d))
        anchors.append(anchor)
        memories.append(memory)
        tasks.append(one_hot(ep.task.task_id, net.n_tasks))
        chunks.append(ep.actions[s : s + h].reshape(-1))
    x1 = np.array(x1)
    return RfBatch(x0=rng.normal(size=x1.shape), x1=x1, anchors=np.array(anchors),
                   memories=np.array(memories), tasks=np.array(tasks),
                   chunks=np.array(chunks),
                   t=float(rng.uniform()) if t is None else float(t))


def corpus_episodes(seed=30):
    rng = np.random.default_rng(seed)
    eps = [linear_episode(rng, n=n) for n in (9, 4, 14, 6)]
    return [FrameEpisode(TaskSpec(i % 3), ep.states, ep.actions) for i, ep in enumerate(eps)]


def corpus_net(context=C, anchor_mode="first"):
    return WmNet(D, A_DIM, n_tasks=3, horizon=H, context=context, width=8, act_emb_dim=4,
                 anchor_mode=anchor_mode)


@pytest.mark.parametrize("anchor_mode", ["first", "last"])
@pytest.mark.parametrize("context", [0, 3, 7])
@pytest.mark.parametrize("p_noisy", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("t", [None, 0.375])
def test_make_rf_batch_matches_per_row_reference(anchor_mode, context, p_noisy, t):
    eps = corpus_episodes()
    net = corpus_net(context, anchor_mode)
    corpus = rf_corpus(eps, net)
    picks = corpus.windows[np.random.default_rng(31).permutation(len(corpus.windows))]
    # starts 0 and 1 are shorter than every context > 1 here, so rows get padded
    assert {0, 1} <= set(picks[:, 1].tolist())
    rng_new, rng_ref = derive_rng(32), derive_rng(32)
    got = make_rf_batch(net, corpus, picks, rng_new, p_noisy, 0.3, t=t)
    want = make_rf_batch_reference(net, eps, [tuple(p) for p in picks], rng_ref, p_noisy,
                                   0.3, t=t)
    for name in ("x0", "x1", "anchors", "memories", "tasks", "chunks"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert getattr(got, name).shape == getattr(want, name).shape, name
    assert got.t == want.t
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_make_rf_batch_rejects_picks_outside_their_episode():
    eps = corpus_episodes()
    net = corpus_net()
    corpus = rf_corpus(eps, net)
    n1 = eps[1].actions.shape[0]
    make_rf_batch(net, corpus, [(1, n1 - H)], derive_rng(33), 0.0, 0.2)  # last full window
    # one frame past episode 1's end would read episode 2's first frames
    for bad in ([(1, n1 - H + 1)], [(0, 0), (1, -1)], [(len(eps), 0)], [(-1, 0)]):
        with pytest.raises(ValueError):
            make_rf_batch(net, corpus, bad, derive_rng(33), 0.0, 0.2)


def test_make_rf_batch_noise_spares_anchor_and_vanishes_at_zero_level():
    eps = corpus_episodes()
    for anchor_mode in ("first", "last"):
        net = corpus_net(anchor_mode=anchor_mode)
        corpus = rf_corpus(eps, net)
        clean = make_rf_batch(net, corpus, corpus.windows, derive_rng(34), 0.0, 0.2)
        noisy = make_rf_batch(net, corpus, corpus.windows, derive_rng(34), 1.0, 0.2)
        zero = make_rf_batch(net, corpus, corpus.windows, derive_rng(34), 1.0, 0.0)
        assert noisy.anchors.tobytes() == clean.anchors.tobytes()
        assert not np.any(noisy.memories == clean.memories)
        np.testing.assert_array_equal(zero.memories, clean.memories)
        np.testing.assert_array_equal(noisy.x1, clean.x1)


def test_train_wm_zero_epochs_returns_init():
    rng = np.random.default_rng(21)
    eps = [linear_episode(rng) for _ in range(3)]
    net = small_net()
    init = net.init(derive_rng(22))
    params, losses = train_wm(eps, net, derive_rng(23), wm_section(epochs=0),
                              init_params=init)
    assert losses == []
    for k in init:
        np.testing.assert_array_equal(params[k], init[k])
    params[k].flat[0] = 99.0  # returned dict is a copy, not a view
    assert init[k].flat[0] != 99.0


def test_train_wm_rejects_bad_input():
    net = small_net()
    with pytest.raises(ValueError):
        train_wm([], net, derive_rng(0), wm_section())
    rng = np.random.default_rng(24)
    bad = FrameEpisode(TaskSpec(0), rng.normal(size=(5, 3)), rng.normal(size=(4, A_DIM)))
    with pytest.raises(ValueError):
        train_wm([bad], net, derive_rng(0), wm_section())


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
    params, losses = train_wm(train_eps, net, derive_rng(101),
                              wm_section(epochs=240, batch_size=16, lr=2e-3, p_noisy=0.0))
    return net, params, losses, test_eps


def test_linear_fixture_one_chunk_mse(linear_fixture_run):
    # mean over held-out windows and 8 independent sampler draws per window
    net, params, _, test_eps = linear_fixture_run
    srng = derive_rng(102)
    errs = []
    for _ in range(8):
        for ep in test_eps:
            for s in (0, 5, 10):
                anchors, memories = build_context([ep.states[: s + 1]], C)
                pred = sample_chunk(net, params, anchors, memories, ep.task,
                                    ep.actions[None, s : s + H], 5,
                                    srng.normal(size=(1, net.out_dim)))[0]
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
    _, losses = train_wm(train_eps, net, derive_rng(101),
                         wm_section(epochs=15, batch_size=64, lr=2e-3, p_noisy=0.0))
    smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
    assert np.all(np.diff(smooth) <= 0)
    assert smooth[-1] < smooth[0]


def test_linear_fixture_action_sensitivity(linear_fixture_run):
    net, params, _, test_eps = linear_fixture_run
    ep = test_eps[0]
    anchors, memories = build_context([ep.states[:5]], C)
    plus = np.full((H, A_DIM), 0.6)
    minus = np.full((H, A_DIM), -0.6)
    srng = derive_rng(103)
    pred_plus = np.mean([sample_chunk(net, params, anchors, memories, ep.task, [plus], 5,
                                      srng.normal(size=(1, net.out_dim)))[0]
                         for _ in range(8)], axis=0)
    pred_minus = np.mean([sample_chunk(net, params, anchors, memories, ep.task, [minus], 5,
                                       srng.normal(size=(1, net.out_dim)))[0]
                          for _ in range(8)], axis=0)
    diff = pred_plus - pred_minus  # should be positive everywhere: +0.6 vs -0.6 drift
    assert np.all(diff[-1] > 0)
    assert np.mean(diff > 0) > 0.9


def test_noisy_training_still_learns():
    rng = np.random.default_rng(104)
    eps = [linear_episode(rng) for _ in range(10)]
    net = small_net()
    params, losses = train_wm(eps, net, derive_rng(105),
                              wm_section(epochs=10, batch_size=32, lr=2e-3, p_noisy=0.5))
    assert losses[-1] < losses[0]
    assert np.all(np.isfinite(losses))
