import numpy as np
import pytest

from wovr.core import MalformedHeader
from wovr.nn import (
    Mlp,
    Tensor,
    adam_init,
    adam_step,
    clip,
    concat,
    exp,
    linear,
    load_params,
    matmul,
    maximum,
    minimum,
    save_params,
    softplus,
    tanh,
    tmean,
    tsum,
    value_and_grad,
    xavier_uniform,
)


def fd_grad(f, x, eps=1e-6):
    """Central finite differences, the oracle every analytic gradient must match."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
    return g


def tape_grad(f, x):
    t = Tensor(x, requires_grad=True)
    f(t).backward()
    return t.grad


def check(f_tape, f_np, x, atol=1e-7):
    got = tape_grad(f_tape, x)
    want = fd_grad(f_np, x)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=atol)


def sq(t):
    return t * t


RNG = np.random.default_rng(42)


def test_grad_add_mul_chain():
    x = RNG.normal(size=(3, 4))
    check(lambda t: tsum(t * 2.0 + t * t), lambda a: (a * 2.0 + a * a).sum(), x)


def test_grad_matmul_both_sides():
    w = RNG.normal(size=(4, 3))
    x = RNG.normal(size=(2, 4))
    check(lambda t: tsum(sq(matmul(t, Tensor(w)))), lambda a: ((a @ w) ** 2).sum(), x)
    check(lambda t: tsum(sq(matmul(Tensor(x), t))), lambda a: ((x @ a) ** 2).sum(), w)


def test_grad_matmul_vector_input():
    w = RNG.normal(size=(4, 3))
    v = RNG.normal(size=4)
    check(lambda t: tsum(matmul(t, Tensor(w))), lambda a: (a @ w).sum(), v)
    check(lambda t: tsum(sq(matmul(Tensor(v), t))), lambda a: ((v @ a) ** 2).sum(), w)


def test_grad_elementwise_nonlinearities():
    x = RNG.normal(size=(2, 3))
    check(lambda t: tsum(tanh(t)), lambda a: np.tanh(a).sum(), x)
    check(lambda t: tsum(exp(t)), lambda a: np.exp(a).sum(), x)
    check(lambda t: tsum(softplus(t)), lambda a: np.logaddexp(0, a).sum(), x)


def test_grad_min_max_clip():
    x = RNG.normal(size=8)
    x[np.abs(np.abs(x) - 0.5) < 0.05] = 0.0  # keep clear of the clip kinks
    check(lambda t: tsum(minimum(t, 0.5)), lambda a: np.minimum(a, 0.5).sum(), x)
    check(lambda t: tsum(maximum(t, -0.5)), lambda a: np.maximum(a, -0.5).sum(), x)
    check(lambda t: tsum(clip(t, -0.5, 0.5)), lambda a: np.clip(a, -0.5, 0.5).sum(), x)


def test_clip_blocks_gradient_outside_range():
    t = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
    tsum(clip(t, -1.0, 1.0)).backward()
    assert np.array_equal(t.grad, [0.0, 1.0, 0.0])


def test_minimum_tie_sends_gradient_to_first_arg():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([1.0]), requires_grad=True)
    tsum(minimum(a, b)).backward()
    assert a.grad[0] == 1.0 and b.grad[0] == 0.0


def test_grad_sum_mean_axes():
    x = RNG.normal(size=(3, 4))
    check(lambda t: tsum(sq(tsum(t, axis=1))), lambda a: (a.sum(axis=1) ** 2).sum(), x)
    check(lambda t: tsum(sq(tmean(t, axis=0))), lambda a: (a.mean(axis=0) ** 2).sum(), x)
    check(lambda t: tmean(t * t), lambda a: (a * a).mean(), x)


def test_grad_concat():
    x = RNG.normal(size=(2, 3))
    y = RNG.normal(size=(2, 2))

    def f_tape(t):
        return tsum(sq(concat([t, Tensor(y)], axis=1)))

    check(f_tape, lambda a: (np.concatenate([a, y], axis=1) ** 2).sum(), x)


def test_grad_getitem_basic_slices():
    x = RNG.normal(size=(3, 4))

    def f(a):
        return (a[:, 1:3] * a[..., 0:2]).sum() + (a[1] ** 2).sum() + a[2, -1]

    check(lambda t: tsum(t[:, 1:3] * t[..., 0:2]) + tsum(sq(t[1])) + t[2, -1], f, x)


def test_numpy_names_record_the_tape():
    """One function in numpy names: arrays give a number, a Tensor the tape."""
    w = RNG.normal(size=(3, 3))
    y = RNG.normal(size=(2, 2))

    def f(a):
        h = np.concatenate([np.tanh(a @ w), y - y @ a[:, :2]], axis=1)
        h = np.clip(h, -0.5, 0.5)
        z = np.minimum(np.exp(-h), np.maximum(h, 0.1)) - 0.3 * h
        return np.sum(z * z)

    x = RNG.normal(size=(2, 3))
    assert not isinstance(f(x), Tensor)
    check(f, f, x)


def test_unmapped_numpy_call_raises_instead_of_dropping_tape():
    t = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    with pytest.raises(TypeError):
        np.sin(t)  # a ufunc with no tape op
    with pytest.raises(TypeError):
        np.mean(t)  # an array function with no tape op
    with pytest.raises(TypeError):
        np.add(t, 1.0, out=np.empty((2, 3)))
    with pytest.raises(TypeError):
        np.asarray(t)
    with pytest.raises(TypeError):
        t[np.array([0, 1])]  # fancy indexing


def test_grad_broadcast_bias():
    b = RNG.normal(size=3)
    x = RNG.normal(size=(5, 3))
    check(lambda t: tsum(sq(Tensor(x) + t)), lambda a: ((x + a) ** 2).sum(), b)


def test_grad_reused_node_accumulates():
    x = np.array([1.3, -0.7])
    check(lambda t: tsum(t * t + t * 3.0), lambda a: (a * a + 3.0 * a).sum(), x)


def test_linear_plain_path_is_x_at_w_plus_b():
    w, b = RNG.normal(size=(4, 3)), RNG.normal(size=3)
    for x in (RNG.normal(size=4), RNG.normal(size=(5, 4))):
        out = linear(x, w, b)
        assert type(out) is np.ndarray
        assert out.tobytes() == (x @ w + b).tobytes()


@pytest.mark.parametrize("x_shape", [(4,), (5, 4)])
def test_linear_grads_equal_matmul_add(x_shape):
    rng = np.random.default_rng(14)
    x, w, b = rng.normal(size=x_shape), rng.normal(size=(4, 3)), rng.normal(size=3)

    def grads(layer):
        leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        tsum(sq(tanh(layer(*leaves)))).backward()
        return [t.grad for t in leaves]

    fused = grads(linear)
    composed = grads(lambda xt, wt, bt: matmul(xt, wt) + bt)
    for got, want in zip(fused, composed):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    f_np = lambda xx, ww, bb: (np.tanh(xx @ ww + bb) ** 2).sum()
    check(lambda t: tsum(sq(tanh(linear(t, Tensor(w), Tensor(b))))),
          lambda a: f_np(a, w, b), x)
    check(lambda t: tsum(sq(tanh(linear(Tensor(x), t, Tensor(b))))),
          lambda a: f_np(x, a, b), w)
    check(lambda t: tsum(sq(tanh(linear(Tensor(x), Tensor(w), t)))),
          lambda a: f_np(x, w, a), b)


def test_linear_plain_x_gets_no_grad():
    x = Tensor(RNG.normal(size=(5, 4)))
    w = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=3), requires_grad=True)
    out = linear(x, w, b)
    # the node records no vjp for x, so backward never computes g @ w.T
    assert [parent for parent, _ in out._vjps] == [w, b]
    tsum(out).backward()
    assert x.grad is None
    assert w.grad.shape == (4, 3) and b.grad.shape == (3,)
    out = linear(RNG.normal(size=(5, 4)), w, b)
    assert [parent for parent, _ in out._vjps] == [w, b]


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_backward_releases_interior_values_only():
    x = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    c = Tensor(RNG.normal(size=4))
    x0, w0, c0 = x.data.copy(), w.data.copy(), c.data.copy()
    h = tanh(x @ w)
    err = h - c
    sq_err = err * err
    loss = tmean(sq_err)
    value = loss.data.copy()
    loss.backward()
    assert all(node.data is None for node in (h, err, sq_err))
    assert loss.data.tobytes() == value.tobytes()
    for leaf, before in ((x, x0), (w, w0), (c, c0)):
        assert leaf.data.tobytes() == before.tobytes()
    assert x.grad.shape == x0.shape and w.grad.shape == w0.shape and c.grad is None


def test_value_and_grad_keeps_leaves_and_root():
    mlp = Mlp("f", [3, 6, 2])
    params = mlp.init(np.random.default_rng(3))
    x = RNG.normal(size=(4, 3))
    seen = {}

    def loss(p):
        seen["leaves"] = p
        seen["hidden"] = hidden = mlp(p, x)
        seen["root"] = root = tmean(hidden * hidden)
        return root

    value, grads = value_and_grad(loss, params)
    assert seen["hidden"].data is None
    assert seen["root"].data.item() == value
    for k, leaf in seen["leaves"].items():
        assert leaf.data.tobytes() == params[k].tobytes()
        assert leaf.grad is grads[k]


def test_diamond_graph_gradients_survive_release():
    """u is read one level and three levels below it, and err * err squares
    one node: each vjp still finds its parents' values while backward
    releases the nodes behind it."""
    x = RNG.normal(size=(3, 2))

    def f_tape(t):
        u = t * 1.7 + 0.3
        deep = exp(tanh(u) * 0.5) * u
        err = deep + u - 1.0
        return tsum(err * err)

    def f_np(a):
        u = a * 1.7 + 0.3
        err = np.exp(np.tanh(u) * 0.5) * u + u - 1.0
        return (err * err).sum()

    check(f_tape, f_np, x)
    first, second = tape_grad(f_tape, x), tape_grad(f_tape, x)
    assert first.tobytes() == second.tobytes()


def test_repr_of_a_released_node():
    t = Tensor(np.ones(3), requires_grad=True)
    mid = t * 2.0
    tsum(mid).backward()
    assert mid.data is None
    assert "released" in repr(mid)
    assert "(3,)" in repr(t)


def test_constant_graph_not_tracked():
    out = Tensor(np.ones(3)) * 2.0
    assert not out.requires_grad


def test_mlp_gradcheck_end_to_end():
    mlp = Mlp("f", [4, 8, 2])
    params = mlp.init(np.random.default_rng(0))
    x = RNG.normal(size=(6, 4))
    target = RNG.normal(size=(6, 2))

    def loss(p):
        return tmean(sq(mlp(p, x) - Tensor(target)))

    _, grads = value_and_grad(loss, params)
    for k in params:
        def f_np(a, k=k):
            shifted = dict(params)
            shifted[k] = a
            h = x
            for i in range(mlp.n_layers):
                h = h @ shifted[f"f.w{i}"] + shifted[f"f.b{i}"]
                if i < mlp.n_layers - 1:
                    h = np.tanh(h)
            return ((h - target) ** 2).mean()

        np.testing.assert_allclose(grads[k], fd_grad(f_np, params[k]), rtol=1e-5, atol=1e-7)


def test_xavier_bounds_and_zero_init():
    rng = np.random.default_rng(2)
    w = xavier_uniform(rng, 100, 50)
    bound = np.sqrt(6.0 / 150)
    assert np.all(np.abs(w) <= bound)
    assert np.abs(w).max() > 0.8 * bound  # actually fills the range

    head = Mlp("mod", [4, 8, 3], zero_init_last=True)
    params = head.init(rng)
    assert np.all(params["mod.w1"] == 0.0)
    out = head(params, rng.normal(size=(5, 4)))
    assert np.all(out == 0.0)


def test_adam_first_step_matches_closed_form():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.array([0.5, -0.25])}
    state = adam_init(params)
    lr, eps = 1e-2, 1e-8
    new = adam_step(params, grads, state, lr=lr, eps=eps)
    # with bias correction the first step reduces to lr * g / (|g| + eps)
    expected = params["w"] - lr * grads["w"] / (np.abs(grads["w"]) + eps)
    np.testing.assert_allclose(new["w"], expected, rtol=0, atol=1e-12)
    assert state["step"] == 1


def adam_reference(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam written out in the reference order of operations."""
    new_p, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        new_m[k] = beta1 * m[k] + (1.0 - beta1) * g
        new_v[k] = beta2 * v[k] + (1.0 - beta2) * g * g
        m_hat = new_m[k] / (1.0 - beta1**t)
        v_hat = new_v[k] / (1.0 - beta2**t)
        new_p[k] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_p, new_m, new_v


def test_adam_matches_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    params = {"a.w0": rng.normal(size=(5, 3)), "a.b0": rng.normal(size=3),
              "log_std": np.full(4, -1.5)}
    state = adam_init(params)
    ref_p, ref_m, ref_v = params, dict(state["m"]), dict(state["v"])
    for t in range(1, 7):
        grads = {k: rng.normal(scale=10.0 ** -t, size=v.shape) for k, v in params.items()}
        grads["log_std"][0] = 0.0
        lr = np.float64(3e-3 / t)  # train_wm's cosine schedule passes a numpy float
        params = adam_step(params, grads, state, lr=lr)
        ref_p, ref_m, ref_v = adam_reference(ref_p, grads, ref_m, ref_v, t, lr)
        assert state["step"] == t
        for k in params:
            assert params[k].tobytes() == ref_p[k].tobytes()
            assert state["m"][k].tobytes() == ref_m[k].tobytes()
            assert state["v"][k].tobytes() == ref_v[k].tobytes()


def test_adam_never_writes_its_inputs():
    rng = np.random.default_rng(13)
    params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
    state = adam_init(params)
    for _ in range(3):
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        before = {name: {k: a.copy() for k, a in arrays.items()}
                  for name, arrays in (("p", params), ("g", grads),
                                       ("m", state["m"]), ("v", state["v"]))}
        # every array the caller holds is read-only, so a write would raise
        for arrays in (params, grads, state["m"], state["v"]):
            for a in arrays.values():
                a.setflags(write=False)
        old_m, old_v = dict(state["m"]), dict(state["v"])
        new = adam_step(params, grads, state, lr=1e-2)
        for name, arrays in (("p", params), ("g", grads), ("m", old_m), ("v", old_v)):
            for k, a in arrays.items():
                assert np.array_equal(a, before[name][k])
        # fresh m, v and params: no memory shared with the inputs or each other
        fresh = [*new.values(), *state["m"].values(), *state["v"].values()]
        held = [*params.values(), *grads.values(), *old_m.values(), *old_v.values()]
        for i, a in enumerate(fresh):
            assert a.flags.writeable
            assert not any(np.shares_memory(a, b) for b in held + fresh[i + 1:])
        params = new


def test_adam_converges_on_quadratic():
    params = {"w": np.array([5.0])}
    state = adam_init(params)
    for _ in range(2000):
        grads = {"w": 2.0 * (params["w"] - 3.0)}
        params = adam_step(params, grads, state, lr=1e-2)
    assert abs(params["w"][0] - 3.0) < 1e-3


def test_checkpoint_roundtrip_and_determinism(tmp_path):
    rng = np.random.default_rng(3)
    params = {"a.w0": rng.normal(size=(3, 4)), "a.b0": rng.normal(size=4), "s": np.array(2.5)}
    p1, p2 = tmp_path / "c1.wovc", tmp_path / "c2.wovc"
    save_params(p1, params)
    save_params(p2, dict(reversed(list(params.items()))))
    assert p1.read_bytes() == p2.read_bytes()
    loaded = load_params(p1)
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k])
        assert loaded[k].shape == params[k].shape


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wovc"
    path.write_bytes(b"XXXX\x01\x00\x00\x00\x00")
    with pytest.raises(MalformedHeader):
        load_params(path)
