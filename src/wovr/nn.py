"""Minimal neural toolkit: a reverse-mode tape over float64 numpy arrays.

Parameters live in flat dicts of numpy arrays, and training code stays
functional: loss_fn(params) -> value_and_grad -> adam_step.

Each model's forward is written once, in plain numpy (`x @ w + b`, `np.tanh`,
`np.concatenate`, basic slicing). On the plain-array params of inference it
runs as plain numpy: no Tensor is built and no Python dispatch is added.
value_and_grad passes Tensor leaves instead, and Tensor takes numpy's
dispatch (NEP 13 `__array_ufunc__`, NEP 18 `__array_function__`), so the same
code records the tape. A numpy call that the tables below do not map, such as
`np.sin(t)`, raises TypeError instead of silently dropping the tape. There is
no global state.
"""
from __future__ import annotations

import numpy as np

from .core import MalformedHeader, read_records, write_records

CHECKPOINT_MAGIC = b"WOVC"


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape the operand had before broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Array node on the tape. vjps map the output gradient to each parent."""

    __slots__ = ("data", "grad", "requires_grad", "_vjps")

    def __init__(self, data, requires_grad=False, vjps=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._vjps = vjps  # list of (parent, fn) or None for leaves

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if node._vjps:
                for parent, _ in node._vjps:
                    if id(parent) not in seen:
                        stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if not node._vjps or node.grad is None:
                continue
            for parent, fn in node._vjps:
                if not parent.requires_grad:
                    continue
                g = _unbroadcast(fn(node.grad), parent.data.shape)
                parent.grad = g if parent.grad is None else parent.grad + g

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, key):
        return take(self, key)

    # -- numpy dispatch ------------------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        fn = _UFUNCS.get(ufunc)
        if fn is None or method != "__call__" or kwargs:
            return NotImplemented  # numpy then raises TypeError
        return fn(*inputs)

    def __array_function__(self, func, types, args, kwargs):
        fn = _FUNCTIONS.get(func)
        if fn is None:
            return NotImplemented
        return fn(*args, **kwargs)

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a Tensor does not convert to an array; read .data")

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, vjps) -> Tensor:
    if any(p.requires_grad for p, _ in vjps):
        return Tensor(data, requires_grad=True, vjps=vjps)
    return Tensor(data)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, [(a, lambda g: g * b.data), (b, lambda g: g * a.data)])


def sub(a, b) -> Tensor:
    return add(a, mul(b, -1.0))


def neg(a) -> Tensor:
    return mul(a, -1.0)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim == 1:
        out = a.data @ b.data
        return _make(out, [(a, lambda g: g @ b.data.T), (b, lambda g: np.outer(a.data, g))])
    return _make(a.data @ b.data, [(a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g)])


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, [(a, lambda g: g * out)])


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, [(a, lambda g: g * (1.0 - out * out))])


def _sigmoid_raw(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a) -> Tensor:
    """log(1 + e^x), evaluated stably; gradient is the logistic function."""
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.data)
    return _make(out, [(a, lambda g: g * _sigmoid_raw(a.data))])


def minimum(a, b) -> Tensor:
    """Elementwise min; on ties the gradient goes to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data
    out = np.where(take_a, a.data, b.data)
    return _make(out, [(a, lambda g: g * take_a), (b, lambda g: g * ~take_a)])


def maximum(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data
    out = np.where(take_a, a.data, b.data)
    return _make(out, [(a, lambda g: g * take_a), (b, lambda g: g * ~take_a)])


def clip(a, lo, hi) -> Tensor:
    """Clamp with pass-through gradient strictly inside [lo, hi]."""
    return minimum(maximum(a, lo), hi)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape).copy()
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.data.shape).copy()

    return _make(out, [(a, back)])


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def concat(parts, axis=0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    vjps = []
    offset = 0
    for p in parts:
        width = p.data.shape[axis]
        sl = [slice(None)] * out.ndim
        sl[axis] = slice(offset, offset + width)
        vjps.append((p, lambda g, sl=tuple(sl): g[sl]))
        offset += width
    return _make(out, vjps)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.reshape(shape), [(a, lambda g: g.reshape(a.data.shape))])


def take(a, key) -> Tensor:
    """Basic indexing (ints, slices, Ellipsis, None); the gradient scatters back."""
    a = as_tensor(a)
    for k in key if isinstance(key, tuple) else (key,):
        if not (k is Ellipsis or k is None or isinstance(k, (int, np.integer, slice))):
            raise TypeError(f"Tensor indexing takes ints, slices and Ellipsis, not {k!r}")

    def back(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return full

    return _make(a.data[key].copy(), [(a, back)])


_UFUNCS = {
    np.add: add,
    np.subtract: sub,
    np.multiply: mul,
    np.negative: neg,
    np.matmul: matmul,
    np.tanh: tanh,
    np.exp: exp,
    np.minimum: minimum,
    np.maximum: maximum,
}

_FUNCTIONS = {
    np.concatenate: concat,
    np.sum: tsum,
    np.clip: clip,
    np.reshape: reshape,
}


def value_and_grad(loss_fn, params: dict):
    """Evaluate loss_fn over Tensor leaves for params; return (value, grads)."""
    leaves = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
    out = loss_fn(leaves)
    out.backward()
    grads = {
        k: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for k, t in leaves.items()
    }
    return float(out.data), grads


def read_only(params: dict) -> dict:
    """Write-protected views of a param dict's arrays, sharing their memory.

    A write through a view raises ValueError; the caller's own arrays stay
    writable, and nothing is copied.
    """
    views = {}
    for k, v in params.items():
        view = v.view()
        view.setflags(write=False)
        views[k] = view
    return views


# ---------------------------------------------------------------------------
# Layers


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Mlp:
    """Plain fully connected stack: tanh after each hidden layer, linear output.

    Holds only the architecture; weights live in an external params dict under
    keys "<name>.w{i}" / "<name>.b{i}". zero_init_last makes the final layer
    start at exactly zero, so the block initially contributes nothing.
    """

    def __init__(self, name: str, sizes: list[int], zero_init_last=False):
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output size")
        self.name = name
        self.sizes = list(sizes)
        self.zero_init_last = zero_init_last
        self.keys = [(f"{name}.w{i}", f"{name}.b{i}") for i in range(len(sizes) - 1)]

    @property
    def n_layers(self):
        return len(self.sizes) - 1

    def init(self, rng: np.random.Generator) -> dict:
        params = {}
        for i, (w, b) in enumerate(self.keys):
            fan_in, fan_out = self.sizes[i], self.sizes[i + 1]
            last = i == self.n_layers - 1
            if last and self.zero_init_last:
                params[w] = np.zeros((fan_in, fan_out))
            else:
                params[w] = xavier_uniform(rng, fan_in, fan_out)
            params[b] = np.zeros(fan_out)
        return params

    def __call__(self, params: dict, x):
        """x is one row (in_dim,) or a batch of rows (B, in_dim).

        Plain arrays give plain arrays; Tensor params or input record the tape.
        """
        last = len(self.keys) - 1
        for i, (w, b) in enumerate(self.keys):
            x = x @ params[w] + params[b]
            if i < last:
                x = np.tanh(x)
        return x


# ---------------------------------------------------------------------------
# Adam


def adam_init(params: dict) -> dict:
    return {
        "step": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adam_step(params, grads, state, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update. Returns new params; mutates state."""
    state["step"] += 1
    t = state["step"]
    out = {}
    for k, p in params.items():
        g = grads[k]
        state["m"][k] = beta1 * state["m"][k] + (1.0 - beta1) * g
        state["v"][k] = beta2 * state["v"][k] + (1.0 - beta2) * g * g
        m_hat = state["m"][k] / (1.0 - beta1**t)
        v_hat = state["v"][k] / (1.0 - beta2**t)
        out[k] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


# ---------------------------------------------------------------------------
# Checkpoints: one record of float64 arrays in core's container, so identical
# params give identical bytes.


def save_params(path, params: dict):
    write_records(path, CHECKPOINT_MAGIC, 1,
                  [{name: np.asarray(value, dtype=np.float64) for name, value in params.items()}])


def load_params(path) -> dict:
    records = read_records(path, CHECKPOINT_MAGIC)
    if len(records) != 1:
        raise MalformedHeader(f"checkpoint holds {len(records)} records, expected 1")
    params = records[0]
    if any(arr.dtype.str != "<f8" for arr in params.values()):
        raise MalformedHeader("checkpoint arrays must be float64")
    return params
