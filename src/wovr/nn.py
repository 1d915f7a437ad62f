"""Minimal neural toolkit: a reverse-mode tape over float64 numpy arrays.

Parameters live in flat dicts of numpy arrays, and training code stays
functional: loss_fn(params) -> value_and_grad -> adam_step.

Each model's forward is written once, in plain numpy (`np.tanh`,
`np.concatenate`, basic slicing) and `linear` for each `x @ w + b`. On the
plain-array params of inference it runs as plain numpy: no Tensor is built
and no Python dispatch is added. value_and_grad passes Tensor leaves instead,
and Tensor takes numpy's dispatch (NEP 13 `__array_ufunc__`, NEP 18
`__array_function__`), so the same code records the tape. A numpy call that
the tables below do not map, such as `np.sin(t)`, raises TypeError instead of
silently dropping the tape. There is no global state.

A forward may update an array in place, by augmented assignment (`a *= b`),
only if it created that array itself, such as a matmul's output or a
difference it took; it never writes its inputs or params, so they may be
read-only. `linear` adds its bias into its matmul's fresh output, and
`tanh_` runs in place on the fresh output of a layer. Tensor defines no
in-place operator, so on the tape `a *= b` rebinds a to `a * b`: the same
node, with the same operand order, that the out-of-place expression records,
so values and gradients keep their bits.

The tape is kept small: a linear layer is one node, and so is a FiLM
modulation (`modulate`); a node records vjps only for parents that require
grad, and backward walks only those. Backward releases each interior node
once its vjps have run: its vjps, grad and data (data becomes None), so
later vjps reuse the memory of activations already used. Leaves and the root
keep their data. Every gradient is bit-identical to the one the `x @ w` then
`+ b` nodes, and the five nodes of the modulation expression, gave (up to the
sign of a zero, see `modulate`), and adam_step keeps the reference order of
operations, so trained params do not move.
"""
from __future__ import annotations

import numpy as np

from .core import CHECKPOINT_MAGIC, MalformedHeader, read_records, write_records


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape the operand had before broadcasting."""
    if grad.shape == shape:
        return grad
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

    def backward(self):
        """Fill the grad of every leaf that requires it.

        The walk visits the nodes in reverse depth-first post-order, which
        fixes the order a node's gradients are summed in. Every consumer of
        a node comes before it in that order, and a vjp reads only its
        parents' data or arrays it captured, so once an interior node's vjps
        have run nothing reads it again: it drops its vjps, grad and data
        (data becomes None), and the walk reuses their memory. Leaves and
        the root keep their data.
        """
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
            vjps, g = node._vjps, node.grad
            if not vjps:
                continue
            node._vjps = node.grad = None
            for parent, fn in vjps:
                pg = _unbroadcast(fn(g), parent.data.shape)
                parent.grad = pg if parent.grad is None else parent.grad + pg
            if node is not self:
                node.data = None

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

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
        shape = "released" if self.data is None else self.data.shape
        return f"Tensor(shape={shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, vjps) -> Tensor:
    """A node that keeps only the vjps of parents that require grad."""
    vjps = [pair for pair in vjps if pair[0].requires_grad]
    if vjps:
        return Tensor(data, requires_grad=True, vjps=vjps)
    return Tensor(data)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, [(a, lambda g: g * b.data), (b, lambda g: g * a.data)])


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data, [(a, lambda g: g), (b, np.negative)])


def neg(a) -> Tensor:
    return mul(a, -1.0)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim == 1:
        out = a.data @ b.data
        return _make(out, [(a, lambda g: g @ b.data.T), (b, lambda g: np.outer(a.data, g))])
    return _make(a.data @ b.data, [(a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g)])


def linear(x, w, b):
    """x @ w + b, the bias added into the matmul's fresh output. Plain arrays
    give a plain array; a Tensor operand records one tape node with one vjp
    per operand."""
    if type(x) is not Tensor and type(w) is not Tensor and type(b) is not Tensor:
        out = x @ w
        out += b
        return out
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd = x.data, w.data
    out = xd @ wd
    out += b.data
    back_w = (lambda g: np.outer(xd, g)) if xd.ndim == 1 else (lambda g: xd.T @ g)
    return _make(out, [(x, lambda g: g @ wd.T), (w, back_w), (b, lambda g: g)])


def modulate(features, ss):
    """FiLM: features * (ss[..., :w] + 1.0) + ss[..., w:], with w features'
    width and ss a head's (scale, shift) output.

    features must be an intermediate of the caller's forward: given plain
    arrays, it is updated in place and returned. On the tape this is one
    node with the values and gradients of the expression's five nodes (two
    takes, + 1.0, * and +), except that ss's gradient is one concatenation
    [g * features, g] instead of two zero-padded scatters and their sum. The
    sum turned a -0.0 entry into +0.0; the concatenation keeps it, and no
    other bit differs.
    """
    if type(features) is not Tensor and type(ss) is not Tensor:
        w = features.shape[-1]
        features *= ss[..., :w] + 1.0
        features += ss[..., w:]
        return features
    features, ss = as_tensor(features), as_tensor(ss)
    fd = features.data
    w = fd.shape[-1]
    scale = ss.data[..., :w] + 1.0
    out = fd * scale
    out += ss.data[..., w:]
    return _make(out, [(features, lambda g: g * scale),
                       (ss, lambda g: np.concatenate([g * fd, g], axis=-1))])


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, [(a, lambda g: g * out)])


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, [(a, lambda g: g * (1.0 - out * out))])


def tanh_(a):
    """tanh of an array the caller created, such as a layer's output: in
    place on a plain array, the tanh node on a Tensor."""
    if type(a) is Tensor:
        return tanh(a)
    return np.tanh(a, out=a)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function on a plain array, in the overflow-free form:
    1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below, one division."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softplus(a) -> Tensor:
    """log(1 + e^x), evaluated stably; gradient is the logistic function."""
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.data)
    return _make(out, [(a, lambda g: g * sigmoid(a.data))])


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


def _spread(g, shape, axis, keepdims):
    """A reduction's gradient, broadcast back to the reduced operand's shape."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    return _make(out, [(a, lambda g: _spread(g, a.data.shape, axis, keepdims))])


def tmean(a, axis=None, keepdims=False) -> Tensor:
    """One node: the sum times 1/n, and the gradient times 1/n, spread back."""
    a = as_tensor(a)
    scale = 1.0 / (a.data.size if axis is None else a.data.shape[axis])
    out = a.data.sum(axis=axis, keepdims=keepdims) * scale
    return _make(out, [(a, lambda g: _spread(g * scale, a.data.shape, axis, keepdims))])


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
            x = linear(x, params[w], params[b])
            if i < last:
                x = tanh_(x)
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
    """One bias-corrected Adam update. Returns new params; mutates state.

    Bit for bit the reference
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p - lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
    with its order of operations. Every step makes fresh m, v and params
    arrays and never writes the caller's params, grads or the previous m and
    v, so a shallow copy of state stays valid. In-place ops touch only the
    arrays the step made: one scratch array per param besides the three.
    """
    state["step"] += 1
    t = state["step"]
    m_corr = 1.0 - beta1**t
    v_corr = 1.0 - beta2**t
    ms, vs = state["m"], state["v"]
    out = {}
    for k, p in params.items():
        g = grads[k]
        tmp = (1.0 - beta1) * g
        m = beta1 * ms[k]
        m += tmp
        v = beta2 * vs[k]
        np.multiply(1.0 - beta2, g, out=tmp)
        tmp *= g
        v += tmp
        ms[k], vs[k] = m, v
        den = v / v_corr
        np.sqrt(den, out=den)
        den += eps
        np.divide(m, m_corr, out=tmp)
        np.multiply(lr, tmp, out=tmp)
        tmp /= den
        out[k] = np.subtract(p, tmp, out=den)
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
