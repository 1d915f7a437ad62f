"""Learned chunk dynamics: anchored-context rectified flow over state vectors.

The model predicts the velocity that carries Gaussian noise to the next H
frames, conditioned on an anchored context (episode first frame + recent
memory + task token) and the action chunk. Action conditioning is
dual-channel: the action embedding is concatenated into the trunk input, and
a zero-initialized modulation head computes feature-wise scale/shift from the
fused (action, time) embedding, so modulation is exactly the identity at
init.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .core import FrameEpisode, TaskSpec, one_hot
from .envs import step_chunks
from .nn import Mlp, tmean, value_and_grad

ANCHOR_MODES = ("first", "last")
N_TIME_FEATS = 5


@dataclass(eq=False)
class AnchoredContext:
    """Conditioning bundle: episode anchor frame, last-c memory, task."""

    anchor: np.ndarray   # (d,)
    memory: np.ndarray   # (c, d)
    task: TaskSpec

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=np.float64)
        self.memory = np.asarray(self.memory, dtype=np.float64)
        if self.memory.ndim != 2 or (self.memory.size and self.memory.shape[1] != self.anchor.shape[0]):
            raise ValueError("memory must be (c, d) matching the anchor dimension")


def build_context(history: list[np.ndarray], c: int, task: TaskSpec,
                  anchor_mode: str = "first") -> AnchoredContext:
    """Anchor + last-c memory; short histories are left-padded with the anchor.

    anchor_mode "last" is the no-reference ablation: the anchor slot is filled
    with a repeat of the newest frame instead of the episode's first frame.
    """
    if not history:
        raise ValueError("history must contain at least the initial frame")
    if anchor_mode not in ANCHOR_MODES:
        raise ValueError(f"unknown anchor_mode {anchor_mode!r}")
    anchor = np.asarray(history[0] if anchor_mode == "first" else history[-1], dtype=np.float64)
    recent = [np.asarray(h, dtype=np.float64) for h in history[-c:]] if c > 0 else []
    pad = [anchor] * (c - len(recent))
    memory = np.array(pad + recent) if c > 0 else np.zeros((0, anchor.shape[0]))
    return AnchoredContext(anchor.copy(), memory, task)


def rf_interpolate(x0: np.ndarray, x1: np.ndarray, t: float):
    """Linear path point and its constant velocity: ((1-t)x0 + t x1, x1 - x0)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError("endpoint shapes differ")
    return (1.0 - t) * x0 + t * x1, x1 - x0


def noisy_context(ctx: AnchoredContext, t_ctx: float, noise: np.ndarray) -> AnchoredContext:
    """Blend memory toward noise; the anchor is never perturbed."""
    if not 0.0 <= t_ctx <= 1.0:
        raise ValueError("t_ctx must lie in [0, 1]")
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != ctx.memory.shape:
        raise ValueError("noise must be memory-shaped")
    memory = (1.0 - t_ctx) * ctx.memory + t_ctx * noise
    return AnchoredContext(ctx.anchor.copy(), memory, ctx.task)


def time_features(t: float) -> np.ndarray:
    angle = 2.0 * np.pi * t
    return np.array([t, np.sin(angle), np.cos(angle), np.sin(2 * angle), np.cos(2 * angle)])


@dataclass(eq=False)
class RfBatch:
    """One training minibatch; rows pair up, the flow time t is shared."""

    x0: np.ndarray        # (B, H*d) standard-normal draws
    x1: np.ndarray        # (B, H*d) target future frames, flattened
    anchors: np.ndarray   # (B, d)
    memories: np.ndarray  # (B, c, d)
    tasks: np.ndarray     # (B, n_tasks) one-hot rows
    chunks: np.ndarray    # (B, H*a_dim)
    t: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        b = self.x1.shape[0]
        for name in ("x0", "anchors", "memories", "tasks", "chunks"):
            if getattr(self, name).shape[0] != b:
                raise ValueError(f"{name} batch dimension mismatch")
        if self.x0.shape != self.x1.shape:
            raise ValueError("x0/x1 shape mismatch")


class WmNet:
    """Architecture container; parameters live in an external dict."""

    def __init__(self, d, a_dim, n_tasks, horizon=8, context=4, width=128,
                 act_emb_dim=32, anchor_mode="first", name="wm"):
        if anchor_mode not in ANCHOR_MODES:
            raise ValueError(f"unknown anchor_mode {anchor_mode!r}")
        self.d = d
        self.a_dim = a_dim
        self.n_tasks = n_tasks
        self.horizon = horizon
        self.context = context
        self.width = width
        self.act_emb_dim = act_emb_dim
        self.anchor_mode = anchor_mode
        self.name = name
        self.out_dim = horizon * d
        in_dim = self.out_dim + d + context * d + n_tasks + act_emb_dim
        cond_dim = act_emb_dim + N_TIME_FEATS
        self.layer_in = Mlp(f"{name}_in", [in_dim, width])
        self.layer_mid = Mlp(f"{name}_mid", [width, width])
        self.layer_out = Mlp(f"{name}_out", [width, self.out_dim])
        self.act_proj = Mlp(f"{name}_act", [horizon * a_dim, act_emb_dim])
        self.mods = [
            Mlp(f"{name}_mod{i}", [cond_dim, 2 * width], zero_init_last=True)
            for i in range(2)
        ]

    def init(self, rng: np.random.Generator) -> dict:
        params = {}
        for block in (self.layer_in, self.layer_mid, self.layer_out, self.act_proj, *self.mods):
            params.update(block.init(rng))
        return params

    def condition(self, params: dict, features, act_emb, time_emb, block=0):
        """Feature-wise scale/shift from the fused (action, time) embedding.

        Zero-initialized head: identity on features until trained. The fused
        concat is built in each block, not once per forward: a shared concat
        gives the same loss but sums act_emb's gradient in another order,
        which moves trained params in the last bits.
        """
        fused = np.concatenate([act_emb, time_emb], axis=-1)
        ss = self.mods[block](params, fused)
        return features * (1.0 + ss[..., : self.width]) + ss[..., self.width:]

    def u_apply(self, params: dict, x, anchors, memories, tasks, chunks, t: float):
        """Velocity field over B rows; the one forward for sampling and training.

        x (B, H*d), anchors (B, d), memories (B, c, d), tasks (B, n_tasks)
        one-hot rows, chunks (B, H*a_dim), all plain arrays; returns (B, H*d)
        velocities, a Tensor when params are Tensor leaves.
        """
        b = x.shape[0]
        act_emb = self.act_proj(params, chunks)
        tfeat = np.broadcast_to(time_features(t), (b, N_TIME_FEATS))
        trunk_in = np.concatenate([x, anchors, memories.reshape(b, self.context * self.d),
                                   tasks, act_emb], axis=1)
        h = np.tanh(self.layer_in(params, trunk_in))
        h = self.condition(params, h, act_emb, tfeat, 0)
        h = np.tanh(self.layer_mid(params, h))
        h = self.condition(params, h, act_emb, tfeat, 1)
        return self.layer_out(params, h)

    # training calls go through this name, so a traced run counts them apart
    u_tape = u_apply


def rf_loss(net: WmNet, params: dict, batch: RfBatch):
    """Mean squared velocity error over every element of the batch (tape)."""
    x_t, v = rf_interpolate(batch.x0, batch.x1, batch.t)
    pred = net.u_tape(params, x_t, batch.anchors, batch.memories, batch.tasks,
                      batch.chunks, batch.t)
    if not np.all(np.isfinite(pred.data)):
        raise FloatingPointError("non-finite velocity prediction")
    err = pred - v
    return tmean(err * err)


def sample_chunk(net: WmNet, params: dict, ctxs: list[AnchoredContext], chunks,
                 steps: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """Euler-integrate the learned field from noise for B rows; (B, H, d) frames.

    Row i conditions on ctxs[i] and chunks[i] (H, a_dim) and draws its start
    noise from rngs[i], per row before stacking, so a row's draws do not
    depend on the other rows. Every Euler step is one batched u_apply. A
    row that turns non-finite stays so; the caller drops it, the sampler
    does not raise.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    b = len(ctxs)
    anchors = np.array([ctx.anchor for ctx in ctxs])
    memories = np.array([ctx.memory for ctx in ctxs])
    tasks = np.array([one_hot(ctx.task.task_id, net.n_tasks) for ctx in ctxs])
    chunks = np.asarray(chunks, dtype=np.float64).reshape(b, net.horizon * net.a_dim)
    x = np.array([rng.normal(size=net.out_dim) for rng in rngs])
    dt = 1.0 / steps
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x = x + dt * net.u_apply(params, x, anchors, memories, tasks, chunks, k * dt)
    return x.reshape(b, net.horizon, net.d)


class LearnedWorldModel:
    """Inference bundle used by rollout: net + params + sampler step count.

    predict_chunk(ctxs, chunks, rngs) -> (B, H, d) frames, one row per
    context; every world model (OracleWorldModel, test doubles) keeps this
    contract.
    """

    def __init__(self, net: WmNet, params: dict, steps: int = 5):
        self.net = net
        self.params = params
        self.steps = steps
        self.anchor_mode = net.anchor_mode
        self.context = net.context

    def predict_chunk(self, ctxs, chunks, rngs) -> np.ndarray:
        return sample_chunk(self.net, self.params, ctxs, chunks, self.steps, rngs)


class OracleWorldModel:
    """True-dynamics stand-in: steps the real environment from memory[-1].

    Never draws from the model RNG stream, so oracle-backed imagined rollouts
    consume exactly the same randomness as real rollouts.
    """

    def __init__(self, env, context: int = 4):
        self.env = env
        self.anchor_mode = "first"
        self.context = context

    def predict_chunk(self, ctxs, chunks, rngs) -> np.ndarray:
        return step_chunks(self.env, [ctx.memory[-1] for ctx in ctxs], chunks)


# ---------------------------------------------------------------------------
# Training


def window_index(episodes: list[FrameEpisode], horizon: int):
    """Every (episode, start) pair with a full horizon of actions ahead."""
    index = []
    for e, ep in enumerate(episodes):
        for s in range(ep.actions.shape[0] - horizon + 1):
            index.append((e, s))
    return index


def make_rf_batch(net: WmNet, episodes, picks, rng: np.random.Generator,
                  p_noisy: float, t_ctx_max: float, t: float | None = None) -> RfBatch:
    """Assemble one minibatch from (episode, start) picks."""
    h, c, d = net.horizon, net.context, net.d
    x1, anchors, memories, tasks, chunks = [], [], [], [], []
    for e, s in picks:
        ep = episodes[e]
        history = [ep.states[i] for i in range(s + 1)]
        ctx = build_context(history, c, ep.task, net.anchor_mode)
        if p_noisy > 0 and rng.uniform() < p_noisy:
            t_ctx = rng.uniform(0.0, t_ctx_max)
            ctx = noisy_context(ctx, t_ctx, rng.normal(size=ctx.memory.shape))
        x1.append(ep.states[s + 1 : s + 1 + h].reshape(h * d))
        anchors.append(ctx.anchor)
        memories.append(ctx.memory)
        tasks.append(one_hot(ep.task.task_id, net.n_tasks))
        chunks.append(ep.actions[s : s + h].reshape(-1))
    x1 = np.array(x1)
    return RfBatch(
        x0=rng.normal(size=x1.shape),
        x1=x1,
        anchors=np.array(anchors),
        memories=np.array(memories),
        tasks=np.array(tasks),
        chunks=np.array(chunks),
        t=float(rng.uniform()) if t is None else float(t),
    )


def train_wm(episodes: list[FrameEpisode], net: WmNet, rng: np.random.Generator,
             epochs: int = 15, batch_size: int = 64, lr: float = 1e-3,
             p_noisy: float = 0.5, t_ctx_max: float = 0.2,
             init_params: dict | None = None, lr_floor: float = 0.1) -> tuple[dict, list[float]]:
    """Fit the velocity field; returns (params, per-epoch mean losses).

    Passing init_params continues training from an existing checkpoint
    (refinement) instead of starting from a fresh initialization. The
    learning rate follows a cosine decay from lr down to lr_floor * lr.
    """
    if not episodes:
        raise ValueError("empty training set")
    for ep in episodes:
        if ep.states.shape[1] != net.d or ep.actions.shape[1] != net.a_dim:
            raise ValueError("episode dimensions do not match the net")
    params = ({k: v.copy() for k, v in init_params.items()}
              if init_params is not None else net.init(rng))
    index = window_index(episodes, net.horizon)
    if not index:
        raise ValueError("no episode is long enough for a full prediction window")
    opt = nn.adam_init(params)
    losses = []
    for epoch in range(epochs):
        frac = epoch / max(1, epochs - 1)
        lr_e = lr * (lr_floor + (1.0 - lr_floor) * 0.5 * (1.0 + np.cos(np.pi * frac)))
        order = rng.permutation(len(index))
        n_batches = (len(order) + batch_size - 1) // batch_size
        # stratified flow time, visited in random order: marginally uniform,
        # epoch losses comparable across epochs, no within-epoch t curriculum
        strata = rng.permutation(n_batches)
        epoch_losses = []
        for j, lo in enumerate(range(0, len(order), batch_size)):
            picks = [index[i] for i in order[lo : lo + batch_size]]
            t = (strata[j] + rng.uniform()) / n_batches
            batch = make_rf_batch(net, episodes, picks, rng, p_noisy, t_ctx_max, t=t)
            value, grads = value_and_grad(lambda p: rf_loss(net, p, batch), params)
            params = nn.adam_step(params, grads, opt, lr=lr_e)
            epoch_losses.append(value)
        losses.append(float(np.mean(epoch_losses)))
    return params, losses
