"""Learned chunk dynamics: anchored-context rectified flow over state vectors.

The model predicts the velocity that carries Gaussian noise to the next H
frames, conditioned on an anchored context (episode first frame + recent
memory + task token) and the action chunk. Action conditioning is
dual-channel: the action embedding is concatenated into the trunk input, and
a zero-initialized modulation head computes feature-wise scale/shift from the
fused (action, time) embedding, so modulation is exactly the identity at
init.

The context rule is stated once, in context_rows: the anchor, then the last
c frames left-padded with the anchor. Training gathers each minibatch with
it from an RfCorpus, the episodes flattened once; LearnedWorldModel gathers
every active member's context at once with build_context. Training blends
the memory of a random share of rows toward noise (never the anchor), so the
model learns to tolerate its own drifting predictions in the memory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .core import ANCHOR_MODES, FrameEpisode, one_hot, task_tokens
from .envs import ACTION_BOUND, step_chunks
from .nn import Mlp, tmean, value_and_grad

N_TIME_FEATS = 5
# train_wm's largest memory-noise level, and its last epoch's share of lr
T_CTX_MAX = 0.2
LR_FLOOR = 0.1


def context_rows(first, now, c: int, anchor_mode: str):
    """The context rule: rows of the anchor and the memory at row now.

    first and now are (B,) integer rows (or scalars) into a frame sequence:
    the episode's first frame and the newest frame. The anchor is the first
    frame, or under anchor_mode "last" (the no-reference ablation) the newest
    one. The memory is the last c rows up to now; a row that falls before the
    episode start takes the anchor row. Returns (anchor (B,), memory (B, c)).
    """
    if anchor_mode not in ANCHOR_MODES:
        raise ValueError(f"unknown anchor_mode {anchor_mode!r}")
    first, now = np.asarray(first), np.asarray(now)
    anchor = first if anchor_mode == "first" else now
    recent = now[..., None] + np.arange(1 - c, 1)
    return anchor, np.where(recent < first[..., None], anchor[..., None], recent)


def build_context(histories, c: int, anchor_mode: str = "first", members=None):
    """Anchors (B, d) and memories (B, c, d) of frame histories of one length.

    histories is (N, L, d), the first L frames of N episodes (or N sequences
    of L frames each); members picks the B rows to build (all N when None),
    such as the active members of a lockstep rollout. context_rows picks the
    c + 1 rows once for length L, and only those frames are gathered, in one
    fancy index over every picked history.
    """
    histories = np.asarray(histories, dtype=np.float64)
    if histories.ndim != 3 or not histories.size:
        raise ValueError("histories must be non-empty and of one length")
    anchor, memory = context_rows(0, histories.shape[1] - 1, c, anchor_mode)
    rows = np.concatenate([anchor[None], memory])
    picked = slice(None) if members is None else np.asarray(members)[:, None]
    frames = histories[picked, rows]
    return frames[:, 0], frames[:, 1:]


def rf_interpolate(x0: np.ndarray, x1: np.ndarray, t: float):
    """Linear path point and its constant velocity: ((1-t)x0 + t x1, x1 - x0)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError("endpoint shapes differ")
    return (1.0 - t) * x0 + t * x1, x1 - x0


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
                 act_emb_dim=32, anchor_mode="first"):
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
        self.out_dim = horizon * d
        in_dim = self.out_dim + d + context * d + n_tasks + act_emb_dim
        cond_dim = act_emb_dim + N_TIME_FEATS
        self.layer_in = Mlp("wm_in", [in_dim, width])
        self.layer_mid = Mlp("wm_mid", [width, width])
        self.layer_out = Mlp("wm_out", [width, self.out_dim])
        self.act_proj = Mlp("wm_act", [horizon * a_dim, act_emb_dim])
        self.mods = [
            Mlp(f"wm_mod{i}", [cond_dim, 2 * width], zero_init_last=True)
            for i in range(2)
        ]

    def init(self, rng: np.random.Generator) -> dict:
        params = {}
        for block in (self.layer_in, self.layer_mid, self.layer_out, self.act_proj, *self.mods):
            params.update(block.init(rng))
        return params

    def condition(self, params: dict, features, act_emb, time_emb, block=0):
        """Feature-wise scale/shift from the fused (action, time) embedding:
        features * (1 + scale) + shift, with (scale, shift) the head's output,
        through nn.modulate.

        features must be an intermediate of the caller's forward: a plain
        array is updated in place and returned (nn's in-place rule); on the
        tape the modulation is one node, whose gradient for the head's output
        is one concatenation. 1 + scale is a fresh contiguous array, so the
        product does not read a strided half of the head's output.
        Zero-initialized head: identity on features until trained. The fused
        concat is built in each block, not once per forward: a shared concat
        gives the same loss but sums act_emb's gradient in another order,
        which moves trained params in the last bits.
        """
        fused = np.concatenate([act_emb, time_emb], axis=-1)
        return nn.modulate(features, self.mods[block](params, fused))

    def u_apply(self, params: dict, x, anchors, memories, tasks, chunks, t: float):
        """Velocity field over B rows; the one forward for sampling and training.

        x (B, H*d), anchors (B, d), memories (B, c, d), tasks (B, n_tasks)
        one-hot rows, chunks (B, H*a_dim), all plain arrays; returns (B, H*d)
        velocities, a Tensor when params are Tensor leaves. It reads chunks
        clamped to +-ACTION_BOUND, as the env executes them.
        """
        b = x.shape[0]
        act_emb = self.act_proj(params, np.clip(chunks, -ACTION_BOUND, ACTION_BOUND))
        tfeat = np.broadcast_to(time_features(t), (b, N_TIME_FEATS))
        trunk_in = np.concatenate([x, anchors, memories.reshape(b, self.context * self.d),
                                   tasks, act_emb], axis=1)
        h = nn.tanh_(self.layer_in(params, trunk_in))
        h = self.condition(params, h, act_emb, tfeat, 0)
        h = nn.tanh_(self.layer_mid(params, h))
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


def sample_chunk(net: WmNet, params: dict, anchors, memories, task, chunks,
                 steps: int, noise) -> np.ndarray:
    """Euler-integrate the learned field from noise for B rows; (B, H, d) frames.

    Row i conditions on anchors[i] (d,), memories[i] (c, d), its task (one
    TaskSpec for every row, or per-row task ids, as core.task_tokens reads
    them) and chunks[i] (H, a_dim), and starts from the standard-normal row
    noise[i] (B, out_dim = H * d); a noise width other than out_dim (a model
    whose horizon is not the caller's chunk) is a ValueError. Every Euler
    step is one batched u_apply, whose velocities update a private copy of
    the noise in place (x += dt * v), so noise itself is never written. A row
    that turns non-finite stays so; the caller drops it, the sampler does not
    raise.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    anchors = np.asarray(anchors, dtype=np.float64)
    memories = np.asarray(memories, dtype=np.float64)
    b = anchors.shape[0]
    x = np.array(noise, dtype=np.float64)
    if x.shape != (b, net.out_dim):
        raise ValueError(f"noise must be (B, {net.out_dim}) for {b} rows, got {x.shape}")
    tasks = task_tokens(task, net.n_tasks, (b,))
    chunks = np.asarray(chunks, dtype=np.float64).reshape(b, net.horizon * net.a_dim)
    dt = 1.0 / steps
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            v = net.u_apply(params, x, anchors, memories, tasks, chunks, k * dt)
            v *= dt
            x += v
    return x.reshape(b, net.horizon, net.d)


class LearnedWorldModel:
    """Inference bundle used by rollout: net + params + sampler step count.

    Every simulator (OracleWorldModel, test doubles) keeps one contract:
    predict_chunk(frames, rows, length, tasks, chunks, noise) -> (B, H, d),
    the next H frames of the B histories frames[rows, :length] of a rollout's
    frame array, tasks one TaskSpec or per-row task ids, noise one
    standard-normal row (B, noise_width) per row from the member's model
    stream. A simulator states the noise width it reads (0 for none: its
    members derive no model stream) and is a pure function of its inputs.
    Here one build_context gather of the rows feeds sample_chunk, which reads
    noise_width H * d. params holds read-only views (nn.read_only), so a
    rollout cannot write to the model.
    """

    def __init__(self, net: WmNet, params: dict, steps: int = 5):
        self.net = net
        self.params = nn.read_only(params)
        self.steps = steps
        self.noise_width = net.out_dim

    def predict_chunk(self, frames, rows, length, tasks, chunks, noise) -> np.ndarray:
        anchors, memories = build_context(frames[:, :length], self.net.context,
                                          self.net.anchor_mode, rows)
        return sample_chunk(self.net, self.params, anchors, memories, tasks, chunks,
                            self.steps, noise)


class OracleWorldModel:
    """The real env as a simulator: predict_chunk steps each row's newest
    frame, frames[rows, length - 1], at any context length.

    It reads no noise (noise_width 0), so its members derive no model stream.
    rollout_real steps through it, so an oracle-backed imagined rollout
    executes exactly what a real rollout under the same streams does.
    """

    noise_width = 0

    def __init__(self, env, context=None):
        # context is read by nothing; bench/checks.py's oracle_identity still
        # passes run.context, so the parameter stays until the benchmark drops it
        self.env = env

    def predict_chunk(self, frames, rows, length, tasks, chunks, noise) -> np.ndarray:
        return step_chunks(self.env, frames[rows, length - 1], chunks)


# ---------------------------------------------------------------------------
# Training


def window_counts(episodes: list[FrameEpisode], horizon: int) -> np.ndarray:
    """Per episode, how many starts have a full horizon of actions ahead."""
    return np.array([max(0, ep.actions.shape[0] - horizon + 1) for ep in episodes],
                    dtype=np.int64)


def window_index(episodes: list[FrameEpisode], horizon: int) -> np.ndarray:
    """Every (episode, start) pair with a full horizon of actions ahead, (N, 2)."""
    counts = window_counts(episodes, horizon)
    firsts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.stack([np.repeat(np.arange(len(counts)), counts),
                     np.arange(counts.sum()) - firsts], axis=1)


@dataclass(eq=False)
class RfCorpus:
    """Training episodes flattened once, so a minibatch is a few gathers.

    Episode e's states are rows state_offsets[e] ... state_offsets[e] +
    n_actions[e] of states, its actions the n_actions[e] rows from
    action_offsets[e] of actions.
    """

    states: np.ndarray          # (sum of n_e + 1, d), episodes back to back
    actions: np.ndarray         # (sum of n_e, a_dim)
    state_offsets: np.ndarray   # (E,) row of each episode's first state
    action_offsets: np.ndarray  # (E,) row of each episode's first action
    n_actions: np.ndarray       # (E,) n_e
    tasks: np.ndarray           # (E, n_tasks) one-hot rows
    windows: np.ndarray         # (N, 2) window_index of the episodes


def rf_corpus(episodes: list[FrameEpisode], net: WmNet) -> RfCorpus:
    """Flatten the episodes and index every full-horizon window of them."""
    if not episodes:
        raise ValueError("empty training set")
    for ep in episodes:
        if ep.states.shape[1] != net.d or ep.actions.shape[1] != net.a_dim:
            raise ValueError("episode dimensions do not match the net")
    n_actions = np.array([ep.actions.shape[0] for ep in episodes], dtype=np.int64)
    action_offsets = np.cumsum(n_actions) - n_actions
    return RfCorpus(
        states=np.concatenate([ep.states for ep in episodes]),
        actions=np.concatenate([ep.actions for ep in episodes]),
        state_offsets=action_offsets + np.arange(len(episodes)),
        action_offsets=action_offsets,
        n_actions=n_actions,
        tasks=np.array([one_hot(ep.task.task_id, net.n_tasks) for ep in episodes]),
        windows=window_index(episodes, net.horizon),
    )


def make_rf_batch(net: WmNet, corpus: RfCorpus, picks, rng: np.random.Generator,
                  p_noisy: float, t_ctx_max: float, t: float | None = None) -> RfBatch:
    """Assemble one minibatch from (B, 2) (episode, start) picks into the corpus.

    Row i conditions on the context context_rows gives at step s of episode
    e, as build_context does in rollout: the anchor frame, the last c frames
    up to s left-padded with the anchor, the task. Its target is the next H
    frames, its chunk the H actions from s. All of it is gathered from the
    corpus at once.

    The random draws stay in per-row order: for each row a uniform that
    picks it for context noise with probability p_noisy (no draw when
    p_noisy is 0), then for a picked row its noise level uniform(0,
    t_ctx_max) and its (c, d) normal noise; after all rows the x0 normals,
    then t if it is not given. Batched draws would feed the same
    distribution, but a different stream trains different parameters, and
    every cached simulator built from them would change.
    """
    h, c, d = net.horizon, net.context, net.d
    picks = np.asarray(picks, dtype=np.int64).reshape(-1, 2)
    e, s = picks[:, 0], picks[:, 1]
    if np.any((e < 0) | (e >= corpus.n_actions.shape[0])):
        raise ValueError("a pick names no episode of the corpus")
    if np.any((s < 0) | (s + h > corpus.n_actions[e])):
        raise ValueError("a picked window runs past its episode")
    b = picks.shape[0]
    first = corpus.state_offsets[e]
    now = first + s
    anchor, memory = context_rows(first, now, c, net.anchor_mode)
    memories = corpus.states[memory]
    noisy = []
    if p_noisy > 0:
        # random() is uniform()'s draw at a third of its call cost, and
        # t_ctx_max * random() is uniform(0, t_ctx_max)'s, bit for bit
        for i in range(b):
            if rng.random() < p_noisy:
                noisy.append((i, t_ctx_max * rng.random(), rng.normal(size=(c, d))))
    if noisy:
        rows, t_ctx, noise = zip(*noisy)
        rows, t_ctx = np.array(rows), np.array(t_ctx)[:, None, None]
        # the anchor is never perturbed: it is gathered apart from the memory
        memories[rows] = (1.0 - t_ctx) * memories[rows] + t_ctx * np.array(noise)
    x1 = corpus.states[now[:, None] + np.arange(1, h + 1)].reshape(b, h * d)
    acts = (corpus.action_offsets[e] + s)[:, None] + np.arange(h)
    return RfBatch(
        x0=rng.normal(size=x1.shape),
        x1=x1,
        anchors=corpus.states[anchor],
        memories=memories,
        tasks=corpus.tasks[e],
        chunks=corpus.actions[acts].reshape(b, h * net.a_dim),
        t=float(rng.uniform()) if t is None else float(t),
    )


def train_wm(episodes: list[FrameEpisode], net: WmNet, rng: np.random.Generator,
             wm: dict, init_params: dict | None = None) -> tuple[dict, list[float]]:
    """Fit the velocity field; returns (params, per-epoch mean losses).

    wm holds the config's wm keys epochs, batch_size, lr and p_noisy (the
    share of rows whose memory is blended toward noise, by a level drawn
    from uniform(0, T_CTX_MAX)); refine_wm passes its refine section with
    wm.p_noisy. Passing init_params continues training from an existing
    checkpoint (refinement) instead of starting from a fresh initialization.
    The learning rate follows a cosine decay from lr down to LR_FLOOR * lr.
    The episodes are flattened into one RfCorpus per call; each epoch visits
    its windows in a fresh random order, and make_rf_batch gathers every
    minibatch from it, drawing in the per-row order its docstring gives.
    """
    epochs, batch_size, lr = wm["epochs"], wm["batch_size"], wm["lr"]
    corpus = rf_corpus(episodes, net)
    params = ({k: v.copy() for k, v in init_params.items()}
              if init_params is not None else net.init(rng))
    if not len(corpus.windows):
        raise ValueError("no episode is long enough for a full prediction window")
    opt = nn.adam_init(params)
    losses = []
    for epoch in range(epochs):
        frac = epoch / max(1, epochs - 1)
        lr_e = lr * (LR_FLOOR + (1.0 - LR_FLOOR) * 0.5 * (1.0 + np.cos(np.pi * frac)))
        order = rng.permutation(len(corpus.windows))
        n_batches = (len(order) + batch_size - 1) // batch_size
        # stratified flow time, visited in random order: marginally uniform,
        # epoch losses comparable across epochs, no within-epoch t curriculum
        strata = rng.permutation(n_batches)
        epoch_losses = []
        for j, lo in enumerate(range(0, len(order), batch_size)):
            picks = corpus.windows[order[lo : lo + batch_size]]
            t = (strata[j] + rng.uniform()) / n_batches
            batch = make_rf_batch(net, corpus, picks, rng, wm["p_noisy"], T_CTX_MAX, t=t)
            value, grads = value_and_grad(lambda p: rf_loss(net, p, batch), params)
            params = nn.adam_step(params, grads, opt, lr=lr_e)
            epoch_losses.append(value)
        losses.append(float(np.mean(epoch_losses)))
    return params, losses
