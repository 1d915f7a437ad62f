"""Shared domain types and deterministic binary serialization.

State vectors are plain float64 numpy arrays; trajectories are chunk-granular
(one StepRecord per policy call). Everything here is immutable after
construction by convention and safe to share across workers.
"""
from __future__ import annotations

import copy
import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

STORE_MAGIC = b"WOVR"
FRAMES_MAGIC = b"WOVF"
FORMAT_VERSION = 1

START_KINDS = ("initial", "keyframe")


class MalformedHeader(ValueError):
    """Record header is structurally invalid (bad magic, version, or sizes)."""


class TruncatedPayload(ValueError):
    """Byte stream ended before the declared payload was complete."""


class InvariantViolation(ValueError):
    """Decoded content violates a domain invariant (e.g. reward not in {0,1})."""


def one_hot(index: int, size: int) -> np.ndarray:
    if not 0 <= index < size:
        raise ValueError(f"index {index} out of range for one-hot of size {size}")
    vec = np.zeros(size, dtype=np.float64)
    vec[index] = 1.0
    return vec


@dataclass(frozen=True)
class TaskSpec:
    """Small-integer task identity, embedded downstream as a one-hot token."""

    task_id: int

    def __post_init__(self):
        if self.task_id < 0:
            raise ValueError("task_id must be non-negative")


@dataclass(eq=False)
class StepRecord:
    """One policy call: observation, emitted action chunk, outcome bookkeeping."""

    obs: np.ndarray          # (d,)
    chunk: np.ndarray        # (H, a_dim), clipped to the env action box
    reward: int              # {0, 1}
    logp_old: float          # behavior-policy log-density of the stored chunk
    done: bool

    def __post_init__(self):
        self.obs = np.asarray(self.obs, dtype=np.float64)
        self.chunk = np.asarray(self.chunk, dtype=np.float64)
        if self.chunk.ndim != 2:
            raise ValueError("chunk must be an (H, a_dim) matrix")
        if self.reward not in (0, 1):
            raise InvariantViolation(f"reward must be 0 or 1, got {self.reward}")
        if not np.isfinite(self.logp_old):
            raise InvariantViolation("logp_old must be finite")
        if not np.all(np.isfinite(self.obs)) or not np.all(np.isfinite(self.chunk)):
            raise InvariantViolation("non-finite entries in step record")

    def __eq__(self, other):
        if not isinstance(other, StepRecord):
            return NotImplemented
        return (
            np.array_equal(self.obs, other.obs)
            and np.array_equal(self.chunk, other.chunk)
            and self.reward == other.reward
            and self.logp_old == other.logp_old
            and self.done == other.done
        )


def compute_valid_len(steps: list[StepRecord], success: bool) -> int:
    """First success-bearing step (1-based) if success, else the step count."""
    if success:
        for i, step in enumerate(steps):
            if step.reward == 1:
                return i + 1
        raise InvariantViolation("success=True but no step carries reward 1")
    return len(steps)


@dataclass(eq=False)
class Trajectory:
    """Unit of RL data: chunk-level records plus outcome flags."""

    task: TaskSpec
    start_kind: str
    steps: list[StepRecord]
    success: bool
    valid_len: int

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.start_kind not in START_KINDS:
            raise InvariantViolation(f"unknown start_kind {self.start_kind!r}")
        if self.success != any(s.reward == 1 for s in self.steps):
            raise InvariantViolation("success flag inconsistent with step rewards")
        expected = compute_valid_len(self.steps, self.success)
        if self.valid_len != expected:
            raise InvariantViolation(
                f"valid_len {self.valid_len} != first-success scan {expected}"
            )
        if self.steps and self.valid_len < 1:
            raise InvariantViolation("valid_len must be >= 1 for non-empty trajectories")
        done_at = [i for i, s in enumerate(self.steps) if s.done]
        if len(done_at) > 1 or (done_at and done_at[0] != len(self.steps) - 1):
            raise InvariantViolation("at most one done step is allowed, and it must be last")

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.task == other.task
            and self.start_kind == other.start_kind
            and self.success == other.success
            and self.valid_len == other.valid_len
            and len(self.steps) == len(other.steps)
            and all(a == b for a, b in zip(self.steps, other.steps))
        )

    @classmethod
    def build(cls, task: TaskSpec, start_kind: str, steps: list[StepRecord]) -> "Trajectory":
        success = any(s.reward == 1 for s in steps)
        return cls(task, start_kind, steps, success, compute_valid_len(steps, success))


# ---------------------------------------------------------------------------
# Run configuration: one nested dict. DEFAULTS states every settable value
# and its default; validate_config states every range rule.


class ConfigError(ValueError):
    """A config key is unknown, or a value is mistyped or out of range."""


DEFAULTS = {
    "seed": 0,
    "env": "pickplace2d",
    "run": {"gamma": 1.0, "group_size": 8, "clip_eps": 0.2, "chunk": 8,
            "context": 4, "max_episode_len": 64, "kir_fraction": 0.5,
            "diffusion_steps": 5, "n_base": 150, "n_evo": 100},
    # refinements is 0 or 1: either the world model is refined once on
    # evolved-policy data (two collections, two RL stages) or never (one
    # collection, one RL stage against the base model)
    "plan": {"refinements": 1, "rl_updates_per_stage": 20,
             "groups_per_update": 4, "reset_kir_between_stages": True,
             "refine_mix_new": 0.7},
    "policy": {"hidden": [64, 64], "init_log_std": -1.5},
    "demo": {"n": 16, "noise": 0.0},
    "clone": {"epochs": 60, "batch_size": 64, "lr": 1e-3},
    "wm": {"width": 128, "act_emb_dim": 32, "anchor_mode": "first",
           "epochs": 40, "batch_size": 64, "lr": 1e-3, "p_noisy": 0.5},
    "refine": {"epochs": 10, "batch_size": 64, "lr": 3e-4},
    "reward": {"hidden": [64, 64], "epochs": 300, "batch_size": 64,
               "lr": 3e-3, "neg_ratio": 30.0, "pos_weight": "sqrt"},
    # reward_threshold turns the classifier's probability into the sparse
    # reward, both in imagined RL and in `wovr eval --metric halluc`
    "rl": {"inner_epochs": 2, "lr": 3e-4, "keyframe_k": 2,
           "reward_threshold": 0.9, "explore_log_std": None},
    # collect.n 0 means "use run.n_base"
    "collect": {"n": 0},
    "eval": {"n": 20, "metric": "sr", "horizons": [8, 16, 32, 64], "task": 0},
}


def deep_merge(base: dict, override: dict, path: str = "") -> dict:
    """Merge override into base in place; keys absent from base are rejected."""
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here!r} must be a section")
            deep_merge(base[key], value, here)
        else:
            base[key] = value
    return base


def validate_config(cfg: dict) -> dict:
    """Raise ConfigError unless every range rule holds; returns cfg."""
    run, plan = cfg["run"], cfg["plan"]
    try:
        rules = [
            (0.0 < run["gamma"] <= 1.0, "run.gamma must lie in (0, 1]"),
            (run["group_size"] >= 2, "run.group_size must be >= 2"),
            (run["clip_eps"] > 0, "run.clip_eps must be positive"),
            (0.0 <= run["kir_fraction"] <= 1.0, "run.kir_fraction must lie in [0, 1]"),
            (run["diffusion_steps"] >= 1, "run.diffusion_steps must be >= 1"),
            (run["chunk"] >= 1 and run["max_episode_len"] % run["chunk"] == 0,
             "run.max_episode_len must be a multiple of a positive run.chunk"),
            (run["n_base"] >= 1, "run.n_base must be >= 1"),
            (run["n_evo"] >= 0, "run.n_evo must be non-negative"),
            (plan["refinements"] in (0, 1), "plan.refinements must be 0 or 1"),
            (plan["refinements"] == 1 or run["n_evo"] == 0,
             "a plan without refinement cannot budget evolved rollouts"),
            (plan["refinements"] == 0 or run["n_evo"] >= 1,
             "a refinement stage needs evolved rollouts to train on"),
            (plan["rl_updates_per_stage"] >= 0,
             "plan.rl_updates_per_stage must be non-negative"),
            (plan["groups_per_update"] >= 1, "plan.groups_per_update must be >= 1"),
            (0.0 < plan["refine_mix_new"] <= 1.0,
             "plan.refine_mix_new must lie in (0, 1]"),
        ]
    except TypeError as exc:
        raise ConfigError(f"config value of the wrong type: {exc}") from exc
    for ok, message in rules:
        if not ok:
            raise ConfigError(message)
    return cfg


def make_config(*overrides: dict) -> dict:
    """DEFAULTS merged with each override in turn, then validated."""
    cfg = copy.deepcopy(DEFAULTS)
    for override in overrides:
        deep_merge(cfg, override)
    return validate_config(cfg)


# ---------------------------------------------------------------------------
# Deterministic RNG derivation


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    """Independent, reproducible stream addressed by (seed, *tags)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tags])))


def derive_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Trajectory encoding (little-endian, fixed 64-bit floats)

_HEADER = struct.Struct("<IBBIIIII")  # task_id, start_kind, success, valid_len, n_steps, d, H, a_dim
_MAX_DIM = 4096
_MAX_STEPS = 1 << 20


def encode_trajectory(traj: Trajectory) -> bytes:
    """Deterministic byte encoding; decode(encode(t)) == t field-for-field."""
    if traj.steps:
        d = traj.steps[0].obs.shape[0]
        horizon, a_dim = traj.steps[0].chunk.shape
    else:
        d, horizon, a_dim = 0, 0, 0
    out = bytearray()
    out += _HEADER.pack(
        traj.task.task_id,
        START_KINDS.index(traj.start_kind),
        int(traj.success),
        traj.valid_len,
        len(traj.steps),
        d,
        horizon,
        a_dim,
    )
    for step in traj.steps:
        if step.obs.shape != (d,) or step.chunk.shape != (horizon, a_dim):
            raise ValueError("ragged step shapes within one trajectory")
        out += step.obs.astype("<f8").tobytes()
        out += step.chunk.astype("<f8").tobytes()
        out += struct.pack("<Bd B", step.reward, step.logp_old, int(step.done))
    return bytes(out)


def decode_trajectory(data: bytes) -> Trajectory:
    if len(data) < _HEADER.size:
        raise MalformedHeader(f"payload shorter than header ({len(data)} bytes)")
    task_id, kind_idx, success, valid_len, n_steps, d, horizon, a_dim = _HEADER.unpack_from(data, 0)
    if kind_idx >= len(START_KINDS):
        raise MalformedHeader(f"unknown start_kind code {kind_idx}")
    if success not in (0, 1):
        raise MalformedHeader(f"success byte must be 0 or 1, got {success}")
    if d > _MAX_DIM or a_dim > _MAX_DIM or horizon > _MAX_DIM or n_steps > _MAX_STEPS:
        raise MalformedHeader("declared dimensions exceed sane bounds")
    step_size = 8 * d + 8 * horizon * a_dim + struct.calcsize("<Bd B")
    expected = _HEADER.size + n_steps * step_size
    if len(data) < expected:
        raise TruncatedPayload(f"need {expected} bytes, got {len(data)}")
    if len(data) > expected:
        raise MalformedHeader(f"{len(data) - expected} trailing bytes after payload")

    offset = _HEADER.size
    steps = []
    for _ in range(n_steps):
        obs = np.frombuffer(data, dtype="<f8", count=d, offset=offset).copy()
        offset += 8 * d
        chunk = np.frombuffer(data, dtype="<f8", count=horizon * a_dim, offset=offset)
        chunk = chunk.reshape(horizon, a_dim).copy()
        offset += 8 * horizon * a_dim
        reward, logp_old, done = struct.unpack_from("<Bd B", data, offset)
        offset += struct.calcsize("<Bd B")
        if reward not in (0, 1):
            raise InvariantViolation(f"reward byte must be 0 or 1, got {reward}")
        if done not in (0, 1):
            raise InvariantViolation(f"done byte must be 0 or 1, got {done}")
        steps.append(StepRecord(obs, chunk, reward, logp_old, bool(done)))

    # Trajectory.__post_init__ re-verifies valid_len against a fresh scan.
    return Trajectory(TaskSpec(task_id), START_KINDS[kind_idx], steps, bool(success), valid_len)


# ---------------------------------------------------------------------------
# Append-only trajectory store: magic + version, then length-prefixed records.


def write_store(path, trajectories: list[Trajectory]):
    with open(path, "wb") as fh:
        fh.write(STORE_MAGIC)
        fh.write(bytes([FORMAT_VERSION]))
        for traj in trajectories:
            payload = encode_trajectory(traj)
            fh.write(struct.pack("<I", len(payload)))
            fh.write(payload)


def append_store(path, trajectory: Trajectory):
    payload = encode_trajectory(trajectory)
    with open(path, "ab") as fh:
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)


def read_store(path) -> list[Trajectory]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 5:
        raise MalformedHeader("store file shorter than magic + version")
    if data[:4] != STORE_MAGIC:
        raise MalformedHeader(f"bad magic {data[:4]!r}")
    if data[4] != FORMAT_VERSION:
        raise MalformedHeader(f"unsupported store version {data[4]}")
    offset = 5
    out = []
    while offset < len(data):
        if offset + 4 > len(data):
            raise TruncatedPayload("dangling record length prefix")
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if offset + length > len(data):
            raise TruncatedPayload("record extends past end of file")
        out.append(decode_trajectory(data[offset : offset + length]))
        offset += length
    return out


# ---------------------------------------------------------------------------
# Frame-level episodes (env-step granularity) for world-model / reward training.


@dataclass(eq=False)
class FrameEpisode:
    """All env-step states and actions of one real episode."""

    task: TaskSpec
    states: np.ndarray   # (n_steps + 1, d), states[0] is the reset state
    actions: np.ndarray  # (n_steps, a_dim), executed (clipped) actions

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        if self.states.shape[0] != self.actions.shape[0] + 1:
            raise ValueError("need exactly one more state than actions")

    def __eq__(self, other):
        if not isinstance(other, FrameEpisode):
            return NotImplemented
        return (
            self.task == other.task
            and np.array_equal(self.states, other.states)
            and np.array_equal(self.actions, other.actions)
        )


_FRAME_HEADER = struct.Struct("<IIII")  # task_id, n_steps, d, a_dim


def write_frames(path, episodes: list[FrameEpisode], env_name: str):
    name = env_name.encode()
    with open(path, "wb") as fh:
        fh.write(FRAMES_MAGIC)
        fh.write(bytes([FORMAT_VERSION]))
        fh.write(struct.pack("<H", len(name)))
        fh.write(name)
        fh.write(struct.pack("<I", len(episodes)))
        for ep in episodes:
            n_steps, a_dim = ep.actions.shape
            d = ep.states.shape[1]
            fh.write(_FRAME_HEADER.pack(ep.task.task_id, n_steps, d, a_dim))
            fh.write(ep.states.astype("<f8").tobytes())
            fh.write(ep.actions.astype("<f8").tobytes())


def read_frames(path) -> tuple[list[FrameEpisode], str]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 7 or data[:4] != FRAMES_MAGIC:
        raise MalformedHeader("bad frame-set magic")
    if data[4] != FORMAT_VERSION:
        raise MalformedHeader(f"unsupported frame-set version {data[4]}")
    (name_len,) = struct.unpack_from("<H", data, 5)
    offset = 7
    if offset + name_len + 4 > len(data):
        raise TruncatedPayload("frame-set header ends inside the env name or episode count")
    try:
        env_name = data[offset : offset + name_len].decode("utf-8", errors="strict")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"env name is not valid UTF-8: {exc}") from exc
    offset += name_len
    (n_eps,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if n_eps * _FRAME_HEADER.size > len(data) - offset:
        raise TruncatedPayload(f"{n_eps} episode headers cannot fit in the remaining bytes")
    episodes = []
    for _ in range(n_eps):
        if offset + _FRAME_HEADER.size > len(data):
            raise TruncatedPayload("frame-set ends inside an episode header")
        task_id, n_steps, d, a_dim = _FRAME_HEADER.unpack_from(data, offset)
        offset += _FRAME_HEADER.size
        count_s = (n_steps + 1) * d
        count_a = n_steps * a_dim
        if 8 * (count_s + count_a) > len(data) - offset:
            raise TruncatedPayload(
                f"episode of {n_steps} steps (d={d}, a_dim={a_dim}) extends past end of file")
        states = np.frombuffer(data, dtype="<f8", count=count_s, offset=offset)
        offset += 8 * count_s
        actions = np.frombuffer(data, dtype="<f8", count=count_a, offset=offset)
        offset += 8 * count_a
        episodes.append(
            FrameEpisode(TaskSpec(task_id), states.reshape(n_steps + 1, d).copy(),
                         actions.reshape(n_steps, a_dim).copy())
        )
    if offset != len(data):
        raise MalformedHeader(f"{len(data) - offset} trailing bytes after frame-set payload")
    return episodes, env_name


# ---------------------------------------------------------------------------
# Hashing helpers for manifests


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_hash(tree: dict) -> str:
    return sha256_bytes(json.dumps(tree, sort_keys=True, separators=(",", ":")).encode())


def params_hash(params: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64)
        digest.update(name.encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()
