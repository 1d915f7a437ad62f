"""Shared domain types, run configuration and the one on-disk container.

State vectors are plain float64 numpy arrays; a trajectory's Steps hold one
row per policy call in the columns a store record holds, and a step's sparse
reward is the only record of an episode's outcome. Everything here is
immutable after construction by convention and safe to share across workers.

Every wovr file is one little-endian container, written by write_records and
parsed by read_records, the only byte parser in wovr:

    file:   magic (4 bytes), FORMAT_VERSION (u8), record count (u32), records
    record: array count (u32), then its arrays in sorted-name order
    array:  name length (u16), UTF-8 name, dtype code (u8: <f8, <i8 or |u1),
            ndim (u8), shape (ndim x u32), then the C-order data

A store (.wovs) holds one record per trajectory, a frame set (.wovf) an
env-name record then one per episode, a checkpoint (.wovc) one record. Each
kind has its own magic. On a corrupt file every reader fails only with
MalformedHeader, TruncatedPayload or InvariantViolation.
"""
from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import json
import math
import struct
from dataclasses import dataclass, fields

import numpy as np

STORE_MAGIC = b"WOVR"
FRAMES_MAGIC = b"WOVF"
FORMAT_VERSION = 2

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


def task_tokens(task, n_tasks: int, rows: tuple) -> np.ndarray:
    """One-hot task rows, shape rows + (n_tasks,). task is one TaskSpec for
    every row, or an integer array of shape rows holding each row's
    TaskSpec.task_id; both give the same rows bit for bit. An id of n_tasks
    or more raises IndexError."""
    if isinstance(task, TaskSpec):
        return np.broadcast_to(one_hot(task.task_id, n_tasks), rows + (n_tasks,))
    ids = np.asarray(task)
    if ids.shape != rows:
        raise ValueError(f"need one task id per row, shape {rows}, got {ids.shape}")
    # no range scan: ids come from TaskSpecs, which are non-negative
    return np.eye(n_tasks).take(ids, axis=0)


def task_features(obs, task, n_tasks: int) -> np.ndarray:
    """(obs, task one-hot), the policy's and the reward's input, for one row
    (d,) or a batch of rows (N, d), of one TaskSpec or per-row task ids."""
    obs = np.asarray(obs, dtype=np.float64)
    return np.concatenate([obs, task_tokens(task, n_tasks, obs.shape[:-1])], axis=-1)


@dataclass(frozen=True)
class TaskSpec:
    """Small-integer task identity, embedded downstream as a one-hot token."""

    task_id: int

    def __post_init__(self):
        if self.task_id < 0:
            raise ValueError("task_id must be non-negative")


@dataclass(eq=False)
class Steps:
    """One episode's chunk-level records, a row per policy call; the reward is
    1 on the step whose frames first reach success, which ends the episode.
    A bad shape is ValueError, a reward outside {0, 1} or a non-finite entry
    InvariantViolation. Without rows, obs is (0, 0) and chunk (0, 0, 0), as stored."""

    obs: np.ndarray       # (n, d)
    chunk: np.ndarray     # (n, H, a_dim), clipped to the env action box
    reward: np.ndarray    # (n,) uint8 in {0, 1}
    logp_old: np.ndarray  # (n,) behavior-policy log-densities (0.0 in demos)

    def __post_init__(self):
        self.obs, self.chunk, self.logp_old = (np.asarray(a, dtype=np.float64)
                                               for a in (self.obs, self.chunk, self.logp_old))
        reward, n = np.asarray(self.reward), np.shape(self.reward)
        if (self.obs.ndim, self.chunk.ndim, len(n)) != (2, 3, 1) or not (
                self.obs.shape[:1] == self.chunk.shape[:1] == self.logp_old.shape == n):
            raise ValueError("need obs (n, d), chunk (n, H, a), reward and logp_old (n,); got "
                             f"{self.obs.shape}, {self.chunk.shape}, {n}, {self.logp_old.shape}")
        if not np.array_equal(reward, reward.astype(bool)):  # each reward is 0 or 1
            raise InvariantViolation(f"rewards must be 0 or 1, got {np.unique(reward)}")
        if not all(np.isfinite(a).all() for a in (self.obs, self.chunk, self.logp_old)):
            raise InvariantViolation("non-finite entries in steps")
        self.reward = reward.astype(np.uint8)
        if not len(reward):
            self.obs, self.chunk = np.zeros((0, 0)), np.zeros((0, 0, 0))

    def __len__(self) -> int:
        return len(self.reward)

    @property
    def actions(self) -> np.ndarray:
        """Every chunk's actions in order, (n * H, a_dim)."""
        return self.chunk.reshape(len(self) * self.chunk.shape[1], self.chunk.shape[2])

    def __eq__(self, other):
        return isinstance(other, Steps) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass
class Trajectory:
    """Unit of RL data: the chunk-level steps of one episode.

    success and valid_len are read from the step rewards, never stored
    beside them, so they cannot disagree with the rewards.
    """

    task: TaskSpec
    start_kind: str
    steps: Steps

    def __post_init__(self):
        if self.start_kind not in START_KINDS:
            raise InvariantViolation(f"unknown start_kind {self.start_kind!r}")

    @property
    def success(self) -> bool:
        return bool(self.steps.reward.any())

    @property
    def valid_len(self) -> int:
        """Steps through the first reward step (GRPO's mask), else every step."""
        hits = np.flatnonzero(self.steps.reward)
        return int(hits[0]) + 1 if hits.size else len(self.steps)


# ---------------------------------------------------------------------------
# Run configuration: one nested dict. DEFAULTS states every settable value
# and its default, the only place a hyperparameter default lives (trainers
# read their section); validate_config states the integer rule of every count
# (COUNT_KEYS) and every range rule but eval.task's upper bound, which needs
# the env's task count (cli.resolve_config).


class ConfigError(ValueError):
    """A config key is unknown, or a value is mistyped or out of range."""


# the choices of the config's named values, stated here because envs and
# worldmodel import core; envs._REGISTRY holds one env per ENV_NAMES entry
ENV_NAMES = ("pickplace2d", "reachpoint")
ANCHOR_MODES = ("first", "last")
EVAL_METRICS = ("sr", "halluc", "horizon")

DEFAULTS = {
    "seed": 0,
    "env": "pickplace2d",
    "run": {"gamma": 1.0, "group_size": 8, "clip_eps": 0.2, "chunk": 8,
            "context": 4, "max_episode_len": 64, "kir_fraction": 0.5,
            "diffusion_steps": 5, "n_base": 150, "n_evo": 100},
    "plan": {"refinements": 1, "rl_updates_per_stage": 20,
             "groups_per_update": 4, "refine_mix_new": 0.7},
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
           "reward_threshold": 0.9},
    # collect.n 0 means "use run.n_base"
    "collect": {"n": 0},
    "eval": {"n": 20, "metric": "sr", "horizons": [8, 16, 32, 64], "task": 0},
}


def deep_merge(base: dict, override: dict, path: str = "") -> dict:
    """Merge override into base in place, section by section; a key absent
    from base, a value for a section or a mapping for a value is rejected."""
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        section = isinstance(base[key], dict)
        if section != isinstance(value, dict):
            raise ConfigError(f"config key {here!r} must be "
                              f"{'a section' if section else 'a value, not a section'}")
        if section:
            deep_merge(base[key], value, here)
        else:
            base[key] = value
    return base


# the (section, key) of every value that counts or indexes something: each
# must be an int (not a bool), since a float like 2.5 passes the range rules
# and fails only mid-run
COUNT_KEYS = (
    *((section, key) for section in ("clone", "wm", "refine", "reward")
      for key in ("epochs", "batch_size")),
    *(("run", key) for key in ("group_size", "chunk", "context", "max_episode_len",
                               "n_base", "n_evo", "diffusion_steps")),
    *(("plan", key) for key in ("refinements", "rl_updates_per_stage", "groups_per_update")),
    ("rl", "inner_epochs"), ("rl", "keyframe_k"), ("wm", "width"), ("wm", "act_emb_dim"),
    ("demo", "n"), ("collect", "n"), ("eval", "n"), ("eval", "task"),
)


def validate_config(cfg: dict) -> dict:
    """Raise ConfigError unless every type and range rule holds; returns cfg."""
    mistyped = [f"{section}.{key}" for section, key in COUNT_KEYS
                if type(cfg[section][key]) is not int]
    if mistyped:
        raise ConfigError(f"config counts must be integers: {', '.join(mistyped)}")
    run, plan, rl, ev = cfg["run"], cfg["plan"], cfg["rl"], cfg["eval"]
    pos_weight = cfg["reward"]["pos_weight"]
    horizons = ev["horizons"]
    try:
        rules = [
            # every stream derives from the seed, and derive_rng takes only
            # non-negative integers
            (type(cfg["seed"]) is int and cfg["seed"] >= 0, "seed must be a non-negative integer"),
            (cfg["env"] in ENV_NAMES, f"env must be one of {ENV_NAMES}"),
            (0.0 < run["gamma"] <= 1.0, "run.gamma must lie in (0, 1]"),
            (run["group_size"] >= 2, "run.group_size must be >= 2"),
            (run["clip_eps"] > 0, "run.clip_eps must be positive"),
            (0.0 <= run["kir_fraction"] <= 1.0, "run.kir_fraction must lie in [0, 1]"),
            (run["diffusion_steps"] >= 1, "run.diffusion_steps must be >= 1"),
            (run["context"] >= 0, "run.context must be non-negative"),
            # a rollout sizes its frame and step arrays from these two
            (run["chunk"] >= 1 and run["max_episode_len"] >= run["chunk"]
             and run["max_episode_len"] % run["chunk"] == 0,
             "run.max_episode_len must be a positive multiple of a positive run.chunk"),
            (run["n_base"] >= 1, "run.n_base must be >= 1"),
            (run["n_evo"] >= 0, "run.n_evo must be non-negative"),
            (plan["refinements"] >= 0, "plan.refinements must be non-negative"),
            (plan["refinements"] >= 1 or run["n_evo"] == 0,
             "a plan without refinement cannot budget evolved rollouts"),
            (plan["refinements"] == 0 or run["n_evo"] >= 1,
             "a refinement stage needs evolved rollouts to train on"),
            (plan["rl_updates_per_stage"] >= 0,
             "plan.rl_updates_per_stage must be non-negative"),
            (plan["groups_per_update"] >= 1, "plan.groups_per_update must be >= 1"),
            (0.0 < plan["refine_mix_new"] <= 1.0,
             "plan.refine_mix_new must lie in (0, 1]"),
            (cfg["wm"]["anchor_mode"] in ANCHOR_MODES,
             f"wm.anchor_mode must be one of {ANCHOR_MODES}"),
            (pos_weight in (None, "sqrt")
             or (type(pos_weight) in (int, float) and pos_weight > 0),
             "reward.pos_weight must be null, 'sqrt' or a positive number"),
            (0.0 <= cfg["wm"]["p_noisy"] <= 1.0, "wm.p_noisy must lie in [0, 1]"),
            (cfg["reward"]["neg_ratio"] > 0, "reward.neg_ratio must be positive"),
            (rl["keyframe_k"] >= 1, "rl.keyframe_k must be >= 1"),
            (rl["inner_epochs"] >= 1, "rl.inner_epochs must be >= 1"),
            (rl["lr"] > 0, "rl.lr must be positive"),
            (0.0 <= rl["reward_threshold"] <= 1.0,
             "rl.reward_threshold must lie in [0, 1]"),
            (cfg["demo"]["n"] >= 1, "demo.n must be >= 1"),
            (cfg["demo"]["noise"] >= 0, "demo.noise must be non-negative"),
            (cfg["collect"]["n"] >= 0, "collect.n must be non-negative"),
            (ev["n"] >= 1, "eval.n must be >= 1"),
            (ev["metric"] in EVAL_METRICS, f"eval.metric must be one of {EVAL_METRICS}"),
            (ev["task"] >= 0, "eval.task must be non-negative"),
            # horizon_error reads the state at each horizon's frame of one
            # recorded episode, so each is a whole number of chunks
            (ev["metric"] != "horizon" or (
                len(horizons) >= 1 and horizons == sorted(set(horizons))
                and all(type(h) is int and h >= 1 and h % run["chunk"] == 0
                        for h in horizons)
                and horizons[-1] <= run["max_episode_len"]),
             "eval.horizons must be strictly increasing positive multiples of "
             "run.chunk, at most run.max_episode_len"),
            *((cfg[name]["epochs"] >= 0 and cfg[name]["batch_size"] >= 1 and cfg[name]["lr"] > 0,
               f"{name}.epochs must be >= 0, {name}.batch_size >= 1 and {name}.lr > 0")
              for name in ("clone", "wm", "refine", "reward")),
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
# Deterministic RNG derivation. A key of non-negative integers addresses the
# PCG64 stream that numpy's SeedSequence(list(key)) seeds, bit for bit, and
# the seed that is that SeedSequence's first state word. A batch of keys is
# derived in one call (derive_rngs, derive_seeds): the keys' words are hashed
# as uint32 columns, one array op per step of SeedSequence's pool mixing and
# generate_state for all keys of one word count, so a rollout builds all its
# members' streams at once. derive_rng and derive_seed are the one-key case.
# numpy.random is loaded on the first derivation, not when wovr is imported.

_MASK32 = 0xFFFFFFFF
_POOL = 4          # SeedSequence's default pool size, in uint32 words
_STATE_WORDS = 8   # PCG64 seeds from four uint64 words, eight uint32 ones
# SeedSequence's hash constants: its k-th hashmix xors in INIT_A * MULT_A**k
# and multiplies by INIT_A * MULT_A**(k+1); generate_state's k-th word
# likewise under INIT_B and MULT_B
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]
_CYCLE = np.arange(_STATE_WORDS) % _POOL  # generate_state cycles through the pool


@functools.cache
def _powers(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < n, read-only uint32."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _MASK32)
    out = np.array(out, dtype=np.uint32)
    out.flags.writeable = False
    return out


def _hashmix(values, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash step on uint32 rows: row r xors in consts[r] and
    is multiplied by consts[r + 1]; a 1-d values is hashed once per row."""
    out = (values ^ consts[:-1, None]) * consts[1:, None]
    return out ^ (out >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> 16)


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """(8, m) uint32: column j is SeedSequence(key).generate_state(8) of the
    key whose words are entropy[:, j], for entropy (L, m) uint32."""
    n_words, m = entropy.shape
    hash_a = _powers(_INIT_A, _MULT_A, _POOL * _POOL + 1 + _POOL * max(n_words - _POOL, 0))
    pool = np.zeros((_POOL, m), dtype=np.uint32)  # a short key runs the hash out on zeros
    pool[:min(n_words, _POOL)] = entropy[:_POOL]
    pool, k = _hashmix(pool, hash_a[:_POOL + 1]), _POOL
    for src in range(_POOL):  # so late words affect early ones
        dst = _OTHERS[src]  # each other pool word mixes in its own hash of pool[src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_a[k:k + _POOL]))
        k += _POOL - 1
    for word in entropy[_POOL:]:  # each word past the pool mixes into every pool word
        pool = _mix(pool, _hashmix(word, hash_a[k:k + _POOL + 1]))
        k += _POOL
    return _hashmix(pool[_CYCLE], _powers(_INIT_B, _MULT_B, _STATE_WORDS + 1))


def _key_words(key) -> list[int]:
    """SeedSequence's uint32 words of key: each entry's words, low first.
    SeedSequence's own errors: TypeError for a non-integer entry, ValueError
    for a negative one."""
    words = []
    for entry in key:
        if type(entry) is int and 0 <= entry <= _MASK32:  # the usual one-word entry
            words.append(entry)
            continue
        if not isinstance(entry, (int, np.integer)):
            raise TypeError(f"seed must be integer, got {entry!r}")
        n = int(entry)
        if n < 0:
            raise ValueError(f"expected non-negative integer, got {n}")
        words.append(n & _MASK32)
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
    return words


def _key_states(keys) -> np.ndarray:
    """(8, len(keys)) uint32, one column per key, one kernel call per word count."""
    groups: dict[int, tuple[list, list]] = {}  # word count -> (key indices, words)
    for i, key in enumerate(keys):
        words = _key_words(key)
        index, table = groups.setdefault(len(words), ([], []))
        index.append(i)
        table.append(words)
    states = np.empty((_STATE_WORDS, len(keys)), dtype=np.uint32)
    for n_words, (index, table) in groups.items():
        entropy = np.array(table, dtype=np.uint32).reshape(len(index), n_words)
        states[:, index] = _state_words(entropy.T)
    return states


@functools.cache
def _seed_words_type():
    """The ISeedSequence that hands PCG64 four precomputed uint64 words. It
    is made on first use: its base class's module loads numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("SeedWords holds only PCG64's four uint64 seed words")
            return self.words

        def __reduce__(self):  # a Generator pickles its bit generator's seed sequence
            return _seed_words, (self.words,)

    return SeedWords


def _seed_words(words: np.ndarray):
    return _seed_words_type()(words)


def derive_rngs(keys) -> list[np.random.Generator]:
    """[derive_rng(*key) for key in keys], derived as one batch; each key is
    a sequence of non-negative integers."""
    states = _key_states(keys).astype(np.uint64)
    lo, hi = states[0::2], states[1::2]  # each uint64 seed word is two uint32 ones, low first
    seed_words = np.ascontiguousarray((lo | hi << np.uint64(32)).T)  # PCG64 reads raw rows
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return [generator(pcg64(_seed_words(words))) for words in seed_words]


def derive_seeds(keys) -> list[int]:
    """[derive_seed(*key) for key in keys], derived as one batch."""
    return _key_states(keys)[0].tolist()


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    """Independent, reproducible stream addressed by (seed, *tags)."""
    return derive_rngs([(seed, *tags)])[0]


def derive_seed(seed: int, *tags: int) -> int:
    return derive_seeds([(seed, *tags)])[0]


# ---------------------------------------------------------------------------
# The record container: every wovr file is a list of records, and each record
# maps names to numpy arrays.

_FILE = struct.Struct("<4sBI")   # magic, FORMAT_VERSION, record count
_ARRAY = struct.Struct("<HBB")   # name length, dtype code, ndim
_DTYPES = ("<f8", "<i8", "|u1")  # dtype code -> dtype


def write_records(path, magic: bytes, count: int, records):
    """Write count records, each a dict of arrays, in sorted-name order.

    records may be a generator: each record is written as it comes, so the
    caller never holds more than one. Equal input gives equal bytes. count
    must be the number of records.
    """
    with open(path, "wb") as fh:
        fh.write(_FILE.pack(magic, FORMAT_VERSION, count))
        for record in records:
            fh.write(struct.pack("<I", len(record)))
            for name in sorted(record):
                # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
                arr = np.asarray(record[name], order="C")
                encoded = name.encode()
                fh.write(_ARRAY.pack(len(encoded), _DTYPES.index(arr.dtype.str), arr.ndim)
                         + encoded + struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.data)


def read_records(path, magic: bytes) -> list[dict[str, np.ndarray]]:
    """Every record of a write_records file; each read is bounds-checked."""
    with open(path, "rb") as fh:
        data = fh.read()
    view, offset = memoryview(data), 0

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(data):
            raise TruncatedPayload(f"need {n} bytes at offset {offset}, the file has {len(data)}")
        offset += n
        return view[offset - n:offset]

    if len(data) < _FILE.size:
        raise MalformedHeader(f"file shorter than its {_FILE.size}-byte header")
    file_magic, version, count = _FILE.unpack(take(_FILE.size))
    if file_magic != magic or version != FORMAT_VERSION:
        raise MalformedHeader(f"header {file_magic!r} v{version}, expected {magic!r} "
                              f"v{FORMAT_VERSION}")
    records = []
    for _ in range(count):
        record = {}
        for _ in range(*struct.unpack("<I", take(4))):
            name_len, code, ndim = _ARRAY.unpack(take(_ARRAY.size))
            try:
                name = bytes(take(name_len)).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedHeader(f"array name is not valid UTF-8: {exc}") from exc
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            # numpy takes at most 32 dims on every version; a zero dim beside
            # huge ones holds no data, yet numpy cannot shape it either
            if (code >= len(_DTYPES) or ndim > 32 or (record and name <= next(reversed(record)))
                    or math.prod(max(dim, 1) for dim in shape) > len(data)):
                raise MalformedHeader(f"array {name!r}: dtype code {code}, shape {shape}, "
                                      "or out of sorted-name order")
            dtype = np.dtype(_DTYPES[code])
            raw = take(math.prod(shape) * dtype.itemsize)
            record[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        records.append(record)
    if offset != len(data):
        raise MalformedHeader(f"{len(data) - offset} trailing bytes after the records")
    return records


def _fields(record: dict, schema: dict) -> list[np.ndarray]:
    """The record's arrays in schema order, checked against schema's names,
    dtypes and dims; a dim given by name takes one size in the whole record."""
    if sorted(record) != sorted(schema):
        raise MalformedHeader(f"record holds {sorted(record)}, expected {sorted(schema)}")
    sizes = {}
    for name, (dtype, dims) in schema.items():
        arr = record[name]
        if arr.dtype.str != dtype or arr.ndim != len(dims) or any(
                (dim if isinstance(dim, int) else sizes.setdefault(dim, n)) != n
                for dim, n in zip(dims, arr.shape)):
            raise MalformedHeader(f"{name!r} is a {arr.dtype.str} array of shape "
                                  f"{arr.shape}, expected {dtype} {dims}")
    return [record[name] for name in schema]


# ---------------------------------------------------------------------------
# Trajectory store: one record per trajectory.

# head is (task, start kind, success, valid_len) and flags is (reward, done) per
# step. success, valid_len and done are copies the reader checks against the
# rewards: done is the step's reward, since an episode ends at its reward step.
_STORE_SCHEMA = {"chunk": ("<f8", ("n", "H", "a")), "flags": ("|u1", ("n", 2)),
                 "head": ("<i8", (4,)), "logp_old": ("<f8", ("n",)),
                 "obs": ("<f8", ("n", "d"))}


def _trajectory_record(traj: Trajectory) -> dict[str, np.ndarray]:
    steps = traj.steps
    return {"head": np.array([traj.task.task_id, START_KINDS.index(traj.start_kind),
                              int(traj.success), traj.valid_len], dtype=np.int64),
            "obs": steps.obs, "chunk": steps.chunk, "logp_old": steps.logp_old,
            "flags": np.stack([steps.reward, steps.reward], axis=1)}


def _trajectory(record: dict) -> Trajectory:
    chunk, flags, head, logp_old, obs = _fields(record, _STORE_SCHEMA)
    task_id, kind, success, valid_len = head.tolist()
    if task_id < 0 or not 0 <= kind < len(START_KINDS):
        raise MalformedHeader(f"bad trajectory head {head.tolist()}")
    rewards, done = flags.T
    if np.any(done != rewards):
        raise InvariantViolation("a done flag differs from its step's reward")
    # Steps rejects a reward outside {0, 1} and a non-finite entry
    traj = Trajectory(TaskSpec(task_id), START_KINDS[kind], Steps(obs, chunk, rewards, logp_old))
    if (success, valid_len) != (traj.success, traj.valid_len):
        raise InvariantViolation(f"head gives success {success}, valid_len {valid_len}; "
                                 f"the rewards give {traj.success}, {traj.valid_len}")
    return traj


def write_store(path, trajectories: list[Trajectory]):
    write_records(path, STORE_MAGIC, len(trajectories),
                  (_trajectory_record(t) for t in trajectories))


def read_store(path) -> list[Trajectory]:
    return [_trajectory(record) for record in read_records(path, STORE_MAGIC)]


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


_FRAMES_SCHEMA = {"actions": ("<f8", ("n", "a")), "states": ("<f8", ("s", "d")),
                  "task": ("<i8", ())}


def write_frames(path, episodes: list[FrameEpisode], env_name: str):
    """A first record naming the env, then one record per episode."""
    head = {"env": np.frombuffer(env_name.encode(), dtype=np.uint8)}
    records = ({"actions": ep.actions, "states": ep.states, "task": np.int64(ep.task.task_id)}
               for ep in episodes)
    write_records(path, FRAMES_MAGIC, len(episodes) + 1, itertools.chain([head], records))


def read_frames(path) -> tuple[list[FrameEpisode], str]:
    records = read_records(path, FRAMES_MAGIC)
    if not records:
        raise MalformedHeader("frame set lacks its env-name record")
    (name,) = _fields(records[0], {"env": ("|u1", ("len",))})
    try:
        env_name = name.tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"env name is not valid UTF-8: {exc}") from exc
    episodes = []
    for record in records[1:]:
        actions, states, task = _fields(record, _FRAMES_SCHEMA)
        if len(states) != len(actions) + 1 or task < 0:
            raise MalformedHeader("frame episode needs task >= 0 and one more state than actions")
        episodes.append(FrameEpisode(TaskSpec(int(task)), states, actions))
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
