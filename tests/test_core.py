import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wovr
from wovr.core import (
    DEFAULTS,
    ConfigError,
    FrameEpisode,
    InvariantViolation,
    MalformedHeader,
    Steps,
    TaskSpec,
    Trajectory,
    TruncatedPayload,
    derive_rng,
    derive_rngs,
    derive_seed,
    derive_seeds,
    make_config,
    one_hot,
    params_hash,
    read_frames,
    read_store,
    task_features,
    write_frames,
    write_store,
)


def make_traj(seed=0, n=4, succeed_at=None, d=8, horizon=8, a_dim=3):
    rng = np.random.default_rng(seed)
    reward = [int(i == succeed_at) for i in range(n)]
    return Trajectory(TaskSpec(1), "initial",
                      Steps(rng.normal(size=(n, d)), rng.normal(size=(n, horizon, a_dim)),
                            reward, rng.normal(size=n)))


def data_offset(blob, name: str, ndim: int) -> int:
    """Where a store array's data starts: after its name and its ndim u32 dims."""
    return blob.index(name.encode()) + len(name) + 4 * ndim


def read_patched(tmp_path, traj, name, ndim, at, old, new):
    """read_store of traj's store after byte `at` of array name's data goes old -> new."""
    path = tmp_path / "s.wovs"
    write_store(path, [traj])
    assert read_store(path) == [traj]
    blob = bytearray(path.read_bytes())
    i = data_offset(blob, name, ndim) + at
    assert blob[i] == old
    blob[i] = new
    path.write_bytes(bytes(blob))
    return read_store(path)


def test_one_hot():
    assert np.array_equal(one_hot(2, 4), [0.0, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        one_hot(4, 4)


def test_task_features_per_row_ids_equal_per_task_rows():
    obs = derive_rng(3).normal(size=(7, 4))
    ids = np.array([2, 0, 1, 2, 2, 0, 3])
    rows = np.stack([task_features(o, TaskSpec(int(i)), 4) for o, i in zip(obs, ids)])
    assert task_features(obs, ids, 4).tobytes() == rows.tobytes()
    assert (task_features(obs, np.full(7, 1), 4).tobytes()
            == task_features(obs, TaskSpec(1), 4).tobytes())
    with pytest.raises(ValueError):
        task_features(obs, ids[:3], 4)
    with pytest.raises(IndexError):
        task_features(obs, np.full(7, 4), 4)


def test_valid_len_failure_covers_all_steps():
    traj = make_traj(n=5)
    assert not traj.success
    assert traj.valid_len == 5


def test_valid_len_stops_at_first_success():
    traj = make_traj(n=6, succeed_at=2)
    assert traj.success
    assert traj.valid_len == 3


# a store head is four int64s: task, start kind, success, valid_len


def test_read_store_rejects_head_success_without_reward_step(tmp_path):
    # the head claims success, but no step carries the reward
    with pytest.raises(InvariantViolation):
        read_patched(tmp_path, make_traj(n=2), "head", 1, 8 * 2, old=0, new=1)


def test_trajectory_rejects_bad_valid_len(tmp_path):
    with pytest.raises(InvariantViolation):
        read_patched(tmp_path, make_traj(n=3), "head", 1, 8 * 3, old=3, new=2)


def test_trajectory_rejects_mid_sequence_done(tmp_path):
    # flags holds (reward, done) per step; mark the first of two steps done
    with pytest.raises(InvariantViolation):
        read_patched(tmp_path, make_traj(n=2), "flags", 2, 1, old=0, new=1)


def test_steps_rejects_nonbinary_reward():
    rng = np.random.default_rng(2)
    for reward in ([2], [0, 2], [0.5], [-1]):
        n = len(reward)
        with pytest.raises(InvariantViolation):
            Steps(rng.normal(size=(n, 4)), rng.normal(size=(n, 2, 2)), reward, np.zeros(n))


def test_steps_rejects_non_finite():
    rng = np.random.default_rng(3)
    obs, chunk, logp = rng.normal(size=(2, 4)), rng.normal(size=(2, 2, 2)), np.array([-1.5, 0.0])
    Steps(obs, chunk, [0, 1], logp)
    for bad in (np.nan, np.inf, -np.inf):
        bad_obs, bad_chunk, bad_logp = obs.copy(), chunk.copy(), logp.copy()
        bad_obs[1, 2] = bad
        bad_chunk[0, 1, 0] = bad
        bad_logp[1] = bad
        for args in ((bad_obs, chunk, [0, 0], logp), (obs, bad_chunk, [0, 0], logp),
                     (obs, chunk, [0, 0], bad_logp), (obs, chunk, [0, 1], bad_logp)):
            with pytest.raises(InvariantViolation):
                Steps(*args)


def test_steps_rejects_malformed_shapes():
    rng = np.random.default_rng(4)
    obs, chunk = rng.normal(size=(3, 4)), rng.normal(size=(3, 2, 2))
    reward, logp = [0] * 3, [0.0] * 3
    assert len(Steps(obs, chunk, reward, logp)) == 3
    for args in ((obs, chunk[:, 0], reward, logp), (obs, chunk[0], reward, logp),
                 (obs[0], chunk, reward, logp), (obs[:2], chunk, reward, logp),
                 (obs, chunk[:2], reward, logp), (obs, chunk, reward[:2], logp),
                 (obs, chunk, reward, logp[:2]), (obs, chunk, 0, logp)):
        with pytest.raises(ValueError):
            Steps(*args)


def test_steps_without_rows_take_the_stored_empty_shapes():
    empty = Steps(np.zeros((0, 5)), np.zeros((0, 4, 2)), [], [])
    assert len(empty) == 0 and empty.obs.shape == (0, 0) and empty.chunk.shape == (0, 0, 0)
    traj = Trajectory(TaskSpec(0), "initial", empty)
    assert not traj.success and traj.valid_len == 0


def test_read_store_rejects_nan_obs(tmp_path):
    traj = make_traj(n=2)
    traj.steps.obs[0, 0] = 1.5  # float64 bytes 00 .. 00 f8 3f
    # the top byte 3f -> 7f makes the exponent all ones: 1.5 becomes NaN
    with pytest.raises(InvariantViolation):
        read_patched(tmp_path, traj, "obs", 2, 7, old=0x3F, new=0x7F)


def test_roundtrip_is_exact(tmp_path):
    traj = make_traj(seed=3, n=7, succeed_at=4)
    path = tmp_path / "one.wovs"
    write_store(path, [traj])
    (decoded,) = read_store(path)
    assert decoded == traj
    # bitwise, not just approximate
    assert decoded.steps.obs.tobytes() == traj.steps.obs.tobytes()


def test_roundtrip_keyframe_kind(tmp_path):
    traj = make_traj(seed=9, n=2)
    traj = Trajectory(traj.task, "keyframe", traj.steps)
    path = tmp_path / "k.wovs"
    write_store(path, [traj])
    (decoded,) = read_store(path)
    assert decoded.start_kind == "keyframe"
    assert decoded == traj


def test_decode_rejects_truncation_and_flags_offset(tmp_path):
    path = tmp_path / "s.wovs"
    write_store(path, [make_traj(seed=4, n=3)])
    blob = path.read_bytes()
    for data, error in [(blob[:-5], TruncatedPayload), (blob + b"\x00", MalformedHeader),
                        (blob[:3], MalformedHeader)]:
        path.write_bytes(data)
        with pytest.raises(error):
            read_store(path)


def test_decode_rejects_corrupt_reward_byte(tmp_path):
    path = tmp_path / "s.wovs"
    write_store(path, [make_traj(seed=5, n=1)])
    blob = bytearray(path.read_bytes())
    # flags holds (reward, done) of the sole step, after its name and 2-d shape
    reward_off = data_offset(blob, "flags", 2)
    assert blob[reward_off:reward_off + 2] == b"\x00\x00"
    blob[reward_off] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(InvariantViolation):
        read_store(path)


def test_store_roundtrip(tmp_path):
    trajs = [make_traj(seed=i, n=3 + i, succeed_at=i if i % 2 else None) for i in range(1, 5)]
    trajs.append(Trajectory(TaskSpec(2), "initial", Steps(np.zeros((0, 8)),
                                                          np.zeros((0, 8, 3)), [], [])))
    path = tmp_path / "demos.wovs"
    for batch in (trajs, []):
        write_store(path, batch)
        assert read_store(path) == batch


def test_store_write_is_byte_deterministic(tmp_path):
    trajs = [make_traj(seed=i, n=4) for i in range(3)]
    a, b = tmp_path / "a.wovr", tmp_path / "b.wovr"
    write_store(a, trajs)
    write_store(b, trajs)
    assert a.read_bytes() == b.read_bytes()


def test_store_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.wovr"
    path.write_bytes(b"NOPE\x01")
    with pytest.raises(MalformedHeader):
        read_store(path)


def test_store_rejects_truncated_record(tmp_path):
    path = tmp_path / "trunc.wovr"
    write_store(path, [make_traj(seed=6, n=2)])
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(TruncatedPayload):
        read_store(path)


def test_frames_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    eps = [
        FrameEpisode(TaskSpec(t), rng.normal(size=(n + 1, 8)), rng.normal(size=(n, 3)))
        for t, n in [(0, 5), (3, 1)]
    ]
    path = tmp_path / "frames.wovf"
    write_frames(path, eps, "pickplace2d")
    loaded, env_name = read_frames(path)
    assert env_name == "pickplace2d"
    assert loaded == eps
    write_frames(path, [], "reachpoint")
    assert read_frames(path) == ([], "reachpoint")


def test_derive_rng_streams_are_stable_and_distinct():
    a1 = derive_rng(11, 0, 1).normal(size=4)
    a2 = derive_rng(11, 0, 1).normal(size=4)
    b = derive_rng(11, 0, 2).normal(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_batched_derivation_matches_seed_sequence_bit_for_bit():
    """derive_rngs and derive_seeds give numpy's SeedSequence(list(key)) ->
    PCG64 streams and first state words, in key order, on one mixed batch:
    entries of one to three words, numpy integers, and keys of one to six
    words, past SeedSequence's 4-word pool. They reject what it rejects."""
    edges = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5]
    keys = [(value,) for value in edges]
    keys += [(5, 0), (0, 0, 0, 0, 0, 0), (np.int64(7), np.uint32(9)), (np.uint64(2**64 - 1), 3)]
    pick = np.random.default_rng(0)
    keys += [tuple(int(v) for v in pick.integers(0, 2**32, size)) for size in range(1, 7)
             for _ in range(4)]
    keys += [tuple(edges[i] for i in pick.integers(len(edges), size=size)) for size in range(1, 7)]
    rngs, seeds = derive_rngs(keys), derive_seeds(keys)
    assert len(rngs) == len(seeds) == len(keys)
    for key, got, seed in zip(keys, rngs, seeds):
        sequence = np.random.SeedSequence(list(key))
        want = np.random.Generator(np.random.PCG64(sequence))
        assert seed == int(sequence.generate_state(1)[0]), key
        for draw in (lambda g: g.random(3), lambda g: g.normal(size=3),
                     lambda g: g.integers(0, 2**40, 3)):
            assert np.array_equal(draw(got), draw(want)), key
    assert derive_seeds(keys[::-1]) == seeds[::-1]
    assert derive_seed(*keys[9]) == seeds[9]
    assert np.array_equal(derive_rng(*keys[9]).random(4), derive_rngs(keys)[9].random(4))
    assert derive_rngs([]) == [] and derive_seeds([]) == []
    for bad, error in (((3, -1), ValueError), ((3, 1.5), TypeError),
                       ((np.float64(2.0),), TypeError)):
        with pytest.raises(error):
            np.random.SeedSequence(list(bad))
        for derive in (derive_rngs, derive_seeds):
            with pytest.raises(error):
                derive([(1, 2), bad])


def test_derived_stream_pickles_mid_stream():
    rng = derive_rng(3, 4)
    rng.random(5)
    copy = pickle.loads(pickle.dumps(rng))
    assert np.array_equal(copy.random(4), rng.random(4))


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """numpy.random takes milliseconds to import, so wovr loads it at the
    first derivation, not at import."""
    check = "import sys, wovr.cli; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(wovr.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", check], env=env, check=True, timeout=120)


def test_params_hash_orders_keys_and_sees_values():
    p = {"w": np.arange(4.0), "b": np.zeros(2)}
    q = {"b": np.zeros(2), "w": np.arange(4.0)}
    assert params_hash(p) == params_hash(q)
    q["w"] = q["w"] + 1e-12
    assert params_hash(p) != params_hash(q)


def test_run_config_validation():
    assert make_config() == DEFAULTS
    for bad in ({"gamma": 0.0}, {"gamma": 1.2}, {"group_size": 1},
                {"clip_eps": 0.0}, {"kir_fraction": 1.5},
                {"diffusion_steps": 0}, {"max_episode_len": 63}, {"chunk": 0},
                {"max_episode_len": 0}, {"max_episode_len": 4}, {"max_episode_len": -8},
                {"gamma": "high"}):
        with pytest.raises(ConfigError):
            make_config({"run": bad})
    for bad in ({"collect": {"n": -3}}, {"eval": {"n": 0}}, {"rl": {"keyframe_k": 0}},
                {"demo": {"n": 0}}, {"demo": {"n": -1}}, {"demo": {"noise": -1.0}},
                {"env": "bogus"}, {"eval": {"metric": "bogus"}},
                {"wm": {"anchor_mode": "bogus"}}, {"reward": {"pos_weight": "bogus"}},
                {"reward": {"pos_weight": 0}}, {"reward": {"pos_weight": True}},
                {"run": {"chunk": {"x": 1}}}, {"run": 5},
                {"clone": {"batch_size": 0}}, {"clone": {"lr": -1}},
                {"clone": {"epochs": -3}}, {"wm": {"lr": 0}}, {"refine": {"batch_size": 0}},
                {"reward": {"epochs": -1}}, {"rl": {"lr": 0.0}}, {"wm": {"p_noisy": 1.5}},
                {"wm": {"p_noisy": -0.1}}, {"reward": {"neg_ratio": 0}},
                {"rl": {"reward_threshold": 1.5}}, {"eval": {"task": -1}},
                {"eval": {"task": "first"}}, {"rl": {"inner_epochs": 0}},
                {"seed": -1}, {"seed": 1.5}, {"seed": 2.0}, {"seed": True}, {"seed": "3"},
                *({"eval": {"metric": "horizon", "horizons": horizons}}
                  for horizons in ([], [3], [8, 8], [16, 8], [72], [8.0], "8", 8))):
        with pytest.raises(ConfigError):
            make_config(bad)
    for good in ({"reward": {"pos_weight": None}}, {"reward": {"pos_weight": 2.5}},
                 {"wm": {"anchor_mode": "last"}}, {"eval": {"metric": "horizon"}},
                 {"env": "reachpoint"}, {"clone": {"epochs": 0}}, {"wm": {"p_noisy": 0.0}},
                 {"rl": {"reward_threshold": 1.0}}, {"seed": 7}, {"seed": 2**64 + 5},
                 {"eval": {"metric": "horizon", "horizons": [16, 64]}},
                 # the horizons are read only under the horizon metric
                 {"run": {"max_episode_len": 32}}, {"eval": {"horizons": [3]}}):
        make_config(good)
    # every count must be an int: a float or a bool is refused by name
    counts = ("clone.epochs", "clone.batch_size", "wm.epochs", "wm.batch_size",
              "refine.epochs", "refine.batch_size", "reward.epochs", "reward.batch_size",
              "demo.n", "collect.n", "eval.n", "run.group_size", "run.chunk", "run.context",
              "run.max_episode_len", "run.n_base", "run.n_evo", "run.diffusion_steps",
              "plan.refinements", "plan.rl_updates_per_stage", "plan.groups_per_update",
              "rl.inner_epochs", "rl.keyframe_k", "wm.width", "wm.act_emb_dim", "eval.task")
    for name in counts:
        section, key = name.split(".")
        for value in (2.5, 2.0, True):
            with pytest.raises(ConfigError, match=name):
                make_config({section: {key: value}})
    # a section merges key by key
    assert make_config({"plan": {"refinements": 0}}, {"run": {"n_evo": 0}})["plan"] \
        == {**DEFAULTS["plan"], "refinements": 0}
    # a config error is still a ValueError
    with pytest.raises(ValueError):
        make_config({"run": {"warp_factor": 9}})
