"""Corrupt on-disk input must fail with the typed errors from wovr.core.

Each example truncates a valid file and overwrites a few of its bytes; a
reader may accept the result or raise MalformedHeader, TruncatedPayload or
InvariantViolation, and nothing else. The batch case corrupts the JSON
manifest beside an intact store; the eval case corrupts an eval.json report.
"""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wovr import nn
from wovr.core import (FrameEpisode, InvariantViolation, MalformedHeader,
                       StepRecord, TaskSpec, Trajectory, TruncatedPayload,
                       read_frames, read_store, write_frames, write_store)
from wovr.evalx import EvalReport
from wovr.rollout import read_batch, write_batch

TYPED = (MalformedHeader, TruncatedPayload, InvariantViolation)
MANIFEST = ".manifest.json"
READERS = {"frames.wovf": read_frames, "store.wovs": read_store,
           "params.wovc": nn.load_params,
           "batch.wovs" + MANIFEST: lambda path: read_batch(str(path)[:-len(MANIFEST)]),
           "eval.json": lambda path: EvalReport.from_json(path.read_bytes())}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Reader and valid bytes of a frame set, a store, a checkpoint, a manifest
    and an eval report."""
    base = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    write_frames(base / "frames.wovf",
                 [FrameEpisode(TaskSpec(t), rng.normal(size=(n + 1, 3)),
                               rng.normal(size=(n, 2))) for t, n in [(0, 3), (1, 2)]],
                 "reachpoint")
    trajs = [Trajectory(TaskSpec(t), kind, [
        StepRecord(rng.normal(size=3), rng.normal(size=(2, 2)), r, -1.0)
        for r in rewards]) for t, kind, rewards in [(1, "initial", (0, 0, 1)),
                                                    (2, "keyframe", (0, 0))]]
    write_store(base / "store.wovs", trajs)
    nn.save_params(base / "params.wovc",
                   {"a": rng.normal(size=(2, 3)), "b": np.zeros(2), "s": np.array(0.5)})
    write_batch(base / "batch.wovs", trajs, {"env": "reachpoint", "n": 2})
    # the batch reader reads this intact store beside each corrupt manifest
    write_store(base / "corrupt-batch.wovs", trajs)
    EvalReport(seeds=[0], checkpoint_hashes={"policy": "aa"}, success_rate=0.5, sr_trials=8,
               hallucination={"rate": 0.25, "spurious": 0.25, "missed": 0.0, "n": 4},
               horizon_curve=[(8, 0.01), (16, 0.04)]).write(base / "eval.json")
    return base, {name: (reader, (base / name).read_bytes())
                  for name, reader in READERS.items()}


@pytest.mark.parametrize("name", list(READERS))
@settings(max_examples=150, deadline=None)
@given(cut=st.integers(min_value=0),
       flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)),
                      max_size=4))
def test_corrupt_input_raises_only_typed_errors(originals, name, cut, flips):
    base, files = originals
    reader, good = files[name]
    data = bytearray(good[:cut % (len(good) + 1)])
    for pos, value in flips:
        if data:
            data[pos % len(data)] = value
    path = base / f"corrupt-{name}"
    path.write_bytes(bytes(data))
    try:
        reader(path)
    except TYPED:
        pass


@pytest.mark.parametrize("text", [
    "[]", '{"horizon_curve": 5}', '{"horizon_curve": [[8, 0.1, 2]]}', "not json",
    b"\xff{}", "[" * 100_000, '{"hallucination": {}}', '{"hallucination": []}',
    '{"success_rate": "high"}', '{"success_rate": 1.5}', '{"seeds": 3}',
    '{"hallucination": {"rate": 0.5, "spurious": 7.0, "missed": 0.0}}',
    '{"hallucination": {"rate": 0.5, "spurious": 0.5, "missed": -3.0}}',
    '{"sr_trials": -5}', '{"sr_trials": 0}', '{"horizon_curve": [[8, 0.1], [16, -0.2]]}',
    '{"hallucination": {"rate": 0.5, "spurious": 0.5, "missed": 0.5, "n": 4}}',
    '{"hallucination": {"rate": 0.5, "spurious": 0.25, "missed": 0.25, "n": -4}}',
    '{"hallucination": {"rate": 0.5, "spurious": 0.25, "missed": 0.25, "n": "4"}}',
    '{"horizon_curve": [[-8, 0.1], [0, 0.2]]}'],
    ids=["list", "int-curve", "triple-curve", "not-json", "not-utf8", "deep-nesting",
         "empty-halluc", "list-halluc", "str-rate", "rate-range", "int-seeds",
         "spurious-range", "missed-range", "negative-trials", "zero-trials",
         "negative-mse", "rate-not-sum", "negative-n", "str-n", "non-positive-horizon"])
def test_malformed_eval_report_is_malformed_header(text):
    with pytest.raises(MalformedHeader):
        EvalReport.from_json(text)


def test_zero_dim_beside_huge_dims_is_malformed(tmp_path):
    """Such a shape holds no data, yet numpy cannot shape it: reject it as a header fault."""
    path = tmp_path / "p.wovc"
    nn.save_params(path, {"z": np.zeros((0, 3, 3))})
    data = bytearray(path.read_bytes())
    shape_at = data.index(b"z") + 1
    assert struct.unpack_from("<3I", data, shape_at) == (0, 3, 3)
    struct.pack_into("<3I", data, shape_at, 0, 1735355392, 1735355392)
    path.write_bytes(bytes(data))
    with pytest.raises(MalformedHeader):
        nn.load_params(path)


def test_zero_d_entry_round_trips(originals):
    base, _ = originals
    loaded = nn.load_params(base / "params.wovc")
    assert loaded["s"].shape == () and loaded["s"] == 0.5
    assert loaded["b"].shape == (2,)
