"""Corrupt on-disk input must fail with the typed errors from wovr.core.

Each example truncates a valid file and overwrites a few of its bytes; a
reader may accept the result or raise MalformedHeader, TruncatedPayload or
InvariantViolation, and nothing else.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wovr import nn
from wovr.core import (FrameEpisode, InvariantViolation, MalformedHeader,
                       StepRecord, TaskSpec, Trajectory, TruncatedPayload,
                       read_frames, read_store, write_frames, write_store)

TYPED = (MalformedHeader, TruncatedPayload, InvariantViolation)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Reader and valid bytes of one frame set, one store and one checkpoint."""
    base = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    write_frames(base / "frames.wovf",
                 [FrameEpisode(TaskSpec(t), rng.normal(size=(n + 1, 3)),
                               rng.normal(size=(n, 2))) for t, n in [(0, 3), (1, 2)]],
                 "reachpoint")
    steps = [StepRecord(rng.normal(size=3), rng.normal(size=(2, 2)), r, -1.0, r == 1)
             for r in (0, 0, 1)]
    write_store(base / "store.wovs", [Trajectory.build(TaskSpec(1), "initial", steps)])
    nn.save_params(base / "params.wovc", {"a": rng.normal(size=(2, 3)), "b": np.zeros(2)})
    readers = {"frames.wovf": read_frames, "store.wovs": read_store,
               "params.wovc": nn.load_params}
    return base, {name: (reader, (base / name).read_bytes())
                  for name, reader in readers.items()}


@pytest.mark.parametrize("name", ["frames.wovf", "store.wovs", "params.wovc"])
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
