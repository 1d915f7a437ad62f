import numpy as np
import pytest

from wovr.core import InvariantViolation, params_hash
from wovr.sched import Snapshot, run_iteration


def toy_params(seed=0):
    rng = np.random.default_rng(seed)
    return {"w": rng.normal(size=(3, 3)), "b": rng.normal(size=3)}


def noop_trainer(artifacts):
    return artifacts


# -- snapshots ------------------------------------------------------------------


def test_snapshot_copy_semantics():
    params = toy_params()
    snap = Snapshot(params)
    params["w"][0, 0] = 999.0
    assert snap.params["w"][0, 0] != 999.0


def test_snapshot_hash_stable_across_reads():
    snap = Snapshot(toy_params())
    h1 = snap.hash
    _ = snap.params["w"].sum()
    assert snap.hash == h1 == params_hash(snap.params)


def test_snapshot_arrays_write_protected():
    snap = Snapshot(toy_params())
    with pytest.raises(ValueError):
        snap.params["w"][0, 0] = 1.0


# -- iterations -----------------------------------------------------------------


def test_rollout_phase_mutation_detected():
    pi = toy_params(1)

    def mutating_rollout(psnap, wsnap, rsnap):
        pi["w"][0, 0] += 1.0

    with pytest.raises(InvariantViolation, match="changed during the rollout"):
        run_iteration(pi, toy_params(2), toy_params(3),
                      mutating_rollout, noop_trainer)


def test_rollout_reads_snapshots_not_live():
    pi = toy_params(1)
    seen = {}

    def capture(psnap, wsnap, rsnap):
        seen["w"] = psnap.params["w"].copy()

    run_iteration(pi, toy_params(2), toy_params(3), capture, noop_trainer)
    assert np.array_equal(seen["w"], pi["w"])
    assert seen["w"] is not pi["w"]


def test_iteration_determinism():
    def run_once():
        pi, wm, rw = toy_params(1), toy_params(2), toy_params(3)

        def rollout(psnap, wsnap, rsnap):
            rng = np.random.default_rng(42)
            return rng.normal(size=4)

        return [run_iteration(pi, wm, rw, rollout, noop_trainer) for _ in range(3)]

    art_a, art_b = run_once(), run_once()
    assert all(np.array_equal(x, y) for x, y in zip(art_a, art_b))
