"""Rollout/train phase alternation over hash-checked parameter snapshots.

Each iteration runs one rollout phase, then one training phase. The rollout
phase reads only write-protected copies of the policy, world-model and reward
parameters. The live parameters are hashed before and after it, so a
mid-phase mutation is a hard error rather than a silent race.
"""
from __future__ import annotations

import numpy as np

from .core import InvariantViolation, params_hash


class Snapshot:
    """Immutable copy of a param dict; rollouts read only these."""

    def __init__(self, params: dict):
        copies = {}
        for k, v in params.items():
            arr = np.array(v, dtype=np.float64, copy=True)
            arr.setflags(write=False)
            copies[k] = arr
        self._params = copies
        self._hash = params_hash(copies)

    @property
    def params(self) -> dict:
        return self._params

    @property
    def hash(self) -> str:
        return self._hash


def run_iteration(policy_params, wm_params, reward_params, rollout_fn, trainer_fn):
    """One rollout phase then one training phase; returns trainer_fn's result.

    rollout_fn(policy_snap, wm_snap, reward_snap) runs against immutable
    snapshots and returns the rollout artifacts; trainer_fn(artifacts) applies
    the updates. Raises InvariantViolation if the live parameters changed
    during the rollout phase or a snapshot no longer matches them.
    """
    snaps = (Snapshot(policy_params), Snapshot(wm_params), Snapshot(reward_params))
    live = (policy_params, wm_params, reward_params)
    before = tuple(params_hash(p) for p in live)

    artifacts = rollout_fn(*snaps)

    after = tuple(params_hash(p) for p in live)
    if before != after:
        raise InvariantViolation("live parameters changed during the rollout phase")
    for snap, h in zip(snaps, before):
        if snap.hash != h:
            raise InvariantViolation("snapshot diverged from phase-start parameters")

    return trainer_fn(artifacts)
