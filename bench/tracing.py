"""Spans around the public calls into each wovr layer, recorded from outside.

Modules import functions by name (``from .worldmodel import train_wm``), so a
function is wrapped in the namespace of the module that calls it, not where
it is defined. Methods are wrapped on their class. Each span records its name,
start, end and parent; spans stay in memory as flat arrays until the run ends.
A layer's self time is its span's duration minus its child spans' durations.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np

# (owner, attribute, span name); owner is "module" or "module:Class".
TARGETS = [
    ("wovr.cli", "clone_base_policy", "pace.clone_base_policy"),
    ("wovr.cli", "run_pipeline", "pace.run_pipeline"),
    ("wovr.cli", "rollout_real", "rollout.rollout_real"),
    ("wovr.cli", "write_frames", "core.write_frames"),
    ("wovr.cli", "read_frames", "core.read_frames"),
    ("wovr.evalx", "rollout_real", "rollout.rollout_real"),
    ("wovr.rollout", "write_store", "core.write_store"),
    ("wovr.rollout", "read_store", "core.read_store"),
    ("wovr.rollout", "build_context", "rollout.build_context"),
    ("wovr.pace", "rollout_real", "rollout.rollout_real"),
    ("wovr.pace", "label_episode_frames", "reward.label_episode_frames"),
    ("wovr.pace", "train_classifier", "reward.train_classifier"),
    ("wovr.pace", "train_wm", "worldmodel.train_wm"),
    ("wovr.pace", "refine_wm", "pace.refine_wm"),
    ("wovr.pace", "run_iteration", "sched.run_iteration"),
    ("wovr.pace", "rollout_imagined", "rollout.rollout_imagined"),
    ("wovr.pace", "sample_start", "rollout.sample_start"),
    ("wovr.pace", "build_group", "grpo.build_group"),
    ("wovr.pace", "grpo_update", "grpo.grpo_update"),
    ("wovr.pace", "predict_success", "reward.predict_success"),
    ("wovr.pace", "value_and_grad", "nn.value_and_grad"),
    ("wovr.worldmodel", "value_and_grad", "nn.value_and_grad"),
    ("wovr.reward", "value_and_grad", "nn.value_and_grad"),
    ("wovr.grpo", "value_and_grad", "nn.value_and_grad"),
    ("wovr.worldmodel", "make_rf_batch", "worldmodel.make_rf_batch"),
    ("wovr.worldmodel", "sample_chunk", "worldmodel.sample_chunk"),
    ("wovr.worldmodel:WmNet", "u_apply", "worldmodel.u_apply"),
    ("wovr.worldmodel:WmNet", "u_tape", "worldmodel.u_tape"),
    ("wovr.grpo:ChunkPolicy", "sample", "grpo.sample"),
    ("wovr.nn", "adam_step", "nn.adam_step"),
    ("wovr.nn", "save_params", "nn.save_params"),
    ("wovr.envs:PickPlace2D", "step", "envs.step"),
    ("wovr.envs:ReachPoint", "step", "envs.step"),
    ("wovr.envs:PickPlace2D", "reset_state", "envs.reset_state"),
    ("wovr.envs:ReachPoint", "reset_state", "envs.reset_state"),
]


def _count_windows(args, result):
    return {"windows": len(args[2])}


def _count_imagined(args, result):
    group, horizon = args[4], args[6]
    return {"members": group.size,
            "frames": horizon * sum(len(t.steps) for t in result)}


def _count_starts(args, result):
    return {"starts": 1, "kir_starts": int(result[1] == "keyframe")}


def _count_groups(args, result):
    return {"groups": 1, "zero_adv_groups": int(not np.any(result.advantages))}


def _count_bytes(args, result):
    return {"store_bytes": os.path.getsize(args[0])}


COUNTERS = {
    "worldmodel.make_rf_batch": _count_windows,
    "rollout.rollout_imagined": _count_imagined,
    "rollout.sample_start": _count_starts,
    "grpo.build_group": _count_groups,
    "core.write_store": _count_bytes,
    "core.write_frames": _count_bytes,
}

# positional callback arguments that get spans of their own
CALLBACKS = {"sched.run_iteration": {3: "sched.rollout_fn", 4: "sched.trainer_fn"}}


class Tracer:
    """In-memory span recorder; install() patches TARGETS, uninstall() undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        count = COUNTERS.get(name)
        callbacks = CALLBACKS.get(name, {})
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if callbacks:
                args = list(args)
                for pos, cb_name in callbacks.items():
                    args[pos] = self.wrap(args[pos], cb_name)
            idx = len(self.t0)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.t0.append(0.0)
            self.t1.append(0.0)
            self._stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.t0[idx] = start
                self.t1[idx] = end
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self):
        for owner, attr, name in TARGETS:
            module_name, _, cls_name = owner.partition(":")
            target = importlib.import_module(module_name)
            if cls_name:
                target = getattr(target, cls_name)
            original = target.__dict__[attr]
            self._patched.append((target, attr, original))
            setattr(target, attr, self.wrap(original, name))

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def spans(self) -> dict:
        """Flat span arrays: name index, parent index (-1 at top), start, end."""
        return {"names": np.array(self.names), "name_id": np.frombuffer(self.name_id, np.int32),
                "parent": np.frombuffer(self.parent, np.int64),
                "t0": np.frombuffer(self.t0), "t1": np.frombuffer(self.t1)}


def _excluded(t0, t1, ticks) -> np.ndarray:
    """Time each span [t0, t1] spent in calibration ticks (see calibrate.py)."""
    starts, ends = np.asarray(ticks[0]), np.asarray(ticks[1])
    if not starts.size:
        return np.zeros_like(t0)
    dur = ends - starts
    before = np.concatenate([[0.0], np.cumsum(dur)])  # tick time before tick k

    def busy_until(t):
        k = np.searchsorted(starts, t, side="right") - 1  # the last tick started by t
        last = np.maximum(k, 0)
        return np.where(k >= 0, before[last] + np.minimum(t - starts[last], dur[last]), 0.0)

    return busy_until(t1) - busy_until(t0)


class SpanTable:
    """Per-name aggregates over a finished span set.

    Durations leave out the calibration ticks that interrupted a span, so a
    layer's time is its own.
    """

    def __init__(self, spans: dict, ticks: tuple[list, list]):
        self.names = list(spans["names"])
        self.name_id = spans["name_id"]
        self.parent = spans["parent"]
        self.dur = spans["t1"] - spans["t0"] - _excluded(spans["t0"], spans["t1"], ticks)
        has_parent = self.parent >= 0
        self.child_time = np.bincount(self.parent[has_parent],
                                      weights=self.dur[has_parent],
                                      minlength=len(self.dur))

    def _mask(self, name: str, parent: str | None = None, not_parent: str | None = None):
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        mask = self.name_id == self.names.index(name)
        if parent is not None or not_parent is not None:
            parent_names = np.where(self.parent >= 0,
                                    self.name_id[np.maximum(self.parent, 0)], -1)
            for other, want in ((parent, True), (not_parent, False)):
                if other is None:
                    continue
                other_id = self.names.index(other) if other in self.names else -2
                mask &= (parent_names == other_id) == want
        return mask

    def calls(self, name: str, **where) -> int:
        return int(self._mask(name, **where).sum())

    def total(self, name: str, **where) -> float:
        return float(self.dur[self._mask(name, **where)].sum())

    def self_time(self, name: str) -> float:
        mask = self._mask(name)
        return float((self.dur[mask] - self.child_time[mask]).sum())

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self._mask(name)]

    def per_call_us(self, name: str) -> float:
        n = self.calls(name)
        return 1e6 * self.total(name) / n if n else 0.0


def layer_metrics(spans: dict, counts: dict, wall_raw_s: float, ticks) -> dict:
    """Per-layer metrics of one traced repetition; absent layers read 0."""
    tab = SpanTable(spans, ticks)
    pipe = "pace.run_pipeline"
    rl = tab.durations("sched.run_iteration")
    stages = {
        "pace.clone_s": tab.total("pace.clone_base_policy"),
        "pace.collect_s": tab.total("rollout.rollout_real", parent=pipe),
        "pace.train_reward_s": (tab.total("reward.label_episode_frames", parent=pipe)
                                + tab.total("reward.train_classifier", parent=pipe)),
        "pace.train_wm_s": tab.total("worldmodel.train_wm", not_parent="pace.refine_wm"),
        "pace.refine_wm_s": tab.total("pace.refine_wm"),
        "pace.rl_s": float(rl.sum()),
    }
    train_s = tab.total("worldmodel.train_wm")
    imagined_s = tab.total("rollout.rollout_imagined")
    starts, groups = counts.get("starts", 0), counts.get("groups", 0)
    out = dict(stages)
    out.update({
        "pace.rl_update_p50_ms": 1e3 * float(np.percentile(rl, 50)) if rl.size else 0.0,
        "pace.rl_update_p80_ms": 1e3 * float(np.percentile(rl, 80)) if rl.size else 0.0,
        "pace.stage_coverage": sum(stages.values()) / wall_raw_s,
        "worldmodel.make_rf_batch.calls": tab.calls("worldmodel.make_rf_batch"),
        "worldmodel.make_rf_batch.self_s": tab.self_time("worldmodel.make_rf_batch"),
        "worldmodel.train_windows_per_s": counts.get("windows", 0) / train_s if train_s else 0.0,
        "worldmodel.sample_chunk.calls": tab.calls("worldmodel.sample_chunk"),
        "worldmodel.u_apply.calls": tab.calls("worldmodel.u_apply"),
        "worldmodel.u_apply.per_call_us": tab.per_call_us("worldmodel.u_apply"),
        "worldmodel.u_apply.total_s": tab.total("worldmodel.u_apply"),
        "worldmodel.u_tape.calls": tab.calls("worldmodel.u_tape"),
        "nn.value_and_grad.calls": tab.calls("nn.value_and_grad"),
        "nn.value_and_grad.total_s": tab.total("nn.value_and_grad"),
        "nn.adam_step.calls": tab.calls("nn.adam_step"),
        "nn.adam_step.total_s": tab.total("nn.adam_step"),
        "nn.save_params.total_s": tab.total("nn.save_params"),
        "rollout.rollout_imagined.total_s": imagined_s,
        "rollout.rollout_imagined.self_s": tab.self_time("rollout.rollout_imagined"),
        "rollout.imagined_members": counts.get("members", 0),
        "rollout.imagined_frames": counts.get("frames", 0),
        "rollout.imagined_frames_per_s": counts.get("frames", 0) / imagined_s if imagined_s else 0.0,
        "rollout.build_context.total_s": tab.total("rollout.build_context"),
        "rollout.rollout_real.calls": tab.calls("rollout.rollout_real"),
        "rollout.rollout_real.total_s": tab.total("rollout.rollout_real"),
        "rollout.kir_start_frac": counts.get("kir_starts", 0) / starts if starts else 0.0,
        "grpo.sample.calls": tab.calls("grpo.sample"),
        "grpo.sample.per_call_us": tab.per_call_us("grpo.sample"),
        "grpo.grpo_update.total_s": tab.total("grpo.grpo_update"),
        "grpo.zero_adv_group_frac": counts.get("zero_adv_groups", 0) / groups if groups else 0.0,
        "reward.predict_success.calls": tab.calls("reward.predict_success"),
        "reward.predict_success.per_call_us": tab.per_call_us("reward.predict_success"),
        "reward.train_classifier.total_s": tab.total("reward.train_classifier"),
        "envs.step.calls": tab.calls("envs.step"),
        "envs.step.per_call_us": tab.per_call_us("envs.step"),
        "envs.step.total_s": tab.total("envs.step"),
        "envs.reset_state.calls": tab.calls("envs.reset_state"),
        "sched.overhead_s": tab.self_time("sched.run_iteration"),
        "core.write_s": tab.total("core.write_store") + tab.total("core.write_frames"),
        "core.read_s": tab.total("core.read_store") + tab.total("core.read_frames"),
        "core.store_mb": counts.get("store_bytes", 0) / 2**20,
    })
    return out
