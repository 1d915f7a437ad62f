"""Evaluation: real success rate, hallucination rate, error-vs-horizon curves.

The hallucination metric is the outcome mismatch between an imagined rollout
and an open-loop replay of its executed actions in the real env. The horizon
curve replays real action sequences through the model closed-loop and reports
state MSE at increasing depths. Every metric vanishes when the model is the
environment oracle, which pins the plumbing. Each metric runs its n episodes
as one batch: episode i has key (seed, i), resets by rollout's one reset
rule (reset_starts), and derives every other stream of its key in one
core.derive_rngs call per batch, each stream drawing its whole episode's
noise in one call (draw_noise).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .core import MalformedHeader, TaskSpec, derive_rngs, read_json, write_json
from .envs import replay_actions
from .rollout import _roll_group, as_scorer, draw_noise, reset_starts, rollout_real
from .worldmodel import OracleWorldModel


def success_rate(policy, params, env, task, n: int, T: int, H: int, seed) -> float:
    """Mean over tasks of the fraction of n real episodes that reach success.

    task is one TaskSpec and seed one int, or both are lists, one seed per
    task; episode i of a task at seed s has the key (s, i). All episodes run
    in one rollout_real call, and a list's rate is, bit for bit, the mean of
    one-task calls.
    """
    tasks = [task] if isinstance(task, TaskSpec) else list(task)
    seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    trajs = rollout_real(policy, params, env, [t for t in tasks for _ in range(n)],
                         n * len(tasks), T, H, [(s, i) for s in seeds for i in range(n)])
    return float(np.mean([sum(t.success for t in trajs[k:k + n]) / n
                          for k in range(0, len(trajs), n)]))


def hallucination_rate(policy, params, wm, reward_fn, env, task: TaskSpec,
                       n: int, T: int, H: int, seed: int) -> dict:
    """Imagined-vs-real outcome mismatch over n paired episodes.

    Episode i is member i of one lockstep imagined group, started from
    derive_rng(seed, i, 0) as in rollout_real (reset_starts). Its executed
    actions, up to its last imagined frame, are replayed open loop in the
    real env from the same start: every episode in one envs.replay_actions
    batch, which reads success only within each episode's own frames.
    Returns rate plus the two one-sided fractions: spurious (imagined success,
    real failure — the dangerous direction) and missed (imagined failure,
    real success).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tasks, keys = [task] * n, [(seed, i) for i in range(n)]
    starts = reset_starts(env, tasks, keys)
    trajectories, histories = _roll_group(policy, params, wm, as_scorer(reward_fn),
                                          tasks, starts, keys, T, H)
    _, real = replay_actions(env, starts, [traj.steps.actions[:len(history) - 1]
                                           for traj, history in zip(trajectories, histories)])
    imagined = np.array([traj.success for traj in trajectories])
    spurious = int((imagined & ~real).sum())
    missed = int((real & ~imagined).sum())
    return {
        "rate": (spurious + missed) / n,
        "spurious": spurious / n,
        "missed": missed / n,
        "n": n,
    }


def horizon_error(wm, policy, params, env, task: TaskSpec, horizons,
                  n: int, T: int, H: int, seed: int) -> list[tuple[int, float]]:
    """Mean squared state error of closed-loop model replay at each horizon.

    The n episodes run through rollout's lockstep loop in the real env (an
    OracleWorldModel) for max(horizons) frames, under a reward that never
    fires (success does not stop the recording; every horizon needs a state).
    The chunk each step recorded is then replayed through the model
    closed-loop from the same starts, one wm.predict_chunk call per chunk step
    over one (n, depth + 1, d) frame array. Episode i draws from
    derive_rng(seed, i, ·): its start from stream 0 (reset_starts), its policy
    from 1 and the model from 2, each derived for all n episodes in one
    derive_rngs call, and the model stream draws the episode's whole replay
    noise, (depth/H, wm.noise_width), in one call (draw_noise); a model of
    noise_width 0 (an OracleWorldModel) derives no model stream and draws
    nothing. The curve pairs each horizon L with the mean over episodes of the
    state MSE at frame L. The horizons obey core.validate_config's
    eval.horizons rule (H is run.chunk, T run.max_episode_len).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    depth = horizons[-1]
    tasks, keys = [task] * n, [(seed, i) for i in range(n)]
    starts = reset_starts(env, tasks, keys)
    trajectories, real_states = _roll_group(policy, params, OracleWorldModel(env),
                                            lambda frames, _tasks: np.zeros(len(frames), bool),
                                            tasks, starts, keys, depth, H)
    # model replay of the same chunks, closed loop on its own frames
    model_noise = (draw_noise(derive_rngs([(seed, i, 2) for i in range(n)]), depth // H,
                              wm.noise_width) if wm.noise_width
                   else np.empty((n, depth // H, 0)))
    model_states = np.empty((n, depth + 1, env.state_dim))
    model_states[:, 0] = starts
    rows = np.arange(n)
    # each chunk step's chunks of every episode, (n, H, a_dim), in step order
    for k, chunks in enumerate(np.stack([traj.steps.chunk for traj in trajectories], axis=1)):
        model_states[:, k * H + 1:(k + 1) * H + 1] = wm.predict_chunk(
            model_states, rows, k * H + 1, task, chunks, model_noise[:, k])
    return [(h, float(np.mean([np.mean((real[h] - model[h]) ** 2)
                               for real, model in zip(real_states, model_states)])))
            for h in horizons]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


@dataclass
class EvalReport:
    """One evaluation bundle; any metric may be absent (None)."""

    seeds: list = field(default_factory=list)
    checkpoint_hashes: dict = field(default_factory=dict)
    success_rate: float | None = None
    sr_trials: int | None = None
    hallucination: dict | None = None
    horizon_curve: list | None = None

    def validate(self):
        halluc, curve = self.hallucination or {}, self.horizon_curve or []
        rates = [self.success_rate, *(halluc.get(k) for k in ("rate", "spurious", "missed"))]
        hs = [h for h, _ in curve]
        for ok, message in (
                (all(r is None or 0.0 <= r <= 1.0 for r in rates), "rates must lie in [0, 1]"),
                (not halluc or abs(halluc["rate"] - halluc["spurious"] - halluc["missed"])
                 <= 1e-9, "hallucination rate must be spurious + missed"),
                (not halluc or _is_int(halluc.get("n")) and halluc["n"] >= 1,
                 "hallucination n must be a positive int"),
                (self.sr_trials is None or self.sr_trials >= 1, "sr_trials must be >= 1"),
                (all(h > 0 for h in hs), "horizons must be positive"),
                (sorted(set(hs)) == hs, "horizon list must be strictly increasing"),
                # NaN passes: a diverged model's curve is still a report
                (not any(mse < 0 for _, mse in curve), "horizon MSE must be non-negative")):
            if not ok:
                raise ValueError(message)
        return self

    @classmethod
    def from_json(cls, text: str | bytes) -> "EvalReport":
        """Parse an eval.json; anything but a well-formed report is MalformedHeader."""
        raw = read_json(text, "eval report")
        halluc, curve = raw.get("hallucination"), raw.get("horizon_curve")
        for name, ok in (
                ("seeds", isinstance(raw.get("seeds", []), list)),
                ("checkpoint_hashes", isinstance(raw.get("checkpoint_hashes", {}), dict)),
                ("success_rate", raw.get("success_rate") is None
                 or _is_number(raw["success_rate"])),
                ("sr_trials", raw.get("sr_trials") is None or _is_int(raw["sr_trials"])),
                ("hallucination", halluc is None or isinstance(halluc, dict) and all(
                    _is_number(halluc.get(key)) for key in ("rate", "spurious", "missed"))),
                ("horizon_curve", curve is None or isinstance(curve, list) and all(
                    isinstance(pair, list) and len(pair) == 2 and _is_int(pair[0])
                    and _is_number(pair[1]) for pair in curve))):
            if not ok:
                raise MalformedHeader(f"eval report field {name!r} is malformed")
        report = cls(
            seeds=raw.get("seeds", []),
            checkpoint_hashes=raw.get("checkpoint_hashes", {}),
            success_rate=raw.get("success_rate"),
            sr_trials=raw.get("sr_trials"),
            hallucination=halluc,
            horizon_curve=None if curve is None else [(h, float(e)) for h, e in curve],
        )
        try:
            return report.validate()
        except ValueError as exc:
            raise MalformedHeader(f"eval report: {exc}") from exc

    def write(self, json_path, csv_path=None):
        write_json(json_path, asdict(self))
        if csv_path is not None and self.horizon_curve is not None:
            lines = ["horizon,mse"]
            lines += [f"{h},{e!r}" for h, e in self.horizon_curve]
            with open(csv_path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
