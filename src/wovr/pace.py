"""Staged training pipeline: collect, model, imagined RL, refine, RL again.

The pipeline alternates between touching the real environment (two budgeted
collection stages) and consuming it only through the learned world model (the
RL stages). A step-counting wrapper audits that separation: training stages
must leave the real step counter untouched, and the two collections must
account for the entire rollout budget, exactly.
"""

from __future__ import annotations

import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .core import (InvariantViolation, TaskSpec, config_hash, derive_rng,
                   derive_seed, params_hash)
from .envs import CountingEnv, replay_frames
from .grpo import ChunkPolicy, build_group, grpo_update
from .nn import tmean, value_and_grad
from .reward import (RewardNet, label_episode_frames, predict_success,
                     sparse_reward, success_probs, train_classifier)
from .rollout import (GroupSpec, KeyframeBuffer, collect_real, harvest_keyframes,
                      rollout_imagined, rollout_real, sample_start)
from .worldmodel import LearnedWorldModel, WmNet, train_wm, window_counts

log = logging.getLogger(__name__)

STAGES = ("collect_base", "train_reward", "train_wm_base", "rl_base",
          "collect_evo", "refine_wm", "rl_evo")


@dataclass
class PaceArtifacts:
    """Everything a finished (or aborted) run leaves behind.

    policy is the final checkpoint; policy_stages keeps the per-stage ones.
    All manifests carry the hash of the producing config, so any artifact can
    be traced back to the exact run that made it.
    """

    policy: dict | None = None
    policy_stages: dict = field(default_factory=dict)
    wm_base: dict | None = None
    wm_evo: dict | None = None
    reward: dict | None = None
    manifests: dict = field(default_factory=dict)
    logs: dict = field(default_factory=dict)
    audit: dict = field(default_factory=dict)
    frames_base: list = field(default_factory=list)
    frames_evo: list = field(default_factory=list)

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        checkpoints = {"wm_base": self.wm_base, "wm_evo": self.wm_evo,
                       "reward": self.reward, "policy": self.policy}
        for name, params in self.policy_stages.items():
            checkpoints[f"policy_{name}"] = params
        for name, params in checkpoints.items():
            if params is not None:
                nn.save_params(out / f"{name}.wovc", params)
        for name, blob in (("manifests", self.manifests), ("logs", self.logs),
                           ("audit", self.audit)):
            with open(out / f"{name}.json", "w") as f:
                json.dump(blob, f, indent=1, sort_keys=True, default=_to_py)


def _to_py(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


class StageFailure(RuntimeError):
    """A pipeline stage raised; partial artifacts are preserved on it."""

    def __init__(self, stage: str, artifacts: PaceArtifacts, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.artifacts = artifacts


# ---------------------------------------------------------------------------
# Behavior cloning


def clone_base_policy(demos, policy: ChunkPolicy, rng: np.random.Generator,
                      epochs: int = 60, batch_size: int = 64,
                      lr: float = 1e-3) -> tuple[dict, list[float]]:
    """Fit the Gaussian policy to demonstration chunks by maximum likelihood.

    Minimizes the mean negative chunk log-density over every recorded
    (observation, chunk) pair. With zero epochs the fresh initialization is
    returned untouched. The log-std vector absorbs whatever residual the mean
    cannot fit, so demos recorded under action noise yield a policy whose
    exploration scale matches that noise.
    """
    if not demos:
        raise ValueError("no demonstrations")
    feats = np.stack([policy.features(s.obs, d.task) for d in demos for s in d.steps])
    chunks = np.stack([s.chunk.reshape(-1) for d in demos for s in d.steps])
    params = policy.init(rng)
    losses: list[float] = []
    if epochs == 0:
        return params, losses
    opt = nn.adam_init(params)
    n = len(feats)
    for _ in range(epochs):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, batch_size):
            idx = order[lo:lo + batch_size]
            value, grads = value_and_grad(
                lambda leaves: -tmean(policy.logprob(leaves, feats[idx], chunks[idx])),
                params)
            if not np.isfinite(value):
                raise FloatingPointError("behavior cloning diverged")
            params = policy.clamp(nn.adam_step(params, grads, opt, lr=lr))
            batch_losses.append(value)
        losses.append(float(np.mean(batch_losses)))
    return params, losses


# ---------------------------------------------------------------------------
# World-model refinement


def refine_wm(net: WmNet, base_params: dict, new_episodes, retained_episodes,
              rng: np.random.Generator, epochs: int = 10, batch_size: int = 64,
              lr: float = 3e-4, mix_new: float = 0.7, p_noisy: float = 0.5,
              t_ctx_max: float = 0.2, lr_floor: float = 0.1,
              manifest: dict | None = None,
              expected_policy_hash: str | None = None):
    """Fine-tune the model from its base checkpoint on a data mixture.

    The mixture keeps every window of the new (evolved-policy) episodes and
    subsamples retained base episodes until new windows make up roughly
    mix_new of the total, guarding against forgetting the base distribution.
    When a collection manifest is supplied, the recorded collecting-policy
    hash must match the expected one; a mismatch means the batch on disk is
    not the one this refinement was planned around.

    Returns (params, per-epoch losses, info) where info logs the realized
    mixture and the parameter distance from the base checkpoint.
    """
    if manifest is not None:
        recorded = manifest.get("policy")
        if recorded != expected_policy_hash:
            raise InvariantViolation(
                "evolved batch manifest does not match the collecting policy")
    if not new_episodes:
        raise ValueError("no evolved episodes to refine on")
    if not 0.0 < mix_new <= 1.0:
        raise ValueError("mix_new must lie in (0, 1]")
    n_new = int(window_counts(new_episodes, net.horizon).sum())
    target_old = int(round(n_new * (1.0 - mix_new) / mix_new))
    kept, n_kept = [], 0
    if target_old > 0 and retained_episodes:
        counts = window_counts(retained_episodes, net.horizon)
        for i in rng.permutation(len(retained_episodes)):
            kept.append(retained_episodes[i])
            n_kept += int(counts[i])
            if n_kept >= target_old:
                break
    episodes = list(new_episodes) + kept
    params, losses = train_wm(episodes, net, rng, epochs=epochs,
                              batch_size=batch_size, lr=lr, p_noisy=p_noisy,
                              t_ctx_max=t_ctx_max, init_params=base_params,
                              lr_floor=lr_floor)
    distance = float(np.sqrt(sum(np.sum((params[k] - base_params[k]) ** 2)
                                 for k in params)))
    realized = n_new / (n_new + n_kept) if n_new else 0.0
    info = {"mix_new_target": mix_new, "mix_new_realized": realized,
            "n_new_windows": n_new, "n_retained_windows": n_kept,
            "param_distance": distance}
    log.info("refined wm: %d new + %d retained windows (new share %.3f), "
             "param distance %.4f", n_new, n_kept, realized, distance)
    return params, losses, info


# ---------------------------------------------------------------------------
# Pipeline


def run_pipeline(env, policy: ChunkPolicy, base_params: dict, wm_net: WmNet,
                 reward_net: RewardNet, cfg: dict, *,
                 demos: list | None = None) -> PaceArtifacts:
    """Run the staged pipeline end to end and return its artifacts.

    cfg is a validated config dict (see core.DEFAULTS): the stage structure
    and budgets come from its run and plan sections, the training
    hyperparameters from wm, refine, reward and rl. Stage order is fixed:
    base collection, reward-classifier training, base model training,
    imagined RL, then (with plan.refinements=1) evolved collection under the
    stage-one policy, model refinement, and a second RL stage. The reward
    classifier is trained once, on the base collection, and stays fixed.
    Real env steps may occur only in the two collection stages; every other
    stage must leave the step counter unchanged, and the total number of
    collected trajectories must equal the budget,
    run.n_base + run.n_evo * plan.refinements. Violations abort the run. A
    stage that raises is wrapped in StageFailure carrying the artifacts
    produced so far.

    When the cloning demos are passed in, their frames (reconstructed by
    replaying the stored actions, so no counted interaction happens) are
    added to the classifier and base-model corpora. Success frames are a
    sliver of what a weak base policy collects, so the demos carry most of
    the positive class and nearly all of the carry-and-release dynamics.
    """
    counter = env if isinstance(env, CountingEnv) else CountingEnv(env)
    seed, run, plan = cfg["seed"], cfg["run"], cfg["plan"]
    w, f, r, rl = cfg["wm"], cfg["refine"], cfg["reward"], cfg["rl"]
    T, H = run["max_episode_len"], run["chunk"]
    n_base, n_evo = run["n_base"], run["n_evo"]
    budget = n_base + n_evo * plan["refinements"]
    cfg_hash = config_hash(cfg)
    # replay against the unwrapped env: stored data, not new interaction
    demo_eps = [replay_frames(counter.env, d) for d in demos] if demos else []

    art = PaceArtifacts()
    art.manifests["run"] = {"config": cfg_hash, "env": counter.name}
    art.audit = {"budget": budget, "stages": []}
    collected = {"n": 0}

    @contextmanager
    def stage(name):
        row = {"stage": name}
        s0, r0 = counter.steps, counter.resets
        try:
            yield row
        except Exception as exc:
            row.update(env_steps=counter.steps - s0,
                       env_resets=counter.resets - r0, failed=True)
            art.audit["stages"].append(row)
            raise StageFailure(name, art, exc) from exc
        row.update(env_steps=counter.steps - s0, env_resets=counter.resets - r0)
        art.audit["stages"].append(row)

    def collect(params, n, tag):
        if collected["n"] + n > budget:
            raise InvariantViolation(f"real rollout budget exhausted: {collected['n']} of "
                                     f"{budget} collected, {n} more asked for")
        out = collect_real(policy, params, counter, n, T, H, seed, tag, roll=rollout_real)
        collected["n"] += n
        return out

    buffer = KeyframeBuffer()

    with stage("collect_base") as row:
        trajs_base, frames_base = collect(base_params, n_base, 11)
        harvest_keyframes(trajs_base, rl["keyframe_k"], buffer)
        row["trajectories"] = n_base
    art.frames_base = frames_base
    art.policy_stages["base"] = base_params
    art.manifests["collect_base"] = {"policy": params_hash(base_params),
                                     "n": n_base, "config": cfg_hash}

    with stage("train_reward"):
        examples = label_episode_frames(frames_base + demo_eps, counter)
        reward_params, reward_losses = train_classifier(
            examples, reward_net, derive_rng(seed, 12), epochs=r["epochs"],
            batch_size=r["batch_size"], lr=r["lr"],
            max_neg_ratio=r["neg_ratio"], pos_weight=r["pos_weight"])
    art.reward = reward_params
    art.logs["reward"] = reward_losses
    art.manifests["reward"] = {"params": params_hash(reward_params),
                               "trained_on": "collect_base",
                               "n_examples": len(examples),
                               "n_demo_episodes": len(demo_eps),
                               "config": cfg_hash}

    reward_fn = LearnedReward(reward_net, reward_params, rl["reward_threshold"])

    wm_corpus = frames_base + demo_eps
    with stage("train_wm_base"):
        wm_base_params, wm_base_losses = train_wm(
            wm_corpus, wm_net, derive_rng(seed, 13), epochs=w["epochs"],
            batch_size=w["batch_size"], lr=w["lr"], p_noisy=w["p_noisy"])
    art.wm_base = wm_base_params
    art.logs["wm_base"] = wm_base_losses
    art.manifests["wm_base"] = {"params": params_hash(wm_base_params),
                                "n_episodes": len(wm_corpus),
                                "n_demo_episodes": len(demo_eps),
                                "config": cfg_hash}

    with stage("rl_base"):
        entry = dict(base_params)
        if rl["explore_log_std"] is not None:
            key = f"{policy.name}.log_std"
            entry[key] = np.maximum(entry[key], rl["explore_log_std"])
        wm_base = LearnedWorldModel(wm_net, wm_base_params, run["diffusion_steps"])
        params_s1, rl_logs_1 = _rl_stage(policy, entry, wm_base, reward_fn, counter,
                                         cfg, buffer, tag=14)
    art.policy_stages["stage1"] = params_s1
    art.logs["rl"] = [rl_logs_1]
    art.manifests["policy_stage1"] = {"params": params_hash(params_s1),
                                      "wm": params_hash(wm_base_params),
                                      "config": cfg_hash}

    if plan["refinements"] == 0:
        art.policy = params_s1
        _finalize_audit(art, plan, budget, collected["n"])
        return art

    with stage("collect_evo") as row:
        trajs_evo, frames_evo = collect(params_s1, n_evo, 15)
        row["trajectories"] = n_evo
    art.frames_evo = frames_evo
    manifest_evo = {"policy": params_hash(params_s1), "n": n_evo,
                    "config": cfg_hash}
    art.manifests["collect_evo"] = manifest_evo

    with stage("refine_wm"):
        wm_evo_params, wm_evo_losses, refine_info = refine_wm(
            wm_net, wm_base_params, frames_evo, wm_corpus,
            derive_rng(seed, 16), epochs=f["epochs"],
            batch_size=f["batch_size"], lr=f["lr"], p_noisy=w["p_noisy"],
            mix_new=plan["refine_mix_new"], manifest=manifest_evo,
            expected_policy_hash=params_hash(params_s1))
    art.wm_evo = wm_evo_params
    art.logs["wm_evo"] = wm_evo_losses
    art.logs["refine"] = refine_info
    art.manifests["wm_evo"] = {"params": params_hash(wm_evo_params),
                               "base": params_hash(wm_base_params),
                               "mix_new": refine_info["mix_new_realized"],
                               "param_distance": refine_info["param_distance"],
                               "config": cfg_hash}

    with stage("rl_evo"):
        # stage two restarts only from the evolved policy's failures
        buffer.clear()
        harvest_keyframes(trajs_evo, rl["keyframe_k"], buffer)
        wm_evo = LearnedWorldModel(wm_net, wm_evo_params, run["diffusion_steps"])
        params_s2, rl_logs_2 = _rl_stage(policy, params_s1, wm_evo, reward_fn, counter,
                                         cfg, buffer, tag=17)
    art.policy_stages["stage2"] = params_s2
    art.logs["rl"].append(rl_logs_2)
    art.manifests["policy_stage2"] = {"params": params_hash(params_s2),
                                      "wm": params_hash(wm_evo_params),
                                      "config": cfg_hash}

    art.policy = params_s2
    _finalize_audit(art, plan, budget, collected["n"])
    return art


class LearnedReward:
    """The classifier's success probability, thresholded: the reward imagined
    RL trains on and `wovr eval --metric halluc` measures the simulator with.

    reward(frame, task) -> 0/1 scores one frame; batch(frames (N, d), task)
    -> (N,) bool scores many in one forward, which rollout's lockstep loop
    uses for every active member's chunk at once. Both are pure functions of
    the frame, so scoring frames past a member's first hit changes nothing.
    A batched row's logit can differ from the single-row one in its last
    bits (the matmul sums in another order), which matters only for a
    probability that close to the threshold. params holds read-only views of
    the given arrays (nn.read_only), so a rollout cannot write to the reward.
    """

    def __init__(self, net: RewardNet, params: dict, threshold: float):
        self.net = net
        self.params = nn.read_only(params)
        self.threshold = threshold

    def __call__(self, frame, task) -> int:
        return sparse_reward(predict_success(self.net, self.params, frame, task),
                             self.threshold)

    def batch(self, frames, task) -> np.ndarray:
        probs = success_probs(self.net, self.params, self.net.features(frames, task))
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise ValueError("probability must lie in [0, 1]")
        return probs >= self.threshold


def run_iteration(params, wm, reward_fn, rollout_fn, trainer_fn):
    """One RL update: trainer_fn(rollout_fn(read-only params, wm, reward_fn)).

    The rollout phase gets write-protected views of the policy params
    (nn.read_only), so a rollout that writes to them raises ValueError; the
    caller's arrays are neither copied nor protected. The update is a
    function of its own, with the two phases as its positional arguments 3
    and 4, because the benchmark's tracer (bench/tracing.py) times each RL
    update as one span around it and each phase as a child span.
    """
    return trainer_fn(rollout_fn(nn.read_only(params), wm, reward_fn))


def _rl_stage(policy, params, wm, reward_fn, env, cfg, buffer, tag):
    """One imagined-RL stage: plan.rl_updates_per_stage GRPO updates.

    The policy learns in the simulator wm, any world model rollout_imagined
    accepts (LearnedWorldModel, or OracleWorldModel for true dynamics), under
    reward_fn, any reward rollout_imagined accepts (LearnedReward, or the true
    success predicate). Each update rolls out against read-only policy params,
    then applies the GRPO step (run_iteration). The env is touched only to
    draw initial start states (resets, never steps). Each update's log record
    counts zero_adv_groups, the groups whose returns are all equal: their
    advantages are all zero and they carry no gradient.
    """
    seed, run, plan, rl = cfg["seed"], cfg["run"], cfg["plan"], cfg["rl"]
    state = {"params": params, "opt": None}
    start_rng = derive_rng(seed, tag, 3)
    n_tasks = env.n_tasks
    T, H = run["max_episode_len"], run["chunk"]
    groups_per_update = plan["groups_per_update"]
    logs = []

    for u in range(plan["rl_updates_per_stage"]):
        def rollout_fn(pol_params, wm, reward_fn, _u=u):
            groups, kinds = [], []
            for g in range(groups_per_update):
                task = TaskSpec((_u * groups_per_update + g) % n_tasks)
                start, kind = sample_start(
                    buffer, task, run["kir_fraction"],
                    lambda r: env.reset_state(task, r), start_rng)
                spec = GroupSpec(task, start, kind, run["group_size"])
                trajs = rollout_imagined(policy, pol_params, wm, reward_fn, spec, T, H,
                                         derive_seed(seed, tag, _u, g))
                harvest_keyframes(trajs, rl["keyframe_k"], buffer)
                kinds.append(kind)
                groups.append(build_group(trajs, run["gamma"]))
            return groups, kinds

        def trainer_fn(rollouts, _u=u):
            groups, kinds = rollouts
            new_params, new_opt, glogs = grpo_update(
                policy, state["params"], groups, run["clip_eps"],
                rl["inner_epochs"], state["opt"], lr=rl["lr"])
            state["params"], state["opt"] = new_params, new_opt
            record = {"update": _u,
                      "mean_return": float(np.mean([g.returns.mean() for g in groups])),
                      "imagined_success": float(np.mean(
                          [t.success for g in groups for t in g.trajectories])),
                      "kir_groups": kinds.count("keyframe"),
                      "zero_adv_groups": sum(not np.any(g.advantages) for g in groups)}
            if glogs:
                record.update(glogs[-1])
            return record

        logs.append(run_iteration(state["params"], wm, reward_fn, rollout_fn, trainer_fn))
    return state["params"], logs


def _finalize_audit(art: PaceArtifacts, plan: dict, budget: int, n_collected: int):
    rows = art.audit["stages"]
    for row in rows:
        if row["stage"] not in ("collect_base", "collect_evo") and row["env_steps"]:
            raise InvariantViolation(
                f"real env steps leaked into stage {row['stage']!r}")
    if n_collected != budget:
        raise InvariantViolation(
            f"collected {n_collected} trajectories, budget is {budget}")
    order = [row["stage"] for row in rows]
    expected = list(STAGES[:4]) if plan["refinements"] == 0 else list(STAGES)
    if order != expected:
        raise InvariantViolation(f"stages ran out of order: {order}")
    art.audit["trajectories_total"] = n_collected
    art.audit["env_steps_total"] = sum(row["env_steps"] for row in rows)
    art.audit["env_resets_total"] = sum(row["env_resets"] for row in rows)
