"""Staged training pipeline: collect, model, imagined RL, then K rounds of
collect, refine, imagined RL.

The pipeline alternates between touching the real environment (K + 1
budgeted collection stages) and consuming it only through the learned world
model (the RL stages). A step-counting wrapper audits that separation: the
audit records the rollout budget and every stage's real env steps, and a run
in which a stage other than a collection steps the real env aborts.

run_pipeline writes each checkpoint to its run directory as the stage that
makes it ends, and rewrites manifests.json, logs.json and audit.json after
every stage. A run that aborts, on an error or an interrupt, leaves the
checkpoints and records of every stage that finished, and an audit whose
last row is the stage that failed, marked "failed" with its error.
"""

from __future__ import annotations

import logging
from collections import deque
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import nn
from .core import (InvariantViolation, TaskSpec, config_hash, derive_rng,
                   derive_seeds, params_hash, task_features, write_json)
from .envs import CountingEnv, replay_episodes
from .grpo import ChunkPolicy, build_group, grpo_update
from .nn import tmean, value_and_grad
# predict_success is not called here: bench/tracing.py wraps it (test_trace_targets_resolve)
from .reward import (RewardNet, label_episode_frames, predict_success,  # noqa: F401
                     sparse_reward, success_probs, train_classifier)
from .rollout import (KEYFRAME_CAPACITY, GroupSpec, GroupSpecs, harvest_keyframes,
                      rollout_imagined, rollout_real, round_robin, sample_start)
from .worldmodel import LearnedWorldModel, WmNet, train_wm, window_counts

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# Behavior cloning


def clone_base_policy(demos, policy: ChunkPolicy, rng: np.random.Generator,
                      clone: dict) -> tuple[dict, list[float]]:
    """Fit the Gaussian policy to demonstration chunks by maximum likelihood.

    clone is the config's clone section: epochs, batch_size and Adam's lr.
    Minimizes the mean negative chunk log-density over every recorded
    (observation, chunk) pair. With zero epochs the fresh initialization is
    returned untouched. The log-std vector absorbs whatever residual the mean
    cannot fit, so demos recorded under action noise yield a policy whose
    exploration scale matches that noise.
    """
    demos = [d for d in demos if len(d.steps)]
    if not demos:
        raise ValueError("no demonstration steps")
    feats = np.concatenate([task_features(d.steps.obs, d.task, policy.n_tasks) for d in demos])
    chunks = np.concatenate([d.steps.chunk.reshape(len(d.steps), policy.flat) for d in demos])
    params = policy.init(rng)
    losses: list[float] = []
    opt = nn.adam_init(params)
    n, batch_size = len(feats), clone["batch_size"]
    for _ in range(clone["epochs"]):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, batch_size):
            idx = order[lo:lo + batch_size]
            value, grads = value_and_grad(
                lambda leaves: -tmean(policy.logprob(leaves, feats[idx], chunks[idx])),
                params)
            if not np.isfinite(value):
                raise FloatingPointError("behavior cloning diverged")
            params = policy.clamp(nn.adam_step(params, grads, opt, lr=clone["lr"]))
            batch_losses.append(value)
        losses.append(float(np.mean(batch_losses)))
    return params, losses


# ---------------------------------------------------------------------------
# World-model refinement


def refine_wm(net: WmNet, base_params: dict, new_episodes, retained_episodes,
              rng: np.random.Generator, cfg: dict):
    """Fine-tune the model from its base checkpoint on a data mixture.

    train_wm runs with cfg's refine section and wm.p_noisy on a mixture: every
    window of the new (evolved-policy) episodes, plus retained base episodes
    until new windows make up roughly plan.refine_mix_new of the total, which
    guards against forgetting the base distribution.

    Returns (params, per-epoch losses, info) where info logs the realized
    mixture and the parameter distance from the base checkpoint. New episodes
    too short for one prediction window leave nothing to refine on: the base
    checkpoint comes back unchanged, with no losses.
    """
    if not new_episodes:
        raise ValueError("no evolved episodes to refine on")
    mix_new = cfg["plan"]["refine_mix_new"]
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
    if n_new:
        params, losses = train_wm(list(new_episodes) + kept, net, rng,
                                  {**cfg["refine"], "p_noisy": cfg["wm"]["p_noisy"]},
                                  init_params=base_params)
    else:
        log.warning("no evolved episode is long enough for a full prediction "
                    "window; keeping the base world model")
        params, losses = base_params, []
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
                 reward_net: RewardNet, cfg: dict, out_dir, *,
                 demos: list | None = None) -> dict:
    """Run the staged pipeline end to end, writing its artifacts into out_dir,
    an existing directory, as each stage ends; return the audit.

    cfg is a validated config dict (see core.DEFAULTS): the stage structure
    and budgets come from its run and plan sections, the training
    hyperparameters from wm, refine, reward and rl. The base stages
    (collection, reward-classifier and model training, imagined RL to policy
    stage1) precede K = plan.refinements co-evolution rounds. Round r
    collects run.n_evo real episodes under the round r-1 policy, refines the
    round r-1 model on them plus every episode earlier models trained on, and
    trains policy stage{r+1} in the result. Each RL stage's keyframes start
    as its collection's real failures. Round r derives from tags 15/16/17 +
    100 * (r - 1), so round 1 keeps the one-round streams. Rounds repeat the
    stage names collect_evo, refine_wm and rl_evo; the wm_evo checkpoint, its
    manifest and logs and the collect_evo manifest hold the last round. The
    reward classifier is trained once, on the base collection, and stays
    fixed. The audit records the rollout budget, run.n_base + run.n_evo * K,
    and each stage's real env steps and resets. Real env steps may occur
    only in the K + 1 collections: a run in which any other stage steps the
    real env fails at that stage with InvariantViolation.

    Each checkpoint is saved once the stage that makes it ends:
    policy_base.wovc, reward.wovc, wm_base.wovc, policy_stage<k>.wovc,
    wm_evo.wovc, and last policy.wovc. After each stage's audit row,
    manifests.json, logs.json and audit.json are rewritten. A stage that
    raises anything, KeyboardInterrupt included, gets a row marked failed,
    whose error names the exception's type and message; the records are
    written and the exception propagates unchanged. So an
    aborted run's directory holds every earlier stage's checkpoints and
    records, and an audit whose last row names the stage that failed.

    When the cloning demos are passed in, their frames (reconstructed by
    replaying the stored actions, so no counted interaction happens) are
    added to the classifier and base-model corpora. Success frames are a
    sliver of what a weak base policy collects, so the demos feed mainly the
    classifier's positives. They give the model few windows: a window needs
    run.chunk actions after its frame, and a demo is cut at its success
    frame. At seeds 0-2 the 16 default demos give no window on reachpoint,
    and 20-23 on pickplace2d, where 4-6 of them give none.
    """
    out = Path(out_dir)
    counter = env if isinstance(env, CountingEnv) else CountingEnv(env)
    seed, run, plan, rl = cfg["seed"], cfg["run"], cfg["plan"], cfg["rl"]
    T, H = run["max_episode_len"], run["chunk"]
    n_base, n_evo = run["n_base"], run["n_evo"]
    cfg_hash = config_hash(cfg)
    # replay against the unwrapped env: stored data, not new interaction
    demo_eps = replay_episodes(counter.env, demos) if demos else []

    manifests = {"run": {"config": cfg_hash, "env": counter.name}}
    logs, rows = {}, []
    audit = {"budget": n_base + n_evo * plan["refinements"], "stages": rows}

    def write_records():
        audit.update(trajectories_total=sum(row.get("trajectories", 0) for row in rows),
                     env_steps_total=sum(row["env_steps"] for row in rows),
                     env_resets_total=sum(row["env_resets"] for row in rows))
        for name, blob in (("manifests", manifests), ("logs", logs), ("audit", audit)):
            write_json(out / f"{name}.json", blob)

    @contextmanager
    def stage(name):
        row = {"stage": name}
        s0, r0 = counter.steps, counter.resets
        try:
            yield row
            if name not in ("collect_base", "collect_evo") and counter.steps != s0:
                raise InvariantViolation(f"real env steps leaked into stage {name!r}")
        except BaseException as exc:
            row.update(failed=True, error=f"{type(exc).__name__}: {exc}")
            log.error("stage %r failed; %s holds the stages before it", name, out)
            raise
        finally:
            row.update(env_steps=counter.steps - s0, env_resets=counter.resets - r0)
            rows.append(row)
            write_records()

    keyframes = deque(maxlen=KEYFRAME_CAPACITY)

    def collect(name, params, n, tag):
        with stage(name) as row:
            tasks, seeds = round_robin(counter.n_tasks, n, seed, tag)
            trajs, frames = rollout_real(policy, params, counter, tasks, n, T, H, seeds,
                                         record_frames=True)
            # the next RL stage restarts only from this collection's failures
            keyframes.clear()
            harvest_keyframes(trajs, rl["keyframe_k"], keyframes)
            row["trajectories"] = n
        manifests[name] = {"policy": params_hash(params), "n": n, "config": cfg_hash}
        return frames

    frames_base = collect("collect_base", base_params, n_base, 11)
    nn.save_params(out / "policy_base.wovc", base_params)

    with stage("train_reward"):
        states, task_ids, labels = label_episode_frames(frames_base + demo_eps, counter)
        reward_params, reward_losses = train_classifier(
            (states, task_ids, labels), reward_net, derive_rng(seed, 12), cfg["reward"])
    nn.save_params(out / "reward.wovc", reward_params)
    logs["reward"] = reward_losses
    manifests["reward"] = {"params": params_hash(reward_params),
                           "trained_on": "collect_base",
                           "n_examples": len(labels),
                           "n_demo_episodes": len(demo_eps),
                           "config": cfg_hash}

    reward_fn = LearnedReward(reward_net, reward_params, rl["reward_threshold"])

    wm_corpus = frames_base + demo_eps
    with stage("train_wm_base"):
        wm_base_params, wm_base_losses = train_wm(
            wm_corpus, wm_net, derive_rng(seed, 13), cfg["wm"])
    nn.save_params(out / "wm_base.wovc", wm_base_params)
    logs["wm_base"] = wm_base_losses
    manifests["wm_base"] = {"params": params_hash(wm_base_params),
                            "n_episodes": len(wm_corpus),
                            "n_demo_episodes": len(demo_eps),
                            "config": cfg_hash}

    def imagined_rl(name, label, params, wm_params, tag):
        with stage(name):
            wm = LearnedWorldModel(wm_net, wm_params, run["diffusion_steps"])
            params, rl_logs = _rl_stage(policy, params, wm, reward_fn, counter, cfg,
                                        keyframes, tag=tag)
        nn.save_params(out / f"policy_{label}.wovc", params)
        logs.setdefault("rl", []).append(rl_logs)
        manifests[f"policy_{label}"] = {"params": params_hash(params),
                                        "wm": params_hash(wm_params),
                                        "config": cfg_hash}
        return params

    params = imagined_rl("rl_base", "stage1", base_params, wm_base_params, 14)

    wm_params, retained = wm_base_params, wm_corpus
    for r in range(1, plan["refinements"] + 1):
        shift = 100 * (r - 1)
        frames_evo = collect("collect_evo", params, n_evo, 15 + shift)
        with stage("refine_wm"):
            wm_evo_params, wm_evo_losses, refine_info = refine_wm(
                wm_net, wm_params, frames_evo, retained, derive_rng(seed, 16 + shift), cfg)
        nn.save_params(out / "wm_evo.wovc", wm_evo_params)
        logs["wm_evo"] = wm_evo_losses
        logs["refine"] = refine_info
        manifests["wm_evo"] = {"params": params_hash(wm_evo_params),
                               "base": params_hash(wm_params),
                               "mix_new": refine_info["mix_new_realized"],
                               "param_distance": refine_info["param_distance"],
                               "config": cfg_hash}
        params = imagined_rl("rl_evo", f"stage{r + 1}", params, wm_evo_params, 17 + shift)
        wm_params, retained = wm_evo_params, retained + frames_evo

    nn.save_params(out / "policy.wovc", params)
    write_records()
    return audit


class LearnedReward:
    """The classifier's success probability, thresholded: the reward imagined
    RL trains on and `wovr eval --metric halluc` measures the simulator with.

    batch(frames (N, d), tasks) -> (N,) bool, rollout's scorer, scores frames
    in one forward, tasks one TaskSpec or per-row task ids. It is a pure
    function of the frame, so scoring frames past a member's first hit
    changes nothing. A batched row's logit can differ from a single-row one
    in its last bits (the matmul sums in another order), which matters only
    for a probability that close to the threshold. params holds read-only
    views of the given arrays (nn.read_only), so a rollout cannot write to
    the reward.
    """

    def __init__(self, net: RewardNet, params: dict, threshold: float):
        self.net = net
        self.params = nn.read_only(params)
        self.threshold = threshold

    def batch(self, frames, tasks) -> np.ndarray:
        return sparse_reward(success_probs(self.net, self.params,
                                           task_features(frames, tasks, self.net.n_tasks)),
                             self.threshold)


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


def start_key(seed: int, tag: int) -> tuple:
    """An RL stage's start stream key: five words, since SeedSequence pads a
    shorter key with zeros to a group key (seed, tag, u, g)."""
    return (seed, tag, 3, 0, 0)


def _rl_stage(policy, params, wm, reward_fn, env, cfg, keyframes, tag):
    """One imagined-RL stage: plan.rl_updates_per_stage GRPO updates.

    The policy learns in the simulator wm, any world model rollout_imagined
    accepts (LearnedWorldModel, or OracleWorldModel for true dynamics), under
    reward_fn, any reward rollout_imagined accepts (LearnedReward, or the true
    success predicate). Each update rolls out against read-only policy params,
    then applies the GRPO step (run_iteration). An update first draws the
    start of each of its plan.groups_per_update groups, in group order: one
    of its task's keyframes with probability run.kir_fraction (sample_start),
    else an env reset, from the stage's one start stream (start_key). It
    then rolls every member of every group out in one lockstep batch (one
    rollout_imagined call over a GroupSpecs; group g's member i draws from
    derive_rng(derive_seed(seed, tag, u, g), i, ·), and the update's group
    seeds come from one derive_seeds call), and only then harvests each
    group's failures into keyframes, in group order.
    So a start of update u never draws a keyframe harvested in update u; at
    the default groups_per_update == n_tasks each task starts once per
    update, and this timing changes no draw. The env is touched only to draw
    initial start states (resets, never steps). Each update's log record
    counts zero_adv_groups, the groups whose returns are all equal: their
    advantages are all zero and they carry no gradient.
    """
    seed, run, plan, rl = cfg["seed"], cfg["run"], cfg["plan"], cfg["rl"]
    start_rng = derive_rng(*start_key(seed, tag))
    n_tasks = env.n_tasks
    T, H, G = run["max_episode_len"], run["chunk"], run["group_size"]
    groups_per_update = plan["groups_per_update"]
    opt, logs = None, []

    def rollout_fn(pol_params, wm, reward_fn):
        specs = []
        for g in range(groups_per_update):
            task = TaskSpec((u * groups_per_update + g) % n_tasks)
            start, kind = sample_start(
                keyframes, task, run["kir_fraction"],
                lambda r: env.reset_state(task, r), start_rng)
            specs.append(GroupSpec(task, start, kind, G))
        trajs = rollout_imagined(policy, pol_params, wm, reward_fn, GroupSpecs(specs), T, H,
                                 derive_seeds([(seed, tag, u, g)
                                               for g in range(groups_per_update)]))
        groups = []
        for g in range(groups_per_update):
            members = trajs[g * G:(g + 1) * G]
            harvest_keyframes(members, rl["keyframe_k"], keyframes)
            groups.append(build_group(members))
        return groups, [spec.start_kind for spec in specs]

    def trainer_fn(rollouts):
        nonlocal params, opt
        groups, kinds = rollouts
        params, opt, stats = grpo_update(policy, params, groups, run["clip_eps"],
                                         rl["inner_epochs"], rl["lr"], opt)
        record = {"update": u,
                  "imagined_success": float(np.mean(
                      [t.success for g in groups for t in g.trajectories])),
                  "kir_groups": kinds.count("keyframe"),
                  "zero_adv_groups": sum(not np.any(g.advantages) for g in groups)}
        record.update(stats)
        return record

    for u in range(plan["rl_updates_per_stage"]):
        logs.append(run_iteration(params, wm, reward_fn, rollout_fn, trainer_fn))
    return params, logs
