"""Correctness gate, determinism hashes and quality metrics of one repetition.

Everything here runs after the timed region, against the artifacts the wovr
commands left in their run directories.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from wovr import nn
from wovr.cli import build_policy, build_reward_net, build_wm_net
from wovr.core import TaskSpec, derive_rng, derive_seed, params_hash, read_frames
from wovr.envs import get_env, replay_frames, scripted_demo
from wovr.evalx import hallucination_rate, horizon_error, success_rate
from wovr.reward import predict_success, sparse_reward
from wovr.rollout import GroupSpec, read_batch, rollout_imagined, rollout_real
from wovr.worldmodel import LearnedWorldModel, OracleWorldModel

# held-out seed tags: no wovr command derives streams from these
EVAL_TAG, ORACLE_TAG, HELDOUT_TAG = 9001, 9002, 9003
EVAL_N = 50         # real episodes per task for sr_base / sr_final
QUALITY_N = 20      # episodes per task for halluc_rate, wm_mse_h64, precision/recall
ORACLE_G = 4        # members per task in the oracle-identity check
HORIZON = 64


def run_dir(run_root: Path, command: str) -> Path:
    found = sorted(run_root.glob(f"{command}-*"))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one {command} run under {run_root}, found {len(found)}")
    return found[0]


def oracle_identity(env, policy, params, cfg, seed: int) -> bool:
    """rollout_imagined with the oracle model and true success ≡ rollout_real.

    Member i of a group and real episode i from the same start draw from the
    same derive_rng(seed, i, ·) streams, so trajectories must be bit-identical.
    """
    T, H, context = cfg["run"]["max_episode_len"], cfg["run"]["chunk"], cfg["run"]["context"]
    oracle = OracleWorldModel(env, context=context)

    def true_reward(frame, _task):
        return int(env.is_success(frame))

    for t in range(env.n_tasks):
        task = TaskSpec(t)
        member_seed = derive_seed(seed, ORACLE_TAG, t)
        start = env.reset_state(task, derive_rng(seed, ORACLE_TAG, t, 0))
        group = GroupSpec(task, start, "initial", ORACLE_G)
        imagined = rollout_imagined(policy, params, oracle, true_reward, group, T, H,
                                    member_seed)
        real = rollout_real(policy, params, env, task, ORACLE_G, T, H, member_seed,
                            starts=[start] * ORACLE_G)
        if imagined != real:
            return False
    return True


def file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_pace(run_root: Path, seed: int) -> dict:
    """Gate and hashes of a `wovr pace` run."""
    out_dir = run_dir(run_root, "pace")
    cfg = json.loads((out_dir / "resolved.json").read_text())
    audit = json.loads((out_dir / "audit.json").read_text())
    plan = cfg["plan"]
    env = get_env(cfg["env"])
    policy = build_policy(env, cfg)
    final = nn.load_params(out_dir / "policy.wovc")
    wm_name = "wm_evo" if plan["refinements"] else "wm_base"
    budget = cfg["run"]["n_base"] + cfg["run"]["n_evo"] * plan["refinements"]
    rows = audit["stages"]
    collect_steps = sum(r["env_steps"] for r in rows if r["stage"].startswith("collect"))
    checks = {
        "audit_budget_exact": audit["budget"] == audit["trajectories_total"] == budget,
        "audit_rl_zero_steps": all(r["env_steps"] == 0 for r in rows
                                   if not r["stage"].startswith("collect")),
        "audit_steps_total": audit["env_steps_total"] == collect_steps,
        "oracle_identity": oracle_identity(env, policy, final, cfg, seed),
    }
    members = (plan["rl_updates_per_stage"] * plan["groups_per_update"]
               * cfg["run"]["group_size"] * (1 + plan["refinements"]))
    hashes = {name: params_hash(nn.load_params(out_dir / f"{name}.wovc"))
              for name in ("policy", wm_name, "reward")}
    models = {"base": out_dir / "policy_base.wovc", "final": out_dir / "policy.wovc",
              "wm": out_dir / f"{wm_name}.wovc", "reward": out_dir / "reward.wovc",
              "wm_loss": json.loads((out_dir / "logs.json").read_text())[wm_name][-1]}
    return {"checks": checks, "hashes": hashes, "work_items": members,
            "failed_items": 0, "real_env_steps": audit["env_steps_total"],
            "cfg": cfg, "models": models}


def check_rl(run_root: Path, seed: int, inputs: dict) -> dict:
    """Gate and hashes of `wovr rl` in a fixed simulator.

    `wovr rl` itself exits 4 if imagined RL takes a real env step, so a run
    that got here took none; the real steps are those that built the simulator.
    """
    out_dir = run_dir(run_root, "rl")
    cfg = json.loads((out_dir / "resolved.json").read_text())
    sim = Path(inputs["sim"])
    sim_audit = json.loads((sim / "audit.json").read_text())
    plan = cfg["plan"]
    env = get_env(cfg["env"])
    final = nn.load_params(out_dir / "policy.wovc")
    logs = json.loads((out_dir / "rl_log.json").read_text())
    hashes = {"policy": params_hash(final)}
    hashes.update((name, params_hash(nn.load_params(inputs[name]))) for name in ("wm", "reward"))
    checks = {
        "rl_log_updates": len(logs) == plan["rl_updates_per_stage"],
        "oracle_identity": oracle_identity(env, build_policy(env, cfg), final, cfg, seed),
    }
    members = plan["rl_updates_per_stage"] * plan["groups_per_update"] * cfg["run"]["group_size"]
    models = {"base": Path(inputs["policy"]), "final": out_dir / "policy.wovc",
              "wm": Path(inputs["wm"]), "reward": Path(inputs["reward"]),
              "wm_loss": json.loads((sim / "logs.json").read_text())["wm_evo"][-1]}
    return {"checks": checks, "hashes": hashes, "work_items": members, "failed_items": 0,
            "real_env_steps": sim_audit["env_steps_total"], "cfg": cfg, "models": models}


def check_collect(run_root: Path, seed: int, policy_path: str) -> dict:
    """Gate and hashes of `wovr collect` + `wovr eval --metric sr`."""
    out_dir = run_dir(run_root, "collect")
    cfg = json.loads((out_dir / "resolved.json").read_text())
    trajectories, manifest = read_batch(out_dir / "trajectories.wovs")
    frames, env_name = read_frames(out_dir / "frames.wovf")
    n = manifest["n"]
    env = get_env(cfg["env"])
    params = nn.load_params(policy_path)
    H = cfg["run"]["chunk"]
    # every chunk runs all H real steps; frames stop at a mid-chunk success
    chunk_steps = sum(len(t.steps) for t in trajectories)
    frames_fit = all(H * (len(t.steps) - 1) < f.actions.shape[0] <= H * len(t.steps)
                     for t, f in zip(trajectories, frames))
    eval_report = json.loads((run_dir(run_root, "eval") / "eval.json").read_text())
    checks = {
        "readback_n": len(trajectories) == len(frames) == n == cfg["collect"]["n"],
        "readback_env_steps": H * chunk_steps == manifest["env_steps"],
        "readback_frames_fit": frames_fit,
        "readback_env": env_name == manifest["env"] == cfg["env"],
        "readback_tasks": all(t.task == f.task for t, f in zip(trajectories, frames)),
        "eval_sr_in_range": 0.0 <= eval_report["success_rate"] <= 1.0,
        "oracle_identity": oracle_identity(env, build_policy(env, cfg), params, cfg, seed),
    }
    hashes = {"policy": params_hash(params),
              "trajectories": file_hash(out_dir / "trajectories.wovs"),
              "frames": file_hash(out_dir / "frames.wovf"),
              "eval": hashlib.sha256(json.dumps(eval_report["success_rate"]).encode()).hexdigest()}
    failed = max(0, n - len(trajectories)) + max(0, n - len(frames))
    return {"checks": checks, "hashes": hashes, "work_items": n, "failed_items": failed,
            "real_env_steps": manifest["env_steps"], "cfg": cfg,
            "models": {"base": Path(policy_path), "final": Path(policy_path)}}


def mean_sr(env, policy, params, cfg, seed: int) -> float:
    T, H = cfg["run"]["max_episode_len"], cfg["run"]["chunk"]
    return float(np.mean([success_rate(policy, params, env, TaskSpec(t), EVAL_N, T, H,
                                       derive_seed(seed, EVAL_TAG, t))
                          for t in range(env.n_tasks)]))


def quality(gate: dict, seed: int) -> dict:
    """Real SR before and after, hallucination at the RL threshold, model error.

    The reward is thresholded at rl.reward_threshold, the threshold that gates
    imagined RL (`wovr eval --metric halluc` uses reward.threshold instead).
    A workload without a world model (collect) reads 0 on the model metrics.
    """
    cfg, models = gate["cfg"], gate["models"]
    env = get_env(cfg["env"])
    policy = build_policy(env, cfg)
    base = nn.load_params(models["base"])
    final = nn.load_params(models["final"])
    out = {"sr_base": mean_sr(env, policy, base, cfg, seed),
           "sr_final": mean_sr(env, policy, final, cfg, seed),
           "halluc_rate": 0.0, "wm_mse_h64": 0.0, "reward.precision_at_rl": 0.0,
           "reward.recall_at_rl": 0.0, "worldmodel.final_loss": 0.0}
    if "wm" not in models:
        return out
    wm = LearnedWorldModel(build_wm_net(env, cfg), nn.load_params(models["wm"]),
                           cfg["run"]["diffusion_steps"])
    reward_net = build_reward_net(env, cfg)
    reward_params = nn.load_params(models["reward"])
    threshold = cfg["rl"]["reward_threshold"]
    T, H = cfg["run"]["max_episode_len"], cfg["run"]["chunk"]

    def fires(frame, task) -> int:
        return sparse_reward(predict_success(reward_net, reward_params, frame, task), threshold)

    halluc, mse = [], []
    tp = fp = fn = 0
    for t in range(env.n_tasks):
        task = TaskSpec(t)
        halluc.append(hallucination_rate(policy, final, wm, fires, env, task, QUALITY_N, T, H,
                                         derive_seed(seed, EVAL_TAG, 1, t))["rate"])
        mse.append(horizon_error(wm, policy, final, env, task, [HORIZON], QUALITY_N, T, H,
                                 derive_seed(seed, EVAL_TAG, 2, t))[0][1])
        # held-out real frames: base-policy rollouts plus scripted demos
        _, episodes = rollout_real(policy, base, env, task, QUALITY_N, T, H,
                                   derive_seed(seed, HELDOUT_TAG, t), record_frames=True)
        episodes += [replay_frames(env, scripted_demo(env, task, derive_seed(seed, HELDOUT_TAG, t, i),
                                                      chunk=H, max_len=T))
                     for i in range(2)]
        for ep in episodes:
            for state in ep.states:
                label, pred = env.is_success(state), fires(state, task)
                tp += label and pred
                fp += pred and not label
                fn += label and not pred
    out.update({
        "halluc_rate": float(np.mean(halluc)),
        "wm_mse_h64": float(np.mean(mse)),
        "reward.precision_at_rl": tp / (tp + fp) if tp + fp else 0.0,
        "reward.recall_at_rl": tp / (tp + fn) if tp + fn else 0.0,
        "worldmodel.final_loss": models["wm_loss"],
    })
    return out
