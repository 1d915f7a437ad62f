"""Command-line surface: config resolution, run directories, workflows.

Configuration is resolved as core.DEFAULTS, then the YAML config file, then
explicit flags, then each --set, merged section by section, rightmost wins.
The resolved config is validated once (core.validate_config), for every
command, before its run directory is created; an invalid config or a
missing input flag exits 2 without leaving a directory behind. Every command
that produces artifacts gets a fresh run directory under the run root
(--run-root, else $WOVR_RUN_ROOT, else ./runs) named by the resolved-config
hash plus a timestamp, and the resolved config is written there verbatim
before any work starts. The inputs are read before the run directory is
made too, and one made in another env, or a checkpoint that does not fit the
resolved config, is a configuration error. Exit codes: 0 success, 2
configuration error, 3 runtime error, 4 invariant violation. Every JSON file
a command writes goes through core.write_json. A pace run writes each
artifact as the stage that makes it ends, so after an abort its directory
holds resolved.json, the checkpoints of every finished stage, and
manifests.json, logs.json and an audit.json whose last row is the failed
stage, marked "failed".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np
import yaml

from . import nn
from .core import (ENV_NAMES, EVAL_METRICS, ConfigError, InvariantViolation,
                   TaskSpec, config_hash, derive_rng, derive_seed, derive_seeds,
                   make_config, params_hash, read_frames, write_frames, write_json)
from .envs import CountingEnv, get_env, replay_episodes, scripted_demo
from .evalx import EvalReport, hallucination_rate, horizon_error
from .grpo import ChunkPolicy
from .pace import LearnedReward, _rl_stage, clone_base_policy, run_pipeline
from .reward import RewardNet, label_episode_frames, train_classifier
from .rollout import (KEYFRAME_CAPACITY, read_batch, rollout_real, round_robin,
                      write_batch)
from .worldmodel import LearnedWorldModel, WmNet, train_wm

EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME, EXIT_INVARIANT = 0, 2, 3, 4


# ---------------------------------------------------------------------------
# config resolution


def _nested(dotted: str, value) -> dict:
    """The override {"a": {"b": value}} that the dotted path "a.b" names."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


def resolve_config(args: argparse.Namespace, flag_paths: dict) -> dict:
    """core.make_config of the config file, the flags and each --set, in
    that order, each one a nested override merged section by section; then
    the check of eval.task against the env's task count, which core lacks."""
    overrides = []
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                loaded = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file must be a mapping")
        overrides.append(loaded)
    for dest, dotted in flag_paths.items():
        value = getattr(args, dest, None)
        if value is not None:
            overrides.append(_nested(dotted, value))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, _, raw = item.partition("=")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"--set {dotted} value is not YAML: {exc}") from exc
        overrides.append(_nested(dotted, value))
    cfg = make_config(*overrides)
    n_tasks = get_env(cfg["env"]).n_tasks
    if cfg["eval"]["task"] >= n_tasks:
        raise ConfigError(f"eval.task must be below {cfg['env']}'s {n_tasks} tasks")
    return cfg


# ---------------------------------------------------------------------------
# run directories


def run_root(args) -> Path:
    explicit = getattr(args, "run_root", None)
    return Path(explicit or os.environ.get("WOVR_RUN_ROOT", "runs"))


def make_run_dir(root: Path, command: str, resolved: dict) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    prefix = f"{command}-{config_hash(resolved)[:10]}-{stamp}"
    for attempt in range(1000):
        candidate = root / (prefix if attempt == 0 else f"{prefix}-{attempt}")
        try:
            candidate.mkdir(parents=True, exist_ok=False)
        except FileExistsError:
            continue
        return candidate
    raise RuntimeError("could not allocate a fresh run directory")


# ---------------------------------------------------------------------------
# shared construction


def build_policy(env, cfg) -> ChunkPolicy:
    p = cfg["policy"]
    return ChunkPolicy(env.state_dim, env.n_tasks, cfg["run"]["chunk"],
                       env.action_dim, hidden=tuple(p["hidden"]),
                       init_log_std=p["init_log_std"])


def build_wm_net(env, cfg) -> WmNet:
    w = cfg["wm"]
    return WmNet(env.state_dim, env.action_dim, env.n_tasks,
                 horizon=cfg["run"]["chunk"], context=cfg["run"]["context"],
                 width=w["width"], act_emb_dim=w["act_emb_dim"],
                 anchor_mode=w["anchor_mode"])


def build_reward_net(env, cfg) -> RewardNet:
    return RewardNet(env.state_dim, env.n_tasks,
                     hidden=tuple(cfg["reward"]["hidden"]))


def clone_demos(demos, policy, cfg) -> tuple[dict, list[float]]:
    """Behavior-clone policy on demos with the clone section of cfg."""
    return clone_base_policy(demos, policy, derive_rng(cfg["seed"], 72), cfg["clone"])


CHECKPOINT_NETS = {"policy": build_policy, "wm": build_wm_net, "reward": build_reward_net}


def check_inputs(args, cfg):
    """ConfigError unless the input flags that the resolved config needs are
    given (the parser requires every flag that a command always needs), each
    demo and frame input was made in the resolved env, and each checkpoint
    has the keys and shapes of its CHECKPOINT_NETS net under the resolved
    config (else the error names its flag and first differing key). The
    inputs given are read here, before the run directory is made, into
    args.inputs by flag name."""
    if args.command == "pace" and not (args.policy or args.demos):
        raise ConfigError("pace needs --policy or --demos")
    if args.command == "eval":
        metric = cfg["eval"]["metric"]
        for name in {"halluc": ("wm", "reward"), "horizon": ("wm",)}.get(metric, ()):
            if getattr(args, name) is None:
                raise ConfigError(f"eval --metric {metric} needs --{name}")
    args.inputs, made_in = {}, {}  # made_in: each data input's path -> its env
    if getattr(args, "frames", None):
        args.inputs["frames"], made_in[args.frames] = read_frames(args.frames)
    if getattr(args, "demos", None):
        args.inputs["demos"], manifest = read_batch(args.demos)
        made_in[args.demos] = manifest.get("env")
    for path, env_name in made_in.items():
        if env_name != cfg["env"]:
            raise ConfigError(f"{path} holds {env_name!r} data, the resolved env is {cfg['env']!r}")
    for flag, build in CHECKPOINT_NETS.items():
        path = getattr(args, flag, None)
        if path:
            params = args.inputs[flag] = nn.load_params(path)
            want = build(get_env(cfg["env"]), cfg).init(derive_rng(0))
            for key in sorted(want.keys() | params.keys()):
                got, need = (d[key].shape if key in d else "absent" for d in (params, want))
                if got != need:
                    raise ConfigError(f"--{flag} {path} does not fit the resolved config: "
                                      f"{key!r} is {got} in it, {need} in the config's net")


# ---------------------------------------------------------------------------
# commands


def cmd_demo_gen(cfg, run_dir, args):
    env = get_env(cfg["env"])
    n, noise = cfg["demo"]["n"], cfg["demo"]["noise"]
    chunk, max_len = cfg["run"]["chunk"], cfg["run"]["max_episode_len"]
    seeds = derive_seeds([(cfg["seed"], 71, i) for i in range(n)])
    demos = [scripted_demo(env, TaskSpec(i % env.n_tasks), seed, noise,
                           chunk=chunk, max_len=max_len) for i, seed in enumerate(seeds)]
    manifest = {"env": cfg["env"], "noise": noise, "n": n,
                "config": config_hash(cfg)}
    write_batch(run_dir / "demos.wovs", demos, manifest)
    rate = float(np.mean([d.success for d in demos]))
    print(f"wrote {n} demos (success rate {rate:.2f}) to {run_dir}")
    return EXIT_OK


def cmd_clone(cfg, run_dir, args):
    demos = args.inputs["demos"]
    env = get_env(cfg["env"])
    params, losses = clone_demos(demos, build_policy(env, cfg), cfg)
    nn.save_params(run_dir / "policy.wovc", params)
    write_json(run_dir / "manifest.json", {"params": params_hash(params),
                                           "demos": str(args.demos), "env": env.name,
                                           "config": config_hash(cfg)})
    write_json(run_dir / "bc_losses.json", losses)
    print(f"cloned policy from {len(demos)} demos "
          f"(final loss {losses[-1]:.3f}) to {run_dir}" if losses
          else f"cloned policy (zero epochs) to {run_dir}")
    return EXIT_OK


def cmd_collect(cfg, run_dir, args):
    params = args.inputs["policy"]
    env = CountingEnv(get_env(cfg["env"]))
    policy = build_policy(env, cfg)
    run = cfg["run"]
    n = cfg["collect"]["n"] or run["n_base"]
    tasks, seeds = round_robin(env.n_tasks, n, cfg["seed"], 73)
    trajectories, frames = rollout_real(policy, params, env, tasks, n, run["max_episode_len"],
                                        run["chunk"], seeds, record_frames=True)
    manifest = {"policy": params_hash(params), "env": cfg["env"], "n": n,
                "env_steps": env.steps, "config": config_hash(cfg)}
    write_batch(run_dir / "trajectories.wovs", trajectories, manifest)
    write_frames(run_dir / "frames.wovf", frames, cfg["env"])
    rate = float(np.mean([t.success for t in trajectories]))
    print(f"collected {n} episodes ({env.steps} real steps, "
          f"success rate {rate:.2f}) to {run_dir}")
    return EXIT_OK


def cmd_train_wm(cfg, run_dir, args):
    episodes = args.inputs["frames"]
    env = get_env(cfg["env"])
    net = build_wm_net(env, cfg)
    params, losses = train_wm(episodes, net, derive_rng(cfg["seed"], 74), cfg["wm"])
    nn.save_params(run_dir / "wm.wovc", params)
    write_json(run_dir / "manifest.json", {"params": params_hash(params),
                                           "frames": str(args.frames), "env": env.name,
                                           "config": config_hash(cfg)})
    write_json(run_dir / "wm_losses.json", losses)
    print(f"trained world model on {len(episodes)} episodes "
          f"(loss {losses[0]:.4f} -> {losses[-1]:.4f}) to {run_dir}" if losses
          else f"initialized world model (zero epochs) to {run_dir}")
    return EXIT_OK


def cmd_train_reward(cfg, run_dir, args):
    episodes = args.inputs["frames"]
    env = get_env(cfg["env"])
    net = build_reward_net(env, cfg)
    if "demos" in args.inputs:
        episodes = episodes + replay_episodes(env, args.inputs["demos"])
    states, task_ids, labels = label_episode_frames(episodes, env)
    params, losses = train_classifier((states, task_ids, labels), net,
                                      derive_rng(cfg["seed"], 75), cfg["reward"])
    nn.save_params(run_dir / "reward.wovc", params)
    write_json(run_dir / "manifest.json", {"params": params_hash(params),
                                           "frames": str(args.frames), "env": env.name,
                                           "n_examples": len(labels),
                                           "config": config_hash(cfg)})
    print(f"trained reward classifier on {len(labels)} frames to {run_dir}")
    return EXIT_OK


def cmd_rl(cfg, run_dir, args):
    env = CountingEnv(get_env(cfg["env"]))
    policy = build_policy(env, cfg)
    wm = LearnedWorldModel(build_wm_net(env, cfg), args.inputs["wm"],
                           cfg["run"]["diffusion_steps"])
    reward_fn = LearnedReward(build_reward_net(env, cfg), args.inputs["reward"],
                              cfg["rl"]["reward_threshold"])
    new_params, logs = _rl_stage(policy, args.inputs["policy"], wm, reward_fn, env, cfg,
                                 deque(maxlen=KEYFRAME_CAPACITY), tag=76)
    if env.steps != 0:
        raise InvariantViolation("imagined RL consumed real env steps")
    nn.save_params(run_dir / "policy.wovc", new_params)
    write_json(run_dir / "rl_log.json", logs)
    print(f"ran {cfg['plan']['rl_updates_per_stage']} imagined updates "
          f"(0 real steps) to {run_dir}")
    return EXIT_OK


def cmd_pace(cfg, run_dir, args):
    env = get_env(cfg["env"])
    policy = build_policy(env, cfg)
    demos = args.inputs.get("demos")
    base_params = (args.inputs["policy"] if args.policy
                   else clone_demos(demos, policy, cfg)[0])
    audit = run_pipeline(env, policy, base_params, build_wm_net(env, cfg),
                         build_reward_net(env, cfg), cfg, run_dir, demos=demos)
    print(f"pipeline complete: {audit['trajectories_total']} real episodes "
          f"({audit['env_steps_total']} steps) within budget "
          f"{audit['budget']}; artifacts in {run_dir}")
    return EXIT_OK


def cmd_eval(cfg, run_dir, args):
    env = get_env(cfg["env"])
    policy = build_policy(env, cfg)
    params = args.inputs["policy"]
    T, H = cfg["run"]["max_episode_len"], cfg["run"]["chunk"]
    e = cfg["eval"]
    metric, n, task_id = e["metric"], e["n"], e["task"]
    report = EvalReport(seeds=[cfg["seed"]], checkpoint_hashes={
        flag: params_hash(checkpoint) for flag, checkpoint in args.inputs.items()})
    wm = (LearnedWorldModel(build_wm_net(env, cfg), args.inputs["wm"],
                            cfg["run"]["diffusion_steps"]) if "wm" in args.inputs else None)
    if metric == "sr":
        # one rollout of every task's n episodes: episode i of task t has the
        # key (seed_t, i) and each task's rate the form of
        # success_rate(..., seed_t), so the report equals per-task calls
        seeds = derive_seeds([(cfg["seed"], 81, t) for t in range(env.n_tasks)])
        tasks = [TaskSpec(t) for t in range(env.n_tasks) for _ in range(n)]
        trajs = rollout_real(policy, params, env, tasks, len(tasks), T, H,
                             [(seed, i) for seed in seeds for i in range(n)])
        per_task = [sum(t.success for t in trajs[k:k + n]) / n for k in range(0, len(trajs), n)]
        report.success_rate = float(np.mean(per_task))
        report.sr_trials = n * env.n_tasks
    elif metric == "halluc":
        # the reward of imagined RL, so the rate is the one of the simulator
        # the policy trained in
        reward_fn = LearnedReward(build_reward_net(env, cfg), args.inputs["reward"],
                                  cfg["rl"]["reward_threshold"])
        report.hallucination = hallucination_rate(
            policy, params, wm, reward_fn, env, TaskSpec(task_id), n, T, H,
            derive_seed(cfg["seed"], 82))
    else:  # "horizon", the last of core.EVAL_METRICS
        report.horizon_curve = horizon_error(
            wm, policy, params, env, TaskSpec(task_id), e["horizons"], n, T,
            H, derive_seed(cfg["seed"], 83))
    report.validate()
    report.write(run_dir / "eval.json",
                 run_dir / "horizon.csv" if report.horizon_curve else None)
    print(f"eval ({metric}) written to {run_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report aggregation


def aggregate_reports(reports: list[EvalReport]) -> dict:
    if not reports:
        raise ValueError("no eval reports to aggregate")

    def stats(values):
        arr = np.asarray(values, dtype=np.float64)
        stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
        return {"mean": float(arr.mean()), "stderr": stderr, "n": len(arr)}

    out = {"n_reports": len(reports)}
    srs = [r.success_rate for r in reports if r.success_rate is not None]
    if srs:
        out["success_rate"] = stats(srs)
    for key in ("rate", "spurious", "missed"):
        vals = [r.hallucination[key] for r in reports
                if r.hallucination is not None]
        if vals:
            out[f"hallucination_{key}"] = stats(vals)
    by_horizon: dict[int, list[float]] = {}
    for r in reports:
        for horizon, mse in r.horizon_curve or []:
            by_horizon.setdefault(int(horizon), []).append(float(mse))
    if by_horizon:
        out["horizon_mse"] = {h: stats(v) for h, v in sorted(by_horizon.items())}
    return out


def report(run_dir) -> dict:
    """Aggregate every eval.json under run_dir: mean and stderr across seeds."""
    paths = sorted(Path(run_dir).rglob("eval.json"))
    if not paths:
        raise FileNotFoundError(f"no eval reports under {run_dir}")
    reports = [EvalReport.from_json(p.read_bytes()) for p in paths]
    return aggregate_reports(reports)


def summary_csv(summary: dict) -> str:
    lines = ["metric,mean,stderr,n"]
    for key, value in summary.items():
        if key == "n_reports":
            continue
        if key == "horizon_mse":
            for horizon, s in value.items():
                lines.append(f"horizon_{horizon},{s['mean']!r},{s['stderr']!r},{s['n']}")
        else:
            lines.append(f"{key},{value['mean']!r},{value['stderr']!r},{value['n']}")
    return "\n".join(lines) + "\n"


def cmd_report(cfg, run_dir, args):
    summary = report(args.run_dir)
    out_dir = Path(args.out) if args.out else Path(args.run_dir)
    write_json(out_dir / "summary.json", summary)
    with open(out_dir / "summary.csv", "w") as fh:
        fh.write(summary_csv(summary))
    print(json.dumps(summary, indent=1, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


COMMANDS = {
    "demo-gen": cmd_demo_gen,
    "clone": cmd_clone,
    "collect": cmd_collect,
    "train-wm": cmd_train_wm,
    "train-reward": cmd_train_reward,
    "rl": cmd_rl,
    "pace": cmd_pace,
    "eval": cmd_eval,
    "report": cmd_report,
}

# flags shared by every artifact-producing command, mapped to config paths
COMMON_PATHS = {"seed": "seed", "env": "env"}


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="wovr",
        description="staged world-model RL: collect, train, imagine, refine")
    sub = parser.add_subparsers(dest="command", required=True)
    flag_paths: dict[str, dict] = {}

    def common(p):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--env", choices=ENV_NAMES)
        p.add_argument("--run-root", dest="run_root",
                       help="run-directory root (default $WOVR_RUN_ROOT or ./runs)")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override any config value")

    def register(name, help_, extra=None):
        p = sub.add_parser(name, help=help_)
        common(p)
        flag_paths[name] = dict(COMMON_PATHS)
        for flag, path, kw in extra or []:
            p.add_argument(flag, **kw)
            if path:
                flag_paths[name][flag.lstrip("-").replace("-", "_")] = path
        return p

    register("demo-gen", "generate scripted demonstrations", [
        ("--n", "demo.n", dict(type=int)),
        ("--noise", "demo.noise", dict(type=float)),
    ])
    register("clone", "behavior-clone a policy from demos", [
        ("--demos", None, dict(help="demo store path", required=True)),
        ("--epochs", "clone.epochs", dict(type=int)),
        ("--lr", "clone.lr", dict(type=float)),
    ])
    register("collect", "roll out a policy in the real env", [
        ("--policy", None, dict(help="policy checkpoint", required=True)),
        ("--n", "collect.n", dict(type=int)),
    ])
    register("train-wm", "train the world model on frames", [
        ("--frames", None, dict(help="frame store path", required=True)),
        ("--epochs", "wm.epochs", dict(type=int)),
        ("--lr", "wm.lr", dict(type=float)),
        ("--batch-size", "wm.batch_size", dict(type=int)),
    ])
    register("train-reward", "train the success classifier on frames", [
        ("--frames", None, dict(help="frame store path", required=True)),
        ("--demos", None, dict(help="demo store mixed in as extra frames")),
        ("--epochs", "reward.epochs", dict(type=int)),
        ("--lr", "reward.lr", dict(type=float)),
    ])
    register("rl", "imagined GRPO against a fixed world model", [
        ("--policy", None, dict(help="policy checkpoint", required=True)),
        ("--wm", None, dict(help="world-model checkpoint", required=True)),
        ("--reward", None, dict(help="reward checkpoint", required=True)),
        ("--updates", "plan.rl_updates_per_stage", dict(type=int)),
    ])
    register("pace", "full staged pipeline", [
        ("--demos", None, dict(help="demo store (cloned into the base policy)")),
        ("--policy", None, dict(help="pre-cloned base policy checkpoint")),
        ("--n-base", "run.n_base", dict(type=int)),
        ("--n-evo", "run.n_evo", dict(type=int)),
        ("--refinements", "plan.refinements", dict(type=int, help="co-evolution rounds K")),
        ("--rl-updates", "plan.rl_updates_per_stage", dict(type=int)),
    ])
    register("eval", "evaluate a policy checkpoint", [
        ("--policy", None, dict(help="policy checkpoint", required=True)),
        ("--wm", None, dict(help="world-model checkpoint (halluc/horizon)")),
        ("--reward", None, dict(help="reward checkpoint (halluc)")),
        ("--metric", "eval.metric", dict(choices=EVAL_METRICS)),
        ("--n", "eval.n", dict(type=int)),
        ("--task", "eval.task", dict(type=int)),
        ("--horizons", "eval.horizons", dict(type=_int_list)),
    ])
    rep = sub.add_parser("report", help="aggregate eval reports across seeds")
    rep.add_argument("run_dir", help="directory tree containing eval.json files")
    rep.add_argument("--out", help="where to write summary files (default run_dir)")
    flag_paths["report"] = {}

    return parser, flag_paths


def parse_and_dispatch(argv) -> int:
    parser, flag_paths = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code or 0
        return EXIT_CONFIG if code not in (0, EXIT_CONFIG) else int(code)
    try:
        if args.command == "report":
            return cmd_report(None, None, args)
        resolved = resolve_config(args, flag_paths[args.command])
        check_inputs(args, resolved)
        run_dir = make_run_dir(run_root(args), args.command, resolved)
        write_json(run_dir / "resolved.json", resolved)
        return COMMANDS[args.command](resolved, run_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry():
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    entry()
