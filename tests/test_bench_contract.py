"""What the benchmark under bench/ relies on in wovr must keep existing.

The traced run patches every bench/tracing.py TARGETS entry, reads call
arguments by position in its COUNTERS, and the workloads pass config paths
through --set; a deletion or a moved argument that breaks any of these would
otherwise surface only when the benchmark runs.
"""
import importlib
import importlib.util
import math
import sys
from collections import deque
from pathlib import Path

import pytest

from wovr.cli import build_parser, parse_and_dispatch, resolve_config
from wovr.core import DEFAULTS, TaskSpec, derive_rng, make_config
from wovr.envs import ReachPoint, replay_frames, scripted_demo
from wovr.grpo import ChunkPolicy, GroupBatch
from wovr.pace import LearnedReward, _rl_stage
from wovr.reward import RewardNet
from wovr.rollout import KEYFRAME_CAPACITY
from wovr.worldmodel import LearnedWorldModel, RfBatch, WmNet, train_wm

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(module: str):
    spec = importlib.util.spec_from_file_location(f"bench_{module}", BENCH / f"{module}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


WORKLOADS = load_bench("workloads")


def test_trace_targets_resolve():
    for owner, attr, _ in load_bench("tracing").TARGETS:
        module_name, _, cls_name = owner.partition(":")
        target = importlib.import_module(module_name)
        if cls_name:
            target = getattr(target, cls_name)
        assert attr in target.__dict__, f"{owner}.{attr}"


def workload_argvs(w):
    inputs = {"demos": "demos.wovs", "policy": "policy.wovc", "wm": "wm.wovc",
              "reward": "reward.wovc"}
    return [WORKLOADS.input_argv(w, 0, "runs"),
            WORKLOADS.clone_argv(w, 0, "demos.wovs", "runs"),
            WORKLOADS.sim_argv(w, "demos.wovs", "runs"),
            *WORKLOADS.workload_argvs(w, 0, inputs, "runs")]


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_set_paths_exist_in_defaults(name):
    w = WORKLOADS.WORKLOADS[name]
    for item in w.sets + w.sim_sets:
        node = DEFAULTS
        for part in item.partition("=")[0].split("."):
            assert isinstance(node, dict) and part in node, item
            node = node[part]
    # every call the benchmark makes parses and resolves to a valid config
    parser, flag_paths = build_parser()
    for argv in workload_argvs(w):
        args = parser.parse_args(argv)
        resolve_config(args, flag_paths[args.command])


def test_trace_counters_read_real_calls(monkeypatch):
    """Each COUNTERS function, fed the arguments and result of a real call made
    where the traced run wraps it, reports what the call did; each CALLBACKS
    position of such a call holds the callable that the traced run wraps."""
    tracing = load_bench("tracing")
    names = {"rollout.rollout_imagined", "rollout.sample_start", "grpo.build_group",
             "worldmodel.make_rf_batch"}
    assert names <= set(tracing.COUNTERS)
    calls = {name: [] for name in names | set(tracing.CALLBACKS)}
    for owner, attr, name in tracing.TARGETS:
        if name not in calls:
            continue
        target = importlib.import_module(owner)
        original = target.__dict__[attr]

        def record(*args, _fn=original, _name=name, **kwargs):
            result = _fn(*args, **kwargs)
            calls[_name].append((args, result))
            return result

        monkeypatch.setattr(target, attr, record)

    env, H = ReachPoint(), 4
    cfg = make_config({"seed": 1, "run": {"group_size": 3, "chunk": H, "context": 2,
                                          "max_episode_len": 16, "diffusion_steps": 2},
                       "plan": {"rl_updates_per_stage": 2, "groups_per_update": 2},
                       "rl": {"inner_epochs": 1}})
    policy = ChunkPolicy(env.state_dim, env.n_tasks, H, env.action_dim, hidden=(8,))
    wm_net = WmNet(env.state_dim, env.action_dim, env.n_tasks, horizon=H, context=2,
                   width=16, act_emb_dim=4)
    reward_net = RewardNet(env.state_dim, env.n_tasks, hidden=(8,))
    wm = LearnedWorldModel(wm_net, wm_net.init(derive_rng(3)), cfg["run"]["diffusion_steps"])
    reward_fn = LearnedReward(reward_net, reward_net.init(derive_rng(4)),
                              cfg["rl"]["reward_threshold"])
    _rl_stage(policy, policy.init(derive_rng(2)), wm, reward_fn, env, cfg,
              deque(maxlen=KEYFRAME_CAPACITY), tag=5)
    episodes = [replay_frames(env, scripted_demo(env, TaskSpec(0), 6, chunk=H, max_len=16))]
    train_wm(episodes, wm_net, derive_rng(7),
             make_config({"wm": {"epochs": 1, "batch_size": 4}})["wm"])

    assert len(calls["sched.run_iteration"]) == 2
    for name, positions in tracing.CALLBACKS.items():
        for args, _ in calls[name]:
            assert all(callable(args[pos]) for pos in positions), name
    count = tracing.COUNTERS
    # one lockstep rollout per update, over both of its groups
    assert len(calls["rollout.rollout_imagined"]) == 2
    for args, trajs in calls["rollout.rollout_imagined"]:
        assert count["rollout.rollout_imagined"](args, trajs) == {
            "members": len(trajs), "frames": H * sum(len(t.steps) for t in trajs)}
    assert len(calls["rollout.sample_start"]) == 4
    for args, start in calls["rollout.sample_start"]:
        assert start[1] in ("initial", "keyframe")
        assert count["rollout.sample_start"](args, start) == {
            "starts": 1, "kir_starts": int(start[1] == "keyframe")}
    assert len(calls["grpo.build_group"]) == 4
    for args, group in calls["grpo.build_group"]:
        assert isinstance(group, GroupBatch)
        assert count["grpo.build_group"](args, group) == {
            "groups": 1, "zero_adv_groups": int(not group.advantages.any())}
    assert calls["worldmodel.make_rf_batch"]
    for args, batch in calls["worldmodel.make_rf_batch"]:
        assert isinstance(batch, RfBatch)
        assert count["worldmodel.make_rf_batch"](args, batch) == {"windows": batch.x1.shape[0]}


@pytest.mark.parametrize("refinements", [1, 0, 2])
def test_pace_run_passes_the_benchmark_gate(tmp_path, refinements):
    """bench/checks.py's check_pace reads a pace run's audit and checkpoints;
    a tiny run, with zero, one or two co-evolution rounds, must pass every
    check. With one round, checks.quality must also read finite metrics off
    it: it is the benchmark's only caller of hallucination_rate with a
    per-frame reward, of replay_frames and of horizon_error."""
    tiny = ["--env", "reachpoint", "--seed", "1", "--set", "run.max_episode_len=32"]
    assert parse_and_dispatch(["demo-gen", *tiny, "--n", "8",
                               "--run-root", str(tmp_path / "demos")]) == 0
    demos = next((tmp_path / "demos").glob("demo-gen-*")) / "demos.wovs"
    sets = ["run.n_base=12", f"run.n_evo={6 * refinements}",
            f"plan.refinements={refinements}", "wm.epochs=1", "refine.epochs=1",
            "reward.epochs=5", "plan.rl_updates_per_stage=1"]
    argv = ["pace", *tiny, "--demos", str(demos), "--run-root", str(tmp_path / "runs")]
    assert parse_and_dispatch(argv + [arg for s in sets for arg in ("--set", s)]) == 0
    bench_checks = load_bench("checks")
    gate = bench_checks.check_pace(tmp_path / "runs", 1)
    assert gate["checks"] and all(gate["checks"].values()), gate["checks"]
    if refinements == 1:
        quality = bench_checks.quality(gate, 1)
        assert all(math.isfinite(value) for value in quality.values()), quality
        for rate in ("sr_base", "sr_final", "halluc_rate", "reward.precision_at_rl",
                     "reward.recall_at_rl"):
            assert 0.0 <= quality[rate] <= 1.0, (rate, quality)


TINY = ["--env", "reachpoint", "--seed", "1", "--set", "run.max_episode_len=32"]


def run_once(root, *argv):
    """The run directory of one wovr call under root, which must succeed."""
    assert parse_and_dispatch([*argv, *TINY, "--run-root", str(root)]) == 0
    (made,) = root.iterdir()
    return made


def test_collect_run_passes_the_benchmark_gate(tmp_path):
    """bench/checks.py's check_collect reads a collect run's store and frame set
    back, with an sr eval beside it; a tiny run must pass every check."""
    demos = run_once(tmp_path / "demos", "demo-gen", "--n", "4") / "demos.wovs"
    policy = run_once(tmp_path / "clone", "clone", "--demos", str(demos),
                      "--epochs", "2") / "policy.wovc"
    runs = tmp_path / "runs"
    for argv in (["collect", "--n", "6"], ["eval", "--metric", "sr", "--n", "2"]):
        assert parse_and_dispatch([*argv, "--policy", str(policy), *TINY,
                                   "--run-root", str(runs)]) == 0
    gate = load_bench("checks").check_collect(runs, 1, str(policy))
    assert gate["checks"] and all(gate["checks"].values()), gate["checks"]
    assert gate["work_items"] == 6 and gate["failed_items"] == 0


def test_rl_run_passes_the_benchmark_gate(tmp_path):
    """bench/checks.py's check_rl reads an rl run in a simulator that a pace
    run built, as the imagination workload does; a tiny one must pass every check."""
    demos = run_once(tmp_path / "demos", "demo-gen", "--n", "4") / "demos.wovs"
    sim = run_once(tmp_path / "sim", "pace", "--demos", str(demos),
                   *(arg for s in ("run.n_base=12", "run.n_evo=6", "wm.epochs=1",
                                   "refine.epochs=1", "reward.epochs=5",
                                   "plan.rl_updates_per_stage=0") for arg in ("--set", s)))
    inputs = {"sim": str(sim), "policy": str(sim / "policy_base.wovc"),
              "wm": str(sim / "wm_evo.wovc"), "reward": str(sim / "reward.wovc")}
    runs = tmp_path / "runs"
    run_once(runs, "rl", *(arg for name in ("policy", "wm", "reward")
                           for arg in (f"--{name}", inputs[name])),
             "--updates", "2", "--set", "plan.groups_per_update=2")
    gate = load_bench("checks").check_rl(runs, 1, inputs)
    assert gate["checks"] and all(gate["checks"].values()), gate["checks"]
    assert gate["work_items"] == 2 * 2 * DEFAULTS["run"]["group_size"]
