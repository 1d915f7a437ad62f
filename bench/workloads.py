"""The benchmark's workloads: inputs made from the seed, and the wovr calls.

Every workload is one closed loop with a single caller: each ``wovr`` command
starts only after the previous one returned. Counts below are the paper
pipeline's defaults scaled down so that one repetition takes a few seconds
on one core, keeping the named layer the largest share of its workload.
"""
from __future__ import annotations

from dataclasses import dataclass

N_DEMOS = 16
# The imagination workload's simulator (world model, reward net, base policy)
# is built once at this seed, so that the workload seed varies only the
# imagined RL. Built per seed, the simulator's hallucinated successes end
# imagined episodes early at a rate that changed the imagined work 2-4x
# between seeds.
SIM_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    env: str
    why: str
    # "pace" runs the staged pipeline from cloned demos; "rl" runs imagined
    # GRPO in a simulator built by `wovr pace` with sim_sets; "collect" rolls
    # out a pre-cloned base policy in the real env and evaluates it
    kind: str
    sets: tuple[str, ...] = ()
    sim_sets: tuple[str, ...] = ()
    collect_n: int = 0
    eval_n: int = 0


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pace-pickplace", env="pickplace2d", kind="pace",
        why="the paper pipeline as users run it; world-model training is "
            "most of the work",
        sets=("wm.epochs=4", "refine.epochs=1", "reward.epochs=30",
              "plan.rl_updates_per_stage=2")),
    Workload(
        name="imagine-reachpoint", env="reachpoint", kind="rl",
        why="imagined GRPO in a fixed learned simulator: imagined rollout is "
            "nearly all the work, and groups carry real signal",
        sim_sets=("wm.epochs=10", "refine.epochs=3", "reward.epochs=100",
                  "plan.rl_updates_per_stage=0"),
        sets=("plan.rl_updates_per_stage=12", "plan.groups_per_update=8")),
    Workload(
        name="collect-pickplace", env="pickplace2d", kind="collect",
        why="only the real side of rollout: one-episode env stepping and "
            "store writes, nothing trained or imagined",
        collect_n=500, eval_n=50),
)}


def _sets(sets) -> list[str]:
    return [arg for s in sets for arg in ("--set", s)]


def input_argv(w: Workload, seed: int, run_root: str) -> list[str]:
    """The demo-generation call that makes a workload's inputs."""
    return ["demo-gen", "--env", w.env, "--n", str(N_DEMOS), "--seed", str(seed),
            "--run-root", run_root]


def clone_argv(w: Workload, seed: int, demos: str, run_root: str) -> list[str]:
    return ["clone", "--env", w.env, "--demos", demos, "--seed", str(seed),
            "--run-root", run_root]


def sim_argv(w: Workload, demos: str, run_root: str) -> list[str]:
    """The `wovr pace` call that builds an "rl" workload's simulator."""
    return ["pace", "--env", w.env, "--demos", demos, "--seed", str(SIM_SEED),
            "--run-root", run_root, *_sets(w.sim_sets)]


def workload_argvs(w: Workload, seed: int, inputs: dict, run_root: str) -> list[list[str]]:
    """The timed wovr calls, in order."""
    common = ["--env", w.env, "--seed", str(seed), "--run-root", run_root]
    if w.kind == "pace":
        return [["pace", "--demos", inputs["demos"], *common, *_sets(w.sets)]]
    if w.kind == "rl":
        return [["rl", "--policy", inputs["policy"], "--wm", inputs["wm"],
                 "--reward", inputs["reward"], *common, *_sets(w.sets)]]
    return [["collect", "--policy", inputs["policy"], "--n", str(w.collect_n), *common],
            ["eval", "--policy", inputs["policy"], "--metric", "sr",
             "--n", str(w.eval_n), *common]]
