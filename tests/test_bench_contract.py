"""What the benchmark under bench/ relies on in wovr must keep existing.

The traced run patches every bench/tracing.py TARGETS entry and the
workloads pass config paths through --set; a deletion that breaks either
would otherwise surface only when the benchmark runs.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from wovr.cli import build_parser, resolve_config
from wovr.core import DEFAULTS

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
