"""One step of a benchmark run, in a fresh process; prints one JSON line last.

    python3 bench/child.py import
    python3 bench/child.py prepare --workload W --seed S --work DIR
    python3 bench/child.py run --workload W --seed S --work DIR --rep I [--trace] [--quality]

Nothing heavy is imported before `import wovr.cli` is timed, so setup_s is the
cost of importing wovr and everything it imports, calibrated for the machine's
speed meanwhile (bench/calibrate.py); setup_raw_s is the uncalibrated cost.
The parent pins BLAS to one thread through the environment before this
process starts.
"""
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]
# calibrate imports only signal and time
from calibrate import Sampler, mixed_kernel, python_kernel  # noqa: E402

_sampler = Sampler(python_kernel)
_sampler.start()
_start = time.perf_counter()
import wovr.cli  # noqa: E402  (timed: this is setup_s)
_elapsed = time.perf_counter() - _start
_sampler.stop()
SETUP_RAW_S, SETUP_S, _ = _sampler.calibrate(_elapsed)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (SIM_SEED, WORKLOADS, clone_argv, input_argv,  # noqa: E402
                       sim_argv, workload_argvs)


def setup() -> dict:
    """This process's import of wovr.cli: calibrated (setup_s) and raw."""
    return {"setup_s": SETUP_S, "setup_raw_s": SETUP_RAW_S}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


class AbortCounter(logging.Handler):
    """Counts imagined members that wovr.rollout reports as aborted."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.aborted = 0

    def emit(self, record):
        if record.getMessage().startswith("rollout member aborted"):
            self.aborted += 1


def dispatch(argv: list[str]):
    if wovr.cli.parse_and_dispatch(argv) != 0:
        raise RuntimeError(f"input step failed: wovr {' '.join(argv)}")


def build_simulator(w, cache: Path) -> Path:
    """The run directory of an "rl" workload's simulator, built once per source tree."""
    digest = hashlib.sha256(json.dumps(sim_argv(w, "", "")).encode())
    for path in sorted(glob.glob(os.path.join(os.path.dirname(BENCH), "src", "wovr", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    sim = cache / f"{w.name}-{digest.hexdigest()[:16]}"
    if not sim.exists():
        tmp = cache / f"{sim.name}.tmp{os.getpid()}"
        dispatch(input_argv(w, SIM_SEED, str(tmp / "inputs")))
        demos = checks.run_dir(tmp / "inputs", "demo-gen") / "demos.wovs"
        dispatch(sim_argv(w, str(demos), str(tmp)))
        tmp.rename(sim)
    return checks.run_dir(sim, "pace")


def prepare(args) -> dict:
    w = WORKLOADS[args.workload]
    work = Path(args.work)
    if w.kind == "rl":
        sim = build_simulator(w, work.parent / "cache")
        inputs = {"sim": str(sim), "policy": str(sim / "policy_base.wovc"),
                  "wm": str(sim / "wm_evo.wovc"), "reward": str(sim / "reward.wovc")}
        return {**setup(), "inputs": inputs}
    root = work / "inputs"
    dispatch(input_argv(w, args.seed, str(root)))
    inputs = {"demos": str(checks.run_dir(root, "demo-gen") / "demos.wovs")}
    if w.kind == "collect":
        dispatch(clone_argv(w, args.seed, inputs["demos"], str(root)))
        inputs["policy"] = str(checks.run_dir(root, "clone") / "policy.wovc")
    return {**setup(), "inputs": inputs}


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    work = Path(args.work)
    inputs = json.loads((work / "inputs.json").read_text())
    run_root = work / f"rep{args.rep}"
    argvs = workload_argvs(w, args.seed, inputs, str(run_root))
    counter = AbortCounter()
    logging.getLogger("wovr.rollout").addHandler(counter)
    tracer = Tracer() if args.trace else None

    sampler = Sampler(mixed_kernel)
    if tracer:
        tracer.install()
    sampler.start()
    start = time.perf_counter()
    codes = []
    for argv in argvs:
        codes.append(wovr.cli.parse_and_dispatch(argv))
        if codes[-1] != 0:
            break
    elapsed = time.perf_counter() - start
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    wall_raw_s, wall_s, kernel_mean_s = sampler.calibrate(elapsed)

    out = {**setup(), "wall_raw_s": wall_raw_s, "wall_s": wall_s,
           "kernel_mean_s": kernel_mean_s, "peak_rss_mb": peak_rss_mb,
           "exit_codes": codes, "traced": bool(tracer), "blas_threads": blas_threads()}
    if any(codes):
        return out
    if w.kind == "pace":
        gate = checks.check_pace(run_root, args.seed)
    elif w.kind == "rl":
        gate = checks.check_rl(run_root, args.seed, inputs)
    else:
        gate = checks.check_collect(run_root, args.seed, inputs["policy"])
    n_checks = len(gate["checks"])
    failed_checks = sum(not ok for ok in gate["checks"].values())
    out.update(checks=gate["checks"], hashes=gate["hashes"],
               real_env_steps=gate["real_env_steps"],
               attempted=gate["work_items"] + n_checks,
               failed=gate["failed_items"] + counter.aborted + failed_checks,
               aborted_members=counter.aborted)
    if args.quality:
        out["quality"] = checks.quality(gate, args.seed)
    if tracer:
        spans = tracer.spans()
        np.savez(work / f"rep{args.rep}-spans.npz", **spans)
        out["layers"] = layer_metrics(spans, tracer.counts, wall_raw_s, sampler.ticks())
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("import", "prepare", "run"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--work")
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quality", action="store_true")
    args = parser.parse_args()
    if args.mode == "import":
        result = setup()
    elif args.mode == "prepare":
        result = prepare(args)
    else:
        result = run(args)
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
