"""The wovr benchmark: one workload, one seed, measured for a fixed time.

    python3 bench/run.py --workload pace-pickplace --seed 0 --seconds 35 --trace 0

Each step runs in a fresh child process (bench/child.py) with BLAS pinned to
one thread: input generation from the seed, a few import-only processes for
setup_s, then repetitions of the workload until --seconds is used up. Each
repetition's time is calibrated for how fast the shared machine ran
meanwhile (bench/calibrate.py). With --trace 0 every repetition is untraced
and the last stdout line carries the end-to-end metrics; with --trace 1
untraced and traced repetitions alternate and it carries the per-layer
metrics. Earlier lines print every metric by name with its unit, the
correctness gate, the determinism hashes and the pinned environment. Exits 1
if the gate fails or the program errs, 2 if the wovr sources are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

IMPORT_SAMPLES = 10
MIN_REPS = 2
DEADLINE_S = 170.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       env.get("PYTHONPATH")]))
    return env


def call_child(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a child step")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(values):
    return statistics.median(values) if values else 0.0


def environment(seed: int, blas_threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads, **PINNED,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit, "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
    prepared = call_child(["prepare", *common], deadline)
    (work / "inputs.json").write_text(json.dumps(prepared["inputs"]))
    setup = [prepared] + [call_child(["import"], deadline) for _ in range(IMPORT_SAMPLES)]

    reps: list[dict] = []
    start = time.monotonic()
    while True:
        # with --trace 1, even repetitions are untraced and odd ones traced
        traced = trace and len(reps) % 2 == 1
        flags = ["--quality"] if not reps else []
        flags += ["--trace"] if traced else []
        reps.append(call_child(["run", *common, "--rep", str(len(reps)), *flags], deadline))
        shutil.rmtree(work / f"rep{len(reps) - 1}", ignore_errors=True)
        if reps[-1]["exit_codes"] and reps[-1]["exit_codes"][-1] != 0:
            break
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + per_rep > seconds:
            break
    return {"setup": setup, "reps": reps}


def summarize(workload: str, seed: int, trace: bool, measured: dict) -> dict:
    reps = measured["reps"]
    ok_reps = [r for r in reps if "checks" in r]
    program_ok = len(ok_reps) == len(reps)
    untraced = [r for r in ok_reps if not r["traced"]]
    traced = [r for r in ok_reps if r["traced"]]
    hashes = [json.dumps(r["hashes"], sort_keys=True) for r in ok_reps]
    deterministic = len(set(hashes)) <= 1
    gate = {name: all(r["checks"][name] for r in ok_reps) for name in
            (ok_reps[0]["checks"] if ok_reps else {})}
    gate["deterministic_hashes"] = deterministic
    attempted = sum(r["attempted"] for r in ok_reps) + 1  # + the determinism check
    failed = sum(r["failed"] for r in ok_reps) + (not deterministic) + (len(reps) - len(ok_reps))
    wall = median_of([r["wall_s"] for r in untraced])
    setups = measured["setup"] + reps
    end_to_end = {
        "setup_s": median_of([r["setup_s"] for r in setups]),
        "wall_s": wall,
        "peak_rss_mb": median_of([r["peak_rss_mb"] for r in untraced]),
        "real_env_steps": median_of([r["real_env_steps"] for r in untraced]),
    }
    quality = dict(ok_reps[0].get("quality", {})) if ok_reps else {}
    quality["failed_frac"] = failed / attempted
    # uncalibrated times: what a user of this machine waited at the moment
    quality["wall_raw_s"] = median_of([r["wall_raw_s"] for r in untraced])
    quality["setup_raw_s"] = median_of([r["setup_raw_s"] for r in setups])
    layers = {}
    if traced:
        keys = traced[0]["layers"]
        layers = {k: median_of([r["layers"][k] for r in traced]) for k in keys}
        traced_wall = median_of([r["wall_s"] for r in traced])
        layers["trace.overhead_frac"] = traced_wall / wall - 1.0 if wall else 0.0
    layers.update(quality)
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": program_ok and all(gate.values()),
        "attempted": attempted, "failed": failed,
        "reps": {"untraced": len(untraced), "traced": len(traced),
                 "setup_samples": len(measured["setup"]) + len(reps)},
        "end_to_end": end_to_end, "quality": quality, "layers": layers, "gate": gate,
        "hashes": json.loads(hashes[0]) if hashes else {},
        "wall_s_samples": [r["wall_s"] for r in untraced],
        "wall_raw_s_samples": [r["wall_raw_s"] for r in untraced],
        "kernel_mean_ms": [1e3 * r["kernel_mean_s"] for r in reps],
        "aborted_members": sum(r.get("aborted_members", 0) for r in ok_reps),
        "environment": environment(seed, reps[0].get("blas_threads")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "wovr" / "cli.py").is_file():
        print(f"wovr sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    results = ROOT / ".bench_runs" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        measured = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
        for spans in sorted(work.glob("rep*-spans.npz"))[-1:]:
            shutil.copy(spans, results / f"{stem}-spans.npz")
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = summarize(args.workload, args.seed, bool(args.trace), measured)
    (results / f"{stem}.json").write_text(json.dumps(summary, indent=1, sort_keys=True))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    table = {**summary["end_to_end"], **summary["quality"], **summary["layers"]}
    for name, value in table.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print("gate " + json.dumps(summary["gate"], sort_keys=True))
    print("record " + json.dumps({k: summary[k] for k in
                                  ("workload", "seed", "reps", "hashes", "aborted_members",
                                   "wall_s_samples", "wall_raw_s_samples", "kernel_mean_ms",
                                   "environment")}, sort_keys=True))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = summary["layers"] if args.trace else summary["end_to_end"]
    # a layer the run never reached (a failed wovr call) reads 0
    metrics = {m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]}
               for m in section}
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
