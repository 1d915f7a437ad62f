import json

import numpy as np
import pytest

from wovr import cli, evalx, nn, pace
from wovr.cli import (EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_RUNTIME,
                      aggregate_reports, build_parser, parse_and_dispatch, report,
                      resolve_config)
from wovr.core import (DEFAULTS, InvariantViolation, TaskSpec, config_hash, derive_rng,
                       derive_seed, make_config, params_hash, read_frames)
from wovr.envs import get_env
from wovr.evalx import EvalReport, success_rate

CFG_YAML = """\
seed: 3
env: reachpoint
run:
  chunk: 4
  context: 2
  max_episode_len: 16
  group_size: 4
  diffusion_steps: 3
  n_base: 10
  n_evo: 6
plan:
  rl_updates_per_stage: 2
  groups_per_update: 2
policy:
  hidden: [24]
demo:
  n: 16
  noise: 0.15
clone:
  epochs: 40
  batch_size: 32
  lr: 3.0e-3
wm:
  width: 32
  act_emb_dim: 8
  epochs: 3
  batch_size: 32
refine:
  epochs: 2
reward:
  hidden: [16, 16]
  epochs: 15
rl:
  inner_epochs: 1
eval:
  n: 5
  horizons: [4, 8]
"""


# ---------------------------------------------------------------------------
# parsing and exit codes


def test_help_exits_zero(capsys):
    assert parse_and_dispatch(["--help"]) == EXIT_OK
    assert "demo-gen" in capsys.readouterr().out


def test_unknown_subcommand_is_config_error(capsys):
    assert parse_and_dispatch(["frobnicate"]) == EXIT_CONFIG


def test_unknown_flag_is_config_error(capsys):
    assert parse_and_dispatch(["demo-gen", "--bogus", "1"]) == EXIT_CONFIG


def test_missing_required_input_is_config_error(tmp_path, capsys):
    """Every command without an input it needs exits 2 and leaves no run
    directory: the parser requires the flags a command always needs, and
    the ones that the resolved config asks for are checked before the run
    directory is made."""
    root, missing = tmp_path / "runs", str(tmp_path / "missing")
    for argv, flag in (
            (["clone"], "--demos"),
            (["collect"], "--policy"),
            (["train-wm"], "--frames"),
            (["train-reward"], "--frames"),
            (["rl", "--wm", missing, "--reward", missing], "--policy"),
            (["rl", "--policy", missing, "--reward", missing], "--wm"),
            (["rl", "--policy", missing, "--wm", missing], "--reward"),
            (["pace"], "--policy or --demos"),
            (["eval"], "--policy"),
            (["eval", "--policy", missing, "--metric", "horizon"], "--wm"),
            (["eval", "--policy", missing, "--set", "eval.metric=halluc"], "--wm"),
            (["eval", "--policy", missing, "--metric", "halluc", "--wm", missing],
             "--reward")):
        code = parse_and_dispatch([*argv, "--run-root", str(root)])
        assert code == EXIT_CONFIG, argv
        assert flag in capsys.readouterr().err, argv
        assert not root.exists(), argv


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("run:\n  warp_factor: 9\n")
    code = parse_and_dispatch(["demo-gen", "--config", str(cfg),
                               "--run-root", str(tmp_path / "runs")])
    assert code == EXIT_CONFIG
    assert "warp_factor" in capsys.readouterr().err


def test_bad_set_value_rejected(tmp_path, capsys):
    # an unknown key, a mapping for a value (flat or nested), a value for a
    # section, an unknown key inside a section's mapping, and malformed YAML
    for item, key in (("wm.nope=1", "'wm.nope'"), ("run.chunk.x=1", "'run.chunk'"),
                      ("run.chunk={x: 1}", "'run.chunk'"), ("run=5", "'run'"),
                      ("run.gamma=1.0", "unknown config key 'run.gamma'"),
                      ("plan={refinements: 0, n_evo: 0}", "'plan.n_evo'"),
                      ("plan={", "--set plan")):
        code = parse_and_dispatch(["demo-gen", "--set", item,
                                   "--run-root", str(tmp_path / "runs")])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


def test_out_of_range_config_exits_before_run_dir(tmp_path, capsys):
    root = tmp_path / "runs"
    missing = str(tmp_path / "missing.wovc")
    for key, argv in (
            ("run.clip_eps", ["demo-gen", "--set", "run.clip_eps=0"]),
            ("demo.n", ["demo-gen", "--n", "-1"]),
            ("demo.n", ["demo-gen", "--n", "0"]),
            ("demo.noise", ["demo-gen", "--set", "demo.noise=-1"]),
            ("collect.n", ["collect", "--policy", missing, "--n", "-3"]),
            ("eval.n", ["eval", "--policy", missing, "--n", "0"]),
            ("rl.keyframe_k", ["rl", "--policy", missing, "--wm", missing,
                               "--reward", missing, "--set", "rl.keyframe_k=0"]),
            ("env", ["demo-gen", "--set", "env=bogus"]),
            ("seed", ["demo-gen", "--env", "reachpoint", "--n", "2", "--seed", "-1"]),
            ("seed", ["demo-gen", "--env", "reachpoint", "--n", "2", "--set", "seed=1.5"]),
            ("eval.metric", ["eval", "--policy", missing, "--set", "eval.metric=bogus"]),
            ("wm.anchor_mode", ["train-wm", "--frames", missing,
                                "--set", "wm.anchor_mode=bogus"]),
            ("reward.pos_weight", ["train-reward", "--frames", missing,
                                   "--set", "reward.pos_weight=bogus"]),
            ("clone.batch_size", ["clone", "--demos", missing,
                                  "--set", "clone.batch_size=0"]),
            ("clone.lr", ["clone", "--demos", missing, "--lr", "-1"]),
            ("clone.epochs", ["clone", "--demos", missing, "--epochs", "-3"]),
            ("clone.epochs", ["clone", "--demos", missing, "--set", "clone.epochs=2.5"]),
            ("eval.task", ["eval", "--policy", missing, "--metric", "halluc",
                           "--set", "eval.task=9"]),
            ("eval.horizons", ["eval", "--policy", missing, "--metric", "horizon",
                               "--set", "eval.horizons=[0]"])):
        code = parse_and_dispatch([*argv, "--run-root", str(root)])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not root.exists()


def test_set_of_a_mistyped_number_exits_naming_its_key(tmp_path, capsys):
    """YAML 1.1 reads 1e-3 as a string and true as a bool: either, set on a
    float key, is a config error that names the key, before a run directory
    is made; 1.0e-3 is a float and resolves."""
    root = tmp_path / "runs"
    missing = str(tmp_path / "missing.wovc")
    for key, argv in (("rl.lr", ["rl", "--policy", missing, "--wm", missing,
                                 "--reward", missing, "--set", "rl.lr=1e-3"]),
                      ("run.clip_eps", ["demo-gen", "--set", "run.clip_eps=true"])):
        code = parse_and_dispatch([*argv, "--run-root", str(root)])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not root.exists()
    parser, flag_paths = build_parser()
    args = parser.parse_args(["demo-gen", "--set", "rl.lr=1.0e-3"])
    assert resolve_config(args, flag_paths[args.command])["rl"]["lr"] == 1e-3


def test_episode_shorter_than_a_chunk_exits_before_run_dir(tmp_path, capsys):
    root = tmp_path / "runs"
    for value in ("run.max_episode_len=0", "run.max_episode_len=4"):
        code = parse_and_dispatch(["demo-gen", "--env", "reachpoint", "--n", "2",
                                   "--set", value, "--run-root", str(root)])
        assert code == EXIT_CONFIG
        assert "run.max_episode_len" in capsys.readouterr().err
        assert not root.exists()


def test_negative_context_exits_before_run_dir(tmp_path, capsys):
    root = tmp_path / "runs"
    code = parse_and_dispatch(["pace", "--demos", str(tmp_path / "demos.wovs"),
                               "--set", "run.context=-1", "--run-root", str(root)])
    assert code == EXIT_CONFIG
    assert "run.context" in capsys.readouterr().err
    assert not root.exists()


def test_invariant_violation_exit_code(tmp_path, monkeypatch, capsys):
    def boom(cfg, run_dir, args):
        raise InvariantViolation("planted")

    monkeypatch.setitem(cli.COMMANDS, "demo-gen", boom)
    code = parse_and_dispatch(["demo-gen", "--run-root", str(tmp_path)])
    assert code == EXIT_INVARIANT


@pytest.fixture(scope="module")
def tiny_pace(tmp_path_factory):
    """The argv of a small `wovr pace` on reachpoint from 4 scripted demos,
    without its --run-root."""
    tiny = ["--env", "reachpoint", "--seed", "1", "--set", "run.max_episode_len=32"]
    demo_root = tmp_path_factory.mktemp("demos")
    assert parse_and_dispatch(["demo-gen", "--n", "4", *tiny,
                               "--run-root", str(demo_root)]) == EXIT_OK
    (demo_dir,) = demo_root.iterdir()
    sets = ("run.n_base=8", "run.n_evo=4", "clone.epochs=1", "wm.epochs=1",
            "refine.epochs=1", "reward.epochs=1", "plan.rl_updates_per_stage=1")
    return ["pace", "--demos", str(demo_dir / "demos.wovs"), *tiny,
            *(arg for s in sets for arg in ("--set", s))]


def test_stage_failure_exit_code_tracks_cause(tmp_path, monkeypatch, caplog, tiny_pace):
    """A pace stage that raises exits 4 on an InvariantViolation and 3 on
    anything else, and the failed stage is named in the log and the audit,
    whose row records the exception's type and message."""
    for cause, code in ((InvariantViolation("planted"), EXIT_INVARIANT),
                        (ValueError("planted"), EXIT_RUNTIME)):
        def failing(*args):
            raise cause

        monkeypatch.setattr(pace, "train_classifier", failing)
        root = tmp_path / type(cause).__name__
        caplog.clear()
        assert parse_and_dispatch([*tiny_pace, "--run-root", str(root)]) == code
        assert "stage 'train_reward' failed" in caplog.text
        (run_dir,) = root.iterdir()
        rows = json.loads((run_dir / "audit.json").read_text())["stages"]
        assert [(row["stage"], row.get("failed", False)) for row in rows] == [
            ("collect_base", False), ("train_reward", True)]
        assert rows[-1]["error"] == f"{type(cause).__name__}: planted"
        assert "error" not in rows[0]


def test_interrupted_pace_keeps_every_finished_stage(tmp_path, monkeypatch, tiny_pace):
    """A pace run interrupted inside rl_base leaves the checkpoints and
    records of the stages before it, and an audit whose last row is rl_base,
    marked failed; the interrupt itself propagates."""
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(pace, "_rl_stage", interrupted)
    with pytest.raises(KeyboardInterrupt):
        parse_and_dispatch([*tiny_pace, "--run-root", str(tmp_path)])
    (run_dir,) = tmp_path.iterdir()
    manifests = json.loads((run_dir / "manifests.json").read_text())
    for name in ("reward", "wm_base"):
        assert params_hash(nn.load_params(run_dir / f"{name}.wovc")) == \
            manifests[name]["params"]
    assert params_hash(nn.load_params(run_dir / "policy_base.wovc")) == \
        manifests["collect_base"]["policy"]
    assert not (run_dir / "policy.wovc").exists()
    rows = json.loads((run_dir / "audit.json").read_text())["stages"]
    assert [row["stage"] for row in rows] == ["collect_base", "train_reward",
                                              "train_wm_base", "rl_base"]
    assert rows[-1]["failed"] and not any("failed" in row for row in rows[:-1])
    assert set(json.loads((run_dir / "logs.json").read_text())) == {"reward", "wm_base"}


# ---------------------------------------------------------------------------
# config precedence and run directories


def test_flag_overrides_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("seed: 3\ndemo:\n  n: 2\n")
    root = tmp_path / "runs"
    code = parse_and_dispatch(["demo-gen", "--config", str(cfg), "--seed", "7",
                               "--env", "reachpoint", "--run-root", str(root)])
    assert code == EXIT_OK
    run_dir = next(root.iterdir())
    resolved = json.loads((run_dir / "resolved.json").read_text())
    assert resolved["seed"] == 7
    assert resolved["demo"]["n"] == 2
    assert resolved["env"] == "reachpoint"


def test_set_flag_overrides_nested_key(tmp_path, capsys):
    root = tmp_path / "runs"
    # a section-valued --set merges into the section, keeping its other keys
    code = parse_and_dispatch(["demo-gen", "--env", "reachpoint",
                               "--set", "demo.n=3", "--set", "run.chunk=4",
                               "--set", "plan={refinements: 0}", "--set", "run={n_evo: 0}",
                               "--run-root", str(root)])
    assert code == EXIT_OK
    resolved = json.loads((next(root.iterdir()) / "resolved.json").read_text())
    assert resolved["demo"]["n"] == 3
    assert resolved["run"] == {**DEFAULTS["run"], "chunk": 4, "n_evo": 0}
    assert resolved["plan"] == {**DEFAULTS["plan"], "refinements": 0}


def test_run_root_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WOVR_RUN_ROOT", str(tmp_path / "from_env"))
    code = parse_and_dispatch(["demo-gen", "--env", "reachpoint",
                               "--set", "demo.n=2", "--set", "run.chunk=4",
                               "--set", "run.max_episode_len=16"])
    assert code == EXIT_OK
    assert any((tmp_path / "from_env").iterdir())


def test_reruns_get_fresh_directories_and_identical_stores(tmp_path, capsys):
    root = tmp_path / "runs"
    argv = ["demo-gen", "--env", "reachpoint", "--set", "demo.n=4",
            "--set", "run.chunk=4", "--set", "run.max_episode_len=16",
            "--run-root", str(root)]
    assert parse_and_dispatch(argv) == EXIT_OK
    assert parse_and_dispatch(argv) == EXIT_OK
    dirs = sorted(root.iterdir())
    assert len(dirs) == 2
    a = (dirs[0] / "demos.wovs").read_bytes()
    b = (dirs[1] / "demos.wovs").read_bytes()
    assert a == b


# ---------------------------------------------------------------------------
# workflow chain


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_chain")
    cfg = base / "cfg.yaml"
    cfg.write_text(CFG_YAML)
    out = {"base": base, "cfg": cfg}

    def run(cmd, *extra):
        root = base / "runs" / cmd
        before = set(root.iterdir()) if root.exists() else set()
        code = parse_and_dispatch([cmd, "--config", str(cfg),
                                   "--run-root", str(root)] + list(extra))
        assert code == EXIT_OK, f"{cmd} failed"
        (created,) = set(root.iterdir()) - before
        return created

    out["demo_dir"] = run("demo-gen")
    out["demos"] = out["demo_dir"] / "demos.wovs"
    out["clone_dir"] = run("clone", "--demos", str(out["demos"]))
    out["policy"] = out["clone_dir"] / "policy.wovc"
    out["collect_dir"] = run("collect", "--policy", str(out["policy"]), "--n", "8")
    out["frames"] = out["collect_dir"] / "frames.wovf"
    out["wm_dir"] = run("train-wm", "--frames", str(out["frames"]))
    out["wm"] = out["wm_dir"] / "wm.wovc"
    out["wm_init_dir"] = run("train-wm", "--frames", str(out["frames"]), "--epochs", "0")
    out["reward_dir"] = run("train-reward", "--frames", str(out["frames"]))
    out["reward"] = out["reward_dir"] / "reward.wovc"
    out["rl_dir"] = run("rl", "--policy", str(out["policy"]),
                        "--wm", str(out["wm"]), "--reward", str(out["reward"]))
    out["eval_sr_dir"] = run("eval", "--policy", str(out["policy"]))
    out["eval_h_dir"] = run("eval", "--policy", str(out["policy"]),
                            "--metric", "horizon", "--wm", str(out["wm"]))
    out["pace_dir"] = run("pace", "--demos", str(out["demos"]))
    return out


def test_workflow_artifacts_exist(workflow):
    for key in ("demos", "policy", "frames", "wm", "reward"):
        assert workflow[key].exists()
    assert (workflow["rl_dir"] / "policy.wovc").exists()
    assert (workflow["wm_init_dir"] / "wm.wovc").exists()
    assert (workflow["eval_sr_dir"] / "eval.json").exists()
    assert (workflow["eval_h_dir"] / "horizon.csv").exists()


def test_workflow_rl_manifest_names_its_inputs(workflow):
    """`wovr rl` records the trained params' hash, each input checkpoint's
    path and params hash, the env and the resolved config's hash."""
    d = workflow["rl_dir"]
    manifest = json.loads((d / "manifest.json").read_text())
    resolved = json.loads((d / "resolved.json").read_text())
    assert manifest == {
        "params": params_hash(nn.load_params(d / "policy.wovc")),
        "env": "reachpoint", "config": config_hash(resolved),
        **{flag: {"path": str(workflow[flag]),
                  "params": params_hash(nn.load_params(workflow[flag]))}
           for flag in ("policy", "wm", "reward")}}


def test_workflow_resolved_config_recorded(workflow):
    resolved = json.loads((workflow["pace_dir"] / "resolved.json").read_text())
    assert resolved["run"]["n_base"] == 10
    assert resolved["env"] == "reachpoint"


def test_workflow_demo_manifest(workflow):
    manifest = json.loads(
        (workflow["demos"].parent / "demos.wovs.manifest.json").read_text())
    assert manifest["env"] == "reachpoint"
    assert manifest["n"] == 16


def test_workflow_pace_artifacts(workflow):
    d = workflow["pace_dir"]
    for name in ("policy.wovc", "wm_base.wovc", "wm_evo.wovc", "reward.wovc",
                 "manifests.json", "logs.json", "audit.json"):
        assert (d / name).exists(), name
    audit = json.loads((d / "audit.json").read_text())
    assert audit["trajectories_total"] == 16
    for row in audit["stages"]:
        if row["stage"] not in ("collect_base", "collect_evo"):
            assert row["env_steps"] == 0


def test_workflow_reward_manifest_counts_frames(workflow):
    manifest = json.loads((workflow["reward_dir"] / "manifest.json").read_text())
    episodes, _ = read_frames(workflow["frames"])
    assert manifest["n_examples"] == sum(len(ep.states) for ep in episodes)


def test_pace_keeps_the_base_model_without_an_evolved_window(tmp_path):
    """Evolved episodes all shorter than one prediction window leave refinement
    nothing to train on: the run finishes with wm_evo equal to wm_base."""
    tiny = ["--env", "reachpoint", "--seed", "1", "--set", "run.max_episode_len=32"]
    demo_root, pace_root = tmp_path / "demos", tmp_path / "pace"
    assert parse_and_dispatch(["demo-gen", "--n", "4", *tiny,
                               "--run-root", str(demo_root)]) == EXIT_OK
    (demo_dir,) = demo_root.iterdir()
    sets = ("run.n_base=8", "run.n_evo=4", "wm.epochs=1", "refine.epochs=1",
            "reward.epochs=1", "plan.rl_updates_per_stage=0")
    assert parse_and_dispatch(["pace", "--demos", str(demo_dir / "demos.wovs"), *tiny,
                               *(arg for s in sets for arg in ("--set", s)),
                               "--run-root", str(pace_root)]) == EXIT_OK
    (run_dir,) = pace_root.iterdir()
    manifests = json.loads((run_dir / "manifests.json").read_text())
    logs = json.loads((run_dir / "logs.json").read_text())
    assert logs["refine"]["n_new_windows"] == 0 and logs["wm_evo"] == []
    assert manifests["wm_evo"]["params"] == manifests["wm_base"]["params"]
    assert manifests["wm_evo"]["param_distance"] == 0.0


def test_workflow_eval_report_contents(workflow):
    rep = EvalReport.from_json((workflow["eval_sr_dir"] / "eval.json").read_text())
    assert rep.success_rate is not None and 0.0 <= rep.success_rate <= 1.0
    assert rep.sr_trials == 20
    rep_h = EvalReport.from_json((workflow["eval_h_dir"] / "eval.json").read_text())
    assert [h for h, _ in rep_h.horizon_curve] == [4, 8]


class NoisyExpert:
    """Test double: the env's scripted controller one chunk ahead, plus scale
    times the noise row on every action, so episodes both succeed and fail."""

    def __init__(self, env, horizon, scale):
        self.env, self.horizon, self.scale = env, horizon, scale
        self.flat = horizon * env.action_dim

    def sample(self, params, obs, task, noise):
        chunks = []
        for state in obs:
            chunk = []
            for _ in range(self.horizon):
                chunk.append(self.env.expert_action(state))
                state = self.env.step(state, chunk[-1])
            chunks.append(chunk)
        chunks = np.array(chunks)
        return chunks + self.scale * np.reshape(noise, chunks.shape), np.zeros(len(chunks))


def test_sr_eval_is_one_rollout_equal_to_per_task_success_rates(tmp_path, monkeypatch, capsys):
    """`wovr eval --metric sr` rolls every task's episodes in one rollout_real
    call, and its rate equals, bit for bit, the mean of one
    evalx.success_rate call per task t at derive_seed(seed, 81, t), on both
    envs, for a scripted and a learned (batched matmul) policy."""
    n, seed = 12, 5
    calls = []
    real_rollout, build_policy = evalx.rollout_real, cli.build_policy

    def counted(*args, **kwargs):
        calls.append(args[4])
        return real_rollout(*args, **kwargs)

    monkeypatch.setattr(evalx, "rollout_real", counted)
    for env_name, scale in (("pickplace2d", 0.6), ("reachpoint", 3.0), ("reachpoint", None)):
        env = get_env(env_name)
        cfg = make_config({"env": env_name, "policy": {"init_log_std": 1.0}})
        T, H = cfg["run"]["max_episode_len"], cfg["run"]["chunk"]
        learned = build_policy(env, cfg)
        params = learned.init(derive_rng(seed))
        policy = learned if scale is None else NoisyExpert(env, H, scale)
        monkeypatch.setattr(cli, "build_policy", lambda _env, _cfg: policy)
        path = tmp_path / f"{env_name}-{scale}.wovc"
        nn.save_params(path, params)
        root = tmp_path / f"runs-{env_name}-{scale}"
        calls.clear()
        assert parse_and_dispatch(["eval", "--env", env_name, "--policy", str(path),
                                   "--metric", "sr", "--n", str(n), "--seed", str(seed),
                                   "--run-root", str(root)]) == EXIT_OK
        assert calls == [n * env.n_tasks]
        (run_dir,) = root.iterdir()
        got = json.loads((run_dir / "eval.json").read_text())["success_rate"]
        want = float(np.mean([success_rate(policy, params, env, TaskSpec(t), n, T, H,
                                           derive_seed(seed, 81, t))
                              for t in range(env.n_tasks)]))
        assert got == want and 0.0 < got < 1.0, (env_name, scale, got)


def test_workflow_eval_missing_wm_flag(workflow, capsys):
    code = parse_and_dispatch([
        "eval", "--config", str(workflow["cfg"]),
        "--run-root", str(workflow["base"] / "runs" / "bad"),
        "--policy", str(workflow["policy"]), "--metric", "horizon"])
    assert code == EXIT_CONFIG
    assert not (workflow["base"] / "runs" / "bad").exists()


def test_pace_leak_exits_4_with_an_audit_naming_the_stage(workflow, monkeypatch, capsys):
    """A stage other than a collection that steps the real env ends the run
    there with exit 4, and the run directory's audit.json names the stage."""
    label = pace.label_episode_frames

    def leaking_label(episodes, env):
        env.step(episodes[0].states[0], np.zeros(env.action_dim))
        return label(episodes, env)

    monkeypatch.setattr(pace, "label_episode_frames", leaking_label)
    root = workflow["base"] / "runs" / "leak"
    code = parse_and_dispatch(["pace", "--config", str(workflow["cfg"]),
                               "--demos", str(workflow["demos"]), "--run-root", str(root)])
    assert code == EXIT_INVARIANT
    assert "'train_reward'" in capsys.readouterr().err
    (run_dir,) = root.iterdir()
    rows = json.loads((run_dir / "audit.json").read_text())["stages"]
    assert [row["stage"] for row in rows] == ["collect_base", "train_reward"]
    assert rows[-1]["failed"] and rows[-1]["env_steps"] == 1


def assert_env_mismatch(workflow, capsys, *argv):
    """argv, given reachpoint input while its env resolves to pickplace2d,
    exits as a config error that names both envs and leaves no run
    directory behind."""
    root = workflow["base"] / "runs" / "mismatch"
    code = parse_and_dispatch([*argv, "--run-root", str(root)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and "'reachpoint'" in err and "'pickplace2d'" in err, err
    assert not root.exists()


def test_clone_rejects_demos_of_another_env(workflow, capsys):
    clone = json.loads((workflow["clone_dir"] / "manifest.json").read_text())
    assert clone["env"] == "reachpoint"
    assert_env_mismatch(workflow, capsys, "clone", "--config", str(workflow["cfg"]),
                        "--env", "pickplace2d", "--demos", str(workflow["demos"]))


def test_pace_rejects_demos_of_another_env(workflow, capsys):
    assert_env_mismatch(workflow, capsys, "pace", "--config", str(workflow["cfg"]),
                        "--env", "pickplace2d", "--demos", str(workflow["demos"]))


def test_train_wm_rejects_frames_of_another_env(workflow, capsys):
    # without --env the resolved env is the default, pickplace2d
    assert_env_mismatch(workflow, capsys, "train-wm", "--frames", str(workflow["frames"]))


def test_train_reward_rejects_inputs_of_another_env(workflow, capsys, tmp_path):
    assert_env_mismatch(workflow, capsys, "train-reward", "--config", str(workflow["cfg"]),
                        "--env", "pickplace2d", "--frames", str(workflow["frames"]))
    assert parse_and_dispatch(["demo-gen", "--env", "pickplace2d", "--n", "1",
                               "--run-root", str(tmp_path)]) == EXIT_OK
    (demo_dir,) = tmp_path.iterdir()
    assert_env_mismatch(workflow, capsys, "train-reward", "--config", str(workflow["cfg"]),
                        "--frames", str(workflow["frames"]),
                        "--demos", str(demo_dir / "demos.wovs"))


def test_a_checkpoint_that_does_not_fit_the_config_exits_before_run_dir(workflow, capsys):
    """A checkpoint whose keys or shapes differ from the net the resolved
    config builds exits 2, naming its flag and the first differing key, and
    leaves no run directory behind; before, each ran into a numpy or key
    error mid-run and exited 3 after making one."""
    root = workflow["base"] / "runs" / "misfit"
    cfg, policy, wm, reward = (str(workflow[k]) for k in ("cfg", "policy", "wm", "reward"))
    for argv, flag, key in (
            # a reachpoint policy's chunk has 4 * 2 entries, pickplace2d's 4 * 3
            (["collect", "--env", "pickplace2d", "--policy", policy], "--policy", "pi.b1"),
            (["eval", "--env", "pickplace2d", "--metric", "sr", "--policy", policy],
             "--policy", "pi.b1"),
            (["collect", "--set", "policy.hidden=[32]", "--policy", policy], "--policy",
             "pi.b0"),
            (["rl", "--set", "wm.width=64", "--policy", policy, "--wm", wm, "--reward", reward],
             "--wm", "wm_in.b0"),
            (["rl", "--policy", policy, "--wm", reward, "--reward", wm], "--wm", "rw.b0"),
            (["eval", "--metric", "halluc", "--policy", policy, "--wm", wm, "--reward", wm],
             "--reward", "rw.b0")):
        code = parse_and_dispatch([*argv, "--config", cfg, "--run-root", str(root)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, (argv, err)
        assert f"config error: {flag} " in err and repr(key) in err, (argv, err)
        assert not root.exists(), argv


def test_workflow_halluc_thresholds_at_rl_reward_threshold(workflow, capsys):
    root = workflow["base"] / "halluc"
    argv = ["eval", "--config", str(workflow["cfg"]), "--run-root", str(root),
            "--policy", str(workflow["policy"]), "--metric", "halluc",
            "--wm", str(workflow["wm"]), "--reward", str(workflow["reward"])]
    assert parse_and_dispatch(argv + ["--set", "reward.threshold=0.5"]) \
        == EXIT_CONFIG
    # at threshold 0 every imagined episode succeeds on its first frame, so
    # no real success can go missed
    assert parse_and_dispatch(argv + ["--set", "rl.reward_threshold=0.0"]) \
        == EXIT_OK
    (run_dir,) = root.iterdir()
    rep = EvalReport.from_json((run_dir / "eval.json").read_text())
    assert rep.hallucination["missed"] == 0


def test_workflow_report_aggregates(workflow, capsys):
    code = parse_and_dispatch(["report", str(workflow["base"] / "runs")])
    assert code == EXIT_OK
    summary = json.loads((workflow["base"] / "runs" / "summary.json").read_text())
    assert summary["n_reports"] == 2
    assert summary["success_rate"]["n"] == 1
    assert summary["success_rate"]["stderr"] == 0.0
    csv_text = (workflow["base"] / "runs" / "summary.csv").read_text()
    assert csv_text.startswith("metric,mean,stderr,n")
    assert "horizon_8," in csv_text


# ---------------------------------------------------------------------------
# report math


def test_report_empty_dir_is_runtime_error(tmp_path, capsys):
    assert parse_and_dispatch(["report", str(tmp_path)]) == EXIT_RUNTIME


def test_aggregate_mean_and_stderr(tmp_path):
    values = [0.4, 0.6, 0.5, 0.7, 0.3]
    for i, v in enumerate(values):
        d = tmp_path / f"seed{i}"
        d.mkdir()
        EvalReport(seeds=[i], success_rate=v, sr_trials=10,
                   horizon_curve=[(8, 0.1 * (i + 1)), (16, 0.2 * (i + 1))]
                   ).write(d / "eval.json")
    summary = report(tmp_path)
    arr = np.array(values)
    assert summary["n_reports"] == 5
    assert summary["success_rate"]["mean"] == pytest.approx(arr.mean())
    assert summary["success_rate"]["stderr"] == pytest.approx(
        arr.std(ddof=1) / np.sqrt(5))
    assert summary["horizon_mse"][8]["mean"] == pytest.approx(0.3)
    assert summary["horizon_mse"][16]["n"] == 5


def test_aggregate_single_report():
    rep = EvalReport(seeds=[0], success_rate=0.42, sr_trials=10)
    summary = aggregate_reports([rep])
    assert summary["success_rate"]["mean"] == pytest.approx(0.42)
    assert summary["success_rate"]["stderr"] == 0.0


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_reports([])
