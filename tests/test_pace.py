import inspect
import json
from collections import deque

import numpy as np
import pytest

from wovr.core import (ConfigError, FrameEpisode, InvariantViolation,
                       TaskSpec, derive_rng, derive_seed, derive_seeds, make_config,
                       params_hash)
from wovr.envs import CountingEnv, get_env, scripted_demo
from wovr.grpo import ChunkPolicy, grpo_update
from wovr.pace import (LearnedReward, _rl_stage, clone_base_policy, refine_wm, run_iteration,
                       run_pipeline, start_key)
from wovr.rollout import KEYFRAME_CAPACITY, harvest_keyframes, rollout_real, sample_start
from wovr.reward import RewardNet, train_classifier
from wovr.worldmodel import (LearnedWorldModel, OracleWorldModel, WmNet,
                             build_context, sample_chunk, train_wm, window_index)
from wovr import nn, pace

H, T = 4, 16


def clone_section(**values):
    return make_config({"clone": values})["clone"]
STAGES = ("collect_base", "train_reward", "train_wm_base", "rl_base",
          "collect_evo", "refine_wm", "rl_evo")


# ---------------------------------------------------------------------------
# stage plan


def test_plan_rejects_bad_fields():
    for bad in ({"plan": {"refinements": -1}},
                {"run": {"n_base": 0}},
                {"run": {"n_evo": -1}},
                {"run": {"n_evo": 50}, "plan": {"refinements": 0}},
                {"run": {"n_evo": 0}, "plan": {"refinements": 1}},
                {"plan": {"rl_updates_per_stage": -1}},
                {"plan": {"groups_per_update": 0}},
                {"plan": {"refine_mix_new": 0.0}},
                {"plan": {"refine_mix_new": 1.5}}):
        with pytest.raises(ConfigError):
            make_config(bad)
    make_config({"run": {"n_evo": 0}, "plan": {"refinements": 0}})
    make_config({"run": {"n_evo": 1}, "plan": {"refinements": 2}})


def test_trainers_state_no_hyperparameter_default():
    """Each trainer reads its hyperparameters from the config, so core.DEFAULTS
    is the only place their defaults live; optional state is all that is left."""
    for trainer in (clone_base_policy, train_classifier, train_wm, refine_wm, grpo_update):
        defaults = {name for name, param in inspect.signature(trainer).parameters.items()
                    if param.default is not param.empty}
        assert defaults <= {"init_params", "opt_state"}, trainer.__name__


# ---------------------------------------------------------------------------
# behavior cloning


@pytest.fixture(scope="module")
def reach_env():
    return get_env("reachpoint")


@pytest.fixture(scope="module")
def reach_demos(reach_env):
    return [scripted_demo(reach_env, TaskSpec(i % 4), 50 + i, noise_level=0.15,
                          chunk=H, max_len=T) for i in range(16)]


@pytest.fixture(scope="module")
def base_policy(reach_env, reach_demos):
    policy = ChunkPolicy(reach_env.state_dim, 4, H, reach_env.action_dim,
                         hidden=(24,))
    params, losses = clone_base_policy(reach_demos, policy, derive_rng(7),
                                       clone_section(epochs=40, batch_size=32, lr=3e-3))
    assert losses[-1] < losses[0]
    return policy, params


def test_clone_zero_epochs_is_init(reach_env, reach_demos):
    policy = ChunkPolicy(reach_env.state_dim, 4, H, reach_env.action_dim,
                         hidden=(24,))
    params, losses = clone_base_policy(reach_demos, policy, derive_rng(9),
                                       clone_section(epochs=0))
    init = policy.init(derive_rng(9))
    assert losses == []
    assert all(np.array_equal(params[k], init[k]) for k in init)


def test_clone_is_deterministic(reach_env, reach_demos):
    policy = ChunkPolicy(reach_env.state_dim, 4, H, reach_env.action_dim,
                         hidden=(24,))
    a, _ = clone_base_policy(reach_demos, policy, derive_rng(9), clone_section(epochs=5))
    b, _ = clone_base_policy(reach_demos, policy, derive_rng(9), clone_section(epochs=5))
    assert params_hash(a) == params_hash(b)


def test_clone_rejects_empty():
    policy = ChunkPolicy(4, 4, H, 2, hidden=(16,))
    with pytest.raises(ValueError):
        clone_base_policy([], policy, derive_rng(0), clone_section())


def test_clone_inherits_demo_noise_scale(base_policy):
    # demos were recorded under sigma 0.15 action noise; the fitted log-std
    # should land near ln(0.15) plus residual fit error, not at the clamp edges
    _, params = base_policy
    mean_log_std = float(params["pi.log_std"].mean())
    assert -2.5 < mean_log_std < -0.5


def test_clone_noise_free_demos_reproduce_actions():
    env = get_env("pickplace2d")
    demos = [scripted_demo(env, TaskSpec(i % 4), 30 + i, noise_level=0.0)
             for i in range(12)]
    assert all(d.success for d in demos)
    policy = ChunkPolicy(env.state_dim, 4, 8, env.action_dim)
    params, _ = clone_base_policy(demos, policy, derive_rng(21),
                                  clone_section(epochs=1000, batch_size=32, lr=3e-3))
    errs = np.concatenate([
        np.mean((policy.mean(params, d.steps.obs, d.task)
                 - d.steps.chunk.reshape(len(d.steps), -1)) ** 2, axis=1) for d in demos])
    # recorded 5.3e-3 for this seed; bound is the acceptance threshold
    assert float(np.mean(errs)) <= 1e-2


# ---------------------------------------------------------------------------
# world-model refinement


D, A = 2, 2


def drift_episode(rng, lo, hi, n=24, drift=0.05):
    states = [rng.uniform(-1, 1, D)]
    acts = []
    a = rng.uniform(lo, hi, A)
    for j in range(n):
        if j % 4 == 0:
            a = rng.uniform(lo, hi, A)
        acts.append(a.copy())
        states.append(states[-1] + drift * a)
    return FrameEpisode(TaskSpec(0), np.array(states), np.array(acts))


@pytest.fixture(scope="module")
def shift_fixture():
    # base data uses actions in [-1, 0], the "evolved policy" uses [0, 1]
    rng = derive_rng(300)
    base_eps = [drift_episode(rng, -1.0, 0.0) for _ in range(30)]
    shift_train = [drift_episode(rng, 0.0, 1.0) for _ in range(20)]
    shift_test = [drift_episode(rng, 0.0, 1.0) for _ in range(12)]
    net = WmNet(D, A, 1, horizon=H, context=2, width=32, act_emb_dim=8)
    wm = make_config({"wm": {"epochs": 60, "batch_size": 16, "lr": 2e-3,
                             "p_noisy": 0.0}})["wm"]
    base_params, _ = train_wm(base_eps, net, derive_rng(301), wm)
    return net, base_params, base_eps, shift_train, shift_test


def chunk_mse(net, params, eps, seed):
    rng = derive_rng(seed)
    errs = []
    for e, s in window_index(eps, H)[::3]:
        ep = eps[e]
        anchors, memories = build_context([ep.states[:s + 1]], net.context, net.anchor_mode)
        pred = sample_chunk(net, params, anchors, memories, ep.task, ep.actions[None, s:s + H],
                            5, rng.normal(size=(1, net.out_dim)))[0]
        errs.append(np.mean((pred - ep.states[s + 1:s + 1 + H]) ** 2))
    return float(np.mean(errs))


def test_refine_zero_epochs_identical(shift_fixture):
    net, base_params, base_eps, shift_train, _ = shift_fixture
    cfg = make_config({"refine": {"epochs": 0}, "wm": {"p_noisy": 0.0}})
    params, losses, _ = refine_wm(net, base_params, shift_train, base_eps,
                                  derive_rng(303), cfg)
    assert losses == []
    assert all(np.array_equal(params[k], base_params[k]) for k in base_params)


def test_refine_rejects_bad_inputs(shift_fixture):
    net, base_params, base_eps, shift_train, _ = shift_fixture
    with pytest.raises(ValueError):
        refine_wm(net, base_params, [], base_eps, derive_rng(0), make_config())


def test_refine_mixture_ratio_logged(shift_fixture):
    net, base_params, base_eps, shift_train, _ = shift_fixture
    _, _, info = refine_wm(net, base_params, shift_train, base_eps, derive_rng(304),
                           make_config({"refine": {"epochs": 0},
                                        "plan": {"refine_mix_new": 0.7}}))
    assert abs(info["mix_new_realized"] - 0.7) < 0.1
    assert info["n_new_windows"] > 0 and info["n_retained_windows"] > 0
    # mix_new=1.0 keeps no retained data at all
    _, _, pure = refine_wm(net, base_params, shift_train, base_eps, derive_rng(304),
                           make_config({"refine": {"epochs": 0},
                                        "plan": {"refine_mix_new": 1.0}}))
    assert pure["n_retained_windows"] == 0
    assert pure["mix_new_realized"] == 1.0


def test_refine_improves_on_shifted_actions(shift_fixture):
    net, base_params, base_eps, shift_train, shift_test = shift_fixture
    cfg = make_config({"refine": {"epochs": 30, "batch_size": 16, "lr": 1e-3},
                       "wm": {"p_noisy": 0.0}})
    evo_params, _, info = refine_wm(net, base_params, shift_train, base_eps,
                                    derive_rng(302), cfg)
    m_base = chunk_mse(net, base_params, shift_test, 99)
    m_evo = chunk_mse(net, evo_params, shift_test, 99)
    # recorded 5.5e-3 -> 2.6e-3 for this seed, about 2x
    assert m_evo < m_base
    assert info["param_distance"] > 0.0
    # the retained 30% guards the base distribution against forgetting;
    # recorded 2.1e-3 -> 1.9e-3 on base data for this seed
    m_evo_on_base = chunk_mse(net, evo_params, base_eps[:12], 98)
    m_base_on_base = chunk_mse(net, base_params, base_eps[:12], 98)
    assert m_evo_on_base < 2.0 * m_base_on_base


# ---------------------------------------------------------------------------
# pipeline


def small_nets(env):
    wm_net = WmNet(env.state_dim, env.action_dim, 4, horizon=H, context=2,
                   width=32, act_emb_dim=8)
    rew_net = RewardNet(env.state_dim, 4, hidden=(16, 16))
    return wm_net, rew_net


SMALL = {"run": {"group_size": 4, "chunk": H, "context": 2,
                 "max_episode_len": T, "diffusion_steps": 3},
         "plan": {"rl_updates_per_stage": 2, "groups_per_update": 2},
         "wm": {"epochs": 3, "batch_size": 32}, "refine": {"epochs": 2},
         "reward": {"epochs": 15}, "rl": {"inner_epochs": 1}}


class PaceRun:
    """The run directory run_pipeline wrote, read back: its three records
    and its checkpoints by name."""

    def __init__(self, out):
        self.out = out
        self.audit, self.manifests, self.logs = (
            json.loads((out / f"{name}.json").read_text())
            for name in ("audit", "manifests", "logs"))

    def params(self, name):
        return nn.load_params(self.out / f"{name}.wovc")

    def checkpoints(self):
        return {path.stem for path in self.out.glob("*.wovc")}


def small_run(out, env, policy, params, n_base, n_evo, *overrides, seed=3,
              demos=None):
    cfg = make_config(SMALL, {"seed": seed,
                              "run": {"n_base": n_base, "n_evo": n_evo}},
                      *overrides)
    wm_net, rew_net = small_nets(env)
    out.mkdir()
    audit = run_pipeline(env, policy, params, wm_net, rew_net, cfg, out, demos=demos)
    run = PaceRun(out)
    assert run.audit == audit
    return run


@pytest.fixture(scope="module")
def pipeline_run(reach_env, base_policy, tmp_path_factory):
    policy, params = base_policy
    return small_run(tmp_path_factory.mktemp("pace") / "run", reach_env, policy, params, 12, 8)


def test_pipeline_stage_order(pipeline_run):
    assert [r["stage"] for r in pipeline_run.audit["stages"]] == list(STAGES)


def test_pipeline_real_steps_only_in_collection(pipeline_run):
    for row in pipeline_run.audit["stages"]:
        if row["stage"] in ("collect_base", "collect_evo"):
            assert row["env_steps"] > 0
        else:
            assert row["env_steps"] == 0


def test_pipeline_budget_audit(pipeline_run):
    rows = {r["stage"]: r for r in pipeline_run.audit["stages"]}
    assert rows["collect_base"]["trajectories"] == 12
    assert rows["collect_evo"]["trajectories"] == 8
    assert pipeline_run.audit["trajectories_total"] == 20
    assert pipeline_run.audit["budget"] == 20
    assert pipeline_run.audit["env_steps_total"] == sum(
        r["env_steps"] for r in pipeline_run.audit["stages"])


def test_pipeline_counts_one_reset_per_fresh_episode(pipeline_run):
    """A collection resets all its episodes in one reset_states call, and the
    audit still counts one reset per episode."""
    rows = {r["stage"]: r for r in pipeline_run.audit["stages"]}
    assert rows["collect_base"]["env_resets"] == 12
    assert rows["collect_evo"]["env_resets"] == 8
    assert pipeline_run.audit["env_resets_total"] == sum(
        r["env_resets"] for r in pipeline_run.audit["stages"])


def test_pipeline_artifact_completeness(pipeline_run):
    run = pipeline_run
    assert run.checkpoints() == {"policy_base", "policy_stage1", "policy_stage2",
                                 "wm_base", "wm_evo", "reward", "policy"}
    assert params_hash(run.params("policy")) == params_hash(run.params("policy_stage2"))
    assert len(run.logs["wm_base"]) == 3
    assert [len(stage) for stage in run.logs["rl"]] == [2, 2]


def test_pipeline_manifest_linkage(pipeline_run):
    run = pipeline_run
    assert run.manifests["wm_evo"]["base"] == params_hash(run.params("wm_base"))
    assert run.manifests["collect_evo"]["policy"] == params_hash(
        run.params("policy_stage1"))
    cfg_hashes = {m["config"] for m in run.manifests.values()}
    assert len(cfg_hashes) == 1


def test_pipeline_zero_rl_updates_keeps_base(tmp_path, reach_env, base_policy):
    policy, params = base_policy
    run = small_run(tmp_path / "run", reach_env, policy, params, 8, 4,
                    {"plan": {"rl_updates_per_stage": 0}})
    final = run.params("policy")
    assert all(np.array_equal(final[k], params[k]) for k in params)
    assert run.logs["rl"] == [[], []]


@pytest.mark.parametrize("logit_bias", [-1e3, 1e3])
def test_rl_stage_counts_all_equal_return_groups(reach_env, base_policy, logit_bias):
    # a reward that never (or always) fires gives every member the same
    # return, so every group has all-zero advantages
    policy, params = base_policy
    cfg = make_config(SMALL, {"seed": 8})
    wm_net, rew_net = small_nets(reach_env)
    reward_params = rew_net.init(derive_rng(81))
    reward_params["rw.b2"] = np.array([logit_bias])
    wm = LearnedWorldModel(wm_net, wm_net.init(derive_rng(82)), cfg["run"]["diffusion_steps"])
    reward_fn = LearnedReward(rew_net, reward_params, cfg["rl"]["reward_threshold"])
    _, logs = _rl_stage(policy, params, wm, reward_fn, reach_env, cfg,
                        deque(maxlen=KEYFRAME_CAPACITY), tag=83)
    assert len(logs) == SMALL["plan"]["rl_updates_per_stage"]
    for record in logs:
        assert record["imagined_success"] == float(logit_bias > 0)
        assert record["zero_adv_groups"] == SMALL["plan"]["groups_per_update"]


def test_rl_stage_oracle_rung_scores_real_outcomes(reach_env, base_policy):
    # rung (a) of the simulator ladder: true dynamics and the true success
    # predicate, so the stage's imagined episodes are the real ones from the
    # same starts and member streams, down to the failure keyframes it keeps
    policy, params = base_policy
    cfg = make_config(SMALL, {"seed": 9, "run": {"kir_fraction": 0.0},
                              "plan": {"rl_updates_per_stage": 1}})
    seed, run, plan, tag = cfg["seed"], cfg["run"], cfg["plan"], 84
    counter, keyframes = CountingEnv(reach_env), deque(maxlen=KEYFRAME_CAPACITY)

    def true_reward(frame, _task):
        return int(reach_env.is_success(frame))

    wm = OracleWorldModel(reach_env, run["context"])
    _, logs = _rl_stage(policy, params, wm, true_reward, counter, cfg, keyframes, tag)
    assert len(logs) == plan["rl_updates_per_stage"]
    assert counter.steps == 0
    assert counter.resets == plan["groups_per_update"]

    start_rng = derive_rng(*start_key(seed, tag))
    outcomes, expected = [], deque(maxlen=KEYFRAME_CAPACITY)
    for g in range(plan["groups_per_update"]):
        task = TaskSpec(g % reach_env.n_tasks)
        start, _ = sample_start(deque(), task, 0.0,
                                lambda r: reach_env.reset_state(task, r), start_rng)
        trajs = rollout_real(policy, params, reach_env, task, run["group_size"],
                             run["max_episode_len"], run["chunk"],
                             derive_seed(seed, tag, 0, g), starts=[start] * run["group_size"])
        outcomes += [t.success for t in trajs]
        harvest_keyframes(trajs, cfg["rl"]["keyframe_k"], expected)
    assert logs[0]["imagined_success"] == float(np.mean(outcomes))
    assert 0.0 < logs[0]["imagined_success"] < 1.0
    assert len(keyframes) == len(expected) > 0
    for (state, task), (state_r, task_r) in zip(list(keyframes), list(expected)):
        assert np.array_equal(state, state_r)
        assert task == task_r


@pytest.mark.parametrize("tag", [14, 17, 76])
def test_start_stream_shares_no_pool_with_a_group_seed(tag):
    """SeedSequence pads a short key with zeros, so a three-word start key
    (seed, tag, 3) seeded the same stream as group 0 of update 3; the start
    key pads to no group key (seed, tag, u, g)."""
    for seed in range(3):
        groups = set(derive_seeds([(seed, tag, u, g) for u in range(40) for g in range(8)]))
        assert derive_seed(*start_key(seed, tag)) not in groups
        assert derive_seed(seed, tag, 3) in groups  # the collision it replaces


def rl_stage_inputs(reach_env, base_policy, *overrides):
    policy, params = base_policy
    cfg = make_config(SMALL, *overrides)
    wm_net, rew_net = small_nets(reach_env)
    wm = LearnedWorldModel(wm_net, wm_net.init(derive_rng(85)), cfg["run"]["diffusion_steps"])
    reward_fn = LearnedReward(rew_net, rew_net.init(derive_rng(86)),
                              cfg["rl"]["reward_threshold"])
    return policy, params, wm, reward_fn, cfg


@pytest.mark.parametrize("groups", [1, 3, 8])
def test_rl_update_samples_once_per_chunk_step(reach_env, base_policy, monkeypatch, groups):
    # every group of an update rolls in one lockstep batch, so the policy and
    # model calls do not grow with plan.groups_per_update
    calls = {"sample": 0, "u_apply": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ChunkPolicy, "sample", counted("sample", ChunkPolicy.sample))
    monkeypatch.setattr(WmNet, "u_apply", counted("u_apply", WmNet.u_apply))
    policy, params, wm, reward_fn, cfg = rl_stage_inputs(
        reach_env, base_policy, {"seed": 5, "plan": {"rl_updates_per_stage": 1,
                                                     "groups_per_update": groups}})
    _rl_stage(policy, params, wm, reward_fn, reach_env, cfg,
              deque(maxlen=KEYFRAME_CAPACITY), tag=87)
    chunk_steps = T // H
    assert 1 <= calls["sample"] <= chunk_steps
    assert calls["u_apply"] <= chunk_steps * cfg["run"]["diffusion_steps"]
    assert calls["u_apply"] == calls["sample"] * cfg["run"]["diffusion_steps"]


def test_rl_update_harvests_after_its_rollouts(reach_env, base_policy, monkeypatch):
    # two groups per task in each update, every start a keyframe when one
    # exists, and no member ever succeeds: the first update finds no
    # keyframe, the second draws every start from the first's failures
    policy, params = base_policy
    cfg = make_config(SMALL, {"seed": 6, "run": {"kir_fraction": 1.0},
                              "plan": {"groups_per_update": 8}})
    seen = []

    def recording(keyframes, *args):
        seen.append(len(keyframes))
        return sample_start(keyframes, *args)

    monkeypatch.setattr(pace, "sample_start", recording)
    keyframes = deque(maxlen=KEYFRAME_CAPACITY)
    wm = OracleWorldModel(reach_env, cfg["run"]["context"])
    _, logs = _rl_stage(policy, params, wm, lambda frame, task: 0, reach_env, cfg,
                        keyframes, tag=88)
    per_update = 8 * cfg["run"]["group_size"] * cfg["rl"]["keyframe_k"]
    assert seen == [0] * 8 + [per_update] * 8
    assert [record["kir_groups"] for record in logs] == [0, 8]
    assert len(keyframes) == 2 * per_update


def test_rl_stage_is_deterministic(reach_env, base_policy):
    policy, params, wm, _, cfg = rl_stage_inputs(
        reach_env, base_policy, {"seed": 7, "plan": {"groups_per_update": 3}})
    reward_fn = lambda frame, task: int(frame[0] > 2.0)
    runs = [_rl_stage(policy, params, wm, reward_fn, reach_env, cfg,
                      deque(maxlen=KEYFRAME_CAPACITY), tag=89) for _ in range(2)]
    (a, logs_a), (b, logs_b) = runs
    assert params_hash(a) == params_hash(b) and logs_a == logs_b
    # the groups carried signal, so the runs compared trained params
    assert params_hash(a) != params_hash(params)


def toy_params(seed):
    rng = derive_rng(seed)
    return {"w": rng.normal(size=(3, 3)), "b": rng.normal(size=3)}


def test_rollout_phase_cannot_write_policy_params():
    params = toy_params(1)
    before = {k: v.copy() for k, v in params.items()}

    def writing_rollout(pol_params, wm, reward_fn):
        pol_params["w"][0, 0] += 1.0

    with pytest.raises(ValueError):
        run_iteration(params, None, None, writing_rollout, lambda rollouts: rollouts)
    assert all(np.array_equal(params[k], before[k]) for k in params)
    assert all(v.flags.writeable for v in params.values())


def test_rollout_phase_reads_live_params_uncopied():
    params, seen = toy_params(2), {}

    def capture(pol_params, wm, reward_fn):
        seen.update(pol_params, wm=wm, reward_fn=reward_fn)
        return "rollouts"

    out = run_iteration(params, "wm", "reward", capture, lambda r: (r, "trained"))
    assert out == ("rollouts", "trained")
    assert seen["wm"] == "wm" and seen["reward_fn"] == "reward"
    for k, v in params.items():
        assert np.shares_memory(seen[k], v) and np.array_equal(seen[k], v)


def test_model_params_are_read_only(reach_env):
    wm_net, rew_net = small_nets(reach_env)
    wm_params, reward_params = wm_net.init(derive_rng(1)), rew_net.init(derive_rng(2))
    wm = LearnedWorldModel(wm_net, wm_params, steps=3)
    reward = LearnedReward(rew_net, reward_params, 0.9)
    for held, given in ((wm.params, wm_params), (reward.params, reward_params)):
        assert held.keys() == given.keys()
        for k, v in held.items():
            with pytest.raises(ValueError):
                v[...] = 0.0
            assert given[k].flags.writeable and np.shares_memory(v, given[k])


def test_pipeline_without_refinement(tmp_path, reach_env, base_policy):
    policy, params = base_policy
    run = small_run(tmp_path / "run", reach_env, policy, params, 12, 0,
                    {"plan": {"refinements": 0}})
    assert [r["stage"] for r in run.audit["stages"]] == list(STAGES[:4])
    assert run.checkpoints() == {"policy_base", "policy_stage1", "wm_base", "reward",
                                 "policy"}
    assert run.audit["trajectories_total"] == 12
    assert params_hash(run.params("policy")) == params_hash(run.params("policy_stage1"))
    assert [len(stage) for stage in run.logs["rl"]] == [2]


def test_pipeline_two_rounds(tmp_path, reach_env, base_policy):
    # round 2 collects under the stage-2 policy, refines round 1's model on
    # the new episodes and trains stage 3 in the result
    policy, params = base_policy
    a, b = (small_run(tmp_path / name, reach_env, policy, params, 8, 4,
                      {"plan": {"refinements": 2}})
            for name in "ab")
    assert [r["stage"] for r in a.audit["stages"]] == list(STAGES[:4] + 2 * STAGES[4:])
    assert a.audit["budget"] == a.audit["trajectories_total"] == 8 + 2 * 4
    assert a.checkpoints() == {"policy_base", "policy_stage1", "policy_stage2",
                               "policy_stage3", "wm_base", "wm_evo", "reward", "policy"}
    assert params_hash(a.params("policy")) == params_hash(a.params("policy_stage3"))
    assert a.manifests["wm_evo"]["base"] == a.manifests["policy_stage2"]["wm"]
    assert a.manifests["collect_evo"]["policy"] == params_hash(a.params("policy_stage2"))
    assert a.manifests == b.manifests
    assert params_hash(a.params("policy")) == params_hash(b.params("policy"))


def test_pipeline_stage_failure_preserves_artifacts(tmp_path, reach_env):
    # a fresh random policy never reaches a target, so every frame is a
    # negative and the classifier stage must fail on single-class data
    policy = ChunkPolicy(reach_env.state_dim, 4, H, reach_env.action_dim,
                         hidden=(24,))
    params = policy.init(derive_rng(40))
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="both classes"):
        small_run(out, reach_env, policy, params, 10, 5, seed=5)
    run = PaceRun(out)
    assert run.checkpoints() == {"policy_base"}
    assert params_hash(run.params("policy_base")) == params_hash(params)
    rows = run.audit["stages"]
    assert rows[0]["stage"] == "collect_base" and rows[0]["trajectories"] == 10
    assert rows[-1]["stage"] == "train_reward" and rows[-1]["failed"]
    assert run.manifests["collect_base"]["policy"] == params_hash(params)


def test_pipeline_deterministic(tmp_path, reach_env, base_policy):
    policy, params = base_policy
    a, b = (small_run(tmp_path / name, reach_env, policy, params, 8, 4) for name in "ab")
    for name in ("policy", "wm_base", "wm_evo"):
        assert params_hash(a.params(name)) == params_hash(b.params(name))


def test_pipeline_counts_on_external_counter(tmp_path, reach_env, base_policy):
    policy, params = base_policy
    counter = CountingEnv(reach_env)
    run = small_run(tmp_path / "run", counter, policy, params, 8, 4)
    assert counter.steps == run.audit["env_steps_total"]
    assert run.audit["trajectories_total"] == 12


def test_pipeline_aborts_on_real_steps_outside_collection(tmp_path, reach_env, base_policy,
                                                         monkeypatch):
    # the reward stage takes one real step on the counted env: the run must
    # abort at that stage, naming it, before any later stage runs
    policy, params = base_policy
    counter = CountingEnv(reach_env)
    train_classifier = pace.train_classifier

    def leaking_train_classifier(examples, *args, **kwargs):
        counter.step(examples[0][0], np.zeros(reach_env.action_dim))
        return train_classifier(examples, *args, **kwargs)

    monkeypatch.setattr(pace, "train_classifier", leaking_train_classifier)
    out = tmp_path / "run"
    with pytest.raises(InvariantViolation, match="'train_reward'"):
        small_run(out, counter, policy, params, 8, 4, {"plan": {"rl_updates_per_stage": 0}})
    rows = PaceRun(out).audit["stages"]
    # the leaking stage is the last that ran
    assert [row["stage"] for row in rows] == ["collect_base", "train_reward"]
    assert rows[-1]["failed"] and rows[-1]["env_steps"] == 1


def test_artifacts_write(pipeline_run):
    # each checkpoint on disk is the one its manifest names
    run = pipeline_run
    for name in ("reward", "wm_base", "wm_evo", "policy_stage1", "policy_stage2"):
        assert params_hash(run.params(name)) == run.manifests[name]["params"], name
    assert params_hash(run.params("policy")) == run.manifests["policy_stage2"]["params"]
    assert params_hash(run.params("policy_base")) == run.manifests["collect_base"]["policy"]


def test_pipeline_demo_enrichment(tmp_path, reach_env, reach_demos, base_policy):
    policy, params = base_policy
    art = small_run(tmp_path / "demos", reach_env, policy, params, 8, 4, demos=reach_demos)
    n_demo = art.manifests["reward"]["n_demo_episodes"]
    assert n_demo == len(reach_demos)
    assert art.manifests["wm_base"]["n_demo_episodes"] == n_demo
    assert art.manifests["wm_base"]["n_episodes"] == 8 + n_demo
    # demo frames enter training corpora but never the step counter audit
    rows = {r["stage"]: r for r in art.audit["stages"]}
    assert rows["train_reward"]["env_steps"] == 0
    assert rows["train_wm_base"]["env_steps"] == 0
    bare = small_run(tmp_path / "bare", reach_env, policy, params, 8, 4)
    assert (art.manifests["reward"]["n_examples"]
            > bare.manifests["reward"]["n_examples"])
