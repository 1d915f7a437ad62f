"""Microbenchmark of wovr's hot kernels; prints one JSON line of µs and page faults per call.

    python3 tools/kernels.py [--repeat R] [--number N]

Each kernel runs R timed repetitions of N calls, after one untimed call, and
reports [µs, faults]: the median over repetitions of the time per call, in
microseconds, and the minor page faults per call over all R * N timed calls
(ru_minflt of getrusage). A kernel whose arrays come from fresh pages in
some processes and from reused ones in others (wm_euler_step_b64 reads 0 or
about 89 faults per call) can change its time with them, so compare two
runs' times at like fault counts.
Each kernel's inputs are built just before it is timed and dropped after, so
one kernel's allocations do not shift another's timing.
The env is the default config's (core.DEFAULTS), and the models have its
sizes, at their initial params. The kernels are the layers of the benchmark's
per-layer list:

    env_step_b1, env_step_b500        env.step on 1 and 500 states
    policy_sample_b1, policy_sample_b64
                                      ChunkPolicy.sample on 1 and 64 rows
    wm_euler_step_b1, wm_euler_step_b64
                                      one Euler step of the flow sampler
                                      (sample_chunk with steps=1: one u_apply)
    reward_logit_b512                 RewardNet.logit on 512 feature rows
    make_rf_batch_b64                 one world-model training minibatch
    rf_loss_fwd_bwd_b64               rf_loss's tape forward and backward
    adam_step_wm                      one Adam step on the world-model params
    train_step_wm_b64                 one step of train_wm: make_rf_batch, rf_loss's
                                      forward and backward, then Adam on the params
                                      the previous step made
    env_reset_b500                    rollout.reset_starts of 500 fresh episodes:
                                      their streams and their starts
    write_store_b500                  core.write_store of 500 real trajectories,
                                      into a temporary directory removed after
    grpo_step_batch_b64               grpo.step_batch over 8 groups of G = 8
                                      reachpoint trajectories of one lockstep
                                      imagined rollout, as each update of
                                      imagine-reachpoint gathers them

It imports wovr from the src/ next to this file, so a copy of another
checkout measures that checkout. BLAS and OpenMP get one thread unless the
environment sets otherwise, as in the benchmark's child processes.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import numpy as np  # noqa: E402

from wovr import nn  # noqa: E402
from wovr.cli import build_policy, build_reward_net, build_wm_net  # noqa: E402
from wovr.core import (DEFAULTS, FrameEpisode, TaskSpec, derive_rng, derive_seeds,  # noqa: E402
                       task_features, write_store)
from wovr.envs import get_env  # noqa: E402
from wovr.grpo import GroupBatch, step_batch  # noqa: E402
from wovr.rollout import (GroupSpec, GroupSpecs, reset_starts, rollout_imagined,  # noqa: E402
                          rollout_real, round_robin)
from wovr.worldmodel import (T_CTX_MAX, OracleWorldModel, make_rf_batch, rf_corpus,  # noqa: E402
                             rf_loss, sample_chunk)


def kernels(tmp: str) -> dict:
    """Each kernel's name and a builder of its inputs, which returns a
    no-argument call of the kernel on them; the ones that write files write
    them under the directory tmp. Only the models are built here, so each
    kernel's inputs exist only while it is timed."""
    env, cfg, rng = get_env(DEFAULTS["env"]), DEFAULTS, derive_rng(0)
    d, n_tasks = env.state_dim, env.n_tasks

    def states(b):
        return np.array([env.reset_state(TaskSpec(i % n_tasks), rng) for i in range(b)])

    policy = build_policy(env, cfg)
    pi = nn.read_only(policy.init(rng))
    net = build_wm_net(env, cfg)
    wm = nn.read_only(net.init(rng))
    reward_net = build_reward_net(env, cfg)
    rw = nn.read_only(reward_net.init(rng))
    h, c = net.horizon, net.context
    p_noisy = cfg["wm"]["p_noisy"]

    def corpus_and_picks():
        episodes = [FrameEpisode(TaskSpec(i % n_tasks), rng.uniform(size=(65, d)),
                                 rng.uniform(-1.0, 1.0, size=(64, env.action_dim)))
                    for i in range(32)]
        corpus = rf_corpus(episodes, net)
        return corpus, corpus.windows[rng.choice(len(corpus.windows), size=64, replace=False)]

    def env_step(b):
        s, a = states(b), rng.uniform(-1.0, 1.0, size=(b, env.action_dim))
        return lambda: env.step(s, a)

    def policy_sample(b):
        obs, ids = states(b), np.arange(b) % n_tasks
        noise = rng.normal(size=(b, policy.flat))
        return lambda: policy.sample(pi, obs, ids, noise)

    def wm_euler_step(b):
        anchors, memories = rng.uniform(size=(b, d)), rng.uniform(size=(b, c, d))
        ids, chunks = np.arange(b) % n_tasks, rng.uniform(-1.0, 1.0, size=(b, h, env.action_dim))
        noise = rng.normal(size=(b, net.out_dim))
        return lambda: sample_chunk(net, wm, anchors, memories, ids, chunks, 1, noise)

    def reward_logit():
        feats = task_features(states(512), np.arange(512) % n_tasks, n_tasks)
        return lambda: reward_net.logit(rw, feats)

    def make_batch():
        corpus, picks = corpus_and_picks()
        batch_rng = derive_rng(1)
        return lambda: make_rf_batch(net, corpus, picks, batch_rng, p_noisy, T_CTX_MAX)

    def rf_batch():
        corpus, picks = corpus_and_picks()
        return make_rf_batch(net, corpus, picks, derive_rng(1), p_noisy, T_CTX_MAX)

    def rf_loss_fwd_bwd():
        batch = rf_batch()
        return lambda: nn.value_and_grad(lambda p: rf_loss(net, p, batch), wm)

    def adam_step_wm():
        batch = rf_batch()
        _, grads = nn.value_and_grad(lambda p: rf_loss(net, p, batch), wm)
        opt = nn.adam_init(wm)
        return lambda: nn.adam_step(wm, grads, opt, lr=1e-3)

    def train_step_wm():
        corpus, picks = corpus_and_picks()
        batch_rng, opt, params = derive_rng(1), nn.adam_init(wm), wm

        def step():
            nonlocal params
            batch = make_rf_batch(net, corpus, picks, batch_rng, p_noisy, T_CTX_MAX)
            _, grads = nn.value_and_grad(lambda p: rf_loss(net, p, batch), params)
            params = nn.adam_step(params, grads, opt, lr=1e-3)
        return step

    tasks, keys = round_robin(n_tasks, 500, 0, 73)

    def env_reset():
        return lambda: reset_starts(env, tasks, keys)

    def write_store_b500():
        run = cfg["run"]
        trajectories = rollout_real(policy, pi, env, tasks, 500, run["max_episode_len"],
                                    run["chunk"], keys)
        store = os.path.join(tmp, "store.wovs")
        return lambda: write_store(store, trajectories)

    def grpo_step_batch():
        # one imagined update's rollout: group g runs G members of task g % 4
        # from one start, under a reward that fires within 0.25 of the target,
        # so members average 6.7 of 8 chunk steps, as imagine-reachpoint's do
        reach, run = get_env("reachpoint"), cfg["run"]
        reach_policy, g = build_policy(reach, cfg), run["group_size"]
        specs = GroupSpecs([GroupSpec(TaskSpec(i % reach.n_tasks),
                                      reach.reset_state(TaskSpec(i % reach.n_tasks), rng),
                                      "initial", g) for i in range(8)])
        near = SimpleNamespace(batch=lambda frames, _ids: np.sqrt(
            np.sum((frames[:, 0:2] - frames[:, 2:4]) ** 2, axis=1)) <= 0.25)
        trajs = rollout_imagined(reach_policy, nn.read_only(reach_policy.init(rng)),
                                 OracleWorldModel(reach), near, specs, run["max_episode_len"],
                                 run["chunk"], derive_seeds([(0, i) for i in range(8)]))
        groups = []
        for i in range(0, 8 * g, g):
            returns = np.array([float(t.success) for t in trajs[i:i + g]])
            groups.append(GroupBatch(trajs[i:i + g], returns, returns - returns.mean()))
        return lambda: step_batch(reach_policy, groups)

    return {
        "env_step_b1": lambda: env_step(1),
        "env_step_b500": lambda: env_step(500),
        "policy_sample_b1": lambda: policy_sample(1),
        "policy_sample_b64": lambda: policy_sample(64),
        "wm_euler_step_b1": lambda: wm_euler_step(1),
        "wm_euler_step_b64": lambda: wm_euler_step(64),
        "reward_logit_b512": reward_logit,
        "make_rf_batch_b64": make_batch,
        "rf_loss_fwd_bwd_b64": rf_loss_fwd_bwd,
        "adam_step_wm": adam_step_wm,
        "train_step_wm_b64": train_step_wm,
        "env_reset_b500": env_reset,
        "write_store_b500": write_store_b500,
        "grpo_step_batch_b64": grpo_step_batch,
    }


def time_call(fn, repeat: int, number: int) -> list[float]:
    """[median over repeat repetitions of the µs per call of number calls,
    minor page faults per call over the repeat * number calls]."""
    fn()
    per_call = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        per_call.append((time.perf_counter() - start) / number * 1e6)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return [round(statistics.median(per_call), 2), round(faults / (repeat * number), 2)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--number", type=int, default=20)
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.number < 1:
        parser.error("--repeat and --number must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        result = {name: time_call(build(), args.repeat, args.number)
                  for name, build in kernels(tmp).items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
