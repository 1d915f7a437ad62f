import numpy as np
import pytest

from wovr.core import (DEFAULTS, FrameEpisode, TaskSpec, derive_rng, make_config,
                       params_hash, task_features)
from wovr.envs import PickPlace2D, get_env, replay_frames, scripted_demo
from wovr.nn import Tensor, value_and_grad
from wovr.pace import LearnedReward
from wovr.reward import (
    RewardNet,
    bce_with_logits,
    label_episode_frames,
    predict_success,
    sparse_reward,
    subsample_negatives,
    success_probs,
    train_classifier,
)


def reward_section(**values):
    """A reward config section: the settings these fixtures were tuned with,
    then values."""
    tuned = {"epochs": 30, "batch_size": 128, "lr": 1e-3, "neg_ratio": 10.0,
             "pos_weight": None}
    return make_config({"reward": {**tuned, **values}})["reward"]


def blob_examples(rng, n, sep=2.0):
    """Linearly separable 2-d blobs as (states, task ids, labels) columns, all
    of task 0: label 1 iff x + y > 0 (margin sep)."""
    labels = (rng.uniform(size=n) < 0.5).astype(np.uint8)
    centers = np.where(labels == 1, sep / 2, -sep / 2)[:, None]
    states = rng.normal(loc=centers, scale=0.4, size=(n, 2))
    return states, np.zeros(n, dtype=np.int64), labels


def rows(examples, idx):
    """The examples' columns at row indices idx."""
    return tuple(col[idx] for col in examples)


def fired(net, params, examples):
    """The sparse reward (threshold 0.5) of every example row, as 0/1."""
    states, task_ids, _ = examples
    feats = task_features(states, task_ids, net.n_tasks)
    return (success_probs(net, params, feats) >= 0.5).astype(np.uint8)


# -- loss ---------------------------------------------------------------------


def test_bce_at_logit_zero_is_ln2():
    for lab in (0.0, 1.0):
        val = float(bce_with_logits(Tensor(np.zeros(1)), np.array([lab])).data)
        assert val == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_analytic_values():
    x = np.array([2.0, -3.0])
    y = np.array([1.0, 0.0])
    val = float(bce_with_logits(Tensor(x), y).data)
    expected = np.mean([np.log1p(np.exp(-2.0)), np.log1p(np.exp(-3.0))])
    assert val == pytest.approx(expected, rel=1e-12)


def test_bce_pos_weight_scales_positive_term_only():
    x = np.array([0.7])
    one = float(bce_with_logits(Tensor(x), np.array([1.0]), pos_weight=1.0).data)
    three = float(bce_with_logits(Tensor(x), np.array([1.0]), pos_weight=3.0).data)
    assert three == pytest.approx(3.0 * one, rel=1e-12)
    neg = float(bce_with_logits(Tensor(x), np.array([0.0]), pos_weight=3.0).data)
    assert neg == pytest.approx(np.log1p(np.exp(0.7)), rel=1e-12)


def test_bce_rejects_soft_labels():
    with pytest.raises(ValueError):
        bce_with_logits(Tensor(np.zeros(2)), np.array([0.0, 0.3]))


def test_bce_extreme_logits_finite():
    x = np.array([500.0, -500.0])
    y = np.array([0.0, 1.0])
    val = float(bce_with_logits(Tensor(x), y).data)
    assert np.isfinite(val) and val == pytest.approx(500.0, rel=1e-12)


def test_bce_gradcheck_through_net():
    net = RewardNet(3, 2, hidden=(5,))
    params = net.init(derive_rng(0))
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(4, 5))
    labels = np.array([1.0, 0.0, 1.0, 0.0])

    def loss(p):
        return bce_with_logits(net.logit(p, feats), labels, pos_weight=2.0)

    _, grads = value_and_grad(loss, params)
    eps = 1e-5
    for k in ("rw.w0", "rw.b0", "rw.w1"):
        fd = np.zeros_like(params[k])
        it = np.nditer(fd, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            vals = []
            for sign in (1, -1):
                shifted = {kk: vv.copy() for kk, vv in params.items()}
                shifted[k][idx] += sign * eps
                vals.append(float(loss(shifted).data))
            fd[idx] = (vals[0] - vals[1]) / (2 * eps)
        np.testing.assert_allclose(grads[k], fd, rtol=1e-4, atol=1e-9)


# -- inference ------------------------------------------------------------------


def test_predict_success_zero_net_is_half():
    net = RewardNet(4, 1)
    params = {k: np.zeros_like(v) for k, v in net.init(derive_rng(2)).items()}
    assert predict_success(net, params, np.ones(4), TaskSpec(0)) == 0.5


def test_predict_success_monotone_in_logit():
    net = RewardNet(4, 1)
    base = {k: np.zeros_like(v) for k, v in net.init(derive_rng(3)).items()}
    probs = []
    for bias in (-6.0, -1.0, 0.0, 1.0, 6.0):
        params = {k: v.copy() for k, v in base.items()}
        params["rw.b2"][0] = bias
        probs.append(predict_success(net, params, np.zeros(4), TaskSpec(0)))
    assert all(a < b for a, b in zip(probs, probs[1:]))
    assert probs[0] < 0.01 and probs[-1] > 0.99


def sigmoid_reference(logit: float) -> float:
    """The scalar two-branch sigmoid predict_success used before success_probs."""
    if logit >= 0:
        return float(1.0 / (1.0 + np.exp(-logit)))
    e = np.exp(logit)
    return float(e / (1.0 + e))


def test_success_probs_is_the_scalar_sigmoid_bit_for_bit():
    net = RewardNet(4, 4)
    params = net.init(derive_rng(30))
    rng = np.random.default_rng(31)
    for scale in (1e-3, 1.0, 30.0, 800.0):  # 800 underflows e^-|z| to 0
        scaled = dict(params, **{"rw.w2": params["rw.w2"] * scale})
        feats = task_features(rng.normal(size=(50, 4)), TaskSpec(2), net.n_tasks)
        logits = net.logit(scaled, feats)
        assert (logits > 0).any() and (logits < 0).any()  # both branches
        probs = success_probs(net, scaled, feats)
        assert probs.tolist() == [sigmoid_reference(float(z)) for z in logits]
        # one row: predict_success, equal to the 1-d logit's sigmoid
        for obs in feats[:10, :4]:
            one = float(net.logit(scaled, task_features(obs, TaskSpec(2), net.n_tasks)))
            assert predict_success(net, scaled, obs, TaskSpec(2)) == sigmoid_reference(one)


def near_threshold_frames(net, params, task, threshold, rng, n_pairs=12):
    """Random frames plus bisection points between a frame below the threshold
    and one above it; the bisection ends on frames within 1e-12 of it."""
    frames = list(rng.normal(scale=2.0, size=(200, net.obs_dim)))
    probs = [predict_success(net, params, f, task) for f in frames]
    lows = [f for f, p in zip(frames, probs) if p < threshold]
    highs = [f for f, p in zip(frames, probs) if p >= threshold]
    for lo, hi in zip(lows[:n_pairs], highs[:n_pairs]):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            frames.append(mid)
            p = predict_success(net, params, mid, task)
            if abs(p - threshold) < 1e-12:
                break
            if p < threshold:
                lo = mid
            else:
                hi = mid
    return np.array(frames)


def test_learned_reward_batch_matches_per_frame():
    threshold = DEFAULTS["rl"]["reward_threshold"]
    net = RewardNet(4, 4)
    rng = np.random.default_rng(32)
    near = 0
    for seed in range(4):
        params = net.init(derive_rng(33, seed))
        # centre the logits on the threshold's, so frames land on both sides
        task = TaskSpec(seed)
        feats = task_features(rng.normal(scale=2.0, size=(200, 4)), task, net.n_tasks)
        params["rw.b2"] = params["rw.b2"] + (np.log(threshold / (1.0 - threshold))
                                             - np.median(net.logit(params, feats)))
        reward = LearnedReward(net, params, threshold)
        frames = near_threshold_frames(net, params, task, threshold, rng)
        per_frame = [sparse_reward(predict_success(net, params, f, task), threshold)
                     for f in frames]
        assert 0 < sum(per_frame) < len(frames)
        near += sum(abs(predict_success(net, params, f, task) - threshold) < 1e-3
                    for f in frames)
        hits = reward.batch(frames, task)
        assert hits.dtype == bool and hits.shape == (len(frames),)
        assert hits.astype(int).tolist() == per_frame
        # a frame's decision does not depend on the rows batched with it
        order = rng.permutation(len(frames))
        assert reward.batch(frames[order], task).tolist() == hits[order].tolist()
        assert reward.batch(frames[:7], task).tolist() == hits[:7].tolist()
    assert near >= 100
    # a probability exactly at the threshold fires, as in sparse_reward
    zero = {k: np.zeros_like(v) for k, v in params.items()}
    assert LearnedReward(net, zero, 0.5).batch(np.ones((2, 4)), TaskSpec(0)).tolist() == [
        True, True]


def test_learned_reward_batch_rejects_non_finite_probability():
    net = RewardNet(4, 4)
    params = net.init(derive_rng(34))
    params["rw.b2"] = np.array([np.nan])
    reward = LearnedReward(net, params, 0.9)
    frames = np.zeros((3, 4))
    with pytest.raises(ValueError):
        reward.batch(frames, TaskSpec(0))
    with pytest.raises(ValueError):
        sparse_reward(predict_success(net, params, frames[0], TaskSpec(0)), 0.9)


def test_sparse_reward_threshold():
    assert sparse_reward(0.5, 0.5) == 1
    assert sparse_reward(0.4999, 0.5) == 0
    assert sparse_reward(0.9, 0.5) == 1
    assert sparse_reward(0.0, 0.5) == 0
    assert sparse_reward(1.0, 0.5) == 1
    assert sparse_reward(0.4, threshold=0.3) == 1
    assert sparse_reward(0.96, threshold=0.97) == 0
    with pytest.raises(ValueError):
        sparse_reward(1.2, 0.5)


def test_sparse_reward_of_an_array_is_its_elementwise_rule():
    """An array of probabilities gives a bool array, each entry the int
    that its one probability gives; one bad entry rejects the array."""
    probs = np.array([0.0, 0.4999, 0.9, 0.8999, 1.0, 0.95])
    hits = sparse_reward(probs, 0.9)
    assert hits.dtype == bool and hits.shape == probs.shape
    assert hits.astype(int).tolist() == [sparse_reward(float(p), 0.9) for p in probs]
    assert type(sparse_reward(np.float64(0.95), 0.9)) is int
    for bad in (1.2, -0.1, np.nan):
        with pytest.raises(ValueError):
            sparse_reward(np.append(probs, bad), 0.9)


# -- data prep -------------------------------------------------------------------


def test_label_episode_frames_uses_env_predicate():
    env = PickPlace2D()
    task = TaskSpec(0)
    state = env.reset_state(task, derive_rng(4))
    states = [state]
    actions = []
    for _ in range(3):
        a = np.array([0.03, 0.0, -1.0])
        state = env.step(state, a)
        actions.append(a)
        states.append(state)
    ep = FrameEpisode(task, np.array(states), np.array(actions))
    # a demo's frames end in its one success frame
    demo = replay_frames(env, scripted_demo(env, TaskSpec(1), 0))
    got_states, task_ids, labels = label_episode_frames([ep, demo], env)
    assert np.array_equal(got_states, np.concatenate([states, demo.states]))
    assert task_ids.tolist() == [0] * 4 + [1] * len(demo.states)
    assert labels.dtype == np.uint8
    assert labels.tolist() == [int(env.is_success(s)) for s in got_states]
    assert labels[4:].tolist() == [0] * (len(demo.states) - 1) + [1]


def test_subsample_negatives_caps_and_keeps_positives():
    rng = np.random.default_rng(5)
    labels = np.array([1] * 7 + [0] * 500, dtype=np.uint8)
    keep = subsample_negatives(labels, rng, max_ratio=10.0)
    assert keep[:7].tolist() == list(range(7))
    assert len(keep) == 7 + 70 and np.all(labels[keep[7:]] == 0)
    assert np.all(np.diff(keep[7:]) > 0)  # kept negatives in row order
    small = subsample_negatives(labels[:20], rng, max_ratio=10.0)
    assert small.tolist() == list(range(20))  # under the cap: nothing dropped


def test_subsample_deterministic_given_rng():
    labels = np.array([0] * 100 + [1] * 3, dtype=np.uint8)
    a = subsample_negatives(labels, derive_rng(6), max_ratio=5.0)
    b = subsample_negatives(labels, derive_rng(6), max_ratio=5.0)
    assert len(a) == 3 + 15
    assert a.tolist() == b.tolist()


def subsample_reference(examples, rng, max_ratio):
    """The list-of-(state, task, label) selection subsample_negatives replaced."""
    pos = [ex for ex in examples if ex[2] == 1]
    neg = [ex for ex in examples if ex[2] == 0]
    cap = int(max_ratio * len(pos))
    if len(neg) > cap:
        keep = rng.choice(len(neg), size=cap, replace=False)
        neg = [neg[i] for i in sorted(keep)]
    return pos + neg


def test_subsample_negatives_matches_the_list_selection():
    labels = (np.random.default_rng(15).uniform(size=600) < 0.05).astype(np.uint8)
    assert 0 < labels.sum() < len(labels)
    # each tuple carries its row index as its state, to read the kept rows back
    tuples = [(i, TaskSpec(0), int(lab)) for i, lab in enumerate(labels)]
    for seed, ratio in ((16, 10.0), (17, 3.0), (18, 100.0)):  # 100: under the cap
        want = [i for i, _, _ in subsample_reference(tuples, derive_rng(seed), ratio)]
        assert subsample_negatives(labels, derive_rng(seed), ratio).tolist() == want


# -- training ---------------------------------------------------------------------


def test_train_classifier_rejects_single_class():
    net = RewardNet(2, 1)
    states, task_ids = np.zeros((16, 2)), np.zeros(16, dtype=np.int64)
    for labels in (np.ones(16, dtype=np.uint8), np.zeros(16, dtype=np.uint8)):
        with pytest.raises(ValueError):
            train_classifier((states, task_ids, labels), net, derive_rng(7),
                             reward_section())
    # a ratio whose cap rounds to zero would drop every negative
    mixed = np.array([1] * 8 + [0] * 8, dtype=np.uint8)
    with pytest.raises(ValueError, match="reward.neg_ratio"):
        train_classifier((states, task_ids, mixed), net, derive_rng(7),
                         reward_section(neg_ratio=0.1))


def test_separable_fixture_accuracy():
    rng = np.random.default_rng(8)
    train = blob_examples(rng, 400)
    test = blob_examples(rng, 400)
    net = RewardNet(2, 1)
    params, losses = train_classifier(train, net, derive_rng(9),
                                      reward_section(epochs=40, lr=3e-3))
    assert np.mean(fired(net, params, test) == test[2]) >= 0.99
    assert losses[-1] < losses[0]


def test_imbalanced_fixture_still_finds_positives():
    rng = np.random.default_rng(10)
    pool = blob_examples(rng, 3000)
    labels = pool[2]
    train = rows(pool, np.concatenate([np.flatnonzero(labels == 1)[:30],
                                       np.flatnonzero(labels == 0)[:1200]]))
    net = RewardNet(2, 1)
    params, _ = train_classifier(train, net, derive_rng(11),
                                 reward_section(epochs=60, lr=3e-3))
    held = blob_examples(np.random.default_rng(12), 300)
    held_pos = rows(held, held[2] == 1)
    assert np.mean(fired(net, params, held_pos)) >= 0.95


def synth_pickplace_states(env, rng, n, plant=0.5, scale=0.07):
    """Random board states, a fraction planted near the success disc, as
    (states, task ids, labels) columns."""
    states, task_ids = [], []
    for _ in range(n):
        tid = int(rng.integers(4))
        state = env.reset_state(TaskSpec(tid), derive_rng(int(rng.integers(1 << 30))))
        state[0:2] = rng.uniform(0.0, 1.0, size=2)
        state[2] = float(rng.uniform() < 0.5)
        state[3:5] = rng.uniform(0.0, 1.0, size=2)
        state[7] = 0.0
        if rng.uniform() < plant:
            state[3:5] = state[5:7] + rng.normal(scale=scale, size=2)
        states.append(state)
        task_ids.append(tid)
    states = np.array(states)
    return states, np.array(task_ids), env.is_success(states).astype(np.uint8)


def test_pickplace_success_states_classified():
    env = get_env("pickplace2d")
    rng = np.random.default_rng(13)
    train = synth_pickplace_states(env, rng, 2400)
    test = synth_pickplace_states(env, rng, 600)
    assert 0 < train[2].sum() < len(train[2])
    net = RewardNet(8, 4)
    params, _ = train_classifier(train, net, derive_rng(14),
                                 reward_section(epochs=200, lr=3e-3))
    assert np.mean(fired(net, params, test) == test[2]) >= 0.95


def test_pos_weight_modes():
    rng = np.random.default_rng(20)
    train = blob_examples(rng, 400)
    net = RewardNet(2, 1)
    by_mode = {}
    for mode in (None, "sqrt", 1.0):
        params, losses = train_classifier(train, net, derive_rng(21),
                                          reward_section(lr=3e-3, pos_weight=mode))
        assert losses[-1] < losses[0]
        by_mode[mode] = params_hash(params)
    # the reweighting actually changes the fit
    assert by_mode[None] != by_mode["sqrt"] != by_mode[1.0]
