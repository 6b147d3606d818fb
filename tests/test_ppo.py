"""Numerical checks for the policy-gradient trainer: forward pass
against hand arithmetic, exact gradients against central finite
differences, advantage estimation against brute-force discounted sums,
and the trainer's schedule/persistence contracts."""

import copy
import hashlib
import math
import os
import re

import numpy as np
import pytest

from carpark.config import config_from_mapping
from carpark.env import ActionTuple, ParkingEnv
from carpark.metrics import (
    MODEL_BASENAME,
    REWARDS_BASENAME,
    read_run_meta,
    read_store,
)
from carpark.ppo import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADV_NORM_EPS,
    TRAIN_FRACTION,
    VALUE_LOSS_WEIGHT,
    PolicyParams,
    PpoHyper,
    RolloutBuffer,
    _actor_logps,
    _check_finite,
    _critic_values,
    _entropy_terms,
    _orthogonal,
    _sample_branches,
    adam_step,
    evaluate_ppo,
    gae,
    gradients,
    lr_schedule,
    ppo_update,
    train_ppo,
)

NORM = {"_numParkedCars": 0, "_numAgents": 1, "_normalizeObs": True}


def norm_cfg(**overrides):
    return config_from_mapping({**NORM, **overrides})


def tiny_params(obs_dim=3, branches=(3, 2), hidden=4, layers=2, seed=7):
    return PolicyParams(obs_dim, branches, hidden, layers,
                        rng=np.random.default_rng(seed))


def forward(params, observation):
    """Distribution per action branch and the state value for a single
    observation vector: the trainer's batched passes at batch 1."""
    x = np.asarray(observation, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != params.obs_dim:
        raise ValueError(
            f"observation has {x.shape[1]} features, the policy expects "
            f"{params.obs_dim}")
    logps, _ = _actor_logps(params, x)
    values, _ = _critic_values(params, x)
    _check_finite("in policy forward", *logps, values)
    return [np.exp(lp[0]) for lp in logps], float(values[0])


def zero_params(*args, **kwargs):
    params = tiny_params(*args, **kwargs)
    for arr in params.data.values():
        arr[:] = 0.0
    return params


def random_batch(params, size, rng, ratio_spread=0.15):
    """Batch whose behavior log-probs sit near the current policy, far
    from the clip kinks so finite differences stay valid."""
    obs = rng.standard_normal((size, params.obs_dim))
    actions = np.column_stack(
        [rng.integers(0, b, size) for b in params.branches])
    logps, _ = _actor_logps(params, obs)
    rows = np.arange(size)
    logp = sum(lp[rows, actions[:, k]] for k, lp in enumerate(logps))
    logp_old = logp + rng.uniform(-ratio_spread, ratio_spread, size)
    advantages = rng.standard_normal(size)
    returns = rng.standard_normal(size)
    return obs, actions, logp_old, advantages, returns


# ------------------------------------------------------------- forward pass


def test_zero_weights_give_uniform_heads_and_zero_value():
    params = zero_params(obs_dim=4, branches=(3, 5), hidden=6, layers=2)
    dists, value = forward(params, [0.3, -0.2, 0.9, 0.0])
    assert value == 0.0
    for dist, size in zip(dists, (3, 5)):
        assert dist == pytest.approx([1.0 / size] * size, abs=1e-15)


def test_forward_matches_hand_arithmetic():
    # single hidden layer, weights set by hand; the expectation is the
    # same chain computed with math.tanh/math.exp scalars
    params = tiny_params(obs_dim=2, branches=(2,), hidden=2, layers=1)
    params.data["actor.w0"] = np.array([[1.0, 0.0], [0.0, 1.0]])
    params.data["actor.b0"] = np.array([0.0, 0.0])
    params.data["actor.head0.w"] = np.array([[1.0, 2.0], [3.0, 4.0]])
    params.data["actor.head0.b"] = np.array([0.1, -0.1])
    params.data["critic.w0"] = np.array([[2.0, 0.0], [0.0, 2.0]])
    params.data["critic.b0"] = np.array([0.0, 0.0])
    params.data["critic.value.w"] = np.array([[0.5], [-0.5]])
    params.data["critic.value.b"] = np.array([0.25])

    x = (0.5, -0.25)
    h = (math.tanh(0.5), math.tanh(-0.25))
    logits = (h[0] * 1.0 + h[1] * 3.0 + 0.1,
              h[0] * 2.0 + h[1] * 4.0 - 0.1)
    exps = (math.exp(logits[0]), math.exp(logits[1]))
    want = (exps[0] / (exps[0] + exps[1]), exps[1] / (exps[0] + exps[1]))
    g = (math.tanh(1.0), math.tanh(-0.5))
    want_value = 0.5 * g[0] - 0.5 * g[1] + 0.25

    dists, value = forward(params, x)
    assert dists[0] == pytest.approx(want, abs=1e-12)
    assert value == pytest.approx(want_value, abs=1e-12)


def test_forward_is_pure():
    params = tiny_params()
    obs = [0.1, -0.4, 0.7]
    first = forward(params, obs)
    second = forward(params, obs)
    assert first[1] == second[1]
    for a, b in zip(first[0], second[0]):
        assert np.array_equal(a, b)


def test_forward_rejects_wrong_width():
    params = tiny_params(obs_dim=3)
    with pytest.raises(ValueError, match="features"):
        forward(params, [0.1, 0.2])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forward_rejects_non_finite_activations():
    params = tiny_params()
    params.data["actor.head0.b"][0] = np.inf
    with pytest.raises(FloatingPointError):
        forward(params, [1.0, 0.0, 0.0])
    params = tiny_params()
    params.data["critic.value.b"][0] = np.nan
    with pytest.raises(FloatingPointError):
        forward(params, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("hidden,layers", [(256, 3), (32, 2)])
@pytest.mark.parametrize("width", [12, 40, 90])
def test_stacked_pass_equals_batch_one_calls(width, hidden, layers):
    """The rollout's one pass per tick over X[:, None, :] gives every
    agent's row bit for bit what a batch-1 call on that row gives."""
    params = PolicyParams(width, (5, 7, 5), hidden, layers,
                          rng=np.random.default_rng(width))
    rng = np.random.default_rng(1)
    for n in (1, 2, 4, 8):
        x = rng.uniform(-1.0, 1.0, (n, width))
        logps, _ = _actor_logps(params, x[:, None, :])
        values, _ = _critic_values(params, x[:, None, :])
        assert values.shape == (n,)
        for i in range(n):
            row_logps, _ = _actor_logps(params, x[i:i + 1])
            row_values, _ = _critic_values(params, x[i:i + 1])
            for lp, row in zip(logps, row_logps):
                assert np.array_equal(lp[i], row)
            assert np.array_equal(values[i:i + 1], row_values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [(1,), (2, 3), (0, 3)])
def test_stacked_check_names_first_non_finite_agent(bad):
    params = tiny_params(obs_dim=5)
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 5))
    x[list(bad), 2] = np.nan
    logps, _ = _actor_logps(params, x[:, None, :])
    values, _ = _critic_values(params, x[:, None, :])
    with pytest.raises(FloatingPointError,
                       match=f"for agent {bad[0]} at step 7$"):
        _check_finite("for agent {agent} at step 7", *logps, values)
    good = [i for i in range(4) if i not in bad]
    _check_finite("for agent {agent} at step 7",
                  *(lp[good] for lp in logps), values[good])


def test_branch_distributions_normalize():
    params = tiny_params(obs_dim=5, branches=(3, 4, 7), hidden=16, layers=3,
                         seed=11)
    rng = np.random.default_rng(0)
    for _ in range(50):
        dists, _ = forward(params, rng.standard_normal(5) * 3.0)
        for dist in dists:
            assert abs(dist.sum() - 1.0) < 1e-9
            assert (dist >= 0.0).all()


def test_uniform_branch_entropy_is_log_size():
    params = zero_params(obs_dim=3, branches=(9,), hidden=4, layers=2)
    dists, _ = forward(params, [0.4, 0.5, -0.6])
    entropy = -sum(p * math.log(p) for p in dists[0])
    assert abs(entropy - math.log(9)) < 1e-9


def test_orthogonal_init_has_orthonormal_columns():
    rng = np.random.default_rng(3)
    tall = _orthogonal(rng, 8, 4, 2.0)
    assert tall.T @ tall == pytest.approx(4.0 * np.eye(4), abs=1e-9)
    wide = _orthogonal(rng, 4, 8, 1.0)
    assert wide @ wide.T == pytest.approx(np.eye(4), abs=1e-9)


# ------------------------------------------------------- advantage estimates


def test_gae_single_terminal_step():
    adv, ret = gae([1.0], [0.0], [True], gamma=0.9, lam=0.5)
    assert adv[0] == 1.0
    assert ret[0] == 1.0


def test_gae_lambda0_is_one_step_td():
    rng = np.random.default_rng(5)
    rewards = rng.standard_normal(12)
    values = rng.standard_normal(12)
    terminals = [False] * 11 + [True]
    adv, ret = gae(rewards, values, terminals, gamma=0.97, lam=0.0,
                   bootstrap=0.3)
    for t in range(12):
        next_v = 0.0 if terminals[t] else (values[t + 1] if t < 11 else 0.3)
        delta = rewards[t] + 0.97 * next_v - values[t]
        assert adv[t] == delta
    assert np.array_equal(ret, adv + values)


def brute_force_gae(rewards, values, terminals, gamma, lam, bootstrap):
    """Direct evaluation of the exponentially weighted residual sum,
    chain cut at terminals."""
    n = len(rewards)
    deltas = []
    for t in range(n):
        if terminals[t]:
            next_v = 0.0
        elif t + 1 < n:
            next_v = values[t + 1]
        else:
            next_v = bootstrap
        deltas.append(rewards[t] + gamma * next_v - values[t])
    out = []
    for t in range(n):
        acc = 0.0
        weight = 1.0
        for j in range(t, n):
            acc += weight * deltas[j]
            if terminals[j]:
                break
            weight *= gamma * lam
        out.append(acc)
    return out


def test_gae_lambda1_equals_discounted_returns_exactly():
    # dyadic inputs and gamma=0.5 keep every intermediate exact, so the
    # recursion must match the brute-force discounted sum bitwise
    rng = np.random.default_rng(17)
    for case in range(20):
        n = int(rng.integers(1, 16))
        rewards = rng.integers(-8, 9, n) / 8.0
        values = rng.integers(-8, 9, n) / 8.0
        terminals = (rng.random(n) < 0.2).tolist()
        bootstrap = float(rng.integers(-8, 9)) / 8.0
        adv, _ = gae(rewards, values, terminals, gamma=0.5, lam=1.0,
                     bootstrap=bootstrap)
        for t in range(n):
            acc = 0.0
            weight = 1.0
            stopped = False
            for j in range(t, n):
                acc += weight * rewards[j]
                if terminals[j]:
                    stopped = True
                    break
                weight *= 0.5
            if not stopped:
                acc += weight * bootstrap  # weight is gamma^(n-t) here
            assert adv[t] == acc - values[t], f"case {case} step {t}"


def test_gae_random_lambda_matches_brute_force():
    rng = np.random.default_rng(29)
    for case in range(30):
        n = int(rng.integers(1, 21))
        rewards = rng.standard_normal(n).tolist()
        values = rng.standard_normal(n).tolist()
        terminals = (rng.random(n) < 0.25).tolist()
        bootstrap = float(rng.standard_normal())
        lam = float(rng.uniform(0.0, 1.0))
        gamma = float(rng.uniform(0.8, 1.0))
        adv, ret = gae(rewards, values, terminals, gamma, lam, bootstrap)
        want = brute_force_gae(rewards, values, terminals, gamma, lam,
                               bootstrap)
        assert adv == pytest.approx(want, abs=1e-10), f"case {case}"
        assert ret == pytest.approx(np.asarray(want) + values, abs=1e-10)


def test_gae_rejects_misaligned_series():
    with pytest.raises(ValueError, match="align"):
        gae([1.0, 2.0], [0.0], [False, True], 0.9, 0.9)


def test_gae_horizon_cut_returns_bootstrap_the_last_step():
    """A segment cut at the time horizon ends on a non-terminal step, so
    its last return is r + gamma * bootstrap; a terminal last step returns
    r alone. The values are exact in binary, so the sums are too."""
    rewards, values = [0.5, 1.0], [0.25, 0.75]
    _, ret = gae(rewards, values, [False, False], 0.5, 0.5, bootstrap=2.0)
    assert ret[-1] == 1.0 + 0.5 * 2.0
    _, ret = gae(rewards, values, [False, True], 0.5, 0.5, bootstrap=2.0)
    assert ret[-1] == 1.0


# ------------------------------------------------------------- loss surface


def ppo_loss(params, obs, actions, logp_old, advantages, returns,
             epsilon_clip, beta):
    """The loss `gradients` differentiates, written forward only: the
    negative clipped surrogate, plus VALUE_LOSS_WEIGHT times the value MSE,
    minus beta times the summed branch entropy. The oracle of the
    finite-difference gradient test."""
    x = np.asarray(obs, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    advantages = np.asarray(advantages, dtype=np.float64)
    logps, _ = _actor_logps(params, x)
    rows = np.arange(len(x))
    logp = sum(lp[rows, actions[:, k]] for k, lp in enumerate(logps))
    ratio = np.exp(logp - np.asarray(logp_old, dtype=np.float64))
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - epsilon_clip, 1.0 + epsilon_clip) \
        * advantages
    policy_loss = -float(np.minimum(unclipped, clipped).mean())
    entropy = float(sum(term.mean() for term in _entropy_terms(logps)))
    values, _ = _critic_values(params, x)
    value_loss = float(((values - np.asarray(returns, dtype=np.float64))
                        ** 2).mean())
    total = policy_loss + VALUE_LOSS_WEIGHT * value_loss - beta * entropy
    return total, {"policy_loss": policy_loss, "value_loss": value_loss,
                   "entropy": entropy}


def test_unit_ratio_surrogate_is_negative_mean_advantage():
    params = tiny_params(seed=3)
    rng = np.random.default_rng(1)
    obs = rng.standard_normal((8, 3))
    actions = np.column_stack([rng.integers(0, b, 8)
                               for b in params.branches])
    logps, _ = _actor_logps(params, obs)
    rows = np.arange(8)
    logp_old = sum(lp[rows, actions[:, k]] for k, lp in enumerate(logps))
    advantages = rng.standard_normal(8)
    returns = rng.standard_normal(8)
    _, parts = ppo_loss(params, obs, actions, logp_old, advantages, returns,
                        epsilon_clip=0.25, beta=0.0)
    assert parts["policy_loss"] == pytest.approx(-advantages.mean(),
                                                 abs=1e-12)


def test_clip_engages_at_ratio_two():
    # behavior log-prob shifted by ln 2 makes the ratio 2; with unit
    # advantage the clipped objective is min(2, 1.25) = 1.25
    params = tiny_params(branches=(4,), seed=9)
    for arr in ("critic.w0", "critic.b0", "critic.w1", "critic.b1",
                "critic.value.w", "critic.value.b"):
        params.data[arr][:] = 0.0
    rng = np.random.default_rng(2)
    obs = rng.standard_normal((6, 3))
    actions = np.column_stack([rng.integers(0, 4, 6)])
    logps, _ = _actor_logps(params, obs)
    logp = logps[0][np.arange(6), actions[:, 0]]
    total, parts = ppo_loss(params, obs, actions, logp - math.log(2.0),
                            np.ones(6), np.zeros(6),
                            epsilon_clip=0.25, beta=0.0)
    assert parts["policy_loss"] == pytest.approx(-1.25, abs=1e-12)
    assert parts["value_loss"] == 0.0
    assert total == pytest.approx(-1.25, abs=1e-12)


def test_gradients_match_finite_differences():
    # two-hidden-layer toy net, every parameter, ten random batches
    params = tiny_params(obs_dim=3, branches=(3, 2), hidden=4, layers=2,
                         seed=21)
    rng = np.random.default_rng(4)
    eps_clip, beta = 0.25, 0.01
    for batch_no in range(10):
        batch = random_batch(params, 5, rng)
        grads, _ = gradients(params, *batch, eps_clip, beta)
        for name, grad in grads.items():
            arr = params.data[name]
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            h = 1e-6
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                up, _ = ppo_loss(params, *batch, eps_clip, beta)
                arr[ix] = orig - h
                down, _ = ppo_loss(params, *batch, eps_clip, beta)
                arr[ix] = orig
                fd[ix] = (up - down) / (2.0 * h)
            rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(grad))
            assert rel.max() < 1e-4, (
                f"batch {batch_no} {name}: max rel err {rel.max():.3e}")


def test_stationary_point_has_zero_gradients():
    # zero advantages, no entropy bonus, targets equal to predictions
    params = tiny_params(seed=13)
    rng = np.random.default_rng(6)
    obs = rng.standard_normal((7, 3))
    actions = np.column_stack([rng.integers(0, b, 7)
                               for b in params.branches])
    logps, _ = _actor_logps(params, obs)
    rows = np.arange(7)
    logp_old = sum(lp[rows, actions[:, k]] for k, lp in enumerate(logps))
    values, _ = _critic_values(params, obs)
    grads, parts = gradients(params, obs, actions, logp_old, np.zeros(7),
                             values, epsilon_clip=0.25, beta=0.0)
    assert parts["value_loss"] == 0.0
    for name, grad in grads.items():
        assert np.abs(grad).max() == 0.0, name


def test_doubling_advantages_doubles_actor_gradients():
    params = tiny_params(seed=31)
    rng = np.random.default_rng(8)
    obs, actions, logp_old, advantages, returns = random_batch(
        params, 6, rng, ratio_spread=0.1)
    g1, _ = gradients(params, obs, actions, logp_old, advantages, returns,
                      epsilon_clip=0.25, beta=0.0)
    g2, _ = gradients(params, obs, actions, logp_old, 2.0 * advantages,
                      returns, epsilon_clip=0.25, beta=0.0)
    for name in g1:
        if name.startswith("actor."):
            assert g2[name] == pytest.approx(2.0 * g1[name], abs=1e-12), name
        else:
            assert np.array_equal(g1[name], g2[name]), name


def test_gradients_overwrite_every_workspace_entry():
    # a NaN left anywhere in the workspace marks an entry never written
    params = tiny_params(obs_dim=4, branches=(3, 2), hidden=5, layers=3,
                         seed=29)
    rng = np.random.default_rng(10)
    out = {name: np.full_like(arr, np.nan)
           for name, arr in params.data.items()}
    for _ in range(2):  # the second batch overwrites the first one's
        batch = random_batch(params, 6, rng)
        fresh, fresh_parts = gradients(params, *batch, 0.25, 0.01)
        grads, parts = gradients(params, *batch, 0.25, 0.01, out=out)
        assert grads is out
        assert parts == fresh_parts
        assert list(grads) == list(params.data)
        for name, arr in grads.items():
            assert arr.tobytes() == fresh[name].tobytes(), name


# --------------------------------------------------------- buffer and update


def test_buffer_segments_and_drain():
    buf = RolloutBuffer(capacity=8, horizon=4)
    rewards, values = [1.0, 2.0, 3.0], [0.1, 0.2, 0.3]
    for t in range(3):
        assert buf.append(0, np.zeros(2), (0, 1), -0.5, rewards[t],
                          values[t]) == t + 1
    assert buf.size == 0  # an open segment is not part of the batch yet
    buf.add_segment(0, gamma=0.9, lam=0.8, terminal=True)
    assert buf.size == 3
    assert not buf.full
    adv, ret = gae(rewards, values, [False, False, True], 0.9, 0.8)
    batch = buf.drain()
    assert buf.size == 0
    assert sorted(batch) == ["actions", "advantages", "logp", "obs",
                             "returns"]
    assert np.array_equal(batch["advantages"], adv)
    assert np.array_equal(batch["returns"], ret)
    assert batch["obs"].shape == (3, 2)
    assert batch["actions"].shape == (3, 2)


def test_buffer_keeps_open_segments_across_drain():
    """Each agent's segment stays open until add_segment closes it, a
    drain in between included; closed segments enter in closing order,
    and a horizon cut bootstraps its last step."""
    buf = RolloutBuffer(capacity=8, horizon=4)
    buf.append(0, [0.0], (0,), -0.1, 1.0, 0.5)
    buf.append(1, [1.0], (1,), -0.2, 2.0, 0.25)
    buf.add_segment(1, 0.5, 0.5, bootstrap=2.0)
    buf.add_segment(2, 0.5, 0.5, terminal=True)  # nothing open: a no-op
    batch = buf.drain()
    assert batch["obs"].tolist() == [[1.0]]
    assert batch["returns"].tolist() == [2.0 + 0.5 * 2.0]
    assert buf.append(0, [2.0], (1,), -0.3, 3.0, 0.75) == 2
    buf.add_segment(0, 0.5, 0.5, terminal=True)
    batch = buf.drain()
    adv, ret = gae([1.0, 3.0], [0.5, 0.75], [False, True], 0.5, 0.5)
    assert batch["obs"].tolist() == [[0.0], [2.0]]
    assert batch["actions"].tolist() == [[0], [1]]
    assert batch["logp"].tolist() == [-0.1, -0.3]
    assert np.array_equal(batch["advantages"], adv)
    assert np.array_equal(batch["returns"], ret)


def test_buffer_rejects_overlong_segment():
    buf = RolloutBuffer(capacity=64, horizon=2)
    for _ in range(2):
        buf.append(0, np.zeros(1), (0,), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="horizon"):
        buf.append(0, np.zeros(1), (0,), 0.0, 1.0, 0.0)


def test_empty_buffer_update_is_noop():
    params = tiny_params(seed=1)
    before = {k: v.copy() for k, v in params.data.items()}
    hyper = PpoHyper(total_steps=100, buffer=64, batch=8)
    diag = ppo_update(params, RolloutBuffer(64, 8), hyper, lr=1e-3,
                      rng=np.random.default_rng(0))
    assert diag == {"updates": 0}
    assert params.t == 0
    for name, arr in params.data.items():
        assert np.array_equal(arr, before[name])


def fill_buffer(buf, params, rng, steps):
    obs = rng.standard_normal((steps, params.obs_dim))
    logps, _ = _actor_logps(params, obs)
    values, _ = _critic_values(params, obs)
    for start in range(0, steps, buf.horizon):
        chunk = range(start, min(start + buf.horizon, steps))
        actions = [tuple(int(rng.integers(0, b)) for b in params.branches)
                   for _ in chunk]
        rewards = rng.standard_normal(len(chunk)).tolist()
        for r, a, reward in zip(chunk, actions, rewards):
            lp = float(sum(logps[k][r, a[k]] for k in range(len(a))))
            buf.append(0, obs[r], a, lp, reward, float(values[r]))
        buf.add_segment(0, 0.99, 0.9, terminal=True)


def test_zero_lr_update_keeps_params_bit_identical():
    params = tiny_params(seed=15)
    before = {k: v.copy() for k, v in params.data.items()}
    buf = RolloutBuffer(capacity=32, horizon=8)
    rng = np.random.default_rng(12)
    fill_buffer(buf, params, rng, 32)
    hyper = PpoHyper(total_steps=100, buffer=32, batch=8, epochs=2)
    diag = ppo_update(params, buf, hyper, lr=0.0, rng=rng)
    assert diag["updates"] == 2 * 4
    assert params.t == 8  # the optimizer ran, the step just had size 0
    for name, arr in params.data.items():
        assert np.array_equal(arr, before[name]), name
    assert buf.size == 0


def test_update_refuses_a_non_finite_loss_before_any_step():
    params = tiny_params(seed=15)
    before = {k: v.copy() for k, v in params.data.items()}
    buf = RolloutBuffer(capacity=8, horizon=8)
    for r in range(8):
        buf.append(0, np.zeros(params.obs_dim), (0, 0), -1.0,
                   math.nan if r == 3 else 1.0, 0.0)
    buf.add_segment(0, 0.99, 0.9, terminal=True)
    hyper = PpoHyper(total_steps=100, buffer=8, batch=8)
    with pytest.raises(FloatingPointError,
                       match="^non-finite loss nan during update$"):
        ppo_update(params, buf, hyper, lr=1e-3, rng=np.random.default_rng(0))
    assert params.t == 0
    for name, arr in params.data.items():
        assert np.array_equal(arr, before[name]), name


def test_update_moves_params_and_drains_buffer():
    params = tiny_params(seed=19)
    checksum = params.checksum()
    buf = RolloutBuffer(capacity=32, horizon=8)
    rng = np.random.default_rng(14)
    fill_buffer(buf, params, rng, 32)
    hyper = PpoHyper(total_steps=100, buffer=32, batch=8, epochs=3)
    diag = ppo_update(params, buf, hyper, lr=1e-3, rng=rng)
    assert diag["updates"] == 3 * 4
    assert math.isfinite(diag["policy_loss"])
    assert math.isfinite(diag["value_loss"])
    assert diag["entropy"] > 0.0
    assert params.checksum() != checksum
    assert buf.size == 0
    for arr in params.data.values():
        assert np.isfinite(arr).all()


def reference_adam_step(params, grads, lr):
    """Adam as first written, every operation allocating its temporaries
    and the parameter write done at every lr; the oracle for adam_step."""
    params.t += 1
    correct1 = 1.0 - ADAM_BETA1 ** params.t
    correct2 = 1.0 - ADAM_BETA2 ** params.t
    for name, g in grads.items():
        m = params.m[name]
        v = params.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        params.data[name] -= lr * (m / correct1) \
            / (np.sqrt(v / correct2) + ADAM_EPS)


def reference_update(params, batch, hyper, lr, rng):
    """ppo_update's minibatch loop with a fresh gradient dict per
    minibatch and reference_adam_step."""
    count = len(batch["logp"])
    for _ in range(hyper.epochs):
        order = rng.permutation(count)
        for start in range(0, count, hyper.batch):
            idx = order[start:start + hyper.batch]
            adv = batch["advantages"][idx]
            adv = (adv - adv.mean()) / (adv.std() + ADV_NORM_EPS)
            grads, _ = gradients(
                params, batch["obs"][idx], batch["actions"][idx],
                batch["logp"][idx], adv, batch["returns"][idx],
                hyper.epsilon_clip, hyper.beta)
            reference_adam_step(params, grads, lr)


@pytest.mark.parametrize("lr", [1e-3, 0.0])
def test_update_matches_fresh_gradient_reference(lr):
    params = tiny_params(obs_dim=4, branches=(3, 2), hidden=6, layers=3,
                         seed=17)
    hyper = PpoHyper(total_steps=100, buffer=32, batch=8, epochs=3)
    ref = copy.deepcopy(params)
    rng = np.random.default_rng(9)
    for update_lr in (1e-3, lr):  # a warm-up so the moments are non-zero
        buf = RolloutBuffer(capacity=32, horizon=8)
        fill_buffer(buf, params, rng, 32)
        batch = copy.deepcopy(buf).drain()
        seed = int(rng.integers(1 << 30))
        ppo_update(params, buf, hyper, update_lr, np.random.default_rng(seed))
        reference_update(ref, batch, hyper, update_lr,
                         np.random.default_rng(seed))
    assert params.t == ref.t == 2 * 3 * 4
    for store in ("data", "m", "v"):
        for name, arr in getattr(params, store).items():
            assert arr.tobytes() == getattr(ref, store)[name].tobytes(), (
                store, name)


def test_zero_lr_adam_step_writes_no_parameter():
    # the parameter write 0*x would turn -0.0 into 0.0 for a negative
    # step and inf/inf into NaN
    params = tiny_params(obs_dim=1, branches=(1,), hidden=1, layers=1)
    params.data["critic.value.b"][:] = -0.0
    params.data["critic.value.w"][:] = 0.5
    grads = {"critic.value.b": np.array([-1.0]),
             "critic.value.w": np.array([[np.inf]])}
    adam_step(params, grads, lr=0.0)
    assert params.t == 1
    assert np.signbit(params.data["critic.value.b"][0])
    assert params.data["critic.value.w"][0, 0] == 0.5
    assert params.m["critic.value.b"][0] == pytest.approx(-0.1, abs=1e-15)
    assert params.v["critic.value.w"][0, 0] == np.inf


def test_adam_descends_a_quadratic():
    # sanity anchor for the optimizer: loss x^2 from x=1 must shrink
    params = tiny_params(obs_dim=1, branches=(1,), hidden=1, layers=1)
    params.data["critic.value.b"][:] = 1.0
    for _ in range(200):
        grads = {"critic.value.b": 2.0 * params.data["critic.value.b"]}
        adam_step(params, grads, lr=0.01)
    assert abs(params.data["critic.value.b"][0]) < 0.1


# ------------------------------------------------------------- lr schedule


def test_lr_schedule_endpoints_and_midpoint():
    assert lr_schedule(0, 1000, 3e-4) == 3e-4
    assert lr_schedule(400, 1000, 3e-4) == pytest.approx(1.5e-4, abs=0)
    assert lr_schedule(800, 1000, 3e-4) == 0.0
    assert lr_schedule(900, 1000, 3e-4) == 0.0
    assert lr_schedule(1000, 1000, 3e-4) == 0.0


@pytest.mark.parametrize("kwargs", [
    {"total_steps": 0},
    {"total_steps": 100, "lr": -1e-4},
    {"total_steps": 100, "batch": 0},
    {"total_steps": 100, "batch": 64, "buffer": 32},
    {"total_steps": 100, "gamma": 1.2},
    {"total_steps": 100, "lam": -0.1},
    {"total_steps": 100, "epsilon_clip": 0.0},
    {"total_steps": 100, "epochs": 0},
    {"total_steps": 100, "lr": math.nan},
    {"total_steps": 100, "lr": math.inf},
    {"total_steps": 100, "beta": math.nan},
    {"total_steps": 100, "beta": math.inf},
    {"total_steps": 100, "epsilon_clip": math.nan},
    {"total_steps": 100, "epsilon_clip": math.inf},
    # a value of the wrong type: 64.5 ran 65 agent-steps
    {"total_steps": 64.5},
    {"total_steps": True},
    {"total_steps": 100, "hidden": 2.0},
    {"total_steps": 100, "lr": True},
    {"total_steps": 100, "gamma": "0.9"},
    # an int beyond the float range raised an OverflowError naming no field
    {"total_steps": 8, "lr": 10**400},
    {"total_steps": 8, "beta": -10**400},
])
def test_hyper_rejects_bad_values(kwargs):
    with pytest.raises(ValueError, match=f"^{list(kwargs)[-1]}: "):
        PpoHyper(**kwargs)


def test_run_json_records_a_float_setting_as_a_float(tmp_path):
    hyper = PpoHyper(total_steps=8, lr=0)
    assert type(hyper.lr) is float
    train_ppo(norm_cfg(), hyper, str(tmp_path), seed=0)
    with open(os.path.join(tmp_path, "run.json"), encoding="utf-8") as fh:
        assert '"lr": 0.0,' in fh.read()


# ------------------------------------------------------------- persistence


def test_checkpoint_round_trip(tmp_path):
    params = tiny_params(seed=23)
    params.t = 17
    params.m["actor.w0"][:] = 0.5
    params.v["critic.value.w"][:] = 0.25
    params.data["critic.value.b"][0] = -0.0
    path = str(tmp_path / "model.npz")
    params.save(path)
    loaded = PolicyParams.load(path)
    assert loaded.obs_dim == params.obs_dim
    assert loaded.branches == params.branches
    assert (loaded.hidden, loaded.layers) == (params.hidden, params.layers)
    assert loaded.t == 17
    for store in ("data", "m", "v"):
        got, want = getattr(loaded, store), getattr(params, store)
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == want[name].dtype
            assert got[name].shape == want[name].shape
            assert got[name].tobytes() == want[name].tobytes()


def test_checkpoint_rejects_unknown_version(tmp_path):
    params = tiny_params()
    path = str(tmp_path / "model.npz")
    params.save(path)
    arrays = dict(np.load(path))
    arrays["format"] = np.array("ppo/99")
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="version"):
        PolicyParams.load(path)


def test_checkpoint_rejects_short_meta(tmp_path):
    params = tiny_params()
    path = str(tmp_path / "model.npz")
    params.save(path)
    arrays = dict(np.load(path))
    arrays["meta"] = arrays["meta"][:3]
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="model.npz: meta must be 4 integers"):
        PolicyParams.load(path)


def test_checkpoint_rejects_missing_array(tmp_path):
    params = tiny_params()
    path = str(tmp_path / "model.npz")
    params.save(path)
    arrays = dict(np.load(path))
    del arrays["p.actor.w0"]
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="missing"):
        PolicyParams.load(path)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = str(tmp_path / "other.npz")
    np.savez(path, stuff=np.zeros(3))
    with pytest.raises(ValueError, match="checkpoint"):
        PolicyParams.load(path)


def test_load_draws_no_random_init(tmp_path, monkeypatch):
    """Loading checks the arrays against the layer table: it never draws
    an orthogonal init, so it runs with the QR factorization broken."""
    params = tiny_params(obs_dim=5, branches=(3, 4, 2), hidden=6, layers=3,
                         seed=29)
    rng = np.random.default_rng(30)
    for store in (params.m, params.v):
        for arr in store.values():
            arr[...] = rng.standard_normal(arr.shape)
    params.t = 41
    path = str(tmp_path / "model.npz")
    params.save(path)

    def broken_qr(*args, **kwargs):
        raise AssertionError("load drew a random init")

    monkeypatch.setattr(np.linalg, "qr", broken_qr)
    loaded = PolicyParams.load(path)
    assert loaded.t == 41
    for store in ("data", "m", "v"):
        got, want = getattr(loaded, store), getattr(params, store)
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes()


# a valid hand-built archive: 4 inputs, branches (3, 2), one hidden layer of 8
POLICY_SHAPES = {"actor.w0": (4, 8), "actor.b0": (8,), "critic.w0": (4, 8),
                 "critic.b0": (8,), "actor.head0.w": (8, 3),
                 "actor.head0.b": (3,), "actor.head1.w": (8, 2),
                 "actor.head1.b": (2,), "critic.value.w": (8, 1),
                 "critic.value.b": (1,)}

# name -> the edit that its loader must refuse
BAD_POLICY_ARRAYS = {
    "2-d branches": {"branches": np.array([[3, 2]])},
    "0-d branches": {"branches": np.array(3)},
    "non-integer branches": {"branches": np.array([3.5, 2.0])},
    "negative branch": {"branches": np.array([3, -2])},
    "string p array": {"p.actor.w0": np.full((4, 8), "x")},
    "complex m array": {"m.actor.b0": np.zeros(8, dtype=complex)},
    "negative hidden": {"meta": np.array([4, -8, 1, 0])},
    "zero layers": {"meta": np.array([4, 8, 0, 0])},
    "negative t": {"meta": np.array([4, 8, 1, -1])},
}


@pytest.mark.parametrize("case", [None, *BAD_POLICY_ARRAYS])
def test_load_names_the_file_for_bad_arrays(tmp_path, case):
    path = str(tmp_path / "model.npz")
    arrays = {f"{tag}.{name}": np.full(shape, 0.5)
              for tag in "pmv" for name, shape in POLICY_SHAPES.items()}
    arrays.update(format=np.array("ppo/1"), meta=np.array([4, 8, 1, 3]),
                  branches=np.array([3, 2]))
    np.savez(path, **{**arrays, **BAD_POLICY_ARRAYS.get(case, {})})
    if case is None:
        loaded = PolicyParams.load(path)
        assert (loaded.branches, loaded.t) == ((3, 2), 3)
        assert list(loaded.data) == list(POLICY_SHAPES)
        return
    with pytest.raises(ValueError, match=re.escape(path)):
        PolicyParams.load(path)


# ----------------------------------------------------------------- sampling


def test_sample_branches_maps_indices_to_action_values():
    env = ParkingEnv(norm_cfg(), seed=0)
    offsets = env.action_schema.offsets
    lp_low = np.log(np.array([[1.0 - 2e-12, 1e-12, 1e-12]]))
    lp_high = np.log(np.array([[1e-12, 1e-12, 1.0 - 2e-12]]))
    rng = np.random.default_rng(0)
    idx, action, logp = _sample_branches([lp_low, lp_high], offsets, rng)
    assert idx == (0, 2)
    assert action == ActionTuple(0 - offsets[0], 2 - offsets[1])
    assert logp == pytest.approx(float(lp_low[0, 0] + lp_high[0, 2]))


def test_sample_branches_frequencies_match_distribution():
    probs = np.array([[0.5, 0.25, 0.25]])
    lp = np.log(probs)
    lp_other = np.log(np.array([[0.5, 0.5]]))
    rng = np.random.default_rng(42)
    counts = np.zeros(3)
    draws = 20000
    for _ in range(draws):
        idx, _, _ = _sample_branches([lp, lp_other], (0, 0), rng)
        counts[idx[0]] += 1
    expected = probs[0] * draws
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    from scipy.stats import chi2 as chi2_dist
    assert chi2 < chi2_dist.ppf(0.999, 2)


# ------------------------------------------------------------------ trainer


def short_hyper(**overrides):
    base = dict(total_steps=2000, lr=3e-4, batch=32, buffer=256, horizon=32,
                epochs=3, hidden=16, layers=2, gamma=0.99, lam=0.9)
    return PpoHyper(**{**base, **overrides})


def test_train_requires_normalized_observations():
    cfg = config_from_mapping({"_numParkedCars": 0, "_numAgents": 1})
    with pytest.raises(ValueError, match="normalized"):
        train_ppo(cfg, short_hyper(total_steps=50), seed=0)


def test_train_rejects_mismatched_params():
    cfg = norm_cfg()
    params = tiny_params(obs_dim=2, branches=(2,))
    with pytest.raises(ValueError, match="branches"):
        train_ppo(cfg, short_hyper(total_steps=50), params=params, seed=0)


def test_zero_lr_training_leaves_params_identical():
    cfg = norm_cfg()
    hyper = short_hyper(total_steps=600, lr=0.0)
    env = ParkingEnv(cfg, seed=5)
    obs_dim = len(env.observe(0))
    params = PolicyParams(obs_dim, env.action_schema.branches, hyper.hidden,
                          hyper.layers, rng=np.random.default_rng(99))
    before = copy.deepcopy(params.data)
    result = train_ppo(cfg, hyper, env=env, params=params, seed=5)
    assert result.total_steps >= 600
    assert params.t > 0  # updates ran, with zero step size
    for name, arr in params.data.items():
        assert np.array_equal(arr, before[name]), name


def test_zero_lr_phase_runs_with_unit_car_scale():
    cfg = norm_cfg(carScaleTrain=1.3)
    env = ParkingEnv(cfg, seed=4)
    scales = []
    step_all = env.step_all

    def spy(actions):
        scales.append(env.world.scale)
        return step_all(actions)

    env.step_all = spy
    result = train_ppo(cfg, short_hyper(total_steps=300, buffer=64), env=env,
                       seed=4)
    boundary = result.train_boundary_step  # one agent: one step per tick
    assert 0 < boundary < len(scales)
    assert all(s == 1.3 for s in scales[:boundary])
    assert all(s == 1.0 for s in scales[boundary:])


@pytest.mark.parametrize("weight", ["actor.w0", "critic.w0"])
def test_train_fails_fast_on_non_finite_policy(weight, tmp_path):
    cfg = norm_cfg()
    hyper = short_hyper(total_steps=600)
    env = ParkingEnv(cfg, seed=5)
    params = PolicyParams(len(env.observe(0)), env.action_schema.branches,
                          hyper.hidden, hyper.layers,
                          rng=np.random.default_rng(3))
    params.data[weight][0, 0] = np.nan
    out = str(tmp_path / "run")
    with pytest.raises(FloatingPointError, match="agent 0 at step 0$"):
        train_ppo(cfg, hyper, out, env=env, params=params, seed=5)
    # the interrupted run stays marked unfinished
    meta = read_run_meta(out)
    assert meta["finished"] is False
    assert meta["kind"] == "ppo"
    assert meta["seed"] == 5
    assert os.path.exists(os.path.join(out, "metrics.jsonl"))


def test_a_failed_run_closes_its_store(tmp_path):
    """Weights that turn NaN mid-run fail the run; its store is closed by
    then, so the file holds the buckets closed before the failure."""
    cfg = norm_cfg()
    hyper = short_hyper(total_steps=600)
    env = ParkingEnv(cfg, seed=5)
    params = PolicyParams(len(env.observe(0)), env.action_schema.branches,
                          hyper.hidden, hyper.layers,
                          rng=np.random.default_rng(3))
    step_all = env.step_all
    ticks = []

    def poisoning_step_all(actions):
        ticks.append(actions)
        if len(ticks) == 45:
            params.data["actor.w0"][0, 0] = np.nan
        return step_all(actions)

    env.step_all = poisoning_step_all
    out = str(tmp_path / "run")
    with pytest.raises(FloatingPointError,
                       match="agent 0 at step 45$") as failure:
        train_ppo(cfg, hyper, out, env=env, params=params, seed=5,
                  summary_freq=10)
    # the traceback in failure keeps the run alive: only a closed store has
    # reached the file
    series = read_store(os.path.join(out, "metrics.jsonl"))
    steps = [step for step, _ in series["Metrics/VelocityAvg"].points]
    assert steps == [10, 20, 30, 40, 45]  # 45: the partial window at close
    assert failure.traceback  # held until here
    assert read_run_meta(out)["finished"] is False


def test_train_is_deterministic(tmp_path):
    cfg = norm_cfg()
    runs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        result = train_ppo(cfg, short_hyper(), out, seed=11)
        with open(os.path.join(out, "metrics.jsonl"), "rb") as fh:
            blob = fh.read()
        runs.append((result.rewards, result.params.checksum(), blob))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]


# benchmarks/workloads.py's PPO_FIXED4 environment, copied so that the gate
# below does not move with the benchmark
PPO_FIXED4 = {
    "_positionGranularity": 4, "_velocityGranularity": 4,
    "_thetaGranularity": 24, "_maxVelocityMagnitude": 4,
    "_minVelocityMagnitude": 2, "_maxDeltaVMagnitude": 2,
    "_minDeltaVMagnitude": 2, "_maxDeltaThetaMagnitude": 3,
    "_numAgents": 4, "_normalizeObs": True, "_numParkedCars": 8,
    "_obsDist": True, "_obsRings": True, "_ringMaxNumObjTrack": 1,
    "_rd0": 11, "_ringOnlyWall": True, "_obsGoalDeltaPose": True,
    "_obsNearbyCars": True, "_obsNearbyCarsCount": 1,
    "_obsNearbyCarsDiameter": 300, "_obsNearbyCarsGoal": True,
    "_obsNearbyCarsVelocity": True, "spawnCloseRatio": 0.2,
    "carSpawnMinDistance": 210, "_maxSteps": 200, "spawnCrashRatio": 0.2,
    "spawnCrashTargetAgentMinDist": 210, "rewTimeSum": 0.2,
    "rewReachGoal": 1.0, "rewCrash": 1.0, "rewReverseSum": 0.1,
    "rewDistSum": 0.15, "rewDeltaThetaSum": 0.05,
}

# sha256 of the rollout buffers and the final parameter checksum of the
# run below, recorded with one batch-1 actor and critic call per agent, so
# that the stacked pass per tick must reproduce them bit for bit
ROLLOUT_SHA256 = (
    "8f35f62f147880859b13fbfb0c1cba3bb8c46d364c348cff7fe35d7550e035ba")
ROLLOUT_CHECKSUM = 17.747863293669877


def test_four_agent_rollout_and_update_are_pinned(monkeypatch):
    """A fixed-seed 4-agent run with an lr>0 update: every buffer the
    updates see (observations, actions, behaviour log-probs, and the
    values its segments passed through gae) and the parameters they end
    with are pinned bit for bit."""
    import carpark.ppo as ppo_module

    h = hashlib.sha256()
    update, estimate = ppo_module.ppo_update, ppo_module.gae
    lrs = []
    values = []  # the closed segments' values since the last update

    def value_spying_gae(rewards, segment_values, *args, **kwargs):
        values.extend(segment_values)
        return estimate(rewards, segment_values, *args, **kwargs)

    def hashing_update(params, buffer, hyper, lr, rng):
        h.update(np.asarray(buffer.obs, "<f8").tobytes())
        h.update(np.asarray(buffer.actions, "<i8").tobytes())
        h.update(np.asarray(buffer.logp, "<f8").tobytes())
        h.update(np.asarray(values, "<f8").tobytes())
        values.clear()
        lrs.append(lr)
        return update(params, buffer, hyper, lr, rng)

    monkeypatch.setattr(ppo_module, "gae", value_spying_gae)
    monkeypatch.setattr(ppo_module, "ppo_update", hashing_update)
    cfg = config_from_mapping(PPO_FIXED4)
    hyper = PpoHyper(total_steps=256, buffer=128, horizon=16, hidden=32,
                     layers=2, epochs=2)
    result = train_ppo(cfg, hyper, seed=3)
    assert lrs[0] > 0.0 and len(lrs) == 2
    assert (h.hexdigest(), result.params.checksum()) == (
        ROLLOUT_SHA256, ROLLOUT_CHECKSUM)


# sha256 of the final parameter bytes (sorted by name) and of the reward
# series of the run below, its optimizer step count and episode count
TIMEOUT_PARAMS_SHA256 = (
    "577c86fa6aaf01acf2338e0bb1c902ce534575d218f5a28ffb4e21b82338b54b")
TIMEOUT_REWARDS_SHA256 = (
    "313cda4bf28107b5a972388c2c406b4c52047a06c3b935224e85631a0f0aea55")
TIMEOUT_T = 40
TIMEOUT_EPISODES = 20


def test_timeouts_in_an_lr_positive_update_are_pinned(monkeypatch):
    """Two agents time out after 8 steps and the horizon cuts segments at
    3, so the first update, at lr > 0, learns from both kinds of segment
    end: the parameters, the step count and the rewards are pinned bit for
    bit. Every closed segment passes through gae; its last terminal flag
    tells a horizon cut (False) from an episode end (True), and the env's
    halted count says that time-outs were among the episode ends."""
    import carpark.ppo as ppo_module

    update, estimate = ppo_module.ppo_update, ppo_module.gae
    segment_ends = []  # per closed segment: its last terminal flag
    first = []  # (lr, time-outs, horizon cuts) at the first update

    def spying_gae(rewards, values, terminals, *args, **kwargs):
        segment_ends.append(bool(terminals[-1]))
        return estimate(rewards, values, terminals, *args, **kwargs)

    def spying_update(params, buffer, hyper, lr, rng):
        if not first:
            first.append((lr, env.stats["halted"],
                          segment_ends.count(False)))
        return update(params, buffer, hyper, lr, rng)

    monkeypatch.setattr(ppo_module, "gae", spying_gae)
    monkeypatch.setattr(ppo_module, "ppo_update", spying_update)
    cfg = norm_cfg(_numAgents=2, _maxSteps=8)
    env = ParkingEnv(cfg, seed=21)
    hyper = PpoHyper(total_steps=160, lr=3e-3, batch=8, buffer=32,
                     horizon=3, epochs=2, hidden=8, layers=1)
    result = train_ppo(cfg, hyper, env=env, seed=21)
    lr, timeouts, cuts = first[0]
    assert lr > 0.0 and timeouts >= 1 and cuts >= 1
    params = result.params
    h = hashlib.sha256()
    for name in sorted(params.data):
        h.update(params.data[name].tobytes())
    rewards = hashlib.sha256(np.asarray(result.rewards, "<f8").tobytes())
    assert (h.hexdigest(), rewards.hexdigest(), params.t,
            len(result.rewards)) == (
        TIMEOUT_PARAMS_SHA256, TIMEOUT_REWARDS_SHA256, TIMEOUT_T,
        TIMEOUT_EPISODES)


def test_train_writes_run_directory(tmp_path):
    cfg = norm_cfg()
    out = str(tmp_path / "run")
    lines = []
    hyper = short_hyper(total_steps=1500)
    result = train_ppo(cfg, hyper, out, seed=3, dump_interval=20,
                       log=lines.append)
    assert os.path.exists(os.path.join(out, MODEL_BASENAME))
    loaded = PolicyParams.load(os.path.join(out, MODEL_BASENAME))
    assert loaded.checksum() == result.params.checksum()

    with open(os.path.join(out, REWARDS_BASENAME), encoding="utf-8") as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "episode,reward"
    assert len(rows) == len(result.rewards) + 1

    series = read_store(os.path.join(out, "metrics.jsonl"))
    assert "Environment/Cumulative Reward" in series
    assert "Losses/Policy Loss" in series
    assert "Losses/Value Loss" in series

    meta = read_run_meta(out)
    assert meta["kind"] == "ppo"
    assert meta["finished"] is True
    assert meta["seed"] == 3
    assert meta["train_boundary_step"] == result.train_boundary_step
    assert result.train_boundary_step == 1200  # 0.8 of the step budget
    assert meta["experiment"]["hyperparameters"]["buffer"] == 256
    recorded = meta["experiment"]["environment_parameters"]
    assert recorded["_normalizeObs"]
    assert config_from_mapping(recorded) == cfg
    assert lines and all("mean reward" in line for line in lines)


def test_progress_lines_carry_the_lr_schedule():
    hyper = short_hyper(total_steps=1500)
    lines = []
    train_ppo(norm_cfg(), hyper, seed=3, dump_interval=2, log=lines.append)
    past_cut = []
    for line in lines:
        step, total = map(int, re.search(r"step (\d+)/(\d+)", line).groups())
        assert total == hyper.total_steps
        assert line.endswith(f"  lr {lr_schedule(step, total, hyper.lr):.2e}")
        if step >= TRAIN_FRACTION * total:
            past_cut.append(line)
    assert len(past_cut) < len(lines)
    assert past_cut and all(line.endswith("  lr 0.00e+00")
                            for line in past_cut)


def test_evaluation_rates_sum_to_one():
    cfg = norm_cfg()
    env = ParkingEnv(cfg, seed=7)
    obs_dim = len(env.observe(0))
    params = PolicyParams(obs_dim, env.action_schema.branches, 16, 2,
                          rng=np.random.default_rng(1))
    report = evaluate_ppo(params, env, episodes=30)
    assert report["episodes"] == 30
    total = report["park_rate"] + report["crash_rate"] + report["halt_rate"]
    assert total == pytest.approx(1.0, abs=1e-9)
    assert len(report["rewards"]) == 30


def test_evaluate_fails_fast_on_non_finite_policy():
    env = ParkingEnv(norm_cfg(), seed=7)
    params = PolicyParams(len(env.observe(0)), env.action_schema.branches,
                          16, 2, rng=np.random.default_rng(1))
    params.data["actor.head1.w"][0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="agent 0 at step 0$"):
        evaluate_ppo(params, env, episodes=5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("trainer", ["train", "evaluate"])
def test_stacked_rollout_names_the_agent_with_a_non_finite_row(trainer):
    cfg = config_from_mapping(PPO_FIXED4)
    env = ParkingEnv(cfg, seed=0)
    params = PolicyParams(len(env.observe(0)), env.action_schema.branches,
                          16, 2, rng=np.random.default_rng(1))
    observe = env.observe

    def observe_nan_for_agent_2(i):
        obs = observe(i)
        return [math.nan] * len(obs) if i == 2 else obs

    env.observe = observe_nan_for_agent_2
    with pytest.raises(FloatingPointError, match="agent 2 at step 0$"):
        if trainer == "train":
            train_ppo(cfg, short_hyper(total_steps=64), env=env,
                      params=params, seed=0)
        else:
            evaluate_ppo(params, env, episodes=5)


def test_evaluate_zero_episodes():
    cfg = norm_cfg()
    env = ParkingEnv(cfg, seed=2)
    params = PolicyParams(len(env.observe(0)), env.action_schema.branches,
                          8, 1, rng=np.random.default_rng(0))
    report = evaluate_ppo(params, env, episodes=0)
    assert report == {"episodes": 0, "park_rate": None, "crash_rate": None,
                      "halt_rate": None, "mean_reward": None,
                      "mean_length": None, "rewards": [], "total_steps": 0}
    assert report.keys() == evaluate_ppo(params, env, episodes=1).keys()
