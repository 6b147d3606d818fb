"""Q-learning tests: update rule, action selection, rate decay, table
persistence, and the training loop end to end."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from carpark.config import config_from_mapping
from carpark.env import ActionTuple, ParkingEnv
from carpark.metrics import (
    MODEL_VERSION,
    evaluate_policy,
    read_run_meta,
    read_store,
)
from carpark.ppo import PolicyParams, evaluate_ppo
from carpark.qlearning import (
    MODEL_BASENAME,
    QSchedule,
    QTable,
    evaluate_q,
    linear_decay,
    q_update,
    select_action,
    train_q,
)

BASIC = {"_numParkedCars": 0, "_numAgents": 1}


def basic_cfg(**overrides):
    m = dict(BASIC)
    m.update(overrides)
    return config_from_mapping(m)


# -------------------------------------------------------------- update rule


def test_update_from_zero_terminal():
    t = QTable((4,), (3,))
    # (1 - 0.1) * 0 + 0.1 * (10 + gamma * 0)
    assert q_update(t, 2, 1, 10.0, None, 0.1, 0.9) == pytest.approx(1.0)
    assert t.values[2, 1] == pytest.approx(1.0)


def test_update_full_rate_no_discount():
    t = QTable((4,), (3,))
    t.values[:] = 99.0
    assert q_update(t, 0, 0, -10.0, 3, 1.0, 0.0) == pytest.approx(-10.0)


def test_update_blends_bootstrap():
    t = QTable((4,), (3,))
    t.values[1, 2] = 2.0
    t.values[3] = [0.0, 4.0, -1.0]
    # 0.5 * 2 + 0.5 * (1 + 0.9 * 4) = 3.3
    assert q_update(t, 1, 2, 1.0, 3, 0.5, 0.9) == pytest.approx(3.3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_update_rejects_non_finite_reward(bad):
    t = QTable((2,), (2,))
    with pytest.raises(ValueError):
        q_update(t, 0, 0, bad, None, 0.5, 0.9)


@given(s=st.integers(0, 5), a=st.integers(0, 3),
       r=st.floats(-20, 20), alpha=st.floats(0.01, 1.0),
       terminal=st.booleans())
@settings(max_examples=60)
def test_update_touches_one_entry(s, a, r, alpha, terminal):
    rng = np.random.default_rng(1)
    t = QTable((6,), (4,))
    t.values[:] = rng.uniform(-5, 5, size=t.values.shape)
    before = t.values.copy()
    s_next = None if terminal else (s + 1) % 6
    q_update(t, s, a, r, s_next, alpha, 0.9)
    mask = np.ones_like(before, dtype=bool)
    mask[s, a] = False
    assert (t.values[mask] == before[mask]).all()


# ---------------------------------------------------------- action selection


class _NoDraws:
    """Fails the test if the selector consults the rng."""

    def random(self):
        raise AssertionError("rng consulted at epsilon 0")

    def randrange(self, n):
        raise AssertionError("rng consulted at epsilon 0")


def test_greedy_picks_unique_max():
    t = QTable((2,), (3, 2))
    t.values[1] = [0.0, -1.0, 2.0, 7.0, 1.0, 3.0]
    assert select_action(t, 1, 0.0, _NoDraws()) == 3


def test_greedy_tie_breaks_to_lowest_index():
    t = QTable((2,), (3, 2))
    assert select_action(t, 0, 0.0, _NoDraws()) == 0


def test_full_exploration_is_uniform():
    t = QTable((1,), (3, 3))
    rng = random.Random(42)
    draws = 10_000
    counts = [0] * 9
    for _ in range(draws):
        counts[select_action(t, 0, 1.0, rng)] += 1
    expected = draws / 9
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < chi2.ppf(0.999, 8)


def test_exploration_rate_zero_draws_nothing():
    t = QTable((2,), (4,))
    # shared-rng determinism depends on greedy selection being draw-free
    for s in range(2):
        select_action(t, s, 0.0, _NoDraws())


# -------------------------------------------------------------------- decay


def test_decay_midpoint():
    assert linear_decay(0.3, 1000, 2000) == pytest.approx(0.15)


def test_decay_clamps_after_span():
    assert linear_decay(0.3, 2000, 2000) == 0.0
    assert linear_decay(0.3, 5000, 2000) == 0.0


def test_decay_rejects_empty_span():
    with pytest.raises(ValueError):
        linear_decay(0.3, 10, 0)


def test_schedule_rates():
    sched = QSchedule(alpha=0.1, gamma=0.9, epsilon=0.3, train_episodes=3000,
                      eval_episodes=500, decay_episodes=2000)
    assert sched.epsilon_at(0) == pytest.approx(0.3)
    assert sched.epsilon_at(1000) == pytest.approx(0.15)
    assert sched.epsilon_at(2500) == 0.0
    assert sched.total_episodes == 3500


@pytest.mark.parametrize("kwargs", [
    {"alpha": 0.0},
    {"alpha": 1.5},
    {"epsilon": 1.0},
    {"epsilon": -0.1},
    {"gamma": 1.1},
    {"train_episodes": -1},
    {"eval_episodes": -5},
    {"gamma": -0.1},
    {"alpha": float("nan")},
    {"decay_episodes": 0},
    {"decay_episodes": 200},
    # a value of the wrong type: 2.5 trained 3 episodes
    {"train_episodes": 2.5},
    {"eval_episodes": True},
    {"decay_episodes": 2.5},
    {"alpha": True},
    {"epsilon": "0.3"},
])
def test_schedule_rejects_bad_values(kwargs):
    base = {"alpha": 0.1, "gamma": 0.9, "epsilon": 0.3,
            "train_episodes": 100}
    base.update(kwargs)
    with pytest.raises(ValueError, match=f"^{list(kwargs)[-1]}: "):
        QSchedule(**base)


# -------------------------------------------------------------- persistence


def test_table_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    t = QTable((3, 8), (3, 3))
    t.values[:] = rng.uniform(-10, 10, size=t.values.shape)
    path = str(tmp_path / "t.qtable")
    t.save(path)
    loaded = QTable.load(path)
    assert loaded.state_sizes == (3, 8)
    assert loaded.action_sizes == (3, 3)
    assert loaded.values.tobytes() == t.values.tobytes()


def test_table_file_layout(tmp_path):
    # layout check against an independently assembled archive
    path = tmp_path / "one.npz"
    np.savez(path, format=np.array(f"q/{MODEL_VERSION}"),
             values=np.array([[2.5]]), state_sizes=np.array([1]),
             action_sizes=np.array([1]))
    t = QTable.load(str(path))
    assert t.values.tolist() == [[2.5]]

    t.save(str(path))
    with np.load(path) as archive:
        assert sorted(archive.files) == [
            "action_sizes", "format", "state_sizes", "values"]
        assert str(archive["format"]) == f"q/{MODEL_VERSION}"
        assert archive["values"].tolist() == [[2.5]]
        assert archive["values"].dtype == np.float64
        assert archive["state_sizes"].tolist() == [1]
        assert archive["action_sizes"].tolist() == [1]


@pytest.mark.parametrize("mangle", [
    lambda b: b"XXXX" + b[4:],                  # wrong magic
    lambda b: b"",                              # empty file
    lambda b: b[:10],                           # truncated header
    lambda b: b[:-4],                           # truncated archive
])
def test_table_load_rejects_corrupt_files(tmp_path, mangle):
    t = QTable((2, 2), (3,))
    path = tmp_path / "t.qtable"
    t.save(str(path))
    path.write_bytes(mangle(path.read_bytes()))
    with pytest.raises(ValueError, match="t.qtable: not a model checkpoint"):
        QTable.load(str(path))


# name -> the arrays of a hand-built q/1 archive that its loader must
# refuse, each edit applied to a valid 3x2-state, 2-action table
BAD_TABLE_ARRAYS = {
    "0-d state_sizes": {"state_sizes": np.array(6)},
    "2-d action_sizes": {"action_sizes": np.array([[2]])},
    "string values": {"values": np.full((6, 2), "x")},
    "non-integer state_sizes": {"state_sizes": np.array([3.5, 2.0])},
    "complex values": {"values": np.zeros((6, 2), dtype=complex)},
    "values off the radix product": {"values": np.zeros(12)},
    "non-finite values": {"values": np.full((6, 2), np.nan)},
    "zero radix entry": {"state_sizes": np.array([0, 2]),
                         "values": np.zeros((0, 2))},
}


@pytest.mark.parametrize("case", [None, *BAD_TABLE_ARRAYS])
def test_table_load_names_the_file_for_bad_arrays(tmp_path, case):
    path = str(tmp_path / "model.npz")
    arrays = {"format": np.array(f"q/{MODEL_VERSION}"),
              "values": np.arange(12.0).reshape(6, 2),
              "state_sizes": np.array([3, 2]), "action_sizes": np.array([2])}
    np.savez(path, **{**arrays, **BAD_TABLE_ARRAYS.get(case, {})})
    if case is None:
        assert QTable.load(path).values.tolist() == arrays["values"].tolist()
        return
    with pytest.raises(ValueError, match=re.escape(path)):
        QTable.load(path)


def test_table_rejects_bad_construction():
    with pytest.raises(ValueError):
        QTable((), (3,))
    with pytest.raises(ValueError):
        QTable((2, 0), (3,))
    with pytest.raises(ValueError):
        QTable((2,), (2,), values=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        QTable((1,), (1,), values=[[float("nan")]])


# ----------------------------------------------------------------- training


def short_schedule(train=40, eval_episodes=0, **kw):
    kw.setdefault("alpha", 0.1)
    kw.setdefault("gamma", 0.9)
    kw.setdefault("epsilon", 0.3)
    return QSchedule(train_episodes=train, eval_episodes=eval_episodes, **kw)


def test_train_rejects_normalized_observations():
    cfg = basic_cfg(_normalizeObs=True)
    with pytest.raises(ValueError, match="discrete"):
        train_q(cfg, short_schedule(), seed=1)


def test_evaluate_rejects_normalized_observations():
    env = ParkingEnv(basic_cfg(_normalizeObs=True), seed=1)
    table = QTable(env.schema.discrete_dims(), env.action_schema.branches)
    with pytest.raises(ValueError, match="discrete"):
        evaluate_q(table, env, 5)


def test_train_rejects_mismatched_table():
    cfg = basic_cfg()
    with pytest.raises(ValueError, match="radices"):
        train_q(cfg, short_schedule(), table=QTable((5,), (3,)), seed=1)


def test_train_is_deterministic():
    cfg = basic_cfg()
    a = train_q(cfg, short_schedule(train=60), seed=9)
    b = train_q(cfg, short_schedule(train=60), seed=9)
    assert a.rewards == b.rewards
    assert a.table.values.tobytes() == b.table.values.tobytes()
    assert a.total_steps == b.total_steps


def test_eval_zone_never_writes_the_table():
    cfg = basic_cfg()
    trained = train_q(cfg, short_schedule(train=50), seed=7)
    with_eval = train_q(cfg, short_schedule(train=50, eval_episodes=25),
                        seed=7)
    assert (with_eval.table.values.tobytes()
            == trained.table.values.tobytes())
    assert len(with_eval.rewards) == 75
    assert with_eval.total_steps > trained.total_steps
    assert with_eval.train_boundary_step == trained.total_steps


def test_evaluation_runs_with_unit_car_scale():
    cfg = basic_cfg(carScaleTrain=1.3)
    env = ParkingEnv(cfg, seed=4)
    scales = []
    step_all = env.step_all

    def spy(actions):
        scales.append(env.world.scale)
        return step_all(actions)

    env.step_all = spy
    result = train_q(cfg, short_schedule(train=20, eval_episodes=10),
                     env=env, seed=4)
    boundary = result.train_boundary_step  # one agent: one step per tick
    assert 0 < boundary < len(scales)
    assert all(s == 1.3 for s in scales[:boundary])
    assert all(s == 1.0 for s in scales[boundary:])


@pytest.mark.parametrize("policy", ["q", "ppo"])
def test_evaluation_steps_on_the_true_hitboxes(policy):
    """Evaluation ran on whatever hitbox scale the env was left at."""
    env = ParkingEnv(basic_cfg(carScaleTrain=1.3,
                               _normalizeObs=policy == "ppo"), seed=4)
    env.set_car_scale(1.3)
    scales = []
    step_all = env.step_all

    def spy(actions):
        scales.append(env.world.scale)
        return step_all(actions)

    env.step_all = spy
    if policy == "q":
        evaluate_q(QTable(env.schema.discrete_dims(),
                          env.action_schema.branches), env, 3)
    else:
        evaluate_ppo(PolicyParams(len(env.observe(0)),
                                  env.action_schema.branches, 8, 1,
                                  rng=np.random.default_rng(0)), env, 3)
    assert scales and all(s == 1.0 for s in scales)


def test_entries_stay_inside_reward_bound():
    # with Q0 = 0 every update keeps |Q| <= max|r| / (1 - gamma)
    cfg = basic_cfg()
    result = train_q(cfg, short_schedule(train=120, epsilon=0.5), seed=3)
    values = result.table.values
    assert np.isfinite(values).all()
    bound = 11.0 / (1.0 - 0.9)  # per-step rewards stay under 11
    assert np.abs(values).max() <= bound
    assert np.abs(values).max() > 0.0  # something was learned


def test_train_writes_run_directory(tmp_path):
    cfg = basic_cfg()
    out = str(tmp_path / "run0")
    logged = []
    result = train_q(cfg, short_schedule(train=30, eval_episodes=10),
                     out_dir=out, seed=4, summary_freq=100,
                     dump_interval=10, log=logged.append)
    loaded = QTable.load(f"{out}/{MODEL_BASENAME}")
    assert loaded.values.tobytes() == result.table.values.tobytes()

    with open(f"{out}/rewards.csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "episode,reward"
    assert len(lines) == 1 + len(result.rewards)
    assert lines[1].startswith("0,")

    series = read_store(f"{out}/metrics.jsonl")
    assert "Environment/Cumulative Reward" in series
    assert "Metrics/Num Episodes" in series

    meta = read_run_meta(out)
    assert meta["finished"] is True
    assert meta["kind"] == "q"
    assert meta["seed"] == 4
    assert meta["total_steps"] == result.total_steps
    assert meta["total_episodes"] == 40
    assert meta["train_boundary_step"] == result.train_boundary_step
    assert 0 < result.train_boundary_step < result.total_steps
    assert meta["experiment"]["trainer"] == "q"
    assert meta["experiment"]["hyperparameters"]["gamma"] == 0.9
    recorded = meta["experiment"]["environment_parameters"]
    assert recorded["_maxSteps"] == 85
    assert recorded["_minDeltaVMagnitude"] is None  # unset, as given
    assert config_from_mapping(recorded) == cfg

    assert len(logged) == 4  # every 10 of 40 episodes
    assert "episode 10/40" in logged[0]


# A seeded run's progress lines. Each line shows the rates the episode
# just finished ran at: epsilon decays over decay_episodes and then holds
# at 0, alpha stays constant, and the evaluation zone freezes both at 0.
Q_PROGRESS_LINES = [
    "episode 5/40  mean reward -1.989  eps 0.2400  alpha 0.1000",
    "episode 10/40  mean reward -5.780  eps 0.1650  alpha 0.1000",
    "episode 15/40  mean reward -1.785  eps 0.0900  alpha 0.1000",
    "episode 20/40  mean reward 8.191  eps 0.0150  alpha 0.1000",
    "episode 25/40  mean reward 10.325  eps 0.0000  alpha 0.1000",
    "episode 30/40  mean reward 6.286  eps 0.0000  alpha 0.1000",
    "episode 35/40  mean reward 0.380  eps 0.0000  alpha 0.0000",
    "episode 40/40  mean reward 6.174  eps 0.0000  alpha 0.0000",
]


def test_progress_lines_are_pinned():
    lines = []
    train_q(basic_cfg(),
            short_schedule(train=30, eval_episodes=10, decay_episodes=20),
            seed=6, dump_interval=5, log=lines.append)
    assert lines == Q_PROGRESS_LINES


def test_train_marks_unfinished_until_done(tmp_path):
    cfg = basic_cfg()
    out = str(tmp_path / "run1")

    def crash(_line):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        train_q(cfg, short_schedule(train=5), out_dir=out, seed=2,
                dump_interval=1, log=crash)
    meta = read_run_meta(out)
    assert meta["finished"] is False
    assert meta["kind"] == "q"
    assert meta["seed"] == 2
    assert "total_steps" not in meta

    train_q(cfg, short_schedule(train=5), out_dir=out, seed=2)
    assert read_run_meta(out)["finished"] is True


def test_zero_training_keeps_table_pristine():
    cfg = basic_cfg()
    result = train_q(cfg, short_schedule(train=0, eval_episodes=8), seed=6)
    assert not result.table.values.any()
    assert len(result.rewards) == 8
    assert result.train_boundary_step == 0


def test_resumed_table_trains_further():
    cfg = basic_cfg()
    first = train_q(cfg, short_schedule(train=30), seed=8)
    snapshot = first.table.values.copy()
    second = train_q(cfg, short_schedule(train=30), table=first.table,
                     seed=9)
    assert second.table is first.table
    assert (second.table.values != snapshot).any()


def test_evaluate_reports_outcome_rates():
    cfg = basic_cfg()
    trained = train_q(cfg, short_schedule(train=80), seed=12)
    env = ParkingEnv(cfg, seed=13)
    report = evaluate_q(trained.table, env, 20)
    assert report["episodes"] >= 20
    assert (report["park_rate"] + report["crash_rate"]
            + report["halt_rate"]) == pytest.approx(1.0)
    assert len(report["rewards"]) == report["episodes"]
    assert math.isfinite(report["mean_reward"])
    assert report["mean_length"] > 0


def test_evaluate_zero_episodes():
    cfg = basic_cfg()
    env = ParkingEnv(cfg, seed=1)
    table = QTable(env.schema.discrete_dims(), env.action_schema.branches)
    report = evaluate_q(table, env, 0)
    assert report["episodes"] == 0
    assert report["park_rate"] is None
    assert report["total_steps"] == 0
    assert report.keys() == evaluate_q(table, env, 2).keys()


def test_small_run_learns_to_park():
    # single agent, empty lot: a few thousand episodes are enough for a
    # mostly parking policy
    cfg = basic_cfg()
    sched = QSchedule(alpha=0.1, gamma=0.9, epsilon=0.3,
                      train_episodes=1500, eval_episodes=200,
                      decay_episodes=1000)
    result = train_q(cfg, sched, seed=0)
    eval_rewards = result.rewards[sched.train_episodes:]
    mean_eval = sum(eval_rewards) / len(eval_rewards)
    assert mean_eval > 5.0


def test_trained_table_parks_far_more_than_random_actions():
    """Greedy actions of the trained table against uniform random actions,
    each for 300 episodes on the same seeded close-spawn environment,
    where random actions still park now and then."""
    cfg = config_from_mapping({"spawnCloseRatio": 1.0})
    sched = QSchedule(alpha=0.1, gamma=0.9, epsilon=0.3,
                      train_episodes=1500, decay_episodes=1000)
    table = train_q(cfg, sched, seed=0).table
    greedy = evaluate_q(table, ParkingEnv(cfg, seed=10_000), 300)

    env = ParkingEnv(cfg, seed=10_000)
    schema = env.action_schema
    rng = random.Random(0)

    def uniform(_step):
        return [ActionTuple(*(rng.randrange(b) - o for b, o in
                              zip(schema.branches, schema.offsets)))
                for _ in env.agents]

    rand = evaluate_policy(env, 300, uniform)
    assert greedy["episodes"] == rand["episodes"] == 300
    assert 0.0 < rand["park_rate"] < 0.1
    assert greedy["park_rate"] >= 0.9
