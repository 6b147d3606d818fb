"""What both trainers share through the run scaffold: the observation-mode
check in front of training and evaluation, and the run metadata derived
from the run itself rather than passed in."""

import numpy as np
import pytest

from carpark.config import config_from_mapping
from carpark.env import ParkingEnv
from carpark.metrics import model_row, read_run_meta
from carpark.ppo import PolicyParams, PpoHyper, evaluate_ppo, train_ppo
from carpark.qlearning import QSchedule, QTable, evaluate_q, train_q

DISCRETE = {"_numParkedCars": 0, "_numAgents": 1}
NORMALIZED = {**DISCRETE, "_normalizeObs": True}

SCHEDULE = QSchedule(alpha=0.1, gamma=0.9, epsilon=0.3, train_episodes=6,
                     eval_episodes=3)
HYPER = PpoHyper(total_steps=200, buffer=64, batch=16, horizon=16, epochs=1,
                 hidden=8, layers=1)


def _train(trainer, out_dir):
    if trainer == "q":
        return train_q(config_from_mapping(DISCRETE), SCHEDULE, out_dir,
                       seed=1)
    return train_ppo(config_from_mapping(NORMALIZED), HYPER, out_dir, seed=1)


def _evaluate_q(env):
    table = QTable(env.schema.discrete_dims(), env.action_schema.branches)
    return evaluate_q(table, env, 1)


def _evaluate_ppo(env):
    params = PolicyParams(len(env.observe(0)), env.action_schema.branches,
                          8, 1, rng=np.random.default_rng(0))
    return evaluate_ppo(params, env, 1)


# (entry point, the mode it rejects, the message it rejects it with)
MODE_CHECKS = {
    "train_q": (lambda env: train_q(env.cfg, SCHEDULE, env=env, seed=0),
                NORMALIZED,
                "tabular Q-learning requires the discrete observation mode; "
                "unset _normalizeObs"),
    "evaluate_q": (_evaluate_q, NORMALIZED,
                   "tabular Q-learning requires the discrete observation "
                   "mode; unset _normalizeObs"),
    "train_ppo": (lambda env: train_ppo(env.cfg, HYPER, env=env, seed=0),
                  DISCRETE,
                  "policy-gradient training requires the normalized "
                  "observation mode; set _normalizeObs"),
    "evaluate_ppo": (_evaluate_ppo, DISCRETE,
                     "policy evaluation requires the normalized observation "
                     "mode; set _normalizeObs"),
}


@pytest.mark.parametrize("entry", sorted(MODE_CHECKS))
def test_wrong_observation_mode_is_rejected(entry):
    call, mapping, message = MODE_CHECKS[entry]
    env = ParkingEnv(config_from_mapping(mapping), seed=0)
    with pytest.raises(ValueError) as err:
        call(env)
    assert str(err.value) == message


@pytest.mark.parametrize("slash", ["", "/"])
@pytest.mark.parametrize("trainer", ["q", "ppo"])
def test_run_meta_is_derived_from_the_run(trainer, slash, tmp_path):
    out = str(tmp_path / "job-7") + slash
    result = _train(trainer, out)
    meta = read_run_meta(out)
    assert meta["run_id"] == "job-7"
    assert meta["kind"] == meta["experiment"]["trainer"] == trainer
    assert meta["total_steps"] == result.total_steps
    assert meta["train_boundary_step"] == result.train_boundary_step
    assert 0 < result.train_boundary_step < result.total_steps
    assert model_row(out)["Model"] == "job-7"
