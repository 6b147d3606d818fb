"""What both trainers share through the run scaffold: the observation-mode
check in front of training and evaluation, the run metadata derived
from the run itself rather than passed in, and the one model file
format."""

import os
import re

import numpy as np
import pytest

from carpark.config import config_from_mapping
from carpark.env import ParkingEnv
from carpark.metrics import (
    MODEL_BASENAME,
    MODEL_VERSION,
    model_row,
    read_run_meta,
)
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


# (trainer, call with an env whose config is not the recorded one)
MISMATCHED_ENV = {
    "q": lambda cfg, env: train_q(cfg, SCHEDULE, env=env, seed=0),
    "ppo": lambda cfg, env: train_ppo(cfg, HYPER, env=env, seed=0),
}


@pytest.mark.parametrize("trainer", sorted(MISMATCHED_ENV))
def test_run_refuses_an_env_of_another_config(trainer):
    """run.json records the config argument, so an env running another
    one is refused, naming the field that differs."""
    base = DISCRETE if trainer == "q" else NORMALIZED
    recorded = config_from_mapping({**base, "_numParkedCars": 2})
    env = ParkingEnv(config_from_mapping({**base, "_numParkedCars": 9}),
                     seed=0)
    with pytest.raises(ValueError, match="_numParkedCars"):
        MISMATCHED_ENV[trainer](recorded, env)


def test_ppo_refuses_params_of_another_network():
    """run.json records the hyperparameters' network, so a policy of
    another width or depth is refused."""
    cfg = config_from_mapping(NORMALIZED)
    env = ParkingEnv(cfg, seed=0)
    for hidden, layers in ((16, 1), (8, 2)):
        params = PolicyParams(len(env.observe(0)), env.action_schema.branches,
                              hidden, layers, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="hidden layers"):
            train_ppo(cfg, HYPER, env=env, params=params, seed=0)


# ------------------------------------------------------------ model files

LOADERS = {"q": QTable.load, "ppo": PolicyParams.load}


def _model(kind):
    if kind == "q":
        table = QTable((3, 2), (2,))
        table.values[:] = np.random.default_rng(5).uniform(-1, 1, (6, 2))
        return table
    return PolicyParams(4, (3, 2), 8, 1, rng=np.random.default_rng(5))


def _other(kind):
    return "ppo" if kind == "q" else "q"


def _format_of(path):
    with np.load(path) as archive:
        return str(archive["format"])


def _rewrite(path, edit):
    with np.load(path) as archive:
        arrays = dict(archive)
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _save_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


# name -> how to spoil a saved model of the given kind at path (a Path)
SPOILERS = {
    "empty": lambda path, kind: path.write_bytes(b""),
    "truncated": lambda path, kind: path.write_bytes(
        path.read_bytes()[:200]),
    "npy": lambda path, kind: _save_npy(path),
    "foreign": lambda path, kind: path.write_bytes(b"episode,reward\n0,1\n"),
    "other trainer": lambda path, kind: _model(_other(kind)).save(str(path)),
    "unknown version": lambda path, kind: _rewrite(
        path, lambda a: a.update(format=np.array(f"{kind}/99"))),
    "no format entry": lambda path, kind: _rewrite(
        path, lambda a: a.pop("format")),
    "missing array": lambda path, kind: _rewrite(
        path, lambda a: a.pop("values" if kind == "q" else "v.actor.w0")),
}


@pytest.mark.parametrize("kind", ["q", "ppo"])
def test_model_is_saved_to_exactly_the_given_path(kind, tmp_path):
    path = str(tmp_path / "model.ckpt")
    _model(kind).save(path)
    assert os.listdir(tmp_path) == ["model.ckpt"]
    assert _format_of(path) == f"{kind}/{MODEL_VERSION}"
    LOADERS[kind](path)


@pytest.mark.parametrize("spoiler", sorted(SPOILERS))
@pytest.mark.parametrize("kind", ["q", "ppo"])
def test_model_load_rejects_other_files(kind, spoiler, tmp_path):
    """Anything but a model of the loader's own kind and version raises
    ValueError naming the file."""
    path = tmp_path / "model.npz"
    _model(kind).save(str(path))
    assert _format_of(path) == f"{kind}/{MODEL_VERSION}"
    SPOILERS[spoiler](path, kind)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        LOADERS[kind](str(path))


@pytest.mark.parametrize("trainer", ["q", "ppo"])
def test_run_directory_holds_the_model(trainer, tmp_path):
    """Both trainers write model.npz, and it loads back bit for bit."""
    out = str(tmp_path / "run")
    result = _train(trainer, out)
    path = os.path.join(out, MODEL_BASENAME)
    assert _format_of(path) == f"{trainer}/{MODEL_VERSION}"
    loaded = LOADERS[trainer](path)
    if trainer == "q":
        assert loaded.values.tobytes() == result.table.values.tobytes()
        return
    params = result.params
    assert loaded.t == params.t > 0
    for store in ("data", "m", "v"):
        got, want = getattr(loaded, store), getattr(params, store)
        assert list(got) == list(want)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)
