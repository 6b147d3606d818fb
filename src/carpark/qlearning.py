"""Tabular Q-learning: a dense table over the flattened discrete state
and action spaces, epsilon-greedy selection, a constant learning rate,
an exploration rate that decays linearly to 0, and a terminal evaluation
zone in which both are 0 so the measured performance is pure policy.

Training is single-threaded; parallel experiments run as separately
seeded processes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .config import EnvironmentConfig
from .env import ActionTuple, ParkingEnv
from .metrics import (
    DEFAULT_SUMMARY_FREQ,
    MODEL_BASENAME,  # noqa: F401  re-exported: the run's model file name
    TrainingRun,
    evaluate_policy,
    load_model,
    save_model,
)
from .observation import decode_action, encode_state


class QTable:
    """Dense (state count) x (action count) table of action values.

    The radix vectors record the per-feature domain sizes whose products
    give the two axis lengths; they travel with the model file so a
    loaded table can be checked against the environment it is used in.
    """

    def __init__(self, state_sizes, action_sizes, values=None):
        self.state_sizes = tuple(int(s) for s in state_sizes)
        self.action_sizes = tuple(int(s) for s in action_sizes)
        if not self.state_sizes or not self.action_sizes:
            raise ValueError("state and action radix vectors must be non-empty")
        if min(self.state_sizes) < 1 or min(self.action_sizes) < 1:
            raise ValueError("radix entries must be positive")
        shape = (math.prod(self.state_sizes), math.prod(self.action_sizes))
        if values is None:
            self.values = np.zeros(shape, dtype=np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != shape:
                raise ValueError(
                    f"values shape {values.shape} does not match the "
                    f"radix product {shape}")
            if not np.isfinite(values).all():
                raise ValueError("table entries must be finite")
            self.values = values

    # ---------------------------------------------------------- persistence

    def save(self, path: str) -> None:
        save_model(path, "q", {"values": self.values,
                               "state_sizes": self.state_sizes,
                               "action_sizes": self.action_sizes})

    @classmethod
    def load(cls, path: str) -> "QTable":
        arrays = load_model(path, "q")
        try:
            return cls(arrays.integers("state_sizes"),
                       arrays.integers("action_sizes"), arrays.reals("values"))
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def q_update(table: QTable, s: int, a: int, r: float, s_next: int | None,
             alpha: float, gamma: float) -> float:
    """One-step update of Q(s, a); s_next None means a terminal
    transition, which bootstraps from zero."""
    if not math.isfinite(r):
        raise ValueError(f"non-finite reward {r!r}")
    values = table.values
    best_next = 0.0 if s_next is None else max(values[s_next].tolist())
    new = (1.0 - alpha) * values.item(s, a) + alpha * (r + gamma * best_next)
    values[s, a] = new
    return new


def select_action(table: QTable, s: int, epsilon: float, rng) -> int:
    """Epsilon-greedy over the s-th row; greedy ties break to the lowest
    flat action index. A zero epsilon draws nothing from the rng."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return rng.randrange(table.values.shape[1])
    return int(table.values[s].argmax())


def linear_decay(value0: float, episode: int, decay_episodes: int) -> float:
    """Interpolate from value0 at episode 0 to 0 at decay_episodes,
    clamped there afterwards."""
    if decay_episodes <= 0:
        raise ValueError(f"decay_episodes must be positive: {decay_episodes}")
    if episode >= decay_episodes:
        return 0.0
    return value0 + (0.0 - value0) * (episode / decay_episodes)


@dataclass(frozen=True)
class QSchedule:
    """Trainer configuration: constant alpha, epsilon decaying to 0, and
    the episode budget split into a training phase and an evaluation zone."""

    alpha: float
    gamma: float
    epsilon: float
    train_episodes: int
    eval_episodes: int = 0
    decay_episodes: int | None = None  # None decays over the whole phase

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]: {self.alpha}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1): {self.epsilon}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1]: {self.gamma}")
        if self.train_episodes < 0 or self.eval_episodes < 0:
            raise ValueError("episode counts cannot be negative")
        if self.decay_episodes is not None:
            if self.decay_episodes < 1:
                raise ValueError("decay_episodes must be positive")
            if self.decay_episodes > self.train_episodes:
                raise ValueError(
                    f"decay_episodes {self.decay_episodes} exceeds the "
                    f"training phase of {self.train_episodes} episodes")

    @property
    def total_episodes(self) -> int:
        return self.train_episodes + self.eval_episodes

    def epsilon_at(self, episode: int) -> float:
        span = (self.decay_episodes if self.decay_episodes is not None
                else self.train_episodes)
        if span <= 0:
            return 0.0
        return linear_decay(self.epsilon, episode, span)


@dataclass
class QTrainResult:
    table: QTable
    rewards: list[float]  # cumulative reward per finished episode
    total_steps: int
    train_boundary_step: int


def _check_table_dims(table: QTable, env: ParkingEnv) -> None:
    dims = tuple(env.schema.discrete_dims())
    branches = tuple(env.action_schema.branches)
    if table.state_sizes != dims or table.action_sizes != branches:
        raise ValueError(
            f"table was built for state radices {table.state_sizes} and "
            f"action radices {table.action_sizes}, but the environment "
            f"produces {dims} and {branches}")


def _flat_actions(env: ParkingEnv) -> list[ActionTuple]:
    schema = env.action_schema
    return [ActionTuple(*decode_action(schema, f))
            for f in range(schema.flat_size)]


def train_q(cfg: EnvironmentConfig, schedule: QSchedule,
            out_dir: str | None = None, *, env: ParkingEnv | None = None,
            table: QTable | None = None, seed: int | None = None,
            summary_freq: int = DEFAULT_SUMMARY_FREQ, dump_interval: int = 0,
            log=None) -> QTrainResult:
    """Run the episode budget and return the trained table.

    The training boundary falls where the training episodes are done.
    With an output directory the run (a ``TrainingRun``) also persists
    the model file, the per-episode reward series, the metric store, and
    a metadata file whose recorded training boundary the analysis stage
    reads back.
    """
    rng = random.Random(seed)
    if env is None:
        env = ParkingEnv(cfg, rng=rng)
    env.require_obs_mode("discrete", "tabular Q-learning")
    if table is None:
        table = QTable(env.schema.discrete_dims(),
                       env.action_schema.branches)
    else:
        _check_table_dims(table, env)

    with TrainingRun(
            "q", cfg, schedule, env, out_dir, seed=seed,
            summary_freq=summary_freq, max_episodes=schedule.total_episodes,
            dump_interval=dump_interval, log=log,
            rates=lambda _: f"eps {eps_t:.4f}  alpha {alpha_t:.4f}") as run:
        n = run.n
        dims = env.schema.discrete_dims()
        actions = _flat_actions(env)
        observe = env.observe
        cur: list[int | None] = [None] * n
        if schedule.train_episodes == 0:
            run.end_training()

        rates_at = None  # the episode count the rates below were taken at
        while not run.done:
            if rates_at != run.episodes:
                rates_at = run.episodes
                update = rates_at < schedule.train_episodes
                if update:
                    eps_t = schedule.epsilon_at(rates_at)
                    alpha_t = schedule.alpha
                else:
                    eps_t = 0.0
                    alpha_t = 0.0
            flats = []
            for i in range(n):
                if cur[i] is None:
                    cur[i] = encode_state(dims, observe(i))
                flats.append(select_action(table, cur[i], eps_t, rng))
            outs = run.step([actions[f] for f in flats])
            for i, out in enumerate(outs):
                if out.terminal is None:
                    s_next = encode_state(dims, observe(i))
                    if update:
                        q_update(table, cur[i], flats[i], out.reward, s_next,
                                 alpha_t, schedule.gamma)
                    cur[i] = s_next
                    continue
                if update:
                    q_update(table, cur[i], flats[i], out.reward, None,
                             alpha_t, schedule.gamma)
                cur[i] = None
            if run.episodes >= schedule.train_episodes:
                run.end_training()

        run.finish(table, total_episodes=schedule.total_episodes,
                   train_episodes=schedule.train_episodes,
                   eval_episodes=schedule.eval_episodes)
    return QTrainResult(table, run.rewards, run.steps, run.boundary)


def evaluate_q(table: QTable, env: ParkingEnv, episodes: int) -> dict:
    """Greedy rollouts with no learning; returns outcome rates and the
    per-episode rewards."""
    env.require_obs_mode("discrete", "tabular Q-learning")
    _check_table_dims(table, env)
    dims = env.schema.discrete_dims()
    actions = _flat_actions(env)
    values = table.values
    n = len(env.agents)

    def act(_step: int) -> list[ActionTuple]:
        states = [encode_state(dims, env.observe(i)) for i in range(n)]
        return [actions[int(values[s].argmax())] for s in states]

    return evaluate_policy(env, episodes, act)
