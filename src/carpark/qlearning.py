"""Tabular Q-learning: a dense table over the flattened discrete state
and action spaces, epsilon-greedy selection, linearly decaying learning
and exploration rates, and a terminal evaluation zone in which both are
frozen so the measured performance is pure policy.

Training is single-threaded; parallel experiments run as separately
seeded processes.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .config import EnvironmentConfig
from .env import ActionTuple, ParkingEnv
from .metrics import DEFAULT_SUMMARY_FREQ, MetricStore, RunDir, evaluate_policy
from .observation import decode_action, encode_state

QTABLE_MAGIC = b"QTBL"
QTABLE_VERSION = 1

MODEL_BASENAME = "model.qtable"


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
        with open(path, "wb") as fh:
            fh.write(QTABLE_MAGIC)
            fh.write(struct.pack("<B", QTABLE_VERSION))
            fh.write(struct.pack("<II", len(self.state_sizes),
                                 len(self.action_sizes)))
            fh.write(struct.pack(f"<{len(self.state_sizes)}I",
                                 *self.state_sizes))
            fh.write(struct.pack(f"<{len(self.action_sizes)}I",
                                 *self.action_sizes))
            fh.write(np.ascontiguousarray(
                self.values, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path: str) -> "QTable":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != QTABLE_MAGIC:
            raise ValueError(f"{path}: not a Q-table file")
        if len(blob) < 13:
            raise ValueError(f"{path}: truncated header")
        version = blob[4]
        if version != QTABLE_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        n_s, n_a = struct.unpack_from("<II", blob, 5)
        offset = 13
        need = offset + 4 * (n_s + n_a)
        if len(blob) < need:
            raise ValueError(f"{path}: truncated radix vectors")
        state_sizes = struct.unpack_from(f"<{n_s}I", blob, offset)
        action_sizes = struct.unpack_from(f"<{n_a}I", blob, offset + 4 * n_s)
        shape = (math.prod(state_sizes), math.prod(action_sizes))
        payload = blob[need:]
        if len(payload) != shape[0] * shape[1] * 8:
            raise ValueError(
                f"{path}: payload holds {len(payload)} bytes, expected "
                f"{shape[0] * shape[1] * 8}")
        values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        return cls(state_sizes, action_sizes, values)


def q_update(table: QTable, s: int, a: int, r: float, s_next: int | None,
             alpha: float, gamma: float) -> float:
    """One-step update of Q(s, a); s_next None means a terminal
    transition, which bootstraps from zero."""
    if not math.isfinite(r):
        raise ValueError(f"non-finite reward {r!r}")
    values = table.values
    best_next = 0.0 if s_next is None else float(values[s_next].max())
    new = (1.0 - alpha) * float(values[s, a]) + alpha * (r + gamma * best_next)
    values[s, a] = new
    return new


def select_action(table: QTable, s: int, epsilon: float, rng) -> int:
    """Epsilon-greedy over the s-th row; greedy ties break to the lowest
    flat action index. A zero epsilon draws nothing from the rng."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return rng.randrange(table.values.shape[1])
    return int(table.values[s].argmax())


def linear_decay(value0: float, value_min: float, episode: int,
                 decay_episodes: int) -> float:
    """Interpolate from value0 at episode 0 to value_min at
    decay_episodes, clamped there afterwards."""
    if decay_episodes <= 0:
        raise ValueError(f"decay_episodes must be positive: {decay_episodes}")
    if episode >= decay_episodes:
        return value_min
    return value0 + (value_min - value0) * (episode / decay_episodes)


@dataclass(frozen=True)
class QSchedule:
    """Trainer configuration: rates, their decay targets, and the
    episode budget split into a training phase and an evaluation zone."""

    alpha: float
    gamma: float
    epsilon: float
    train_episodes: int
    eval_episodes: int = 0
    alpha_min: float | None = None  # None keeps alpha constant
    eps_min: float = 0.0
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
        if self.alpha_min is not None and not (
                0.0 <= self.alpha_min <= self.alpha):
            raise ValueError(
                f"alpha_min {self.alpha_min} outside [0, {self.alpha}]")
        if not 0.0 <= self.eps_min <= max(self.epsilon, 0.0):
            raise ValueError(
                f"eps_min {self.eps_min} outside [0, {self.epsilon}]")
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

    def _decay_span(self) -> int:
        return (self.decay_episodes if self.decay_episodes is not None
                else self.train_episodes)

    def epsilon_at(self, episode: int) -> float:
        span = self._decay_span()
        if span <= 0:
            return self.eps_min
        return linear_decay(self.epsilon, self.eps_min, episode, span)

    def alpha_at(self, episode: int) -> float:
        if self.alpha_min is None:
            return self.alpha
        span = self._decay_span()
        if span <= 0:
            return self.alpha_min
        return linear_decay(self.alpha, self.alpha_min, episode, span)


@dataclass
class QTrainResult:
    table: QTable
    rewards: list[float]  # cumulative reward per finished episode
    total_steps: int
    train_boundary_step: int
    out_dir: str | None


def _check_discrete(env: ParkingEnv) -> None:
    if env.obs_mode != "discrete":
        raise ValueError(
            "tabular Q-learning requires the discrete observation mode; "
            "unset _normalizeObs")


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
            run_id: str | None = None, experiment: dict | None = None,
            log=None) -> QTrainResult:
    """Run the episode budget and return the trained table.

    With an output directory the run also persists the model file, the
    per-episode reward series, the metric store, and a metadata file
    whose recorded training boundary the analysis stage reads back.
    """
    rng = random.Random(seed)
    if env is None:
        env = ParkingEnv(cfg, rng=rng)
    _check_discrete(env)
    if table is None:
        table = QTable(env.schema.discrete_dims(),
                       env.action_schema.branches)
    else:
        _check_table_dims(table, env)

    if experiment is None:
        experiment = {
            "trainer": "q",
            "environment_parameters": cfg.to_mapping(),
            "hyperparameters": asdict(schedule),
        }
    run = None
    recorder = None
    if out_dir is not None:
        run = RunDir(out_dir, "q", env, seed=seed, experiment=experiment,
                     run_id=run_id, summary_freq=summary_freq)
        recorder = run.recorder

    total = schedule.total_episodes
    n = len(env.agents)
    dims = env.schema.discrete_dims()
    actions = _flat_actions(env)
    observe = env.observe
    cur: list[int | None] = [None] * n
    episodes_done = 0
    gstep = 0
    boundary = 0 if schedule.train_episodes == 0 else None
    # training hitboxes until the boundary, true ones for evaluation
    env.set_car_scale(cfg.carScaleTrain if boundary is None else 1.0)
    rewards: list[float] = []

    while episodes_done < total:
        training = episodes_done < schedule.train_episodes
        if training:
            eps_t = schedule.epsilon_at(episodes_done)
            alpha_t = schedule.alpha_at(episodes_done)
        else:
            eps_t = 0.0
            alpha_t = 0.0
        flats = []
        for i in range(n):
            if cur[i] is None:
                cur[i] = encode_state(dims, observe(i))
            flats.append(select_action(table, cur[i], eps_t, rng))
        outs = env.step_all([actions[f] for f in flats])
        gstep += n
        if recorder is not None:
            recorder.after_step(gstep, outs)
        for i, out in enumerate(outs):
            update = training and alpha_t > 0.0
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
            episodes_done += 1
            rewards.append(out.events.episode_reward)
            if boundary is None and episodes_done >= schedule.train_episodes:
                boundary = gstep
                env.set_car_scale(1.0)
            if (log is not None and dump_interval > 0
                    and episodes_done % dump_interval == 0):
                recent = rewards[-dump_interval:]
                log(f"episode {episodes_done}/{total}  "
                    f"mean reward {sum(recent) / len(recent):.3f}  "
                    f"eps {eps_t:.4f}  alpha {alpha_t:.4f}")

    if boundary is None:
        boundary = gstep
    result = QTrainResult(table, rewards, gstep, boundary, out_dir)
    if run is not None:
        table.save(run.path(MODEL_BASENAME))
        run.finish(rewards, total_steps=gstep, total_episodes=total,
                   train_episodes=schedule.train_episodes,
                   eval_episodes=schedule.eval_episodes,
                   train_boundary_step=boundary)
    return result


def evaluate_q(table: QTable, env: ParkingEnv, episodes: int,
               store: MetricStore | None = None) -> dict:
    """Greedy rollouts with no learning; returns outcome rates and the
    per-episode rewards."""
    _check_discrete(env)
    _check_table_dims(table, env)
    dims = env.schema.discrete_dims()
    actions = _flat_actions(env)
    values = table.values
    n = len(env.agents)

    def act(_step: int) -> list[ActionTuple]:
        states = [encode_state(dims, env.observe(i)) for i in range(n)]
        return [actions[int(values[s].argmax())] for s in states]

    return evaluate_policy(env, episodes, act, store)
