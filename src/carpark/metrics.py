"""Scalar metric recording and post-run aggregation.

Training jobs record raw scalar points against a monotone step axis.
The store folds them into fixed-width step windows (the summary
frequency) and keeps one point per closed window, so memory and file
size stay bounded regardless of run length. ``MetricStore`` only writes:
closed buckets stream to a line-delimited JSON file as they close, which
means a crashed job still leaves a readable store behind, and the file is
their only copy. ``read_store`` is the one reader.

Both trainers share the run scaffold here: ``TrainingRun`` steps the
environment for them, keeps the tick bookkeeping and the training
boundary, and opens and finishes the run directory; ``evaluate_policy``
is the greedy evaluation loop behind ``evaluate_q`` and ``evaluate_ppo``.
A run directory holds ``run.json``, ``metrics.jsonl``, ``rewards.csv``
and the trained model, ``model.npz``: both trainers' models are npz
archives written and read through ``save_model`` and ``load_model``.

The aggregation functions reduce a series over the evaluation period --
every bucket at or past the period-start step -- and ``export_rows``
assembles one summary row per model directory from them. The export
catalogue ``EXPORT_COLUMNS`` is the one declaration of that row: each CSV
column, in order, with its aggregation and the metric it reads;
``ROW_COLUMNS`` and ``CONTEXT_COLUMNS`` derive from it. Each run
directory is read in one pass: one read of ``run.json``, one of the
store, decoded line by line. A file that does not parse raises
``ValueError``, which ``export_rows`` turns into a skip warning.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field

from .env import GAVE_WAY_KEYS

MODES = ("mean", "last")
DEFAULT_SUMMARY_FREQ = 10_000

STORE_BASENAME = "metrics.jsonl"
META_BASENAME = "run.json"
REWARDS_BASENAME = "rewards.csv"
MODEL_BASENAME = "model.npz"
MODEL_VERSION = 1

# one store line -> (record, end index); read_store rejects trailing data
_decode = json.JSONDecoder().raw_decode

_EPISODES = "Metrics/Num Episodes"


def gave_way_paths(name: str) -> tuple[str, str]:
    """The recorded (positive, total) count paths of a give-way context."""
    return (f"Metrics/GaveWay{name}_PostiveCount",  # sic
            f"Metrics/GaveWay{name}_TotalCount")


# The export catalogue: one (column, aggregation, source) entry per CSV
# column, in CSV order. "steps" counts the run's steps past the training
# boundary; "mean" averages the period's buckets of the source metric,
# "delta" is a running total's increase over the period and "per_eps"
# that increase per episode; "context" is a give-way conformance. The
# source of a running total is its (metric path, env.stats key) pair:
# the recorder samples the key at every episode end.
EXPORT_COLUMNS = (
    ("Max Steps", "steps", None),
    ("Final Mean Reward", "mean", "Environment/Cumulative Reward"),
    ("Final Mean Episode Length", "mean", "Environment/Episode Length"),
    ("c", "per_eps", ("Metrics/Total Crashes", "crashed")),
    ("p", "per_eps", ("Metrics/Total Reached Goal", "parked")),
    ("h", "per_eps", ("Metrics/Total Halted", "halted")),
    ("Num Episodes", "delta", (_EPISODES, "episodes")),
    ("Total Crashes Car", "delta", ("Metrics/Total Crashes Car",
                                    "crash_agent")),
    ("Total Crashes Wall", "delta", ("Metrics/Total Crashes Wall",
                                     "crash_wall")),
    ("Total Crashes StaticCar", "delta", ("Metrics/Total Crashes StaticCar",
                                          "crash_parked")),
    ("Num Lost Goal PerEps", "per_eps", ("Metrics/Num Lost Goal",
                                         "lost_goal")),
    ("Num Stop Explore PerEps", "per_eps", ("Metrics/Num Stop Explore",
                                            "transition_StopExplore")),
    ("Num Stop Goal PerEps", "per_eps", ("Metrics/Num Stop Goal",
                                         "transition_StopGoal")),
    ("Num Change Goal PerEps", "per_eps", ("Metrics/Num Change Goal",
                                           "transition_ChangeGoal")),
    ("GaveWayLocalAnyGoal", "context", "LocalAnyGoal"),
    ("GaveWayGlobalAnyGoal", "context", "GlobalAnyGoal"),
    ("GaveWayLocalSameGoal", "context", "LocalSameGoal"),
    ("GaveWayGlobalSameGoal", "context", "GlobalSameGoal"),
    ("GaveWayNonLocalSameGoal", "context", "NonLocalSameGoal"),
    ("GaveWayNonLocalAnyGoal", "context", "NonLocalAnyGoal"),
    ("DeltaThetaAvg", "mean", "Metrics/DeltaThetaAvg"),
    ("VelocityAvg", "mean", "Metrics/VelocityAvg"),
    ("NearestCarDistAvg", "mean", "Metrics/NearestCarDistAvg"),
    ("RatioExplorePerEps", "mean", "Metrics/RatioExplorePerEps"),
    ("RatioGoalPerEps", "mean", "Metrics/RatioGoalPerEps"),
    ("RatioMoveTowardsPerEps", "mean", "Metrics/RatioMoveTowardsPerEps"),
    ("RatioMoveTowardsExploringPerEps", "mean",
     "Metrics/RatioMoveTowardsExploringPerEps"),
    ("Park Velocity", "mean", "Metrics/Park Velocity"),
)
# the running totals in recording order: the episode count first, then
# catalogue order (sorted is stable)
_RECORDED_TOTALS = tuple(sorted(
    (source for _, how, source in EXPORT_COLUMNS
     if how in ("delta", "per_eps")),
    key=lambda source: source[0] != _EPISODES))
ROW_COLUMNS = tuple(col for col, _, _ in EXPORT_COLUMNS)
CONTEXT_COLUMNS = tuple(col for col, how, _ in EXPORT_COLUMNS
                        if how == "context")


@dataclass
class MetricSeries:
    """One recorded metric: closed buckets of (step, value) points."""

    path: str
    mode: str
    summary_freq: int
    points: list[tuple[int, float]] = field(default_factory=list)


class _SeriesState:
    __slots__ = ("mode", "last_step", "window_end", "count", "value")

    def __init__(self, mode: str):
        self.mode = mode
        self.last_step = 0  # so that the regression check rejects step < 0
        self.window_end = -1  # end step of the open window; -1 before any
        self.count = 0  # points in the open window; 0 means nothing to flush
        self.value = 0.0  # the open window's sum (mean) or last value


class MetricStore:
    """Step-bucketed scalar recorder, one instance per training job,
    writing to the store file at `path`; ``read_store`` reads it back.

    Bucket windows span ((k-1)*freq, k*freq] and close at the window-end
    step; a partially filled window is flushed at its last recorded step
    when the store closes. ``mean`` buckets average the window's raw
    points and ``last`` buckets keep the window's final value. A closed
    bucket goes to the file and nowhere else.
    """

    def __init__(self, path: str, summary_freq: int = DEFAULT_SUMMARY_FREQ):
        if summary_freq < 1:
            raise ValueError(f"summary_freq must be positive: {summary_freq}")
        self.summary_freq = int(summary_freq)
        self._states: dict[str, _SeriesState] = {}
        self._closed = False
        self._fh = open(path, "w", encoding="utf-8")
        header = {"format": "carpark-metrics", "version": 1,
                  "summary_freq": self.summary_freq}
        self._fh.write(json.dumps(header) + "\n")

    def record(self, path: str, value: float, step: int,
               mode: str = "mean") -> None:
        if self._closed:
            raise RuntimeError("record() on a closed store")
        st = self._states.get(path)
        if st is None:
            if mode not in MODES:
                raise ValueError(f"unknown metric mode {mode!r}")
            st = self._states[path] = _SeriesState(mode)
        elif mode != st.mode:
            raise ValueError(
                f"{path} records in {st.mode!r} mode, got {mode!r}")
        if step < st.last_step:
            raise ValueError(
                f"step regression on {path}: {step} after {st.last_step}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value for {path}: {value}")
        if step > st.window_end:
            # the step opens the window ((k-1)*freq, k*freq] that holds it
            self._close_window(path, st, st.window_end)
            freq = self.summary_freq
            st.window_end = ((step + freq - 1) // freq) * freq
        st.last_step = step
        if mode == "mean":
            st.value += value
        else:
            st.value = value
        st.count += 1

    def _close_window(self, path: str, st: _SeriesState, at_step: int) -> None:
        if not st.count:
            return
        value = st.value / st.count if st.mode == "mean" else st.value
        self._fh.write(json.dumps(
            {"path": path, "step": at_step, "value": value,
             "mode": st.mode}) + "\n")
        st.value = 0.0
        st.count = 0

    def close(self) -> None:
        if self._closed:
            return
        for path, st in self._states.items():
            if st.count:
                # partial window: flush at the data's actual extent
                at = min(st.window_end, st.last_step)
                self._close_window(path, st, at)
        self._fh.close()
        self._closed = True


def read_store(path: str) -> dict[str, MetricSeries]:
    """Load a persisted store; buckets come back exactly as flushed.

    The file is read whole, which is safe because a store holds one
    point per closed window. Each line must hold one JSON object; any
    other line, a mode switch or a step that does not increase raises
    ``ValueError`` (``json.JSONDecodeError`` when undecodable) naming
    ``path:line``.
    """
    series: dict[str, MetricSeries] = {}
    freq = 0
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for line_no, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        rec, end = _decode(line)
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
        if not isinstance(rec, dict):
            raise ValueError(f"{path}:{line_no}: not a JSON object")
        try:
            if "format" in rec:
                freq = int(rec.get("summary_freq", 0))
                continue
            key = rec["path"]
            s = series.get(key)
            if s is None:
                s = series[key] = MetricSeries(key, rec["mode"], freq)
            elif s.mode != rec["mode"]:
                raise ValueError(
                    f"{path}:{line_no}: {key} switches mode "
                    f"{s.mode!r} -> {rec['mode']!r}")
            step = int(rec["step"])
            if s.points and step <= s.points[-1][0]:
                raise ValueError(
                    f"{path}:{line_no}: {key} bucket steps not increasing")
            s.points.append((step, float(rec["value"])))
        except TypeError as e:  # a null step or value, a list as path ...
            raise ValueError(
                f"{path}:{line_no}: malformed record: {e}") from None
    return series


# -------------------------------------------------------------- aggregation


def mean_metric_period(series: MetricSeries | None,
                       period_start: int) -> float | None:
    """Mean of bucket values at or past the period start; None if empty."""
    if series is None:
        return None
    vals = [v for s, v in series.points if s >= period_start]
    if not vals:
        return None
    return math.fsum(vals) / len(vals)


def last_minus_start_metricperiod(series: MetricSeries | None,
                                  period_start: int) -> float | None:
    """Increase of a running-total series over the period.

    The start value is the last bucket at or before the period start (a
    series that begins inside the period starts from zero); the end
    value is the final bucket. None when no bucket falls in the period.
    """
    if series is None or not series.points:
        return None
    last_step, last_val = series.points[-1]
    if last_step < period_start:
        return None
    start_val = 0.0
    for s, v in series.points:
        if s > period_start:
            break
        start_val = v
    return last_val - start_val


def context_conformance(positive: MetricSeries | None,
                        total: MetricSeries | None,
                        period_start: int) -> float | None:
    """Fraction of give-way situations acted on; None if none arose."""
    d_total = last_minus_start_metricperiod(total, period_start)
    if d_total is None or d_total <= 0:
        return None
    d_pos = last_minus_start_metricperiod(positive, period_start)
    return (d_pos or 0.0) / d_total


def per_eps(series: MetricSeries | None, episodes: MetricSeries | None,
            period_start: int) -> float | None:
    """Period increase of a running total, averaged per episode."""
    d_eps = last_minus_start_metricperiod(episodes, period_start)
    if d_eps is None or d_eps <= 0:
        return None
    d = last_minus_start_metricperiod(series, period_start)
    if d is None:
        return None
    return d / d_eps


# ---------------------------------------------------- training-side plumbing


class TrainingRecorder:
    """Folds step outcomes into the standard metric paths.

    Both trainers drive this with the environment's step outcomes; the
    step axis is the cumulative agent-step count. Episode-end totals are
    sampled from the environment's running stats, so the recorded series
    are running totals regardless of bucketing.
    """

    def __init__(self, store: MetricStore, env):
        self.store = store
        self.env = env
        self.dynamic = env.cfg._dynamicGoals
        self.v_scale = 1.0 / max(env.cfg._velocityGranularity, 1)

    def after_step(self, step: int, outcomes) -> None:
        record = self.store.record
        nearest_car_distance = self.env.nearest_car_distance
        v_scale = self.v_scale
        for i, out in enumerate(outcomes):
            record("Metrics/DeltaThetaAvg", out.omega, step)
            record("Metrics/VelocityAvg", out.velocity * v_scale, step)
            record("Metrics/NearestCarDistAvg", nearest_car_distance(i), step)
            if out.terminal is not None:
                self._episode_end(step, out)

    def _episode_end(self, step: int, ev) -> None:
        record = self.store.record
        stats = self.env.stats
        record("Environment/Cumulative Reward", ev.episode_reward, step)
        record("Environment/Episode Length", ev.episode_steps, step)
        for path, key in _RECORDED_TOTALS:
            record(path, stats[key], step, "last")
        record("Metrics/RatioMoveTowardsPerEps", ev.ratio_toward_goal, step)
        if ev.terminal == "parked":
            record("Metrics/Park Velocity",
                   abs(ev.velocity) * self.v_scale, step)
        if not self.dynamic:
            return
        record("Metrics/RatioExplorePerEps", ev.ratio_explore, step)
        record("Metrics/RatioGoalPerEps", 1.0 - ev.ratio_explore, step)
        record("Metrics/RatioMoveTowardsExploringPerEps",
               ev.ratio_toward_space_exploring, step)
        for name, total, pos in GAVE_WAY_KEYS.values():
            pos_path, total_path = gave_way_paths(name)
            record(pos_path, stats[pos], step, "last")
            record(total_path, stats[total], step, "last")


class TrainingRun:
    """The run scaffold both trainers share.

    ``step`` steps every agent once, counts the agent-steps (the step
    axis), records the outcomes, collects each finished episode's reward
    and logs a progress line every ``dump_interval`` episodes. The run
    starts on the training hitboxes; ``end_training`` marks the training
    boundary and switches to the true ones. The budget is
    ``max_episodes`` episodes or ``max_steps`` agent-steps.

    With an output directory, whose basename is the run id, the run
    writes ``run.json`` unfinished when it opens; ``finish`` saves the
    model to ``model.npz``, writes the reward series, closes the metric
    store and marks ``run.json`` finished with the run totals. In a
    ``with`` block, a run that raises closes its store unfinished.
    """

    def __init__(self, kind: str, cfg, hyper, env, out_dir: str | None, *,
                 seed, summary_freq: int = DEFAULT_SUMMARY_FREQ,
                 max_episodes: int | None = None,
                 max_steps: int | None = None, dump_interval: int = 0,
                 log=None, rates=None):
        if env.cfg != cfg:  # run.json records cfg
            a, b = cfg.to_mapping(), env.cfg.to_mapping()
            raise ValueError(f"env.cfg differs from the recorded config in "
                             f"{sorted(k for k in a if a[k] != b[k])}")
        self.env = env
        self.n = len(env.agents)
        self.max_episodes = max_episodes
        self.max_steps = max_steps
        self.dump_interval = (dump_interval if log is not None
                              and dump_interval > 0 else 0)
        self.log = log
        self.rates = rates  # rates(step) -> the trainer's rate fields
        self.steps = 0
        self.rewards: list[float] = []  # per finished episode
        self.episodes = 0  # len(self.rewards)
        # whether the budget is spent; a plain attribute, as trainers read
        # it every tick
        self.done = (max_episodes if max_steps is None else max_steps) <= 0
        self.boundary: int | None = None
        env.set_car_scale(cfg.carScaleTrain)
        self.out_dir = out_dir
        self.store = self.recorder = None
        if out_dir is None:
            return
        os.makedirs(out_dir, exist_ok=True)
        experiment = {"trainer": kind,
                      "environment_parameters": cfg.to_mapping(),
                      "hyperparameters": asdict(hyper)}
        self._meta = {"kind": kind,
                      "run_id": os.path.basename(os.path.normpath(out_dir)),
                      "seed": seed, "experiment": experiment}
        write_run_meta(out_dir, {**self._meta, "finished": False})
        self.store = MetricStore(self.path(STORE_BASENAME), summary_freq)
        self.recorder = TrainingRecorder(self.store, env)

    def __enter__(self) -> TrainingRun:
        return self

    def __exit__(self, *exc) -> None:
        if self.store is not None:
            self.store.close()

    def path(self, basename: str) -> str:
        return os.path.join(self.out_dir, basename)

    def step(self, actions) -> list:
        """One tick of every agent; returns the step outcomes."""
        outs = self.env.step_all(actions)
        self.steps += self.n
        if self.recorder is not None:
            self.recorder.after_step(self.steps, outs)
        rewards = self.rewards
        for out in outs:
            if out.terminal is not None:
                rewards.append(out.episode_reward)
                if (self.dump_interval
                        and len(rewards) % self.dump_interval == 0):
                    self._log_progress()
        self.episodes = episodes = len(rewards)
        self.done = (episodes >= self.max_episodes if self.max_steps is None
                     else self.steps >= self.max_steps)
        return outs

    def _log_progress(self) -> None:
        recent = self.rewards[-self.dump_interval:]
        budget = (f"/{self.max_episodes}" if self.max_steps is None
                  else f"  step {self.steps}/{self.max_steps}")
        self.log(f"episode {len(self.rewards)}{budget}  mean reward "
                 f"{sum(recent) / len(recent):.3f}  {self.rates(self.steps)}")

    def end_training(self) -> None:
        """Mark the training boundary at the current step, once, and switch
        to the true hitboxes."""
        if self.boundary is None:
            self.boundary = self.steps
            self.env.set_car_scale(1.0)

    def finish(self, model, **totals) -> None:
        """Close the run; a run that never ended training has its boundary
        at the last step."""
        if self.boundary is None:
            self.boundary = self.steps
        if self.out_dir is None:
            return
        model.save(self.path(MODEL_BASENAME))
        with open(self.path(REWARDS_BASENAME), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode", "reward"])
            for episode, reward in enumerate(self.rewards):
                writer.writerow([episode, reward])
        self.store.close()
        write_run_meta(self.out_dir,
                       {**self._meta, "finished": True,
                        "total_steps": self.steps,
                        "train_boundary_step": self.boundary, **totals})


def evaluate_policy(env, episodes: int, act) -> dict:
    """Greedy rollouts with no learning; returns outcome rates and the
    per-episode rewards.

    Each tick asks ``act(step)`` for every agent's ``ActionTuple``, in
    agent order, where step is the agent-step count before the tick, then
    steps all agents.
    """
    if episodes <= 0:
        return {"episodes": 0, "park_rate": None, "crash_rate": None,
                "halt_rate": None, "mean_reward": None,
                "mean_length": None, "rewards": [], "total_steps": 0}
    before = dict(env.stats)
    n = len(env.agents)
    rewards: list[float] = []
    lengths: list[int] = []
    gstep = 0
    while len(rewards) < episodes:
        outs = env.step_all(act(gstep))
        gstep += n
        for out in outs:
            if out.terminal is not None:
                rewards.append(out.episode_reward)
                lengths.append(out.episode_steps)
    done = len(rewards)
    return {
        "episodes": done,
        "park_rate": (env.stats["parked"] - before["parked"]) / done,
        "crash_rate": (env.stats["crashed"] - before["crashed"]) / done,
        "halt_rate": (env.stats["halted"] - before["halted"]) / done,
        "mean_reward": sum(rewards) / done,
        "mean_length": sum(lengths) / done,
        "rewards": rewards,
        "total_steps": gstep,
    }


# ------------------------------------------------------------ model files


class _ModelArrays(dict):
    """A loaded model's arrays by name. A missing name, and an array that
    a typed read does not accept, raise ValueError; the loader names the
    file."""

    def __missing__(self, key: str):
        raise ValueError(f"missing array {key!r}")

    def integers(self, key: str) -> list[int]:
        """The 1-d integer array `key`, as ints."""
        arr = self[key]
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise ValueError(f"{key} must be a 1-d integer array: {arr!r}")
        return arr.tolist()

    def reals(self, key: str, shape: tuple | None = None):
        """The finite real array `key` as float64, of `shape` unless None."""
        import numpy as np

        arr = self[key]
        if arr.dtype.kind not in "fiu" or shape not in (None, arr.shape):
            raise ValueError(f"{key} is a {arr.dtype} array of shape "
                             f"{arr.shape}, not a real one of shape {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite values in {key}")
        return arr.astype(np.float64, copy=False)


def save_model(path: str, kind: str, arrays: dict) -> None:
    """Write a trainer's arrays to exactly `path`, an npz archive whose
    ``format`` entry names the trainer kind and the format version."""
    import numpy as np

    with open(path, "wb") as fh:
        np.savez(fh, format=np.array(f"{kind}/{MODEL_VERSION}"), **arrays)


def load_model(path: str, kind: str) -> _ModelArrays:
    """The arrays ``save_model`` wrote for a `kind` model. Any other file
    (empty, truncated, foreign, a ``.npy`` array, another trainer's model
    or another version) raises ``ValueError`` naming `path`."""
    import zipfile
    import zlib

    import numpy as np

    with open(path, "rb") as fh:
        try:
            archive = np.load(fh)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            with archive:
                arrays = _ModelArrays(archive.items())
        except (EOFError, OSError, RuntimeError, ValueError,
                zipfile.BadZipFile, zlib.error) as e:
            raise ValueError(f"{path}: not a model checkpoint: {e}") from None
    found = arrays.pop("format", None)
    if str(found) != f"{kind}/{MODEL_VERSION}":
        raise ValueError(f"{path}: not a version {MODEL_VERSION} {kind} "
                         f"checkpoint (its format entry is {found})")
    return arrays


# ------------------------------------------------------------ run metadata


def write_run_meta(model_dir: str, meta: dict) -> str:
    path = os.path.join(model_dir, META_BASENAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_run_meta(model_dir: str) -> dict:
    path = os.path.join(model_dir, META_BASENAME)
    with open(path, "rb") as fh:
        data = fh.read()
    meta = json.loads(data.decode("utf-8"))  # a UTF-8 BOM still raises
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: not a JSON object")
    return meta


def dig(mapping: dict, dotted_path: str):
    """Resolve a dotted key path; None when any component is missing."""
    cur = mapping
    for part in dotted_path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


# ------------------------------------------------------------- model rows


def discover_model_dirs(root: str) -> list[str]:
    """Directories under root holding a metric store, sorted for stable
    row order. Symlinked directories are not descended, as in os.walk."""
    found = []
    stack = [root]
    while stack:
        top = stack.pop()
        try:
            with os.scandir(top) as it:
                entries = list(it)
        except OSError:
            continue  # as os.walk: a missing or unreadable dir is skipped
        for entry in entries:
            try:
                is_dir = entry.is_dir()
            except OSError:
                is_dir = False
            if not is_dir:
                if entry.name == STORE_BASENAME:
                    found.append(top)
            elif not entry.is_symlink():
                stack.append(entry.path)
    return sorted(found)


def model_row(model_dir: str, period_start: int | None = None,
              param_paths: tuple[str, ...] = ()) -> dict:
    """Aggregate one model directory into a summary-row mapping.

    The evaluation period starts at the run's recorded training
    boundary when the metadata has one, else at period_start. A recorded
    step count that is not an integer raises ``ValueError``. Absent
    aggregates stay None and export as empty cells.
    """
    meta = read_run_meta(model_dir)
    series = read_store(os.path.join(model_dir, STORE_BASENAME))
    for key in ("total_steps", "train_boundary_step"):
        value = meta.get(key)
        if value is not None and (type(value) is bool
                                  or not isinstance(value, int)):
            raise ValueError(f"{model_dir}: {key} {value!r} in "
                             f"{META_BASENAME} is not an integer")
    boundary = meta.get("train_boundary_step")
    if boundary is None:
        boundary = period_start
    if boundary is None:
        raise ValueError(
            f"{model_dir}: no training boundary recorded or supplied")
    get = series.get
    eps = get(_EPISODES)
    total_steps = meta.get("total_steps")
    row: dict = {"Model": meta.get("run_id") or os.path.basename(model_dir)}
    for col, how, source in EXPORT_COLUMNS:
        if how == "mean":
            value = mean_metric_period(get(source), boundary)
        elif how == "per_eps":
            value = per_eps(get(source[0]), eps, boundary)
        elif how == "delta":
            value = last_minus_start_metricperiod(get(source[0]), boundary)
        elif how == "context":
            pos, total = gave_way_paths(source)
            value = context_conformance(get(pos), get(total), boundary)
        else:  # steps
            value = None if total_steps is None else total_steps - boundary
        row[col] = value
    experiment = meta.get("experiment") or {}
    for p in param_paths:
        row[p] = dig(experiment, p)
    return row


def export_rows(model_dirs, out_path: str, period_start: int | None = None,
                param_paths: tuple[str, ...] = ()) -> list[dict]:
    """Write one CSV row per readable model directory; returns the rows.

    Unreadable or incomplete directories are skipped with a warning so
    one bad job doesn't block comparing the rest. A parameter path that
    names a summary column, or one given twice, raises ``ValueError``: it
    would overwrite that column or repeat it in the header.
    """
    taken = [p for p in param_paths if p == "Model" or p in ROW_COLUMNS]
    if taken:
        raise ValueError(f"parameter paths {taken} name summary columns")
    repeated = sorted({p for p in param_paths if param_paths.count(p) > 1})
    if repeated:
        raise ValueError(f"parameter paths {repeated} are given more than once")
    rows = []
    for d in sorted(str(d) for d in model_dirs):
        try:
            rows.append(model_row(d, period_start, param_paths))
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
            warnings.warn(f"skipping model dir {d}: {e}", stacklevel=2)
    header = ["Model", *ROW_COLUMNS, *param_paths]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                ["" if row.get(col) is None else row[col] for col in header])
    return rows
