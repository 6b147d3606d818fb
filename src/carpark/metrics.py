"""Scalar metric recording and post-run aggregation.

Training jobs record raw scalar points against a monotone step axis.
The store folds them into fixed-width step windows (the summary
frequency) and keeps one point per closed window, so memory and file
size stay bounded regardless of run length. Closed buckets stream to a
line-delimited JSON file as they close, which means a crashed job still
leaves a readable store behind.

Both trainers share the run plumbing here: ``RunDir`` opens a run
directory (metadata, metric store, recorder) and ``finish`` closes it
with the reward series and the run totals; ``evaluate_policy`` is the
greedy evaluation loop behind ``evaluate_q`` and ``evaluate_ppo``.

The aggregation functions reduce a series over the evaluation period --
every bucket at or past the period-start step -- and ``export_rows``
assembles one summary row per model directory from them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from dataclasses import dataclass, field

MODES = ("mean", "sum", "last")
DEFAULT_SUMMARY_FREQ = 10_000

STORE_BASENAME = "metrics.jsonl"
META_BASENAME = "run.json"
REWARDS_BASENAME = "rewards.csv"

# Conformity column ids, in export order. The recorded count paths are
# "Metrics/<id>_PostiveCount" (sic) and "Metrics/<id>_TotalCount".
CONTEXT_COLUMNS = (
    "GaveWayLocalAnyGoal",
    "GaveWayGlobalAnyGoal",
    "GaveWayLocalSameGoal",
    "GaveWayGlobalSameGoal",
    "GaveWayNonLocalSameGoal",
    "GaveWayNonLocalAnyGoal",
)

# (column id, metric path) pairs per aggregation method.
_LAST_MINUS_START_COLUMNS = (
    ("Total Crashes Car", "Metrics/Total Crashes Car"),
    ("Total Crashes Wall", "Metrics/Total Crashes Wall"),
    ("Total Crashes StaticCar", "Metrics/Total Crashes StaticCar"),
)
_PER_EPS_COLUMNS = (
    ("c", "Metrics/Total Crashes"),
    ("p", "Metrics/Total Reached Goal"),
    ("h", "Metrics/Total Halted"),
    ("Num Lost Goal PerEps", "Metrics/Num Lost Goal"),
    ("Num Stop Explore PerEps", "Metrics/Num Stop Explore"),
    ("Num Stop Goal PerEps", "Metrics/Num Stop Goal"),
    ("Num Change Goal PerEps", "Metrics/Num Change Goal"),
)
_MEAN_COLUMNS = (
    ("Final Mean Reward", "Environment/Cumulative Reward"),
    ("Final Mean Episode Length", "Environment/Episode Length"),
    ("DeltaThetaAvg", "Metrics/DeltaThetaAvg"),
    ("VelocityAvg", "Metrics/VelocityAvg"),
    ("NearestCarDistAvg", "Metrics/NearestCarDistAvg"),
    ("RatioExplorePerEps", "Metrics/RatioExplorePerEps"),
    ("RatioGoalPerEps", "Metrics/RatioGoalPerEps"),
    ("RatioMoveTowardsPerEps", "Metrics/RatioMoveTowardsPerEps"),
    ("RatioMoveTowardsExploringPerEps",
     "Metrics/RatioMoveTowardsExploringPerEps"),
    ("Park Velocity", "Metrics/Park Velocity"),
)

ROW_COLUMNS = (
    "Max Steps",
    "Final Mean Reward",
    "Final Mean Episode Length",
    "c",
    "p",
    "h",
    "Num Episodes",
    "Total Crashes Car",
    "Total Crashes Wall",
    "Total Crashes StaticCar",
    "Num Lost Goal PerEps",
    "Num Stop Explore PerEps",
    "Num Stop Goal PerEps",
    "Num Change Goal PerEps",
    *CONTEXT_COLUMNS,
    "DeltaThetaAvg",
    "VelocityAvg",
    "NearestCarDistAvg",
    "RatioExplorePerEps",
    "RatioGoalPerEps",
    "RatioMoveTowardsPerEps",
    "RatioMoveTowardsExploringPerEps",
    "Park Velocity",
)


@dataclass
class MetricSeries:
    """One recorded metric: closed buckets of (step, value) points."""

    path: str
    mode: str
    summary_freq: int
    points: list[tuple[int, float]] = field(default_factory=list)


class _SeriesState:
    __slots__ = ("mode", "last_step", "window_end", "dirty", "count",
                 "total", "cum", "last", "points")

    def __init__(self, mode: str):
        self.mode = mode
        self.last_step = -1
        self.window_end: int | None = None
        self.dirty = False
        self.count = 0
        self.total = 0.0
        self.cum = 0.0  # survives window closes: running-sum semantics
        self.last = 0.0
        self.points: list[tuple[int, float]] = []


class MetricStore:
    """Step-bucketed scalar recorder, one instance per training job.

    Bucket windows span ((k-1)*freq, k*freq] and close at the window-end
    step; a partially filled window is flushed at its last recorded step
    when the store closes. ``mean`` buckets average the window's raw
    points, ``sum`` buckets carry the running total across the whole
    series, and ``last`` buckets keep the window's final value.
    """

    def __init__(self, path: str | None = None,
                 summary_freq: int = DEFAULT_SUMMARY_FREQ):
        if summary_freq < 1:
            raise ValueError(f"summary_freq must be positive: {summary_freq}")
        self.summary_freq = int(summary_freq)
        self._states: dict[str, _SeriesState] = {}
        self._closed = False
        self._fh = None
        if path is not None:
            self._fh = open(path, "w", encoding="utf-8")
            header = {"format": "carpark-metrics", "version": 1,
                      "summary_freq": self.summary_freq}
            self._fh.write(json.dumps(header) + "\n")

    # ------------------------------------------------------------- recording

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
        if step < 0 or step < st.last_step:
            raise ValueError(
                f"step regression on {path}: {step} after {st.last_step}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value for {path}: {value}")
        freq = self.summary_freq
        end = ((step + freq - 1) // freq) * freq
        if st.window_end is None:
            st.window_end = end
        elif end > st.window_end:
            self._close_window(path, st, st.window_end)
            st.window_end = end
        st.last_step = step
        if st.mode == "mean":
            st.total += value
            st.count += 1
        elif st.mode == "sum":
            st.cum += value
        else:
            st.last = value
        st.dirty = True

    def _close_window(self, path: str, st: _SeriesState, at_step: int) -> None:
        if not st.dirty:
            return
        if st.mode == "mean":
            value = st.total / st.count
        elif st.mode == "sum":
            value = st.cum
        else:
            value = st.last
        st.points.append((at_step, value))
        if self._fh is not None:
            self._fh.write(json.dumps(
                {"path": path, "step": at_step, "value": value,
                 "mode": st.mode}) + "\n")
        st.total = 0.0
        st.count = 0
        st.dirty = False

    def close(self) -> None:
        if self._closed:
            return
        for path, st in self._states.items():
            if st.dirty and st.window_end is not None:
                # partial window: flush at the data's actual extent
                at = min(st.window_end, st.last_step)
                self._close_window(path, st, at)
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None
        self._closed = True

    # --------------------------------------------------------------- reading

    def series(self, path: str) -> MetricSeries | None:
        st = self._states.get(path)
        if st is None:
            return None
        return MetricSeries(path, st.mode, self.summary_freq, list(st.points))


def read_store(path: str) -> dict[str, MetricSeries]:
    """Load a persisted store; buckets come back exactly as flushed."""
    series: dict[str, MetricSeries] = {}
    freq = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
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
    """Increase of a running-sum series over the period.

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
    are running sums regardless of bucketing.
    """

    def __init__(self, store: MetricStore, env):
        self.store = store
        self.env = env
        self.dynamic = env.cfg._dynamicGoals
        self.v_scale = 1.0 / max(env.cfg._velocityGranularity, 1)

    def after_step(self, step: int, outcomes) -> None:
        record = self.store.record
        for i, out in enumerate(outcomes):
            ev = out.events
            record("Metrics/DeltaThetaAvg", ev.omega, step)
            record("Metrics/VelocityAvg", ev.velocity * self.v_scale, step)
            record("Metrics/NearestCarDistAvg",
                   self.env.nearest_car_distance(i), step)
            if out.terminal is not None:
                self._episode_end(step, ev)

    def _episode_end(self, step: int, ev) -> None:
        record = self.store.record
        stats = self.env.stats
        record("Environment/Cumulative Reward", ev.episode_reward, step)
        record("Environment/Episode Length", ev.episode_steps, step)
        record("Metrics/Num Episodes", stats["episodes"], step, "last")
        record("Metrics/Total Crashes", stats["crashed"], step, "last")
        record("Metrics/Total Reached Goal", stats["parked"], step, "last")
        record("Metrics/Total Halted", stats["halted"], step, "last")
        record("Metrics/Total Crashes Car", stats["crash_agent"], step, "last")
        record("Metrics/Total Crashes Wall", stats["crash_wall"], step, "last")
        record("Metrics/Total Crashes StaticCar", stats["crash_parked"],
               step, "last")
        record("Metrics/Num Lost Goal", stats["lost_goal"], step, "last")
        record("Metrics/Num Stop Explore", stats["transition_StopExplore"],
               step, "last")
        record("Metrics/Num Stop Goal", stats["transition_StopGoal"],
               step, "last")
        record("Metrics/Num Change Goal", stats["transition_ChangeGoal"],
               step, "last")
        if ev.ratio_toward_goal is not None:
            record("Metrics/RatioMoveTowardsPerEps", ev.ratio_toward_goal,
                   step)
        if ev.parked and ev.park_velocity is not None:
            record("Metrics/Park Velocity",
                   abs(ev.park_velocity) * self.v_scale, step)
        if not self.dynamic:
            return
        if ev.ratio_explore is not None:
            record("Metrics/RatioExplorePerEps", ev.ratio_explore, step)
            record("Metrics/RatioGoalPerEps", 1.0 - ev.ratio_explore, step)
        if ev.ratio_toward_space_exploring is not None:
            record("Metrics/RatioMoveTowardsExploringPerEps",
                   ev.ratio_toward_space_exploring, step)
        for name in ("LocalSameGoal", "LocalAnyGoal", "GlobalSameGoal",
                     "GlobalAnyGoal", "NonLocalSameGoal", "NonLocalAnyGoal"):
            record(f"Metrics/GaveWay{name}_PostiveCount",  # sic
                   stats[f"gave_way_{name}_pos"], step, "last")
            record(f"Metrics/GaveWay{name}_TotalCount",
                   stats[f"gave_way_{name}_total"], step, "last")


class RunDir:
    """One training run's output directory.

    Opening it creates the directory, writes ``run.json`` with
    ``finished`` False, and opens the metric store and its recorder;
    ``finish`` writes the per-episode reward series, closes the store and
    rewrites ``run.json`` as finished with the run totals. A run that
    dies in between leaves its metadata marked unfinished.
    """

    def __init__(self, out_dir: str, kind: str, env, *, seed, experiment,
                 run_id: str | None = None,
                 summary_freq: int = DEFAULT_SUMMARY_FREQ):
        os.makedirs(out_dir, exist_ok=True)
        if run_id is None:
            run_id = os.path.basename(os.path.normpath(out_dir))
        self.out_dir = out_dir
        self._meta = {"kind": kind, "run_id": run_id, "seed": seed,
                      "experiment": experiment}
        write_run_meta(out_dir, {**self._meta, "finished": False})
        self.store = MetricStore(self.path(STORE_BASENAME), summary_freq)
        self.recorder = TrainingRecorder(self.store, env)

    def path(self, basename: str) -> str:
        return os.path.join(self.out_dir, basename)

    def finish(self, rewards: list[float], **totals) -> None:
        with open(self.path(REWARDS_BASENAME), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode", "reward"])
            for episode, reward in enumerate(rewards):
                writer.writerow([episode, reward])
        self.store.close()
        write_run_meta(self.out_dir,
                       {**self._meta, "finished": True, **totals})


def evaluate_policy(env, episodes: int, act,
                    store: MetricStore | None = None) -> dict:
    """Greedy rollouts with no learning; returns outcome rates and the
    per-episode rewards.

    Each tick asks ``act(step)`` for every agent's ``ActionTuple``, in
    agent order, where step is the agent-step count before the tick, then
    steps all agents.
    """
    if episodes <= 0:
        return {"episodes": 0, "park_rate": None, "crash_rate": None,
                "halt_rate": None, "mean_reward": None,
                "mean_length": None, "rewards": []}
    recorder = TrainingRecorder(store, env) if store is not None else None
    before = dict(env.stats)
    n = len(env.agents)
    rewards: list[float] = []
    lengths: list[int] = []
    gstep = 0
    while len(rewards) < episodes:
        outs = env.step_all(act(gstep))
        gstep += n
        if recorder is not None:
            recorder.after_step(gstep, outs)
        for out in outs:
            if out.terminal is not None:
                rewards.append(out.events.episode_reward)
                lengths.append(out.events.episode_steps)
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


# ------------------------------------------------------------ run metadata


def write_run_meta(model_dir: str, meta: dict) -> str:
    path = os.path.join(model_dir, META_BASENAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_run_meta(model_dir: str) -> dict:
    with open(os.path.join(model_dir, META_BASENAME), encoding="utf-8") as fh:
        return json.load(fh)


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
    row order."""
    found = []
    for dirpath, _dirnames, filenames in os.walk(root):
        if STORE_BASENAME in filenames:
            found.append(dirpath)
    return sorted(found)


def model_row(model_dir: str, period_start: int | None = None,
              param_paths: tuple[str, ...] = ()) -> dict:
    """Aggregate one model directory into a summary-row mapping.

    The evaluation period starts at the run's recorded training
    boundary when the metadata has one, else at period_start. Absent
    aggregates stay None and export as empty cells.
    """
    meta = read_run_meta(model_dir)
    series = read_store(os.path.join(model_dir, STORE_BASENAME))
    boundary = meta.get("train_boundary_step")
    if boundary is None:
        boundary = period_start
    if boundary is None:
        raise ValueError(
            f"{model_dir}: no training boundary recorded or supplied")
    get = series.get
    eps = get("Metrics/Num Episodes")
    row: dict = {"Model": meta.get("run_id") or os.path.basename(model_dir)}
    total_steps = meta.get("total_steps")
    row["Max Steps"] = (
        total_steps - boundary if total_steps is not None else None)
    for col, path in _MEAN_COLUMNS:
        row[col] = mean_metric_period(get(path), boundary)
    for col, path in _PER_EPS_COLUMNS:
        row[col] = per_eps(get(path), eps, boundary)
    row["Num Episodes"] = last_minus_start_metricperiod(eps, boundary)
    for col, path in _LAST_MINUS_START_COLUMNS:
        row[col] = last_minus_start_metricperiod(get(path), boundary)
    for col in CONTEXT_COLUMNS:
        row[col] = context_conformance(
            get(f"Metrics/{col}_PostiveCount"),  # sic
            get(f"Metrics/{col}_TotalCount"), boundary)
    experiment = meta.get("experiment") or {}
    for p in param_paths:
        row[p] = dig(experiment, p)
    return row


def export_rows(model_dirs, out_path: str, period_start: int | None = None,
                param_paths: tuple[str, ...] = ()) -> list[dict]:
    """Write one CSV row per readable model directory; returns the rows.

    Unreadable or incomplete directories are skipped with a warning so
    one bad job doesn't block comparing the rest.
    """
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
