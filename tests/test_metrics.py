"""Metric store tests: bucketing, aggregation functions, model-row
export, and the trainer-side recorder."""

import csv
import hashlib
import json
import math
import os
import random
import re
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpark.config import config_from_mapping
from carpark.env import ActionTuple, ParkingEnv
from carpark.metrics import (
    CONTEXT_COLUMNS,
    EXPORT_COLUMNS,
    MODES,
    ROW_COLUMNS,
    MetricSeries,
    MetricStore,
    TrainingRecorder,
    context_conformance,
    discover_model_dirs,
    export_rows,
    gave_way_paths,
    last_minus_start_metricperiod,
    mean_metric_period,
    model_row,
    per_eps,
    read_run_meta,
    read_store,
    write_run_meta,
)
from carpark.qlearning import QSchedule, train_q


def series(points, mode="mean", freq=10):
    return MetricSeries("m", mode, freq, list(points))


def file_store(directory, freq=10):
    """A store writing metrics.jsonl in directory, and the file's path."""
    path = os.path.join(str(directory), "metrics.jsonl")
    return MetricStore(path, summary_freq=freq), path


def points(path, name="m"):
    """The closed buckets of one series, read back from the store file."""
    return read_store(path)[name].points


# ---------------------------------------------------------------- recording


def test_mean_bucket_averages_window(tmp_path):
    store, path = file_store(tmp_path)
    for step in range(1, 11):
        store.record("m", float(step), step)
    store.record("m", 100.0, 11)  # opens the next window, closing the first
    store.close()
    assert points(path) == [(10, 5.5), (11, 100.0)]


def test_last_bucket_keeps_final_value(tmp_path):
    store, path = file_store(tmp_path)
    for step, v in ((2, 5.0), (9, 7.0), (15, 1.0)):
        store.record("m", v, step, "last")
    store.close()
    assert points(path) == [(10, 7.0), (15, 1.0)]


def test_partial_window_flushes_at_last_step(tmp_path):
    store, path = file_store(tmp_path)
    for step in range(1, 14):
        store.record("m", float(step), step)
    store.close()
    assert points(path) == [(10, 5.5), (13, 12.0)]


def test_step_zero_gets_its_own_bucket(tmp_path):
    store, path = file_store(tmp_path)
    store.record("m", 4.0, 0)
    store.record("m", 6.0, 1)
    store.close()
    # the second window is still partial at close, so it flushes at its
    # last recorded step
    assert points(path) == [(0, 4.0), (1, 6.0)]


def test_skipped_windows_leave_no_buckets(tmp_path):
    store, path = file_store(tmp_path)
    store.record("m", 1.0, 5)
    store.record("m", 2.0, 95)
    store.close()
    assert points(path) == [(10, 1.0), (95, 2.0)]


def test_step_regression_rejected(tmp_path):
    store, path = file_store(tmp_path)
    store.record("m", 1.0, 5)
    with pytest.raises(ValueError, match="regression"):
        store.record("m", 3.0, 4)
    store.record("m", 1.0, 5)  # equal steps are fine
    store.close()
    assert points(path) == [(5, 1.0)]  # the refused point left no trace


def test_mode_conflict_and_bad_values_rejected(tmp_path):
    store, _ = file_store(tmp_path)
    store.record("m", 1.0, 1)
    with pytest.raises(ValueError, match="mode"):
        store.record("m", 1.0, 2, "last")
    with pytest.raises(ValueError):
        store.record("n", math.nan, 1)
    with pytest.raises(ValueError):
        store.record("n", 1.0, 1, "median")
    store.close()
    with pytest.raises(RuntimeError):
        store.record("m", 1.0, 3)


def test_sum_mode_is_rejected(tmp_path):
    """Only mean and last buckets are recorded; a stored file's mode string
    is read back whatever it says."""
    (tmp_path / "recorded").mkdir()
    store, path = file_store(tmp_path / "recorded")
    with pytest.raises(ValueError, match="'sum'"):
        store.record("m", 1.0, 1, "sum")
    store.close()
    assert read_store(path) == {}
    lines = [rec_line("a", 10, 2.0, "sum"), rec_line("b", 10, 3.0, "median")]
    path = write_store_bytes(tmp_path, "\n".join(lines).encode())
    assert read_store(path) == {
        "a": MetricSeries("a", "sum", 0, [(10, 2.0)]),
        "b": MetricSeries("b", "median", 0, [(10, 3.0)]),
    }


@settings(deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 49),
              st.floats(-100, 100, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=60))
def test_mean_buckets_match_brute_force(recs):
    recs = sorted(recs, key=lambda r: r[0])
    with tempfile.TemporaryDirectory() as tmp:
        store, path = file_store(tmp)
        for step, v in recs:
            store.record("m", v, step)
        store.close()
        got = points(path)
    groups: dict[int, list] = {}
    for step, v in recs:
        groups.setdefault(-(-step // 10) * 10, []).append(v)
    assert len(got) == len(groups)
    for (_, value), (_, vals) in zip(got, sorted(groups.items())):
        assert value == pytest.approx(math.fsum(vals) / len(vals))


@st.composite
def record_runs(draw):
    """A summary frequency and (series, step, value) records on one
    nondecreasing step axis: repeated steps, steps on window ends and gaps
    of several windows."""
    freq = draw(st.sampled_from([1, 3, 10]))
    step = draw(st.integers(0, 2)) * freq
    gaps = st.one_of(st.just(0), st.integers(1, freq),
                     st.sampled_from([freq, 2 * freq, 3 * freq + 1]),
                     st.integers(4 * freq, 9 * freq))
    recs = []
    for _ in range(draw(st.integers(1, 60))):
        step += draw(gaps)
        recs.append((draw(st.sampled_from(MODES)), step,
                     draw(st.floats(-100, 100, allow_nan=False))))
    return freq, recs


def brute_force_buckets(freq, recs):
    """Per mode, the (step, value) buckets of the records of that mode,
    grouped by the window ((k-1)*freq, k*freq] each step falls in; the
    last window flushes at its last step."""
    out = {}
    for mode in MODES:
        windows: dict[int, list] = {}
        for m, step, v in recs:
            if m == mode:
                windows.setdefault(-(-step // freq) * freq, []).append((step, v))
        points = []
        for end, group in sorted(windows.items()):
            total = 0.0
            for _, v in group:
                total += v
            value = {"mean": total / len(group), "last": group[-1][1]}[mode]
            points.append((end, value))
        if points:
            points[-1] = (windows[points[-1][0]][-1][0], points[-1][1])
            out[mode] = points
    return out


@settings(max_examples=200, deadline=None)
@given(record_runs())
def test_read_store_matches_brute_force_buckets(run):
    """read_store gives back exactly the buckets a brute-force grouping of
    the raw records makes, for every mode."""
    freq, recs = run
    with tempfile.TemporaryDirectory() as tmp:
        store, path = file_store(tmp, freq)
        for mode, step, v in recs:
            store.record(mode, v, step, mode)
        store.close()
        back = read_store(path)
    want = brute_force_buckets(freq, recs)
    assert {k: (s.mode, s.points) for k, s in back.items()} == {
        mode: (mode, points) for mode, points in want.items()}


def test_store_file_round_trip(tmp_path):
    store, path = file_store(tmp_path)
    for step in range(1, 25):
        store.record("a", float(step), step)
        store.record("b", 1.0, step, "last")
    store.close()
    back = read_store(path)
    assert back["a"].points == [(10, 5.5), (20, 15.5), (24, 22.5)]
    assert back["b"].points == [(10, 1.0), (20, 1.0), (24, 1.0)]
    assert back["a"].mode == "mean"
    assert back["b"].mode == "last"
    assert back["a"].summary_freq == 10


def test_read_store_rejects_corrupt_order(tmp_path):
    path = tmp_path / "metrics.jsonl"
    lines = [
        {"path": "m", "step": 20, "value": 1.0, "mode": "mean"},
        {"path": "m", "step": 10, "value": 2.0, "mode": "mean"},
    ]
    path.write_text("".join(json.dumps(l) + "\n" for l in lines))
    with pytest.raises(ValueError, match="not increasing"):
        read_store(str(path))


# ------------------------------------------------------- reading the files


def reference_read_store(path):
    """The line-by-line reader: one json.loads per line of a text-mode
    file, so read_store has to agree with it on every store."""
    out: dict[str, MetricSeries] = {}
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
            s = out.get(key)
            if s is None:
                s = out[key] = MetricSeries(key, rec["mode"], freq)
            elif s.mode != rec["mode"]:
                raise ValueError(
                    f"{path}:{line_no}: {key} switches mode "
                    f"{s.mode!r} -> {rec['mode']!r}")
            step = int(rec["step"])
            if s.points and step <= s.points[-1][0]:
                raise ValueError(
                    f"{path}:{line_no}: {key} bucket steps not increasing")
            s.points.append((step, float(rec["value"])))
    return out


HEADER = {"format": "carpark-metrics", "version": 1, "summary_freq": 10}


def rec_line(path, step, value, mode="mean"):
    return json.dumps({"path": path, "step": step, "value": value,
                       "mode": mode})


def write_store_bytes(tmp_path, data: bytes):
    path = tmp_path / "metrics.jsonl"
    path.write_bytes(data)
    return str(path)


def test_read_store_skips_blank_whitespace_and_crlf_lines(tmp_path):
    lines = ["", json.dumps(HEADER), "   ", rec_line("a", 10, 1.5), "\t",
             rec_line("a", 20, 2.5), "", rec_line("b", 20, 3.0, "sum"), ""]
    for newline in ("\n", "\r\n", "\r"):
        path = write_store_bytes(tmp_path, newline.join(lines).encode())
        back = read_store(path)
        assert back == {
            "a": MetricSeries("a", "mean", 10, [(10, 1.5), (20, 2.5)]),
            "b": MetricSeries("b", "sum", 10, [(20, 3.0)]),
        }
        assert back == reference_read_store(path)


def test_read_store_without_header_has_summary_freq_zero(tmp_path):
    path = write_store_bytes(tmp_path, (rec_line("a", 5, 1.0) + "\n").encode())
    assert read_store(path) == {"a": MetricSeries("a", "mean", 0, [(5, 1.0)])}


def test_read_store_reports_line_of_step_and_mode_errors(tmp_path):
    body = "\n".join([json.dumps(HEADER), "", rec_line("a", 10, 1.0),
                      rec_line("a", 20, 1.0, "sum")])
    path = write_store_bytes(tmp_path, body.encode())
    with pytest.raises(ValueError, match=r"metrics\.jsonl:4: a switches mode"):
        read_store(path)
    body = "\n".join([rec_line("a", 10, 1.0), "  ", rec_line("a", 10, 1.0)])
    path = write_store_bytes(tmp_path, body.encode())
    with pytest.raises(ValueError, match=r"metrics\.jsonl:3: a bucket steps"):
        read_store(path)


UNDECODABLE_STORES = {
    "truncated last line": (json.dumps(HEADER) + "\n"
                            + rec_line("a", 10, 1.0)[:-3]).encode(),
    "two records on one line": (rec_line("a", 10, 1.0) + " "
                                + rec_line("a", 20, 1.0) + "\n").encode(),
    "one record over two lines": (rec_line("a", 10, 1.0) + "\n"
                                  + '{"path": "a", "step": 20,\n'
                                  + '"value": 1.0, "mode": "mean"}\n').encode(),
    "leading UTF-8 BOM": b"\xef\xbb\xbf" + (json.dumps(HEADER) + "\n").encode(),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE_STORES))
def test_read_store_rejects_undecodable_lines(tmp_path, case):
    path = write_store_bytes(tmp_path, UNDECODABLE_STORES[case])
    with pytest.raises(json.JSONDecodeError):
        read_store(path)
    with pytest.raises(json.JSONDecodeError):
        reference_read_store(path)


UNDECODABLE_METAS = {
    "leading UTF-8 BOM": b"\xef\xbb\xbf" + json.dumps({"run_id": "x"}).encode(),
    "truncated": json.dumps({"run_id": "x", "total_steps": 10}).encode()[:-4],
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE_METAS))
def test_read_run_meta_rejects_undecodable_file(tmp_path, case):
    (tmp_path / "run.json").write_bytes(UNDECODABLE_METAS[case])
    with pytest.raises(json.JSONDecodeError):
        read_run_meta(str(tmp_path))


def export_with_one_bad_dir(tmp_path, bad_store=None, bad_meta=None):
    """Export a good model dir beside one whose store or run.json holds
    the given bytes; returns the exported rows and the skip warnings."""
    synthetic_model_dir(tmp_path, "good")
    bad = synthetic_model_dir(tmp_path, "bad")
    if bad_store is not None:
        (bad / "metrics.jsonl").write_bytes(bad_store)
    if bad_meta is not None:
        (bad / "run.json").write_bytes(bad_meta)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = export_rows(discover_model_dirs(str(tmp_path)),
                           str(tmp_path / "rows.csv"))
    skipped = [str(w.message) for w in caught
               if "skipping model dir" in str(w.message)]
    return rows, skipped


@pytest.mark.parametrize("case", sorted(UNDECODABLE_STORES))
def test_export_rows_skips_undecodable_store(tmp_path, case):
    rows, skipped = export_with_one_bad_dir(
        tmp_path, bad_store=UNDECODABLE_STORES[case])
    assert [r["Model"] for r in rows] == ["good"]
    assert len(skipped) == 1 and os.sep + "bad:" in skipped[0]


@pytest.mark.parametrize("case", sorted(UNDECODABLE_METAS))
def test_export_rows_skips_undecodable_run_meta(tmp_path, case):
    rows, skipped = export_with_one_bad_dir(
        tmp_path, bad_meta=UNDECODABLE_METAS[case])
    assert [r["Model"] for r in rows] == ["good"]
    assert len(skipped) == 1 and os.sep + "bad:" in skipped[0]


@pytest.mark.parametrize("key", ["total_steps", "train_boundary_step"])
@pytest.mark.parametrize("value", ['"100"', "100.0", "true", "[100]"])
def test_export_rows_skips_non_integer_step_counts(tmp_path, key, value):
    meta = {"run_id": "bad", "total_steps": 1000, "train_boundary_step": 800}
    text = json.dumps(meta).replace(f'"{key}": {meta[key]}',
                                    f'"{key}": {value}')
    rows, skipped = export_with_one_bad_dir(tmp_path, bad_meta=text.encode())
    assert [r["Model"] for r in rows] == ["good"]
    assert len(skipped) == 1
    assert f"{key} {json.loads(value)!r} in run.json is not an integer" \
        in skipped[0]


MALFORMED_STORE_LINES = {
    "list": "[1, 2]",
    "number": "3",
    "null": "null",
    "string": '"format"',
    "null step": '{"path": "a", "step": null, "value": 1.0, "mode": "mean"}',
    "null value": '{"path": "a", "step": 20, "value": null, "mode": "mean"}',
    "list as path": '{"path": [1], "step": 20, "value": 1.0, "mode": "mean"}',
    "null summary_freq": '{"format": "carpark-metrics", "summary_freq": null}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STORE_LINES))
def test_read_store_rejects_malformed_record_with_its_line(tmp_path, case):
    body = "\n".join([json.dumps(HEADER), rec_line("a", 10, 1.0),
                      MALFORMED_STORE_LINES[case]])
    path = write_store_bytes(tmp_path, body.encode())
    with pytest.raises(ValueError, match=r"metrics\.jsonl:3: ") as info:
        read_store(path)
    assert not isinstance(info.value, json.JSONDecodeError)


@pytest.mark.parametrize("case", sorted(MALFORMED_STORE_LINES))
def test_export_rows_skips_malformed_store(tmp_path, case):
    bad_store = (rec_line("a", 10, 1.0) + "\n" + MALFORMED_STORE_LINES[case]
                 + "\n").encode()
    rows, skipped = export_with_one_bad_dir(tmp_path, bad_store=bad_store)
    assert [r["Model"] for r in rows] == ["good"]
    assert len(skipped) == 1 and "metrics.jsonl:2: " in skipped[0]


@pytest.mark.parametrize("doc", ["[1, 2]", "3", "null", '"run"'])
def test_run_meta_that_is_not_an_object_is_skipped(tmp_path, doc):
    rows, skipped = export_with_one_bad_dir(tmp_path, bad_meta=doc.encode())
    assert [r["Model"] for r in rows] == ["good"]
    assert len(skipped) == 1 and "run.json: not a JSON object" in skipped[0]
    with pytest.raises(ValueError, match=r"run\.json: not a JSON object"):
        read_run_meta(str(tmp_path / "bad"))


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1.0 / 3.0)


@st.composite
def store_texts(draw):
    """A store's lines as the recorder writes them or close to it: an
    optional header, non-ASCII series paths in every mode, increasing
    steps per series, edge-case floats, either JSON escaping of non-ASCII
    text, blank and padded lines and any of the three newlines."""
    lines = []
    if draw(st.booleans()):
        lines.append(json.dumps(
            {**HEADER, "summary_freq": draw(st.integers(1, 10_000))}))
    names = draw(st.lists(st.text(min_size=1, max_size=8), min_size=1,
                          max_size=4, unique=True))
    modes = {name: draw(st.sampled_from(MODES)) for name in names}
    steps = dict.fromkeys(names, -1)
    ensure_ascii = draw(st.booleans())
    for _ in range(draw(st.integers(0, 30))):
        name = draw(st.sampled_from(names))
        steps[name] += draw(st.integers(1, 20_000))
        value = draw(st.one_of(st.sampled_from(EDGE_FLOATS),
                               st.floats(allow_nan=False,
                                         allow_infinity=False)))
        line = json.dumps({"path": name, "step": steps[name], "value": value,
                           "mode": modes[name]}, ensure_ascii=ensure_ascii)
        pad = draw(st.sampled_from(["", " ", "\t", "  "]))
        lines.append(pad + line + pad)
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(store_texts())
def test_read_store_matches_line_by_line_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "metrics.jsonl")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        got, want = read_store(path), reference_read_store(path)
    assert got == want
    # repr tells -0.0 from 0.0 and shows every float's exact round trip
    assert repr(got) == repr(want)


# -------------------------------------------------------------- aggregation


def test_mean_metric_period_basics():
    s = series([(10, 1.0), (20, 2.0), (30, 3.0)])
    assert mean_metric_period(s, 0) == 2.0
    assert mean_metric_period(series([(10, 7.0)]), 0) == 7.0
    assert mean_metric_period(s, 31) is None
    assert mean_metric_period(None, 0) is None


def test_mean_metric_period_windows_post_boundary_only():
    s = series([(10, 1.0), (20, 2.0), (30, 7.0), (40, 9.0)])
    assert mean_metric_period(s, 25) == 8.0
    # a bucket closing exactly at the boundary is part of the period
    assert mean_metric_period(s, 30) == 8.0


def test_last_minus_start():
    s = series([(10, 100.0), (20, 130.0), (30, 160.0)], mode="last")
    assert last_minus_start_metricperiod(s, 10) == 60.0
    # a running total that never moves inside the period
    assert last_minus_start_metricperiod(series([(10, 5.0), (30, 5.0)]), 10) == 0.0
    # three +7 increments inside the period
    s = series([(10, 2.0), (20, 9.0), (30, 16.0), (40, 23.0)], mode="last")
    assert last_minus_start_metricperiod(s, 10) == 21.0
    # series starting inside the period counts from zero
    assert last_minus_start_metricperiod(series([(30, 4.0)]), 0) == 4.0
    assert last_minus_start_metricperiod(series([(10, 4.0)]), 20) is None
    assert last_minus_start_metricperiod(None, 0) is None


def test_context_conformance():
    pos = series([(10, 0.0), (20, 30.0)], mode="last")
    tot = series([(10, 0.0), (20, 40.0)], mode="last")
    assert context_conformance(pos, tot, 0) == 0.75
    zero = series([(10, 0.0), (20, 0.0)], mode="last")
    assert context_conformance(zero, tot, 0) == 0.0
    assert context_conformance(pos, zero, 0) is None
    assert context_conformance(pos, None, 0) is None


def test_context_conformance_scripted_trace(tmp_path):
    # give-way decisions: steps with (should_yield, did_yield)
    decisions = [(True, True), (True, False), (False, False), (True, True),
                 (True, False), (True, True), (False, True), (True, True)]
    store, path = file_store(tmp_path, 2)
    pos = tot = 0
    for step, (should, did) in enumerate(decisions, 1):
        if should:
            tot += 1
            pos += did
        store.record("pos", pos, step, "last")
        store.record("tot", tot, step, "last")
    store.close()
    back = read_store(path)
    got = context_conformance(back["pos"], back["tot"], 0)
    hand_tot = sum(1 for s, _ in decisions if s)
    hand_pos = sum(1 for s, d in decisions if s and d)
    assert got == hand_pos / hand_tot == 4 / 6


def test_per_eps():
    metric = series([(10, 0.0), (20, 60.0)], mode="last")
    eps = series([(10, 0.0), (20, 30.0)], mode="last")
    assert per_eps(metric, eps, 0) == 2.0
    parks = series([(10, 10.0), (20, 25.0)], mode="last")
    episodes = series([(10, 10.0), (20, 25.0)], mode="last")
    assert per_eps(parks, episodes, 10) == 1.0
    flat = series([(10, 5.0), (20, 5.0)], mode="last")
    assert per_eps(metric, flat, 10) is None  # no episodes in the period
    assert per_eps(None, eps, 0) is None


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                min_size=1, max_size=30),
       st.integers(0, 300))
def test_conformance_stays_in_unit_interval(increments, boundary):
    pos = tot = 0.0
    pos_pts, tot_pts = [], []
    for i, (dp, dt) in enumerate(increments):
        dp = min(dp, dt)  # can't give way more often than contexts arise
        pos += dp
        tot += dt
        step = (i + 1) * 10
        pos_pts.append((step, pos))
        tot_pts.append((step, tot))
    got = context_conformance(series(pos_pts, "last"), series(tot_pts, "last"),
                              boundary)
    assert got is None or 0.0 <= got <= 1.0


# ---------------------------------------------------------------- model rows


def synthetic_model_dir(tmp_path, name, with_boundary=True):
    d = tmp_path / name
    d.mkdir()
    store = MetricStore(str(d / "metrics.jsonl"), summary_freq=100)
    for k in range(1, 11):
        step = 100 * k
        store.record("Metrics/Num Episodes", 10 * k, step, "last")
        store.record("Metrics/Total Crashes", 5 * k, step, "last")
        store.record("Metrics/Total Reached Goal", 4 * k, step, "last")
        store.record("Metrics/Total Halted", k, step, "last")
        store.record("Metrics/GaveWayLocalSameGoal_PostiveCount", 5 * k,
                     step, "last")
        store.record("Metrics/GaveWayLocalSameGoal_TotalCount", 10 * k,
                     step, "last")
    store.record("Environment/Cumulative Reward", 2.0, 850)
    store.record("Environment/Cumulative Reward", 4.0, 950)
    store.record("Environment/Episode Length", 60.0, 850)
    store.record("Environment/Episode Length", 40.0, 950)
    store.close()
    meta = {
        "kind": "q",
        "run_id": name,
        "finished": True,
        "total_steps": 1000,
        "experiment": {"environment_parameters": {"gamma": 0.9, "try": 2}},
    }
    if with_boundary:
        meta["train_boundary_step"] = 800
    write_run_meta(str(d), meta)
    return d


def test_model_row_aggregates(tmp_path):
    d = synthetic_model_dir(tmp_path, "m1")
    row = model_row(str(d), param_paths=("environment_parameters.gamma",))
    assert row["Model"] == "m1"
    assert row["Max Steps"] == 200
    assert row["Num Episodes"] == 20.0
    assert row["c"] == pytest.approx(0.5)
    assert row["p"] == pytest.approx(0.4)
    assert row["h"] == pytest.approx(0.1)
    assert row["c"] + row["p"] + row["h"] == pytest.approx(1.0, abs=1e-9)
    assert row["Final Mean Reward"] == pytest.approx(3.0)
    assert row["Final Mean Episode Length"] == pytest.approx(50.0)
    assert row["GaveWayLocalSameGoal"] == pytest.approx(0.5)
    assert row["Park Velocity"] is None  # never recorded
    assert row["environment_parameters.gamma"] == 0.9


def test_model_row_uses_cli_boundary_when_meta_lacks_one(tmp_path):
    d = synthetic_model_dir(tmp_path, "m2", with_boundary=False)
    row = model_row(str(d), period_start=800)
    assert row["Num Episodes"] == 20.0
    with pytest.raises(ValueError, match="boundary"):
        model_row(str(d))


def test_export_rows_csv(tmp_path):
    d1 = synthetic_model_dir(tmp_path, "m1")
    d2 = synthetic_model_dir(tmp_path, "m2")
    incomplete = tmp_path / "broken"
    incomplete.mkdir()
    (incomplete / "metrics.jsonl").write_text("")
    dirs = discover_model_dirs(str(tmp_path))
    assert dirs == sorted([str(incomplete), str(d1), str(d2)])
    out = tmp_path / "rows.csv"
    with pytest.warns(UserWarning, match="skipping"):
        rows = export_rows(dirs, str(out),
                           param_paths=("environment_parameters.try",))
    assert [r["Model"] for r in rows] == ["m1", "m2"]
    with open(out, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["Model", *ROW_COLUMNS, "environment_parameters.try"]
    assert len(parsed) == 3
    by_col = dict(zip(parsed[0], parsed[1]))
    assert by_col["Model"] == "m1"
    assert by_col["environment_parameters.try"] == "2"
    assert by_col["Park Velocity"] == ""  # absent marker is an empty cell
    assert float(by_col["p"]) + float(by_col["c"]) + float(by_col["h"]) == \
        pytest.approx(1.0, abs=1e-9)


EXPORT_HEADER = [
    "Model", "Max Steps", "Final Mean Reward", "Final Mean Episode Length",
    "c", "p", "h", "Num Episodes", "Total Crashes Car", "Total Crashes Wall",
    "Total Crashes StaticCar", "Num Lost Goal PerEps",
    "Num Stop Explore PerEps", "Num Stop Goal PerEps",
    "Num Change Goal PerEps", "GaveWayLocalAnyGoal", "GaveWayGlobalAnyGoal",
    "GaveWayLocalSameGoal", "GaveWayGlobalSameGoal",
    "GaveWayNonLocalSameGoal", "GaveWayNonLocalAnyGoal", "DeltaThetaAvg",
    "VelocityAvg", "NearestCarDistAvg", "RatioExplorePerEps",
    "RatioGoalPerEps", "RatioMoveTowardsPerEps",
    "RatioMoveTowardsExploringPerEps", "Park Velocity",
]


def test_export_header_is_pinned(tmp_path):
    """The CSV header, written out: "Model", the 28 summary columns in
    order, then the parameter paths."""
    synthetic_model_dir(tmp_path, "m1")
    out = tmp_path / "rows.csv"
    params = ("environment_parameters.gamma", "trainer")
    export_rows(discover_model_dirs(str(tmp_path)), str(out),
                param_paths=params)
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert len(EXPORT_HEADER) == 29
    assert header == [*EXPORT_HEADER, *params]


def test_export_rows_deterministic_bytes(tmp_path):
    synthetic_model_dir(tmp_path, "m1")
    dirs = discover_model_dirs(str(tmp_path))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_rows(dirs, str(out1))
    export_rows(dirs, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def reference_discover(root):
    """The os.walk discovery: every directory whose files include a store,
    symlinked directories not descended."""
    return sorted(dirpath for dirpath, _dirs, files in os.walk(root)
                  if "metrics.jsonl" in files)


def make_tree(root, store_dirs, empty_dirs=()):
    for rel in store_dirs:
        d = os.path.join(root, rel)
        os.makedirs(d, exist_ok=True)
        with open(os.path.join(d, "metrics.jsonl"), "w") as fh:
            fh.write("")
    for rel in empty_dirs:
        os.makedirs(os.path.join(root, rel), exist_ok=True)


def test_discover_nested_groups_sorted(tmp_path):
    # created out of order, and one group nests inside a run directory
    make_tree(str(tmp_path), ["q/q-02", "ppo/b", "q/q-00", "ppo/a/inner",
                              "ppo/a", "z", "q/q-01/x/y"],
              empty_dirs=["q/empty", "ppo/a/none"])
    (tmp_path / "q" / "notes.txt").write_text("")
    got = discover_model_dirs(str(tmp_path))
    assert got == reference_discover(str(tmp_path))
    assert got == sorted(got)
    assert got == [os.path.join(str(tmp_path), rel) for rel in
                   ("ppo/a", "ppo/a/inner", "ppo/b", "q/q-00",
                    "q/q-01/x/y", "q/q-02", "z")]


def test_discover_root_holding_a_store(tmp_path):
    make_tree(str(tmp_path), ["", "sub"])
    for root in (str(tmp_path), str(tmp_path) + os.sep):
        got = discover_model_dirs(root)
        assert got == reference_discover(root)
        assert len(got) == 2


@pytest.mark.parametrize("taken", ["Model", "p", "Park Velocity"])
def test_export_rows_refuses_param_paths_naming_summary_columns(tmp_path,
                                                                 taken):
    """A parameter path named like a summary column would overwrite that
    column and repeat it in the header; it is refused before any row is
    read or the CSV is written."""
    d = synthetic_model_dir(tmp_path, "m1")
    out = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match=re.escape(repr(taken))):
        export_rows([str(d)], str(out),
                    param_paths=("environment_parameters.try", taken))
    assert not out.exists()


def test_export_rows_refuses_a_repeated_param_path(tmp_path):
    """A parameter path given twice would repeat its column in the header;
    it is refused before any row is read or the CSV is written."""
    d = synthetic_model_dir(tmp_path, "m1")
    out = tmp_path / "rows.csv"
    path = "environment_parameters.try"
    with pytest.raises(ValueError, match=re.escape(f"[{path!r}]")):
        export_rows([str(d)], str(out), param_paths=(path, path))
    assert not out.exists()


def test_discover_does_not_descend_symlinked_dirs(tmp_path):
    make_tree(str(tmp_path), ["real/run", "outside/run"])
    os.symlink(tmp_path / "outside", tmp_path / "real" / "link")
    os.symlink(tmp_path / "outside" / "run", tmp_path / "real" / "run-link")
    root = str(tmp_path / "real")
    got = discover_model_dirs(root)
    assert got == reference_discover(root)
    assert got == [os.path.join(root, "run")]


def test_discover_missing_root(tmp_path):
    missing = str(tmp_path / "nope")
    assert discover_model_dirs(missing) == reference_discover(missing) == []


# ----------------------------------------------------------------- recorder


def run_recorded(directory, cfg_map, steps, seed=11, freq=50):
    """Random-action ticks recorded into a store in directory; returns the
    env and the store's path."""
    env = ParkingEnv(config_from_mapping(cfg_map), seed=seed)
    store, path = file_store(directory, freq)
    recorder = TrainingRecorder(store, env)
    rng = random.Random(seed)
    n = len(env.agents)
    gstep = 0
    for _ in range(steps):
        acts = []
        for agent in env.agents:
            delta_g = rng.randrange(
                env.cfg._obsNearbyParkingSpotsCount + 1) if agent.tracker else None
            acts.append(ActionTuple(rng.randint(-1, 1), rng.randint(-1, 1),
                                    delta_g))
        outs = env.step_all(acts)
        gstep += n
        recorder.after_step(gstep, outs)
    store.close()
    return env, path


def test_recorder_totals_track_env_stats(tmp_path):
    env, path = run_recorded(tmp_path, {}, 400)
    assert env.stats["episodes"] > 0
    back = read_store(path)

    def last(name):
        return back[name].points[-1][1]

    assert last("Metrics/Num Episodes") == env.stats["episodes"]
    assert last("Metrics/Total Crashes") == env.stats["crashed"]
    assert last("Metrics/Total Reached Goal") == env.stats["parked"]
    assert last("Metrics/Total Halted") == env.stats["halted"]
    assert last("Metrics/Total Crashes Wall") == env.stats["crash_wall"]
    # fixed-goal run: exploration metrics never recorded
    assert "Metrics/RatioExplorePerEps" not in back
    assert "Metrics/GaveWayLocalSameGoal_TotalCount" not in back
    # per-step means exist and velocity stays inside the world-rate bound
    for _, v in back["Metrics/VelocityAvg"].points:
        assert -1.0 <= v <= 1.0


def test_recorder_writes_running_totals_episode_count_first(tmp_path):
    """The store file holds the running totals in recording order: the
    episode count first, then the export catalogue's order."""
    _, path = run_recorded(tmp_path, {}, 400)
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh][1:]
    totals = dict.fromkeys(r["path"] for r in records if r["mode"] == "last")
    assert list(totals) == [
        "Metrics/Num Episodes", "Metrics/Total Crashes",
        "Metrics/Total Reached Goal", "Metrics/Total Halted",
        "Metrics/Total Crashes Car", "Metrics/Total Crashes Wall",
        "Metrics/Total Crashes StaticCar", "Metrics/Num Lost Goal",
        "Metrics/Num Stop Explore", "Metrics/Num Stop Goal",
        "Metrics/Num Change Goal"]


def test_recorder_row_invariant_on_real_run(tmp_path):
    cfg_map = {"_numParkedCars": 4}
    env = ParkingEnv(config_from_mapping(cfg_map), seed=5)
    d = tmp_path / "model"
    d.mkdir()
    store = MetricStore(str(d / "metrics.jsonl"), summary_freq=50)
    recorder = TrainingRecorder(store, env)
    rng = random.Random(5)
    gstep = 0
    for _ in range(600):
        outs = env.step_all([ActionTuple(rng.randint(-1, 1), rng.randint(-1, 1))])
        gstep += 1
        recorder.after_step(gstep, outs)
    store.close()
    write_run_meta(str(d), {"run_id": "mini", "finished": True,
                            "total_steps": gstep, "train_boundary_step": 0})
    row = model_row(str(d))
    assert row["Num Episodes"] == env.stats["episodes"]
    assert row["p"] + row["c"] + row["h"] == pytest.approx(1.0, abs=1e-9)
    assert row["Max Steps"] == gstep


def test_recorder_dynamic_mode_emits_context_counts(tmp_path):
    cfg_map = {
        "_numAgents": 2,
        "_normalizeObs": True,
        "_dynamicGoals": True,
        "_obsNearbyParkingSpotsCount": 2,
        "_maxSteps": 60,
    }
    _, path = run_recorded(tmp_path, cfg_map, 250)
    back = read_store(path)
    for ctx in CONTEXT_COLUMNS:
        assert f"Metrics/{ctx}_PostiveCount" in back
        assert f"Metrics/{ctx}_TotalCount" in back
    explore = back["Metrics/RatioExplorePerEps"].points
    goal = back["Metrics/RatioGoalPerEps"].points
    for (_, e), (_, g) in zip(explore, goal):
        assert e + g == pytest.approx(1.0)


# Two recorded runs whose files are pinned byte for byte: a short parking
# train_q run that parks now and then (so it records Park Velocity), and a
# dynamic-goal random-action run (exploration ratios and give-way counts).
# PPO stays out, so that no BLAS build can move a pin.
PINNED_Q = {"spawnCloseRatio": 1.0, "_numParkedCars": 6}
PINNED_Q_SCHEDULE = QSchedule(alpha=0.1, gamma=0.9, epsilon=0.3,
                              train_episodes=40, eval_episodes=10)
PINNED_DYNAMIC = {"_numAgents": 2, "_normalizeObs": True,
                  "_dynamicGoals": True, "_obsNearbyParkingSpotsCount": 2,
                  "_maxSteps": 60}
RECORDER_PINS = {
    "q/metrics.jsonl":
        "70d6c51a24b025f88ae22ca897c23fb91350ea3bbb42bf5d1d13b1fd31b46029",
    "q/rewards.csv":
        "ed34acda6b197684bfa1c06e4f5705e59adfca7eac146bc329d39f7f52d64288",
    "dynamic/metrics.jsonl":
        "5c9f8cae3a75595cf46e931467f3163bee0f9925abf0b1f9b88c74bae713f1aa",
}


def export_sources() -> set[str]:
    """Every metric path the export catalogue reads: the mean paths, the
    running totals and both give-way paths of each context."""
    paths = set()
    for _, how, source in EXPORT_COLUMNS:
        if how == "mean":
            paths.add(source)
        elif how in ("delta", "per_eps"):
            paths.add(source[0])
        elif how == "context":
            paths.update(gave_way_paths(source))
    return paths


def test_recorder_files_are_pinned(tmp_path):
    """The recorder writes the pinned bytes for both runs, and the two
    runs record every path the export catalogue reads."""
    train_q(config_from_mapping(PINNED_Q), PINNED_Q_SCHEDULE,
            str(tmp_path / "q"), seed=0, summary_freq=50)
    (tmp_path / "dynamic").mkdir()
    run_recorded(tmp_path / "dynamic", PINNED_DYNAMIC, 250)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in RECORDER_PINS}
    assert got == RECORDER_PINS
    q = read_store(str(tmp_path / "q" / "metrics.jsonl"))
    dynamic = read_store(str(tmp_path / "dynamic" / "metrics.jsonl"))
    assert "Metrics/Park Velocity" in q
    assert export_sources() <= set(q) | set(dynamic)
