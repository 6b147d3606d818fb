"""Smoke tests of the benchmark at tiny size.

    python3 -m pytest benchmarks

Each test runs benchmarks/run.py as a separate process, as the command
in BENCHMARK.json does.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _invoke(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.lru_cache(maxsize=None)
def bench(workload, seed, trace, repeat=0):
    """(result, unit digests, printed lines) of one tiny run."""
    proc = _invoke(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digests = [line.split(" digest ")[1].split()[0]
               for line in lines if line.startswith("unit ")]
    return json.loads(lines[-1]), digests, lines


def _check_result(result, lines, spec_metrics):
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    got = result["metrics"]
    assert set(got) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        assert got[m["name"]]["unit"] == m["unit"]
        printed = [line for line in lines
                   if line.startswith(f"metric {m['name']} ")]
        assert len(printed) == 1 and printed[0].endswith(f" {m['unit']}")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_end_to_end_metric(workload):
    result, _, lines = bench(workload, 0, 0)
    _check_result(result, lines, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert lines[0].startswith("provenance ")
    prov = json.loads(lines[0][len("provenance "):])
    for key in ("machine", "nproc", "python", "numpy", "blas",
                "blas_threads", "git_rev", "seed", "seconds"):
        assert key in prov


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_and_follows_the_seed(workload):
    _, first, _ = bench(workload, 0, 0)
    _, again, _ = bench(workload, 0, 0, repeat=1)
    _, other, _ = bench(workload, 1, 0)
    assert first[0] == again[0]
    assert first[0] != other[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_root(workload):
    result, digests, lines = bench(workload, 0, 1)
    _check_result(result, lines, SPEC["per_layer"])
    assert len(digests) >= 2  # one untraced unit, then one traced
    got = {k: v["value"] for k, v in result["metrics"].items()}
    self_sum = sum(v for k, v in got.items() if k.endswith(".self_s"))
    assert got["bench.unit.total_s"] > 0
    assert self_sum == pytest.approx(got["bench.unit.total_s"], rel=1e-6)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke(str(tmp_path), WORKLOADS[0], 0, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
