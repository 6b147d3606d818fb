"""Bit-exact behaviour gates: the three baseline env digests (poses,
velocities, goals, rewards, terminals and observations over 300 seeded
random-action ticks) and the tiny unit digest of every workload case must
match the values committed in benchmarks/digests.json. The file is only read here; benchmarks/digest.py
--update is the one place that rewrites it."""

import json
import os

import pytest

BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


@pytest.fixture
def digest_module(monkeypatch):
    """benchmarks/digest.py, imported with the environment put back after
    (its import pins the BLAS thread count for benchmark runs)."""
    saved = dict(os.environ)
    monkeypatch.syspath_prepend(BENCHMARKS)
    try:
        import digest
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return digest


def test_baseline_env_digests_match_committed(digest_module, tmp_path):
    with open(os.path.join(BENCHMARKS, "digests.json"), encoding="utf-8") as fh:
        want = json.load(fh)["baseline"]
    got = digest_module.baseline_digests(str(tmp_path))
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def test_tiny_unit_digests_match_committed(digest_module, tmp_path):
    """Every case of every workload at the tiny size: the q-basic table,
    the export CSV, the env-alone rollout and a PPO run whose first update
    is at lr > 0 (buffer 128 against a cut at 204.8 steps)."""
    workloads = digest_module.workloads
    with open(os.path.join(BENCHMARKS, "digests.json"), encoding="utf-8") as fh:
        want = json.load(fh)["tiny"]
    assert sorted(want) == sorted(workloads.WORKLOADS)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls("tiny", str(tmp_path / name))
        for case in range(workloads.CASES):
            got = digest_module.unit_digest(workload, case)
            assert got == want[name][str(case)], (name, case)
