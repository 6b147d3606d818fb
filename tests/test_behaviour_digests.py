"""Bit-exact behaviour gate: the three baseline env digests (poses,
velocities, goals, rewards, terminals and observations over 300 seeded
random-action ticks) must match the values committed in
benchmarks/digests.json. The file is only read here; benchmarks/digest.py
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
