"""Bit-exact behaviour gates: the three baseline env digests (poses,
velocities, goals, rewards, terminals and observations over 300 seeded
random-action ticks) and the tiny unit digest of every workload case must
match the values committed in benchmarks/digests.json. The file is only
read here; benchmarks/digest.py --update is the one place that rewrites
it. The full-size unit digests take about a minute and a half, so their
test is marked slow:

    PYTHONPATH=src python -m pytest -m slow tests/test_behaviour_digests.py
"""

import json
import os
import subprocess
import sys

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


# every case of one workload at full size, printed as JSON; importing
# digest imports run.py, which pins the BLAS threads before numpy loads
FULL_SIZE_DIGESTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import digest
workloads = digest.workloads
workload = workloads.WORKLOADS[sys.argv[2]]("full", sys.argv[3])
print(json.dumps({str(case): digest.unit_digest(workload, case)
                  for case in range(workloads.CASES)}))
"""


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", ["q-basic", "ppo-fixed4", "env-dynamic8", "export-tree"])
def test_full_unit_digests_match_committed(name, tmp_path):
    """Every case of every workload at full size, each workload in a
    fresh interpreter, as run.py computes them."""
    with open(os.path.join(BENCHMARKS, "digests.json"), encoding="utf-8") as fh:
        want = json.load(fh)["full"]
    assert sorted(want) == ["env-dynamic8", "export-tree", "ppo-fixed4",
                            "q-basic"]
    proc = subprocess.run(
        [sys.executable, "-c", FULL_SIZE_DIGESTS, BENCHMARKS, name,
         str(tmp_path / name)],
        capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == want[name]
