"""Behaviour digests, untimed.

    python3 benchmarks/digest.py            # check the baseline env digests
    python3 benchmarks/digest.py --update   # recompute every committed digest

The check hashes poses, velocities, goals, rewards, terminals and
observations over a fixed number of seeded random-action ticks for the
three baseline env configurations, and compares them with digests.json.
``--update`` also reruns every case of every workload at both sizes and
rewrites the expected unit digests that run.py checks; run it only for a
change that is meant to alter behaviour, and say so in the change.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads before numpy loads)

tracing, workloads = run.import_package()

BASELINE_TICKS = 300
_DYNAMIC_ONLY = ("_dynamicGoals", "_obsNearbyParkingSpotsCount",
                 "_obsParkingSpotClosestAgent",
                 "_obsParkingSpotClosestGoalAgent", "rewDeltaGoalContinueExp",
                 "rewDeltaGoalDiffGoal", "_rewDeltaGoalStopGoal")
BASELINES = {
    "env-1agent-default": {},
    "env-8agent-rings-nearby": {k: v for k, v in
                                workloads.ENV_DYNAMIC8.items()
                                if k not in _DYNAMIC_ONLY},
    "env-8agent-dynamic": workloads.ENV_DYNAMIC8,
}


def unit_digest(workload, case: int) -> str:
    shutil.rmtree(workload.work_dir, ignore_errors=True)
    os.makedirs(workload.work_dir)
    ctx = workload.setup(case)
    workload.run(ctx)
    digest, _ = workload.check(ctx)
    return digest


def baseline_digests(work_dir: str) -> dict:
    return {name: unit_digest(workloads.EnvRollout(
                "full", work_dir, mapping=mapping, ticks=BASELINE_TICKS), 0)
            for name, mapping in BASELINES.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="recompute and rewrite every committed digest")
    args = parser.parse_args()
    work_root = os.path.join(run.ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    try:
        got = baseline_digests(work_dir)
        if args.update:
            out = {"baseline": got}
            for size in workloads.SIZES:
                out[size] = {}
                for name, cls in workloads.WORKLOADS.items():
                    workload = cls(size, work_dir)
                    out[size][name] = {
                        str(c): unit_digest(workload, c)
                        for c in range(workloads.CASES)}
                    print(f"{size} {name}: {out[size][name]}", flush=True)
            with open(run.DIGESTS, "w", encoding="utf-8") as fh:
                json.dump(out, fh, indent=2, sort_keys=True)
                fh.write("\n")
            return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # a benchmark run still uses it
    with open(run.DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)["baseline"]
    bad = 0
    for name, digest in got.items():
        ok = digest == want.get(name)
        bad += not ok
        verdict = "ok" if ok else f"MISMATCH, expected {want.get(name)}"
        print(f"{name} {BASELINE_TICKS} ticks: {digest} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
