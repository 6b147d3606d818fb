"""Benchmark of the carpark package: closed-loop workloads, end-to-end
metrics, output checks, and a traced per-layer run.

    python3 benchmarks/run.py --workload q-basic --seed 0 --seconds 25 \
        --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``. It prints provenance, every unit's digest and every metric with
its unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from units run under tracing (see NOTES.md).
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One caller in one process: keep BLAS to one thread so a run neither
# competes with itself nor changes with the host's core count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
IMPORT_SAMPLES = 3


def import_package():
    """Import carpark from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "carpark", "__init__.py")):
        sys.exit(f"run.py: no carpark package under {SRC}; run the benchmark "
                 "from the root of a source checkout")
    sys.path.insert(0, SRC)
    import carpark
    if os.path.dirname(os.path.abspath(carpark.__file__)) != \
            os.path.join(SRC, "carpark"):
        sys.exit(f"run.py: carpark imported from {carpark.__file__}, "
                 f"not from {SRC}")
    import tracing
    import workloads
    return tracing, workloads


def import_seconds() -> float:
    """Median wall time, over IMPORT_SAMPLES fresh interpreters, from
    process start until the package and the benchmark are imported: the
    import share of set-up, sampled more than once like the rest."""
    code = (f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; "
            "import tracing, workloads")
    times = []
    for _ in range(IMPORT_SAMPLES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def provenance(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="ascii") as fh:
            rev = fh.read().strip()
        if rev.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", rev[5:])
            if os.path.isfile(ref):
                with open(ref, encoding="ascii") as fh:
                    rev = fh.read().strip()
    return {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.uname().machine,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_rev": rev,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def per_layer_metrics(tracer, tracing, traced_units, speed_ratio,
                      eval_park_rate) -> dict:
    """Per traced unit: calls and self seconds of each span, counts of the
    hot leaves, and two ratios per agent-step."""
    out = {}
    n = max(traced_units, 1)
    totals = tracer.totals()
    for name in tracing.SPAN_NAMES:
        calls, self_s = totals[name]
        if name != tracing.ROOT_SPAN:  # the root is one call per unit
            out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.self_s"] = (self_s / n, "s")
    out[f"{tracing.ROOT_SPAN}.total_s"] = (tracer.root_seconds() / n, "s")
    for name in tracing.COUNT_NAMES:
        out[f"{name}.calls"] = (tracer.counts[name] / n, "count")
    steps = tracer.agent_steps
    for name, count in (
            ("world.collides_static", totals["world.collides_static"][0]),
            ("world.point_to_obb_distance",
             tracer.counts["world.point_to_obb_distance"])):
        out[f"{name}.per_agent_step"] = (count / steps if steps else 0.0,
                                         "1/step")
    out["trace.speed_ratio"] = (speed_ratio, "ratio")
    out["qlearning.eval_park_rate"] = (eval_park_rate or 0.0, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every unit, for smoke tests")
    args = parser.parse_args(argv)

    tracing, workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose from "
                 + ", ".join(workloads.WORKLOADS))
    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)[args.size][args.workload]

    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    import_s = None if args.trace else import_seconds()
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    workload = workloads.WORKLOADS[args.workload](args.size, work_dir)
    tracer = tracing.Tracer() if args.trace else None

    attempted = failed = 0
    setup_times = []
    # [ops, seconds] of the units that passed their checks, untraced/traced
    done = {False: [0, 0.0], True: [0, 0.0]}
    traced_units = 0
    eval_park_rate = None
    built = {}  # case -> set-up context, for workloads that reuse it
    cycle = (workloads.REUSE_CASES if workload.reusable
             else workloads.CASES)
    start = time.perf_counter()
    k = 0
    try:
        while True:
            traced = tracer is not None and k % 2 == 1
            case = (args.seed + k % cycle) % workloads.CASES
            attempted += 1
            unit_start = time.perf_counter()
            try:
                ctx = built.get(case)
                if ctx is None:
                    ctx = workload.setup(case)
                    setup_times.append(time.perf_counter() - unit_start)
                    if workload.reusable:
                        built[case] = ctx
                if traced:
                    with tracer.unit():
                        t = time.perf_counter()
                        ops = workload.run(ctx)
                        dt = time.perf_counter() - t
                else:
                    t = time.perf_counter()
                    ops = workload.run(ctx)
                    dt = time.perf_counter() - t
                digest, extra = workload.check(ctx)
                want = expected.get(str(case))
                verdict = ("ok" if digest == want
                           else f"MISMATCH, expected {want}")
                print(f"unit {k} case {case} traced={int(traced)} {ops} "
                      f"{workload.op_name} in {dt:.4f} s digest {digest} "
                      f"{verdict}", flush=True)
                if digest != want:
                    failed += 1
                else:
                    done[traced][0] += ops
                    done[traced][1] += dt
                    if traced:
                        traced_units += 1
                        if workload.op_name == "agent-steps":
                            tracer.agent_steps += ops
                    if k == 0 and "eval_park_rate" in extra:
                        eval_park_rate = extra["eval_park_rate"]
            except Exception:  # one failed unit must not end the run
                failed += 1
                print(f"unit {k} case {case} FAILED", flush=True)
                traceback.print_exc()
            finally:
                if not workload.reusable:
                    shutil.rmtree(work_dir, ignore_errors=True)
                    os.makedirs(work_dir, exist_ok=True)
            k += 1
            # stop when one more unit of the same length would run past
            # the deadline by more than half its length
            now = time.perf_counter()
            unit_wall = now - unit_start
            if now - start + unit_wall / 2 >= args.seconds \
                    and (tracer is None or k >= 2):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it

    rate = {t: ops / sec if sec else 0.0 for t, (ops, sec) in done.items()}
    if tracer is not None:
        speed_ratio = rate[True] / rate[False] if rate[False] else 0.0
        metrics = per_layer_metrics(tracer, tracing, traced_units,
                                    speed_ratio, eval_park_rate)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = import_s
        if setup_times:
            setup_s += statistics.median(setup_times)
        metrics = {
            "ops_per_s": (rate[False], "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_rate": ((attempted - failed) / attempted, "ratio"),
        }
    if eval_park_rate is not None:
        print(f"eval_park_rate {eval_park_rate:.4f} ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
