"""Mutation check: does the Tier-1 suite notice each listed one-line bug?

    python3 tests/mutants.py

Each entry of MUTANTS is (file, old text, new text): the old text must
occur exactly once in the file, and the edited file must still compile,
so that no mutant is killed by a syntax error. For each entry the
repository is copied to a temporary directory, the one edit is applied
there, and the Tier-1 suite runs in the copy with ``-x``. A mutant is killed when the suite
fails, and survives when it passes. The unmutated copy runs first and
must pass, so that a broken suite cannot kill every mutant. The exit
status is 0 only when no mutant survives.

pytest does not collect this file (it is not named ``test_*.py``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = "src/carpark/env.py"
CONFIG = "src/carpark/config.py"
METRICS = "src/carpark/metrics.py"
PPO = "src/carpark/ppo.py"

MUTANTS = [
    # reward and goal-transition read sites
    (ENV, '("L" if cfg._punishBetterOtherAgentLocal else "G",',
     '("G" if cfg._punishBetterOtherAgentLocal else "L",'),
    (ENV, '"S" if cfg._punishBetterOtherGoalAgent else "A")',
     '"A" if cfg._punishBetterOtherGoalAgent else "S")'),
    (ENV, 'category, reward = "StopExplore", cfg.rewDeltaGoalStopExp',
     'category, reward = "StopExplore", 0.0'),
    (ENV, "if bad_goal else cfg.rewDeltaGoalContinueGoal)",
     "if bad_goal else 0.0)"),
    (ENV, "reward = (cfg.rewDeltaGoalContinueGoalBetterOtherAgent",
     "reward = (cfg.rewDeltaGoalContinueGoal"),
    (ENV, "cfg.rewFinalVelocitySum * abs(agent.v) / vmax",
     "cfg.rewFinalVelocitySum * agent.v / vmax"),
    (ENV, "if cfg._rewDeltaThetaVelMult:", "if False:"),
    # spawn fallbacks
    (ENV, "g1 = self.rng.choice(free)", "g1 = free[0]"),
    (ENV, "            if not points:\n                return False\n", ""),
    # refusals
    (CONFIG, "if cfg.rewDeltaGoalContinueExp > 0 or cfg.rewDeltaGoalDiffGoal > 0:",
     "if cfg.rewDeltaGoalContinueExp > 0:"),
    (CONFIG, "if cfg.rewDeltaGoalContinueExp > 0 or cfg.rewDeltaGoalDiffGoal > 0:",
     "if cfg.rewDeltaGoalDiffGoal > 0:"),
    (CONFIG, "    if cfg._dynamicGoals:\n", "    if True:\n"),
    (PPO, 'if not math.isfinite(parts["loss"]):', "if False:"),
    # a config stores its inputs as given; the export reads the record
    (CONFIG, "        if self._minDeltaVMagnitude is None:\n"
             "            return self._maxDeltaVMagnitude\n"
             "        return self._minDeltaVMagnitude\n",
     "        return self._maxDeltaVMagnitude\n"),
    (CONFIG, "if self.max_reverse_accel < 0:", "if False:"),
    (CONFIG, 'kwargs["ringDiams"] = tuple(diams)', 'kwargs["ringDiams"] = diams'),
    (CONFIG, "if not isinstance(self.ringDiams, tuple):", "if False:"),
    (CONFIG, 'return None if value is None else _coerce(name, "int", value)',
     'return _coerce(name, "int", value)'),
    (CONFIG, '    sig["_minDeltaVMagnitude"] = cfg.max_reverse_accel\n', ""),
    (METRICS, 'raise ValueError(f"{model_dir}: no training boundary recorded")',
     "boundary = 0"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", ".bench_work", "build")


def label(mutant) -> str:
    """file:line of the old text, and the edit."""
    path, old, new = mutant
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        text = fh.read()
    line = text[:text.find(old)].count("\n") + 1
    return f"{path}:{line}: {old.strip()!r} -> {new.strip()!r}"


def apply(work: str, mutant) -> None:
    path, old, new = mutant
    full = os.path.join(work, path)
    with open(full, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: the old text occurs {text.count(old)} "
                         f"times, not once: {old!r}")
    text = text.replace(old, new)
    try:
        compile(text, path, "exec")
    except SyntaxError as e:
        raise SystemExit(f"{path}: the mutant does not compile: {e}") from None
    with open(full, "w", encoding="utf-8") as fh:
        fh.write(text)


def tier1_failure(mutant=None) -> tuple[str | None, float]:
    """Run Tier-1 in a fresh copy, with the mutant applied if given;
    returns pytest's first FAILED or ERROR line (None when it passes) and
    the run time."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, work, ignore=SKIP)
        if mutant is not None:
            apply(work, mutant)
        env = {**os.environ, "PYTHONPATH": os.path.join(work, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        proc = subprocess.run(TIER1, cwd=work, env=env, capture_output=True,
                              text=True)
        took = time.perf_counter() - start
    if proc.returncode == 0:
        return None, took
    first = [line for line in proc.stdout.splitlines()
             if line.startswith(("FAILED ", "ERROR "))]
    return (first[0] if first else f"exit status {proc.returncode}"), took


def main() -> int:
    start = time.perf_counter()
    failure, took = tier1_failure()
    print(f"unmutated: {failure or 'passes'} ({took:.0f} s)", flush=True)
    if failure:
        return 2
    survivors = []
    for mutant in MUTANTS:
        name = label(mutant)
        failure, took = tier1_failure(mutant)
        print(f"{'killed' if failure else 'SURVIVED'} ({took:.0f} s) {name}",
              flush=True)
        if failure:
            print(f"    by {failure}", flush=True)
        else:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed, "
          f"{len(survivors)} survived, in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
