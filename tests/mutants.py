"""Mutation check: does the Tier-1 suite notice each listed one-line bug?

    python3 tests/mutants.py

Two lists of mutants run. Each entry of the hand list MUTANTS is (file,
old text, new text), and the old text must occur exactly once in the
file. The generated list has one "field ignored" mutant per config read
site: every load of an `EnvironmentConfig` field through ``cfg.`` (also
``self.cfg.`` and ``env.cfg.``) or, in ``config.py``, ``self.`` in
``src/carpark/*.py`` is replaced by that field's default. Every mutant is
an edit at a position of its file, and the edited file must still
compile, so that no mutant is killed by a syntax error. For each mutant
the repository is copied to a temporary directory, the one edit is
applied there, and the Tier-1 suite runs in the copy with ``-x``. A
mutant is killed when the suite fails, and survives when it passes. The
unmutated copy runs first and must pass, so that a broken suite cannot
kill every mutant. The exit status is 0 only when no mutant survives.

pytest does not collect this file (it is not named ``test_*.py``).
"""

from __future__ import annotations

import ast
import dataclasses
import glob
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from carpark.config import EnvironmentConfig  # noqa: E402

ENV = "src/carpark/env.py"
CONFIG = "src/carpark/config.py"
METRICS = "src/carpark/metrics.py"
PPO = "src/carpark/ppo.py"
QLEARNING = "src/carpark/qlearning.py"
WORLD = "src/carpark/world.py"

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
    (ENV, "cfg.rewFinalVelocitySum * abs(agent.v) / cfg.speed_bound",
     "cfg.rewFinalVelocitySum * agent.v / cfg.speed_bound"),
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
    (CONFIG, 'kwargs["ringDiams"] = tuple(diams)', 'kwargs["ringDiams"] = diams'),
    (CONFIG, "if not isinstance(value, tuple):", "if False:"),
    (CONFIG, '    sig["_minDeltaVMagnitude"] = cfg.max_reverse_accel\n', ""),
    (METRICS, 'raise ValueError(f"{model_dir}: no training boundary recorded")',
     "boundary = 0"),
    # one view per world state: each move builds one, and the sensing pass
    # reads the current one
    (ENV, "        # of the new view\n        self._look()\n",
     "        # of the new view\n"),
    (ENV, "        # _sense unless someone respawns\n        self._look()\n",
     "        # _sense unless someone respawns\n"),
    (ENV, "        self._sense()\n        return events\n",
     "        return events\n"),
    # step_all runs its phases in tick order
    (ENV, "        pre_nearest_space = self._move(actions, events)\n"
          "        crashed = self._collide()\n",
     "        crashed = self._collide()\n"
     "        pre_nearest_space = self._move(actions, events)\n"),
    (ENV, "elif seed is not None:", "elif False:"),
    # one check per settings value: typed, finite, lower-bounded, and a
    # float field holds a float
    (CONFIG, "        check_settings(self, _AT_LEAST)\n", ""),
    (CONFIG, "        _check_kind(f.name, kind, value)\n", ""),
    (CONFIG, 'and kind != "bool"):', "and False):"),
    (CONFIG, "    for name, least in at_least.items():",
     "    for name, least in {}.items():"),
    (CONFIG, '"_maxSteps": 1, ', ""),
    (CONFIG, '"_minDeltaVMagnitude": 0,', ""),
    (CONFIG, "            object.__setattr__(settings, f.name, value)\n", ""),
    (CONFIG, "if not math.isfinite(value):", "if False:"),
    (PPO, '"horizon": 1, "epochs": 1,', '"horizon": 1,'),
    (QLEARNING, '"decay_episodes": 1}', "}"),
    # only config_from_mapping reads text, and names the key it refuses
    (CONFIG, 'elif (kind in ("int", "int?") and isinstance(value, float)',
     "elif (False and isinstance(value, float)"),
    (CONFIG, '            _check_kind(key, "int", value)\n', ""),
    (CONFIG, "if isinstance(diams, tuple):", "if True:"),
    (CONFIG, "except yaml.YAMLError as e:", "except ImportError as e:"),
    (CONFIG, 'raise ValueError("environment parameters: expected a mapping, got "',
     'raise TypeError("environment parameters: expected a mapping, got "'),
    (CONFIG, "except OverflowError:", "except ZeroDivisionError:"),
    # one episode loop: the run plays every tick, learns only where told
    # and sets the training boundary itself
    (METRICS, "            if learn is not None:\n                learn(outs)\n",
     ""),
    (METRICS, "if self.boundary is None and count >= self.train:",
     "if self.boundary is None and count > self.train:"),
    (METRICS, "max_episodes=episodes, train=0)",
     "max_episodes=episodes, train=episodes)"),
    (QLEARNING, "        if run.boundary is None:  # eps_t",
     "        if True:  # eps_t"),
    (QLEARNING, "run.play(_greedy(table, env))", "run.play(_greedy(table, env), learn)"),
    # one way to measure: the walls are the arena box, past their ends
    # too, and the relocation reads the parked-car columns of the view
    (WORLD, "ox = max(0.0, -x, x - e)", "ox = max(0.0, x, x - e)"),
    (WORLD, "oy = max(0.0, -y, y - e)", "oy = max(0.0, y - e)"),
    (WORLD, "best_i = int(dist.min(axis=0).argmax())",
     "best_i = int(dist.min(axis=0).argmin())"),
    (WORLD, "dist = arrays.distances()[:, arrays.na:arrays.nc]",
     "dist = arrays.distances()[:, :arrays.nc]"),
    (METRICS, "if type(value) is not int:", "if False:"),
    (METRICS, "if type(value) not in (int, float) or not math.isfinite(value):",
     "if False:"),
    (METRICS, "if freq < 1:", "if freq < 0:"),
    # one start for every episode: the ring window keeps its length, and
    # a spawn passes the minimum distance and the one hitbox test against
    # every other car
    (ENV, "                agent.rings.pop()\n", ""),
    (ENV, ">= min_d", "> min_d"),
    (ENV, "self.world.static_kind(body, others)",
     "self.world.static_kind(body, self.world.parked)"),
    # one end for every episode: the tick counts each outcome where it
    # decides it, and the respawned car is the one the world holds
    (ENV, "                stats[CRASH_STATS[kind]] += 1\n", ""),
    (ENV, '"timeout": "halted"}', '"timeout": "crashed"}'),
    (ENV, "        self.world.agents[agent_i] = agent.body\n", ""),
    (CONFIG, "if self._ringNumPrevObs and not self._obsRings:", "if False:"),
]

DEFAULTS = {f.name: f.default for f in dataclasses.fields(EnvironmentConfig)}
# a field name after "cfg.", "<name>.cfg." or "self."; read_sites keeps
# the code loads
_READ = re.compile(r"\b(?:(?:\w+\.)?cfg|self)\.(" + "|".join(DEFAULTS)
                   + r")\b")

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", ".bench_work", "build")


def source(path: str) -> str:
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


def read_count(text: str, path: str) -> int:
    """The config field loads in a module: ``cfg.<field>`` and
    ``<x>.cfg.<field>`` anywhere, ``self.<field>`` in config.py."""
    owner = ("cfg", "self") if path == CONFIG else ("cfg",)
    n = 0
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Attribute) and node.attr in DEFAULTS
                and isinstance(node.ctx, ast.Load)):
            v = node.value
            if (isinstance(v, ast.Name) and v.id in owner
                    or isinstance(v, ast.Attribute) and v.attr == "cfg"):
                n += 1
    return n


def read_sites() -> list[tuple[str, int, str, str]]:
    """One mutant per config read site, as (file, offset, old, new): the
    read replaced by the field's default. A regex match is a read site
    when replacing it removes one field load from the module's syntax
    tree, so mentions in comments and docstrings are skipped."""
    out = []
    for full in sorted(glob.glob(os.path.join(ROOT, "src", "carpark", "*.py"))):
        path = os.path.relpath(full, ROOT)
        text = source(path)
        loads = read_count(text, path)
        for m in _READ.finditer(text):
            new = repr(DEFAULTS[m.group(1)])
            mutated = text[:m.start()] + new + text[m.end():]
            if read_count(mutated, path) == loads - 1:
                out.append((path, m.start(), m.group(0), new))
    return out


def positioned(mutant) -> tuple[str, int, str, str]:
    """A hand-list entry as (file, offset, old, new)."""
    path, old, new = mutant
    text = source(path)
    if text.count(old) != 1:
        raise SystemExit(f"{path}: the old text occurs {text.count(old)} "
                         f"times, not once: {old!r}")
    return path, text.find(old), old, new


def label(mutant) -> str:
    """file:line of the old text, and the edit."""
    path, offset, old, new = mutant
    line = source(path)[:offset].count("\n") + 1
    return f"{path}:{line}: {old.strip()!r} -> {new.strip()!r}"


def apply(work: str, mutant) -> None:
    path, offset, old, new = mutant
    full = os.path.join(work, path)
    with open(full, encoding="utf-8") as fh:
        text = fh.read()
    if text[offset:offset + len(old)] != old:
        raise SystemExit(f"{path}: {old!r} is not at offset {offset}")
    text = text[:offset] + new + text[offset + len(old):]
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
    mutants = [positioned(m) for m in MUTANTS] + read_sites()
    failure, took = tier1_failure()
    print(f"unmutated: {failure or 'passes'} ({took:.0f} s)", flush=True)
    if failure:
        return 2
    survivors = []
    for mutant in mutants:
        name = label(mutant)
        failure, took = tier1_failure(mutant)
        print(f"{'killed' if failure else 'SURVIVED'} ({took:.0f} s) {name}",
              flush=True)
        if failure:
            print(f"    by {failure}", flush=True)
        else:
            survivors.append(name)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed, "
          f"{len(survivors)} survived, in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
