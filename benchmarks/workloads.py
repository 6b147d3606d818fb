"""The four benchmark workloads.

Every workload is a closed loop driven by one caller in one process: the
benchmark issues the next call only after the previous one returns. A
run repeats *units* of one workload. A unit is set up (untimed for the
throughput figure), run as one timed operation, then checked: its output
is hashed and compared with the committed digest for its case, and its
invariants are tested. Unit k of a run with workload seed s plays case
(s + k) mod CASES, and case c feeds the program seed c, so every timed
output has a committed expected digest. A workload whose set-up can be
reused plays only REUSE_CASES cases in turn: the first units of a run set
up, the later ones reuse what was built.

See NOTES.md for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import warnings
from array import array

import numpy as np

from carpark import metrics
from carpark.config import config_from_mapping
from carpark.env import ActionTuple, ParkingEnv
from carpark.ppo import PolicyParams, PpoHyper, train_ppo
from carpark.qlearning import MODEL_BASENAME, QSchedule, evaluate_q, train_q

CASES = 8
REUSE_CASES = 3
SIZES = ("full", "tiny")

# The test suite's PPO_FIXED environment with 4 agents and 8 parked cars.
# With the suite's 16 parked cars and 4 agents, spawning fails on every
# seed tried (see NOTES.md).
PPO_FIXED4 = {
    "_positionGranularity": 4,
    "_velocityGranularity": 4,
    "_thetaGranularity": 24,
    "_maxVelocityMagnitude": 4,
    "_minVelocityMagnitude": 2,
    "_maxDeltaVMagnitude": 2,
    "_minDeltaVMagnitude": 2,
    "_maxDeltaThetaMagnitude": 3,
    "_numAgents": 4,
    "_normalizeObs": True,
    "_numParkedCars": 8,
    "_obsDist": True,
    "_obsRings": True,
    "_ringMaxNumObjTrack": 1,
    "_rd0": 11,
    "_ringOnlyWall": True,
    "_obsGoalDeltaPose": True,
    "_obsNearbyCars": True,
    "_obsNearbyCarsCount": 1,
    "_obsNearbyCarsDiameter": 300,
    "_obsNearbyCarsGoal": True,
    "_obsNearbyCarsVelocity": True,
    "spawnCloseRatio": 0.2,
    "carSpawnMinDistance": 210,
    "_maxSteps": 200,
    "spawnCrashRatio": 0.2,
    "spawnCrashTargetAgentMinDist": 210,
    "rewTimeSum": 0.2,
    "rewReachGoal": 1.0,
    "rewCrash": 1.0,
    "rewReverseSum": 0.1,
    "rewDistSum": 0.15,
    "rewDeltaThetaSum": 0.05,
}

# 8 agents, 20 parked cars, two rings that count walls and parked cars,
# 3 tracked nearby cars, dynamic goals over 4 tracked spaces with both
# closest-agent features, normalized observations.
ENV_DYNAMIC8 = {
    "_positionGranularity": 4,
    "_velocityGranularity": 4,
    "_thetaGranularity": 24,
    "_maxVelocityMagnitude": 4,
    "_minVelocityMagnitude": 2,
    "_maxDeltaVMagnitude": 2,
    "_minDeltaVMagnitude": 2,
    "_maxDeltaThetaMagnitude": 3,
    "_numAgents": 8,
    "_numParkedCars": 20,
    "_normalizeObs": True,
    "_obsDist": True,
    "_obsGoalDeltaPose": True,
    "_obsRings": True,
    "_ringMaxNumObjTrack": 3,
    "_rd0": 11,
    "_rd1": 21,
    "_obsNearbyCars": True,
    "_obsNearbyCarsCount": 3,
    "_obsNearbyCarsDiameter": 300,
    "_obsNearbyCarsGoal": True,
    "_obsNearbyCarsVelocity": True,
    "_dynamicGoals": True,
    "_obsNearbyParkingSpotsCount": 4,
    "_obsParkingSpotClosestAgent": True,
    "_obsParkingSpotClosestGoalAgent": True,
    "_maxSteps": 200,
    "rewTimeSum": 0.2,
    "rewDistSum": 0.15,
    "rewDeltaGoalContinueExp": -0.002,
    "rewDeltaGoalDiffGoal": -0.05,
    "_rewDeltaGoalStopGoal": -1,
}


def load_cfg(mapping: dict):
    # the default reward weights trip their own soft-constraint warning
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="rewDistSum")
        return config_from_mapping(mapping)


def _hex(h) -> str:
    return h.hexdigest()[:20]


class UnitCheckError(Exception):
    """A unit's output broke an invariant."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise UnitCheckError(what)


class Workload:
    """One workload: per-case set-up, a timed operation, and a check.

    ``run`` returns the number of operations it completed (agent-steps or
    exported run directories); ``check`` returns the unit's digest and a
    dict of extra figures.
    """

    name = ""
    op_name = ""
    reusable = False  # True when run() leaves the set-up context unchanged

    def __init__(self, size: str, work_dir: str):
        self.size = size
        self.work_dir = work_dir

    def setup(self, case: int) -> dict:
        raise NotImplementedError

    def run(self, ctx: dict) -> int:
        raise NotImplementedError

    def check(self, ctx: dict) -> tuple[str, dict]:
        raise NotImplementedError


class QBasic(Workload):
    name = "q-basic"
    op_name = "agent-steps"
    EPISODES = {"full": (1500, 1000, 200), "tiny": (60, 40, 20)}

    def setup(self, case):
        train, decay, evals = self.EPISODES[self.size]
        cfg = load_cfg({})
        return {
            "case": case, "cfg": cfg, "eval_episodes": evals,
            "env": ParkingEnv(cfg, seed=case),
            "sched": QSchedule(alpha=0.1, gamma=0.9, epsilon=0.3,
                               train_episodes=train, decay_episodes=decay),
            "out_dir": os.path.join(self.work_dir, f"q-{case}"),
        }

    def run(self, ctx):
        ctx["result"] = train_q(ctx["cfg"], ctx["sched"], ctx["out_dir"],
                                env=ctx["env"], seed=ctx["case"])
        return ctx["result"].total_steps

    def check(self, ctx):
        result = ctx["result"]
        table = result.table
        _require(bool(np.isfinite(table.values).all()), "non-finite Q-table")
        _require(os.path.isfile(os.path.join(ctx["out_dir"], MODEL_BASENAME)),
                 "no saved Q-table")
        _require(metrics.read_run_meta(ctx["out_dir"]).get("finished") is True,
                 "run.json not marked finished")
        eval_env = ParkingEnv(ctx["cfg"], seed=10_000 + ctx["case"])
        ev = evaluate_q(table, eval_env, ctx["eval_episodes"])
        rates = (ev["park_rate"], ev["crash_rate"], ev["halt_rate"],
                 ev["mean_reward"], ev["mean_length"])
        _require(all(math.isfinite(r) for r in rates), "non-finite eval rates")
        h = hashlib.sha256(np.ascontiguousarray(table.values, "<f8").tobytes())
        h.update(repr(rates).encode())
        return _hex(h), {"eval_park_rate": ev["park_rate"]}


class PpoFixed4(Workload):
    name = "ppo-fixed4"
    op_name = "agent-steps"
    HYPER = {
        "full": {"total_steps": 4096},
        "tiny": {"total_steps": 256, "buffer": 128, "horizon": 32,
                 "epochs": 1, "hidden": 32, "layers": 2},
    }

    def setup(self, case):
        cfg = load_cfg(PPO_FIXED4)
        hyper = PpoHyper(**self.HYPER[self.size])
        env = ParkingEnv(cfg, seed=case)
        params = PolicyParams(len(env.observe(0)), env.action_schema.branches,
                              hyper.hidden, hyper.layers,
                              rng=np.random.default_rng(case))
        return {"case": case, "cfg": cfg, "hyper": hyper, "env": env,
                "params": params,
                "out_dir": os.path.join(self.work_dir, f"ppo-{case}")}

    def run(self, ctx):
        ctx["result"] = train_ppo(ctx["cfg"], ctx["hyper"], ctx["out_dir"],
                                  env=ctx["env"], params=ctx["params"],
                                  seed=ctx["case"])
        return ctx["result"].total_steps

    def check(self, ctx):
        params = ctx["result"].params
        h = hashlib.sha256()
        for name in sorted(params.data):
            arr = params.data[name]
            _require(bool(np.isfinite(arr).all()), f"non-finite {name}")
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr, "<f8").tobytes())
        checksum = params.checksum()
        h.update(repr((checksum, params.t)).encode())
        _require(params.t > 0, "no optimizer step taken")
        return _hex(h), {}


class EnvRollout(Workload):
    """The env alone: seeded random actions, one observe per agent per
    tick. The actions are drawn in set-up; the timed loop only feeds them
    and hashes what comes back."""

    name = "env-dynamic8"
    op_name = "agent-steps"
    TICKS = {"full": 1500, "tiny": 40}

    def __init__(self, size, work_dir, mapping=ENV_DYNAMIC8, ticks=None):
        super().__init__(size, work_dir)
        self.mapping = mapping
        self.ticks = self.TICKS[size] if ticks is None else ticks

    def setup(self, case):
        cfg = load_cfg(self.mapping)
        env = ParkingEnv(cfg, seed=case)
        rng = random.Random(20_000 + case)
        accel = (-cfg.max_reverse_accel, cfg._maxDeltaVMagnitude)
        omega = cfg._maxDeltaThetaMagnitude
        n_goal = cfg._obsNearbyParkingSpotsCount if cfg._dynamicGoals else 0
        actions = [
            [ActionTuple(rng.randint(*accel), rng.randint(-omega, omega),
                         rng.randint(0, n_goal))
             for _ in env.agents]
            for _ in range(self.ticks)]
        return {"env": env, "actions": actions}

    def run(self, ctx):
        env = ctx["env"]
        agents = env.agents
        n = len(agents)
        h = hashlib.sha256()
        for acts in ctx["actions"]:
            for i in range(n):
                h.update(array("d", env.observe(i)).tobytes())
            outs = env.step_all(acts)
            h.update(repr((
                [(a.body.x, a.body.y, a.body.theta, a.v, a.goal_space)
                 for a in agents],
                [(o.reward, o.terminal) for o in outs])).encode())
        ctx["hash"] = h
        return len(ctx["actions"]) * n

    def check(self, ctx):
        stats = ctx["env"].stats
        _require(stats["episodes"]
                 == stats["parked"] + stats["crashed"] + stats["halted"],
                 "episode outcome counts do not add up")
        return _hex(ctx["hash"]), {}


EXPORT_PARAMS = ("trainer", "environment_parameters._numAgents",
                 "environment_parameters._dynamicGoals",
                 "hyperparameters.alpha", "hyperparameters.lr")


class ExportTree(Workload):
    """export_rows over a tree of run directories that the trainers write
    at their default summary frequency: a group of tabular runs on the
    default config and a group of short PPO runs with dynamic goals, so
    that every aggregation, the context-conformance ones included, reads
    recorded data. One unit exports the tree many times: one export is
    too short to time alone."""

    name = "export-tree"
    op_name = "exported runs"
    reusable = True
    # tabular runs, their episodes; PPO runs, their agent-steps; exports
    TREE = {"full": (4, 150, 2, 2048, 200), "tiny": (2, 20, 1, 128, 2)}
    ALPHAS = (0.1, 0.2)
    # default PpoHyper apart from a smaller network and buffer, so that a
    # run fits in set-up
    PPO_HYPER = {"full": {"buffer": 512, "hidden": 64, "layers": 2,
                          "epochs": 3},
                 "tiny": {"buffer": 64, "hidden": 16, "layers": 1,
                          "epochs": 1}}

    def setup(self, case):
        q_runs, episodes, ppo_runs, ppo_steps, _ = self.TREE[self.size]
        root = os.path.join(self.work_dir, f"tree-{case}")
        q_cfg = load_cfg({})
        for k in range(q_runs):
            sched = QSchedule(alpha=self.ALPHAS[k % 2], gamma=0.9,
                              epsilon=0.3, train_episodes=episodes * 4 // 5,
                              eval_episodes=episodes // 5)
            train_q(q_cfg, sched, os.path.join(root, "q", f"q-{k:02d}"),
                    seed=30_000 + 8 * case + k)
        ppo_cfg = load_cfg({**ENV_DYNAMIC8, "_numAgents": 4,
                            "_numParkedCars": 8})
        hyper = PpoHyper(total_steps=ppo_steps, **self.PPO_HYPER[self.size])
        for k in range(ppo_runs):
            train_ppo(ppo_cfg, hyper,
                      os.path.join(root, "ppo-dynamic", f"ppo-{k:02d}"),
                      seed=31_000 + 8 * case + k)
        return {"root": root, "dirs": q_runs + ppo_runs,
                "csv": os.path.join(self.work_dir, f"export-{case}.csv")}

    def run(self, ctx):
        exports = self.TREE[self.size][4]
        exported = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(exports):
                dirs = metrics.discover_model_dirs(ctx["root"])
                rows = metrics.export_rows(dirs, ctx["csv"],
                                           param_paths=EXPORT_PARAMS)
                exported += len(rows)
        ctx["skipped"] = [str(w.message) for w in caught
                          if "skipping model dir" in str(w.message)]
        ctx["rows"] = rows
        return exported

    def check(self, ctx):
        _require(not ctx["skipped"],
                 f"export skipped {len(ctx['skipped'])} run dirs: "
                 + "; ".join(ctx["skipped"]))
        _require(len(ctx["rows"]) == ctx["dirs"],
                 f"exported {len(ctx['rows'])} of {ctx['dirs']} run dirs")
        with open(ctx["csv"], "rb") as fh:
            return _hex(hashlib.sha256(fh.read())), {}


WORKLOADS = {w.name: w for w in (QBasic, PpoFixed4, EnvRollout, ExportTree)}
