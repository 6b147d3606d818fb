"""env.observe against the observation assembly it replaced, which lives on
here as the oracle: the environment gathered typed inputs (ObsInputs) and
build_observation filled the sentinels and encoded them through one
closure per feature kind.

The committed digests hash observations for three env configs only (and
the ppo-fixed4 digest hashes none), so this runs the oracle over a config
matrix of seeded random-action episodes that force parks, the layouts of
the benchmark workloads included. Every comparison is exact (==).
"""

import random
from dataclasses import dataclass, field
from typing import NamedTuple

import pytest

from carpark.config import config_from_mapping
from carpark.env import ActionTuple, ParkingEnv
from carpark.geometry import localize, round_half_up, wrap_signed_index
from carpark.world import MAX_WORLD_DISTANCE

# ------------------------------------------------------------------ oracle


class Pose(NamedTuple):
    x: float
    y: float
    theta: int


class LocalPose(NamedTuple):
    """localize's plain triple with its field names, in its order."""

    d: float
    theta_rel: float
    delta_theta: float


@dataclass
class NearbyCarObs:
    lp: LocalPose
    velocity: int = 0
    goal_lp: LocalPose | None = None
    goal_index: int | None = None


@dataclass
class ObsInputs:
    velocity: int
    goal: LocalPose | None = None
    own_goal_index: int | None = None
    rings: tuple[int, ...] = ()
    ring_history: list[tuple[int, ...]] = field(default_factory=list)
    nearby: list[NearbyCarObs] = field(default_factory=list)
    spaces: list[LocalPose | None] = field(default_factory=list)
    global_any: list[float | None] = field(default_factory=list)
    global_same: list[float | None] = field(default_factory=list)


def pose_of(obj):
    return Pose(obj.x, obj.y, obj.theta)


def local_pose(observer, target, grid) -> LocalPose:
    return LocalPose(*localize(pose_of(observer), pose_of(target), grid))


def oracle_inputs(env, agent_i):
    agent = env.agents[agent_i]
    cfg = env.cfg
    inputs = ObsInputs(velocity=agent.v)
    if agent.goal_space is not None:
        sp = env.world.spaces[agent.goal_space]
        inputs.goal = local_pose(agent.body, sp, env.grid)
    if cfg._dynamicGoals:
        slot = (agent.tracker.slot_of(agent.goal_space)
                if agent.goal_space is not None else None)
        inputs.own_goal_index = slot + 1 if slot is not None else 0
    if env.ring_spec:
        inputs.rings = agent.cur_rings
        inputs.ring_history = agent.ring_history
    if cfg._obsNearbyCars and cfg._obsNearbyCarsCount > 0:
        cars = env.world.all_cars()
        for j in agent.nearby:  # column j; agents come first
            lp = local_pose(agent.body, cars[j], env.grid)
            entry = NearbyCarObs(lp)
            if j < len(env.agents):
                other = env.agents[j]
                entry.velocity = other.v
                if cfg._obsNearbyCarsGoal and other.goal_space is not None:
                    if cfg._dynamicGoals:
                        slot = (agent.tracker.slot_of(other.goal_space)
                                if agent.tracker else None)
                        n_space = cfg._obsNearbyParkingSpotsCount
                        entry.goal_index = (
                            slot + 1 if slot is not None else n_space + 1)
                    else:
                        osp = env.world.spaces[other.goal_space]
                        entry.goal_lp = local_pose(other.body, osp, env.grid)
                elif cfg._obsNearbyCarsGoal and cfg._dynamicGoals:
                    entry.goal_index = 0  # exploring
            inputs.nearby.append(entry)
    if cfg._dynamicGoals and agent.tracker:
        for sid in agent.tracker.slots:
            if sid is None:
                inputs.spaces.append(None)
                inputs.global_any.append(None)
                inputs.global_same.append(None)
            else:
                sp = env.world.spaces[sid]
                inputs.spaces.append(local_pose(agent.body, sp, env.grid))
                any_d, same_d = env.global_info(sid)
                inputs.global_any.append(any_d)
                inputs.global_same.append(same_d)
    return inputs


def oracle_build_observation(schema, cfg, inputs, mode):
    discrete = mode == "discrete"
    gtheta = cfg._thetaGranularity
    d_max = MAX_WORLD_DISTANCE
    n_space = cfg._obsNearbyParkingSpotsCount if cfg._dynamicGoals else 0

    values = []

    def emit_signed(v, offset, bound):
        values.append(v + offset if discrete else v / bound)

    def emit_index(i, bound):
        values.append(i if discrete else i / bound)

    def emit_distance(d, bound):
        if discrete:
            values.append(round_half_up(d / cfg._distGranularity))
        else:
            values.append(min(d, bound) / bound)

    def emit_angle(theta_rel):
        if discrete:
            values.append(round_half_up(theta_rel) % gtheta)
        else:
            values.append(theta_rel / gtheta)

    def emit_delta(delta):
        if discrete:
            values.append(round_half_up(delta) % gtheta)
        else:
            values.append(wrap_signed_index(delta, gtheta) / (gtheta / 2.0))

    emit_signed(inputs.velocity, cfg._minVelocityMagnitude,
                max(cfg._maxVelocityMagnitude, cfg._minVelocityMagnitude, 1))

    goal = inputs.goal
    if cfg._obsDist:
        emit_distance(goal.d if goal else d_max, d_max)
    if cfg._obsAngle:
        emit_angle(goal.theta_rel if goal else 0.0)
    if cfg._obsGoalDeltaPose:
        emit_delta(goal.delta_theta if goal else 0.0)
    if cfg._dynamicGoals:
        emit_index(inputs.own_goal_index or 0, max(n_space, 1))
    if cfg._obsRings:
        n_o = max(cfg._ringMaxNumObjTrack, 1)
        states = [inputs.rings] + list(inputs.ring_history)
        want = cfg._ringNumPrevObs + 1
        zero = tuple(0 for _ in cfg.ringDiams)
        while len(states) < want:
            states.append(zero)
        for state in states[:want]:
            for count in state:
                emit_index(count, n_o)
    if cfg._obsNearbyCars:
        car_bound = min(cfg._obsNearbyCarsDiameter / 2.0, d_max)
        vmax = max(cfg._maxVelocityMagnitude, cfg._minVelocityMagnitude, 1)
        for k in range(cfg._obsNearbyCarsCount):
            car = inputs.nearby[k] if k < len(inputs.nearby) else None
            if car is None:
                emit_distance(car_bound, car_bound)
                emit_angle(0.0)
                emit_delta(0.0)
            else:
                emit_distance(car.lp.d, car_bound)
                emit_angle(car.lp.theta_rel)
                emit_delta(car.lp.delta_theta)
            if cfg._obsNearbyCarsVelocity:
                emit_signed(car.velocity if car else 0,
                            cfg._minVelocityMagnitude, vmax)
            if cfg._obsNearbyCarsGoal:
                if cfg._dynamicGoals:
                    if car is None:
                        gi = n_space + 1
                    elif car.goal_index is None:
                        gi = 0
                    else:
                        gi = car.goal_index
                    emit_index(gi, n_space + 1)
                else:
                    glp = car.goal_lp if car else None
                    if glp is None:
                        emit_distance(d_max, d_max)
                        emit_angle(0.0)
                        emit_delta(0.0)
                    else:
                        emit_distance(glp.d, d_max)
                        emit_angle(glp.theta_rel)
                        emit_delta(glp.delta_theta)
    if cfg._dynamicGoals:
        for k in range(n_space):
            lp = inputs.spaces[k] if k < len(inputs.spaces) else None
            if lp is None:
                emit_distance(d_max, d_max)
                emit_angle(0.0)
                emit_delta(0.0)
            else:
                emit_distance(lp.d, d_max)
                emit_angle(lp.theta_rel)
                emit_delta(lp.delta_theta)
        if cfg._obsParkingSpotClosestAgent:
            for k in range(n_space):
                v = inputs.global_any[k] if k < len(inputs.global_any) else None
                emit_distance(v if v is not None else d_max, d_max)
        if cfg._obsParkingSpotClosestGoalAgent:
            for k in range(n_space):
                v = (inputs.global_same[k]
                     if k < len(inputs.global_same) else None)
                emit_distance(v if v is not None else d_max, d_max)

    assert len(values) == len(schema.features)
    if discrete:
        out = []
        for v, f in zip(values, schema.features):
            iv = int(v)
            assert 0 <= iv < f.size, f.name
            out.append(iv)
        return out
    for v, f in zip(values, schema.features):
        lo = -1.0 if f.signed else 0.0
        assert lo <= v <= 1.0, f.name
    return values


def oracle_observe(env, agent_i):
    mode = "normalized" if env.cfg._normalizeObs else "discrete"
    return oracle_build_observation(env.schema, env.cfg,
                                    oracle_inputs(env, agent_i), mode)


# ------------------------------------------------------------ config matrix

_BASE = {"_numAgents": 4, "_numParkedCars": 8, "_maxSteps": 40,
         "_positionGranularity": 2, "_thetaGranularity": 24,
         "_maxVelocityMagnitude": 2, "_minVelocityMagnitude": 1}
_RINGS = {"_obsRings": True, "_ringMaxNumObjTrack": 2, "_rd0": 11, "_rd1": 21}
_CARS = {"_normalizeObs": True, "_obsNearbyCars": True,
         "_obsNearbyCarsCount": 3, "_obsNearbyCarsDiameter": 40}
_DYNAMIC = {"_dynamicGoals": True, "_obsNearbyParkingSpotsCount": 3}

CONFIGS = {
    "ring-history-discrete": {**_RINGS, "_ringNumPrevObs": 2,
                              "_obsDist": True, "_obsGoalDeltaPose": True},
    "ring-history-normalized": {**_RINGS, **_CARS, "_ringNumPrevObs": 2,
                                "_obsNearbyCarsVelocity": True},
    "angle-off": {**_CARS, "_obsAngle": False, "_obsDist": True,
                  "_obsGoalDeltaPose": True},
    "more-slots-than-cars": {**_CARS, "_numAgents": 2, "_numParkedCars": 1,
                             "_obsNearbyCarsCount": 5,
                             "_obsNearbyCarsVelocity": True,
                             "_obsNearbyCarsGoal": True},
    "cars-without-velocity-or-goal": {**_CARS, "_obsDist": True},
    "dynamic-no-closest-agent": {**_CARS, **_DYNAMIC,
                                 "_obsNearbyCarsGoal": True},
    "dynamic-closest-agent": {**_CARS, **_DYNAMIC, "_obsNearbyCarsGoal": True,
                              "_obsParkingSpotClosestAgent": True},
    # fewer free spaces than space slots: empty slots
    "dynamic-closest-goal-agent": {**_CARS, **_DYNAMIC, **_RINGS,
                                   "_numParkedCars": 34,
                                   "_obsNearbyParkingSpotsCount": 4,
                                   "_obsParkingSpotClosestGoalAgent": True},
    "fixed-goals-car-goal": {**_CARS, "_obsNearbyCarsGoal": True,
                             "_obsNearbyCarsVelocity": True,
                             "_obsGoalDeltaPose": True},
    # the observation layouts of the ppo-fixed4 and env-dynamic8 benchmark
    # workloads (benchmarks/workloads.py), copied; every key of _BASE is
    # overridden
    "ppo-fixed4": {
        "_positionGranularity": 4, "_velocityGranularity": 4,
        "_thetaGranularity": 24, "_maxVelocityMagnitude": 4,
        "_minVelocityMagnitude": 2, "_maxDeltaVMagnitude": 2,
        "_minDeltaVMagnitude": 2, "_maxDeltaThetaMagnitude": 3,
        "_numAgents": 4, "_normalizeObs": True, "_numParkedCars": 8,
        "_obsDist": True, "_obsRings": True, "_ringMaxNumObjTrack": 1,
        "_rd0": 11, "_ringOnlyWall": True, "_obsGoalDeltaPose": True,
        "_obsNearbyCars": True, "_obsNearbyCarsCount": 1,
        "_obsNearbyCarsDiameter": 300, "_obsNearbyCarsGoal": True,
        "_obsNearbyCarsVelocity": True, "spawnCloseRatio": 0.2,
        "carSpawnMinDistance": 210, "_maxSteps": 200,
        "spawnCrashRatio": 0.2, "spawnCrashTargetAgentMinDist": 210,
        "rewTimeSum": 0.2, "rewReachGoal": 1.0, "rewCrash": 1.0,
        "rewReverseSum": 0.1, "rewDistSum": 0.15, "rewDeltaThetaSum": 0.05,
    },
    "env-dynamic8": {
        "_positionGranularity": 4, "_velocityGranularity": 4,
        "_thetaGranularity": 24, "_maxVelocityMagnitude": 4,
        "_minVelocityMagnitude": 2, "_maxDeltaVMagnitude": 2,
        "_minDeltaVMagnitude": 2, "_maxDeltaThetaMagnitude": 3,
        "_numAgents": 8, "_numParkedCars": 20, "_normalizeObs": True,
        "_obsDist": True, "_obsGoalDeltaPose": True, "_obsRings": True,
        "_ringMaxNumObjTrack": 3, "_rd0": 11, "_rd1": 21,
        "_obsNearbyCars": True, "_obsNearbyCarsCount": 3,
        "_obsNearbyCarsDiameter": 300, "_obsNearbyCarsGoal": True,
        "_obsNearbyCarsVelocity": True, "_dynamicGoals": True,
        "_obsNearbyParkingSpotsCount": 4,
        "_obsParkingSpotClosestAgent": True,
        "_obsParkingSpotClosestGoalAgent": True, "_maxSteps": 200,
        "rewTimeSum": 0.2, "rewDistSum": 0.15,
        "rewDeltaGoalContinueExp": -0.002, "rewDeltaGoalDiffGoal": -0.05,
        "_rewDeltaGoalStopGoal": -1,
    },
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_observe_matches_oracle(name):
    cfg = config_from_mapping({**_BASE, **CONFIGS[name]})
    dynamic = cfg._dynamicGoals
    n_goal = cfg._obsNearbyParkingSpotsCount if dynamic else 0
    env = ParkingEnv(cfg, seed=11)
    rng = random.Random(11)
    for tick in range(120):
        for i in range(len(env.agents)):
            assert env.observe(i) == oracle_observe(env, i)
        actions = [ActionTuple(rng.randint(-1, 1), rng.randint(-1, 1),
                               rng.randint(0, n_goal) if dynamic else None)
                   for _ in env.agents]
        if tick % 8 == 3:
            # put an agent on its goal, so that the tick parks it
            ready = [k for k, a in enumerate(env.agents)
                     if a.goal_space is not None and (
                         not dynamic or a.tracker.slot_of(a.goal_space)
                         is not None)]
            if ready:
                agent = env.agents[ready[0]]
                sp = env.world.spaces[agent.goal_space]
                agent.body.x, agent.body.y = sp.x, sp.y
                agent.body.theta = sp.theta
                agent.v = 0
                env._look()
                env._sense()
                keep = (agent.tracker.slot_of(agent.goal_space) + 1 if dynamic
                        else None)
                actions[ready[0]] = ActionTuple(0, 0, keep)
        env.step_all(actions)
    assert env.stats["parked"] >= 3
