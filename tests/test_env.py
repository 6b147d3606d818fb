"""Environment tests: spawning, stepping, rewards, goal mechanics, give-way
contexts, relocation and observations."""

import math
import random

import pytest

from carpark.config import EnvironmentConfig, config_from_mapping
from carpark.env import ActionTuple, ParkingEnv, StepOutcome
from carpark.geometry import GridSpec, bearing_index_units, round_half_up
from carpark.world import MAX_WORLD_DISTANCE, ROAD_POINTS, WorldArrays

D_MAX = MAX_WORLD_DISTANCE

PPO_FIXED = {
    "_positionGranularity": 4,
    "_velocityGranularity": 4,
    "_thetaGranularity": 24,
    "_maxVelocityMagnitude": 4,
    "_minVelocityMagnitude": 2,
    "_maxDeltaVMagnitude": 2,
    "_minDeltaVMagnitude": 2,
    "_maxDeltaThetaMagnitude": 3,
    "_normalizeObs": True,
    "_numParkedCars": 16,
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

DYNAMIC = {
    "_numAgents": 2,
    "_numParkedCars": 0,
    "_normalizeObs": True,
    "_dynamicGoals": True,
    "_obsNearbyParkingSpotsCount": 2,
    "_obsNearbyCars": True,
    "_obsNearbyCarsCount": 2,
    "_obsNearbyCarsDiameter": 300,
    "_obsNearbyCarsGoal": True,
    "_obsNearbyCarsVelocity": True,
    "_obsParkingSpotClosestAgent": True,
    "_obsParkingSpotClosestGoalAgent": True,
    "_obsDist": True,
    "_maxSteps": 200,
    "rewTimeSum": 0.2,
    "rewDistSum": 0.15,
    "rewDeltaGoalContinueExp": -0.002,
    "rewDeltaGoalDiffGoal": -0.05,
    "_rewDeltaGoalStopGoal": -1,
    "rewDeltaGoalContinueGoalBetterOtherAgent": -0.01,
}


def make_env(overrides=None, base=None, seed=0):
    mapping = dict(base or {})
    mapping.update(overrides or {})
    return ParkingEnv(config_from_mapping(mapping), seed=seed)


def space_at(env, x, y):
    for sid, sp in enumerate(env.world.spaces):
        if sp.x == x and sp.y == y:
            return sid
    raise AssertionError(f"no space centered at ({x}, {y})")


def place(env, i, x, y, theta, v=0, goal="keep", refresh=True):
    """Test-only surgery: teleport an agent and rebuild its derived state."""
    agent = env.agents[i]
    agent.body.x, agent.body.y, agent.body.theta = x, y, theta
    agent.v = v
    if goal != "keep":
        agent.goal_space = goal
    env._look()  # the agent moved: a new view of the world
    if agent.tracker and refresh:
        agent.tracker.update(env.world.nearest_free_spaces(
            agent.tracker.n_space, env._seen)[i])
    if env.ring_spec:
        agent.cur_rings = env.world.ring_counts(env.ring_spec, env._seen)[i]
        # a fresh window: _ringNumPrevObs zero states
        agent.ring_history = ([(0,) * len(env.cfg.ringDiams)]
                              * env.cfg._ringNumPrevObs)
    agent.prev_goal_distance = env._goal_distance(agent)
    env._sense()  # the nearest-car lists and the space table


def still(env, delta_g=None):
    return [ActionTuple(0, 0, delta_g if a.tracker else None)
            for a in env.agents]


# ----------------------------------------------------------------- spawning


def test_reset_spawns_on_road_with_goal():
    env = make_env(seed=3)
    agent = env.agents[0]
    assert (agent.body.x, agent.body.y) in set(ROAD_POINTS)
    assert agent.v == 0
    assert agent.goal_space in env.world.free_space_ids()
    assert agent.episode_step == 0


def test_fixed_goals_are_distinct_free_spaces():
    for seed in range(20):
        env = make_env({"_numAgents": 2}, seed=seed)
        goals = [a.goal_space for a in env.agents]
        assert None not in goals
        assert goals[0] != goals[1]
        free = set(env.world.free_space_ids())
        assert set(goals) <= free


def test_dynamic_mode_spawns_exploring():
    env = make_env(base=DYNAMIC, seed=1)
    assert all(a.goal_space is None for a in env.agents)


def test_spawn_respects_min_distance():
    env = make_env({"_numAgents": 3, "_numParkedCars": 8}, seed=11)
    for trial in range(30):
        env._respawn(0)
        body = env.agents[0].body
        for car in env.world.all_cars()[1:]:  # column 0 is agent 0
            assert math.hypot(car.x - body.x, car.y - body.y) >= 4.5


def test_a_spawn_exactly_the_minimum_distance_from_a_car_is_legal():
    # 12 MDP units are 6 world units at the default position granularity
    env = make_env({"_numAgents": 2, "carSpawnMinDistance": 12}, seed=0)
    a, b = env.agents[0].body, env.agents[1].body
    a.x, a.y, a.theta = 37.0, 37.0, 0
    b.x, b.y, b.theta = 43.0, 37.0, 0  # the hitboxes are 1 unit apart
    assert env._spawn_legal(b, 1)
    b.x = 42.5  # still clear of a's hitbox, but too close
    assert not env._spawn_legal(b, 1)


def test_crowded_respawn_failure_names_agent_and_tries():
    # 14 parked cars and a 13-unit spawn clearance leave the road almost
    # full: on this seed a respawn in the middle of a run finds no spot
    env = make_env({"_numAgents": 3, "_numParkedCars": 14}, base=PPO_FIXED,
                   seed=0)
    rng = random.Random(0)
    with pytest.raises(RuntimeError, match=(
            r"could not find a legal spawn position for agent 2 "
            r"in 200 plain-spawn tries")):
        for _ in range(400):
            env.step_all([ActionTuple(rng.randint(-2, 2), rng.randint(-3, 3))
                          for _ in env.agents])
    assert env.stats["episodes"] > 0  # it failed mid-run, not in reset


def test_spawn_close_lands_near_goal():
    env = make_env({"spawnCloseRatio": 1.0, "spawnCrashRatio": 0.0}, seed=5)
    for trial in range(30):
        env._respawn(0)
        agent = env.agents[0]
        sp = env.world.spaces[agent.goal_space]
        d = math.hypot(sp.x - agent.body.x, sp.y - agent.body.y)
        assert d <= env.cfg._spawnCloseDist


def test_spawn_close_with_no_road_in_reach_spawns_plainly():
    """Every road point lies at least 6.5 units from every space centre,
    so a 6-unit close radius finds no point near the goal: the close
    scheme gives up before drawing, and the plain spawn places the agent
    anywhere on the road."""
    env = make_env({"spawnCloseRatio": 1.0, "_spawnCloseDist": 6}, seed=5)
    sp = env.world.spaces[env.agents[0].goal_space]
    assert not env._spawn_plain(0, near=(sp.x, sp.y), radius=6.0)
    env._respawn(0)
    agent = env.agents[0]
    assert (agent.body.x, agent.body.y, agent.body.theta,
            agent.goal_space) == (28.0, 10.0, 0, 29)
    assert (agent.body.x, agent.body.y) in set(ROAD_POINTS)


def test_crash_spawn_position_frozen_example():
    env = make_env(seed=0)

    class FixedU:
        def uniform(self, a, b):
            return 0.5

    env.rng = FixedU()
    got = env.spawn_crash_position((0.0, 0.0), (0.0, 10.0), (5.0, 5.0))
    assert got == (-5.0, 5.0, 0.0, 5.0)


def test_crash_spawn_equidistant_from_crash_point():
    rng = random.Random(17)
    env = make_env(seed=0)
    for trial in range(100):
        a2 = (rng.uniform(5, 69), rng.uniform(5, 69))
        g2 = (rng.uniform(5, 69), rng.uniform(5, 69))
        g1 = (rng.uniform(5, 69), rng.uniform(5, 69))
        got = env.spawn_crash_position(a2, g2, g1)
        if got is None:
            continue
        x, y, cx, cy = got
        d1 = math.hypot(x - cx, y - cy)
        d2 = math.hypot(a2[0] - cx, a2[1] - cy)
        assert d1 == pytest.approx(d2, rel=1e-12)
        # crash point sits strictly inside the a2 -> g2 segment
        seg = math.hypot(g2[0] - a2[0], g2[1] - a2[1])
        assert 0 < math.hypot(cx - a2[0], cy - a2[1]) < seg


def test_crash_spawn_degenerate_geometry_fails():
    env = make_env(seed=0)
    assert env.spawn_crash_position((5.0, 5.0), (5.0, 5.0), (9.0, 9.0)) is None


def test_crash_spawn_integration_deterministic():
    env = make_env({"_numAgents": 2, "spawnCrashRatio": 1.0}, seed=2)
    sid_target = space_at(env, 17.0, 3.5)
    sid_g1 = space_at(env, 22.0, 3.5)
    place(env, 1, 17.0, 24.0, 0, goal=sid_target)

    class Scripted:
        def uniform(self, a, b):
            return 0.5

        def choice(self, seq):
            return seq[0]

    env.rng = Scripted()
    assert env._spawn_crash(0, sid_g1)
    body = env.agents[0].body
    # oracle: crash=(17,13.75), d2=10.25, a1=crash+d2*unit(crash-g1)
    cx, cy = 17.0, 13.75
    d2 = 10.25
    gx, gy = cx - 22.0, cy - 3.5
    norm = math.hypot(gx, gy)
    raw = (cx + d2 * gx / norm, cy + d2 * gy / norm)
    assert (body.x, body.y) == env.grid.snap(*raw)
    want_theta = round_half_up(
        bearing_index_units(cx - raw[0], cy - raw[1], env.grid)) % 8
    assert body.theta == want_theta


def test_crash_spawn_needs_distant_target():
    # 30 MDP units are 15 world units at the default position granularity
    env = make_env({"_numAgents": 2, "spawnCrashRatio": 1.0,
                    "spawnCrashTargetAgentMinDist": 30.0}, seed=2)
    sid = space_at(env, 17.0, 3.5)
    aim = space_at(env, 22.0, 3.5)
    # target agent too close to its goal: not a valid crash target
    place(env, 1, 17.0, 15.5, 0, goal=sid)  # 12.0 away, below 15.0
    assert not env._spawn_crash(0, aim)
    env._respawn(0)  # no crash target: the spawn falls back to plain
    body = env.agents[0].body
    assert (body.x, body.y) in ROAD_POINTS
    place(env, 1, 17.0, 24.0, 0, goal=sid)  # 20.5 away
    assert env._spawn_crash(0, aim)


def test_crash_spawn_under_dynamic_goals_draws_its_own_aim():
    """A respawn under dynamic goals holds no goal, so the crash scheme
    draws the space it aims from among the free ones not held by another
    agent; the agent still spawns exploring."""
    env = make_env({"spawnCrashRatio": 1.0}, base=DYNAMIC, seed=7)
    # the target agent holds a goal 20.5 units away, beyond the 5.0 minimum
    place(env, 1, 17.0, 24.0, 0, goal=space_at(env, 17.0, 3.5))
    assert env._spawn_crash(0, None)
    body = env.agents[0].body
    assert (body.x, body.y, body.theta) == (14.5, 15.5, 1)
    assert env.agents[0].goal_space is None


# ----------------------------------------------------------- motion and crash


def test_step_applies_clamped_velocity_and_heading():
    env = make_env(seed=4)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 30.0, 30.0, 2, goal=sid)  # heading east at G8
    out = env.step_all([ActionTuple(1, 0)])[0]
    agent = env.agents[0]
    assert agent.v == 1
    assert (agent.body.x, agent.body.y) == (31.0, 30.0)
    assert out.terminal is None
    out = env.step_all([ActionTuple(1, 0)])[0]  # clamped at vmax=1
    assert agent.v == 1
    assert (agent.body.x, agent.body.y) == (32.0, 30.0)
    assert env.agents[0].episode_step == 2


def test_rotation_applies_before_translation():
    env = make_env(seed=4)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 30.0, 30.0, 0, goal=sid)
    env.step_all([ActionTuple(1, 1)])
    agent = env.agents[0]
    assert agent.body.theta == 1
    # moved along the post-rotation 45 degree heading, snapped to half units
    assert (agent.body.x, agent.body.y) == env.grid.snap(
        30.0 + math.sqrt(0.5), 30.0 + math.sqrt(0.5))


def test_wall_crash_reward_and_respawn():
    env = make_env(seed=6)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 30.0, 2.8, 4, goal=sid)  # nose 0.3 from the bottom wall
    out = env.step_all([ActionTuple(1, 0)])[0]
    assert out.terminal == "crashed"
    assert out.crash_kind == "wall"
    assert out.reward == -10.0
    assert env.stats["crashed"] == 1 and env.stats["crash_wall"] == 1
    # respawned fresh
    assert env.agents[0].episode_step == 0
    assert env.agents[0].v == 0


def test_parked_car_crash_kind():
    env = make_env({"_numParkedCars": 16}, seed=8)
    car = env.world.parked[0]
    place(env, 0, car.x, car.y + 6.0, 4, goal=env.agents[0].goal_space)
    out = env.step_all([ActionTuple(1, 0)])[0]
    assert out.terminal == "crashed"
    assert out.crash_kind == "parked-car"
    assert env.stats["crash_parked"] == 1


def test_agent_agent_crash_hits_both():
    env = make_env({"_numAgents": 2}, seed=9)
    g0, g1 = (a.goal_space for a in env.agents)
    place(env, 0, 30.0, 30.0, 2, goal=g0)
    place(env, 1, 35.0, 30.0, 6, goal=g1)  # facing each other, 5 apart
    outs = env.step_all([ActionTuple(1, 0), ActionTuple(1, 0)])
    assert [o.terminal for o in outs] == ["crashed", "crashed"]
    assert all(o.crash_kind == "agent-car" for o in outs)
    assert env.stats["crash_agent"] == 2
    assert env.stats["episodes"] == 2


def test_timeout_is_halt():
    env = make_env(seed=10)
    outs = None
    for k in range(env.cfg._maxSteps):
        outs = env.step_all([ActionTuple(0, 0)])[0]
        if k < env.cfg._maxSteps - 1:
            assert outs.terminal is None
    assert outs.terminal == "timeout"
    assert outs.episode_steps == env.cfg._maxSteps
    assert env.stats["halted"] == 1


def test_action_domain_is_enforced():
    env = make_env(seed=0)
    with pytest.raises(ValueError):
        env.step_all([ActionTuple(2, 0)])
    with pytest.raises(ValueError):
        env.step_all([ActionTuple(0, -2)])
    with pytest.raises(ValueError):
        env.step_all([ActionTuple(0, 0, 1)])  # fixed goals take no goal action
    dyn = make_env(base=DYNAMIC, seed=0)
    with pytest.raises(ValueError):
        dyn.step_all([ActionTuple(0, 0, None), ActionTuple(0, 0, 0)])
    with pytest.raises(ValueError):
        dyn.step_all([ActionTuple(0, 0, 3), ActionTuple(0, 0, 0)])
    with pytest.raises(ValueError):
        dyn.step_all([ActionTuple(0, 0, 0)])  # one action for two agents


# -------------------------------------------------------------------- parking


def test_park_at_center_pays_full_reward():
    env = make_env({"_numParkedCars": 4, "rewReachGoal": 3.0}, seed=12)
    sid = space_at(env, 22.0, 3.5)
    assert sid in env.world.free_space_ids()
    sp = env.world.spaces[sid]
    place(env, 0, sp.x, sp.y, sp.theta, v=0, goal=sid)
    parked_before = len(env.world.parked)
    out = env.step_all([ActionTuple(0, 0)])[0]
    assert out.terminal == "parked"
    assert out.reward == 3.0  # no velocity or heading penalty configured
    assert out.velocity == 0
    assert env.stats["parked"] == 1
    # the freed-up space got refilled by the relocated parked car
    assert len(env.world.parked) == parked_before
    assert sid in env.world.occupied_space_ids()


def test_park_reward_velocity_and_heading_penalties():
    env = make_env({"_numParkedCars": 0, "rewFinalVelocitySum": 0.25,
                    "rewDeltaThetaSum": 0.05}, seed=12)
    sid = space_at(env, 22.0, 3.5)
    sp = env.world.spaces[sid]
    # enter the space from one unit north, driving south at full speed
    place(env, 0, sp.x, sp.y + 1.0, 4, v=1, goal=sid)
    out = env.step_all([ActionTuple(0, 0)])[0]
    assert out.terminal == "parked"
    delta = abs(4 - sp.theta) % 8
    delta = min(delta, 8 - delta)
    want = 10.0 - 0.25 * 1.0 / 1.0 - 0.05 * delta / 4.0
    assert out.reward == pytest.approx(want, rel=1e-12)
    assert out.velocity == 1


def test_reverse_park_pays_the_velocity_penalty():
    # parking needs no velocity condition, so a car can park reversing;
    # it pays for its speed, |v|, like a car that parks driving forward
    env = make_env({"_numParkedCars": 0, "rewFinalVelocitySum": 0.25,
                    "_maxVelocityMagnitude": 2}, seed=12)
    sid = space_at(env, 22.0, 3.5)
    sp = env.world.spaces[sid]
    # back into the space from one unit south, facing south
    place(env, 0, sp.x, sp.y - 1.0, 4, v=-1, goal=sid)
    out = env.step_all([ActionTuple(0, 0)])[0]
    assert out.terminal == "parked"
    assert out.velocity == -1
    assert out.reward == 10.0 - 0.25 * 1 / 2  # speed bound max(2, 1)
    # a reverse bound of 3 above the forward bound of 1 sets the bound
    env = make_env({"_numParkedCars": 0, "rewFinalVelocitySum": 0.5,
                    "_minVelocityMagnitude": 3}, seed=12)
    place(env, 0, sp.x, sp.y - 3.0, 4, v=-3, goal=sid)  # three units south
    out = env.step_all([ActionTuple(0, 0)])[0]
    assert out.terminal == "parked"
    assert out.velocity == -3
    assert out.reward == 10.0 - 0.5  # 0.5 * |-3| / max(1, 3)


def test_park_threshold_is_closed():
    env = make_env(seed=12)
    sid = space_at(env, 22.0, 3.5)
    sp = env.world.spaces[sid]
    place(env, 0, sp.x, sp.y + 1.0, sp.theta, v=0, goal=sid)  # exactly 1.0
    assert env.step_all([ActionTuple(0, 0)])[0].terminal == "parked"


def test_no_park_beyond_threshold_or_with_corner_out():
    env = make_env(seed=12)
    sid = space_at(env, 22.0, 3.5)
    sp = env.world.spaces[sid]
    place(env, 0, sp.x, sp.y + 1.5, sp.theta, v=0, goal=sid)
    assert env.step_all([ActionTuple(0, 0)])[0].terminal is None
    # diagonal heading pokes the corners out of the 5x7 space
    place(env, 0, sp.x, sp.y, (sp.theta + 1) % 8, v=0, goal=sid)
    assert env.step_all([ActionTuple(0, 0)])[0].terminal is None


def test_other_spaces_do_not_park():
    env = make_env(seed=12)
    goal = space_at(env, 22.0, 3.5)
    other = env.world.spaces[space_at(env, 27.0, 3.5)]
    place(env, 0, other.x, other.y, other.theta, v=0, goal=goal)
    out = env.step_all([ActionTuple(0, 0)])[0]
    assert out.terminal is None


def test_crash_wins_over_park():
    env = make_env({"_numAgents": 2}, seed=13)
    g0 = env.agents[0].goal_space
    sp = env.world.spaces[g0]
    place(env, 0, sp.x, sp.y, sp.theta, v=0, goal=g0)
    place(env, 1, sp.x, sp.y + 4.0, 4, v=0,
          goal=env.agents[1].goal_space)  # overlapping hitboxes
    outs = env.step_all([ActionTuple(0, 0), ActionTuple(0, 0)])
    assert outs[0].terminal == "crashed"
    assert outs[0].crash_kind == "agent-car"
    assert env.stats["parked"] == 0


# --------------------------------------------------------------- dense reward


def test_dense_reward_time_only_while_exploring():
    env = make_env({"rewDeltaGoalContinueExp": 0.0}, base=DYNAMIC, seed=14)
    place(env, 0, 30.0, 30.0, 0, goal=None)
    place(env, 1, 50.0, 50.0, 0, goal=None)
    outs = env.step_all(still(env, delta_g=0))
    assert outs[0].reward == pytest.approx(-0.2 / 200, rel=1e-12)
    assert outs[0].transition == "ContinueExplore"


def test_dense_reward_movement_bonus():
    env = make_env(base=PPO_FIXED, seed=15)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 17.0, 20.0, 12, goal=sid)  # heading south at G24
    out = env.step_all([ActionTuple(1, 0)])[0]
    assert env.agents[0].v == 1
    assert env.agents[0].body.y == pytest.approx(19.75)
    assert out.reward == pytest.approx(-0.2 / 200 + 0.15 / 200, rel=1e-12)
    assert out.moved_toward_goal == 1


def test_dense_reward_away_and_reverse_penalties():
    env = make_env(base=PPO_FIXED, seed=15)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 17.0, 20.0, 12, goal=sid)
    out = env.step_all([ActionTuple(-1, 0)])[0]  # backs away from the goal
    assert env.agents[0].v == -1
    assert out.reward == pytest.approx(-(0.2 + 0.15 + 0.1) / 200, rel=1e-12)
    assert out.moved_toward_goal == -1


def test_dense_reward_smoothness_penalty():
    env = make_env(base=PPO_FIXED, seed=15)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 17.0, 20.0, 12, goal=sid)
    out = env.step_all([ActionTuple(0, 3)])[0]  # spin in place at full rate
    assert out.reward == pytest.approx(-0.2 / 200 - 0.05 / 200, rel=1e-12)
    assert out.moved_toward_goal == 0  # distance unchanged

    scaled = make_env({"_rewDeltaThetaVelMult": True}, base=PPO_FIXED, seed=15)
    place(scaled, 0, 17.0, 20.0, 12, goal=space_at(scaled, 17.0, 3.5))
    # v stays 0: no scaled penalty
    out = scaled.step_all([ActionTuple(0, 3)])[0]
    assert out.reward == pytest.approx(-0.2 / 200, rel=1e-12)

    # scaled by |v| over the speed bound, here the reverse bound 3
    scaled = make_env({"_minVelocityMagnitude": 3, "rewDeltaThetaSum": 0.1,
                       "_rewDeltaThetaVelMult": True, "rewDistSum": 0.0},
                      seed=15)
    place(scaled, 0, 37.0, 37.0, 0, v=-2)
    # a full-rate turn reversing at 2
    out = scaled.step_all([ActionTuple(0, 1)])[0]
    assert out.terminal is None
    assert out.reward == pytest.approx(-0.5 / 85 - 0.1 / 85 * 2 / 3,
                                       rel=1e-12)

    # no angular velocity to normalize by: the penalty is skipped
    no_turn = make_env({"_maxDeltaThetaMagnitude": 0,
                        "rewDeltaThetaSum": 0.1}, seed=15)
    place(no_turn, 0, 37.0, 37.0, 0, v=0)
    out = no_turn.step_all([ActionTuple(0, 0)])[0]
    assert out.reward == pytest.approx(-0.5 / 85, rel=1e-12)


# ------------------------------------------------------------ goal transitions


def dyn_env(overrides=None, seed=20):
    env = make_env(overrides, base=DYNAMIC, seed=seed)
    place(env, 0, 17.0, 20.0, 4, goal=None)
    place(env, 1, 50.0, 50.0, 0, goal=None)
    return env


def test_goal_transition_stop_explore_takes_tracked_space():
    env = dyn_env()
    slot0 = env.agents[0].tracker.slots[0]
    outs = env.step_all([ActionTuple(0, 0, 1), ActionTuple(0, 0, 0)])
    assert env.agents[0].goal_space == slot0
    assert outs[0].transition == "StopExplore"
    assert outs[0].transition_reward == 0.0
    assert env.stats["transition_StopExplore"] == 1


def test_goal_transition_continue_and_change_and_stop():
    env = dyn_env()
    env.step_all([ActionTuple(0, 0, 1), ActionTuple(0, 0, 0)])
    s1 = env.agents[0].goal_space
    outs = env.step_all([ActionTuple(0, 0, 1), ActionTuple(0, 0, 0)])
    assert outs[0].transition == "ContinueGoal"
    assert outs[0].transition_reward == 0.0
    assert env.agents[0].goal_space == s1
    outs = env.step_all([ActionTuple(0, 0, 2), ActionTuple(0, 0, 0)])
    assert outs[0].transition == "ChangeGoal"
    assert outs[0].transition_reward == -0.05
    assert env.agents[0].goal_space == env.agents[0].tracker.slots[1]
    outs = env.step_all([ActionTuple(0, 0, 0), ActionTuple(0, 0, 0)])
    assert outs[0].transition == "StopGoal"
    # sentinel -1 mirrors the change-goal reward
    assert outs[0].transition_reward == -0.05
    assert env.agents[0].goal_space is None


def test_goal_transition_explicit_stop_goal_reward():
    env = dyn_env({"_rewDeltaGoalStopGoal": -0.3})
    env.step_all([ActionTuple(0, 0, 1), ActionTuple(0, 0, 0)])
    outs = env.step_all([ActionTuple(0, 0, 0), ActionTuple(0, 0, 0)])
    assert outs[0].transition_reward == pytest.approx(-0.3)


def test_goal_transition_empty_slot_means_explore():
    env = dyn_env()
    env.step_all([ActionTuple(0, 0, 1), ActionTuple(0, 0, 0)])
    env.agents[0].tracker.slots[1] = None  # surgery: second slot empty
    outs = env.step_all([ActionTuple(0, 0, 2), ActionTuple(0, 0, 0)])
    assert env.agents[0].goal_space is None
    assert outs[0].transition == "StopGoal"


def test_continue_exploring_reward():
    env = dyn_env()
    outs = env.step_all([ActionTuple(0, 0, 0), ActionTuple(0, 0, 0)])
    assert outs[0].transition == "ContinueExplore"
    assert outs[0].transition_reward == pytest.approx(-0.002)


def test_prev_goal_distance_resets_on_new_goal():
    # taking a goal and moving toward it pays the movement bonus immediately
    env = make_env(base=DYNAMIC, seed=21)
    place(env, 0, 17.0, 12.0, 4, goal=None)  # facing south toward bottom row
    place(env, 1, 50.0, 50.0, 0, goal=None)
    slot0 = env.agents[0].tracker.slots[0]
    sp = env.world.spaces[slot0]
    assert sp.y == 3.5  # nearest free space is in the bottom row
    outs = env.step_all([ActionTuple(1, 0, 1), ActionTuple(0, 0, 0)])
    assert env.agents[0].goal_space == slot0
    assert outs[0].moved_toward_goal == 1
    assert outs[0].reward == pytest.approx(-0.2 / 200 + 0.15 / 200, rel=1e-12)


# ------------------------------------------------------------ give-way contexts


def test_context_membership_tracked_other():
    env = dyn_env(seed=22)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 17.0, 12.0, 4, goal=sid)
    place(env, 1, 17.0, 7.5, 4, goal=sid)  # tracked, closer, same goal
    m = env.context_membership(0)
    assert m[("L", "S")] and m[("L", "A")]
    assert m[("G", "S")] and m[("G", "A")]
    assert not m[("G+", "S")] and not m[("G+", "A")]
    # the closer agent has nobody better than itself
    assert not any(env.context_membership(1).values())


def test_context_membership_untracked_other():
    env = dyn_env({"_obsNearbyCarsDiameter": 10}, seed=22)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 17.0, 13.5, 4, goal=sid)
    place(env, 1, 17.0, 6.0, 4, goal=sid)  # 7.5 away: outside the car fov
    m = env.context_membership(0)
    assert not m[("L", "S")] and not m[("L", "A")]
    assert m[("G", "S")] and m[("G", "A")]
    assert m[("G+", "S")] and m[("G+", "A")]


def test_context_membership_any_vs_same_goal():
    env = dyn_env(seed=22)
    sid = space_at(env, 17.0, 3.5)
    other_sid = space_at(env, 22.0, 3.5)
    place(env, 0, 17.0, 12.0, 4, goal=sid)
    place(env, 1, 17.0, 7.5, 4, goal=other_sid)
    m = env.context_membership(0)
    assert not m[("L", "S")] and m[("L", "A")]
    assert not m[("G", "S")] and m[("G", "A")]


def test_context_requires_strictly_closer():
    env = dyn_env(seed=22)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 12.0, 3.5, 2, goal=sid)
    place(env, 1, 22.0, 3.5, 6, goal=sid)  # both exactly 5.0 away
    assert not any(env.context_membership(0).values())
    assert not any(env.context_membership(1).values())


def test_context_empty_while_exploring():
    env = dyn_env(seed=22)
    assert env.context_membership(0) == {}


def test_context_hierarchy_fuzz():
    env = make_env({"_numAgents": 4}, base=DYNAMIC, seed=23)
    rng = random.Random(23)
    sids = list(range(len(env.world.spaces)))
    for trial in range(200):
        for i in range(4):
            place(env, i, rng.uniform(10, 64), rng.uniform(10, 64),
                  rng.randrange(8), goal=rng.choice([None] + sids))
        for i in range(4):
            m = env.context_membership(i)
            if not m:
                continue
            assert not (m[("L", "S")] and not m[("L", "A")])
            assert not (m[("L", "S")] and not m[("G", "S")])
            assert not (m[("L", "A")] and not m[("G", "A")])
            assert not (m[("G", "S")] and not m[("G", "A")])
            assert not (m[("G+", "S")] and not m[("G", "S")])
            assert not (m[("G+", "A")] and not m[("G", "A")])
            assert not (m[("G+", "S")] and m[("L", "S")])
            assert not (m[("G+", "A")] and m[("L", "A")])


def test_conformity_counting():
    env = dyn_env(seed=24)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 17.0, 13.5, 4, goal=sid)
    place(env, 1, 17.0, 7.5, 4, goal=sid)
    keep0 = env.agents[0].tracker.slot_of(sid) + 1
    keep1 = env.agents[1].tracker.slot_of(sid) + 1
    outs = env.step_all([ActionTuple(0, 0, keep0), ActionTuple(0, 0, keep1)])
    for name in ("LocalSameGoal", "LocalAnyGoal", "GlobalSameGoal",
                 "GlobalAnyGoal"):
        assert env.stats[f"gave_way_{name}_total"] == 1
        assert env.stats[f"gave_way_{name}_pos"] == 0
        assert outs[0].gave_way[name] is False
    assert env.stats["gave_way_NonLocalSameGoal_total"] == 0
    # second tick: giving the goal up counts as a positive everywhere
    keep1 = env.agents[1].tracker.slot_of(sid) + 1
    outs = env.step_all([ActionTuple(0, 0, 0), ActionTuple(0, 0, keep1)])
    assert outs[0].gave_way["GlobalSameGoal"] is True
    for name in ("LocalSameGoal", "LocalAnyGoal", "GlobalSameGoal",
                 "GlobalAnyGoal"):
        assert env.stats[f"gave_way_{name}_total"] == 2
        assert env.stats[f"gave_way_{name}_pos"] == 1


def test_bad_goal_punishment_same_goal_scheme():
    env = dyn_env({"_punishBetterOtherGoalAgent": True}, seed=25)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 17.0, 13.5, 4, goal=sid)
    place(env, 1, 17.0, 7.5, 4, goal=sid)
    keep0 = env.agents[0].tracker.slot_of(sid) + 1
    keep1 = env.agents[1].tracker.slot_of(sid) + 1
    outs = env.step_all([ActionTuple(0, 0, keep0), ActionTuple(0, 0, keep1)])
    assert outs[0].transition == "ContinueGoal"
    assert outs[0].transition_reward == pytest.approx(-0.01)
    assert outs[1].transition_reward == 0.0


def test_bad_goal_needs_matching_goal_under_same_scheme():
    env = dyn_env({"_punishBetterOtherGoalAgent": True}, seed=25)
    sid = space_at(env, 17.0, 3.5)
    other_sid = space_at(env, 22.0, 3.5)
    place(env, 0, 17.0, 13.5, 4, goal=sid)
    place(env, 1, 17.0, 7.5, 4, goal=other_sid)
    keep0 = env.agents[0].tracker.slot_of(sid) + 1
    keep1 = env.agents[1].tracker.slot_of(other_sid) + 1
    outs = env.step_all([ActionTuple(0, 0, keep0), ActionTuple(0, 0, keep1)])
    assert outs[0].transition_reward == 0.0


# a distinct value in every goal-transition reward field, so a swapped or
# dropped field shows; per category, the field it pays
GOAL_REWARDS = {
    "rewDeltaGoalContinueExp": -0.011,
    "rewDeltaGoalStopExp": 0.013,
    "rewDeltaGoalContinueGoal": 0.017,
    "rewDeltaGoalDiffGoal": -0.019,
    "_rewDeltaGoalStopGoal": -0.023,
    "rewDeltaGoalContinueGoalBetterOtherAgent": -0.029,
}
CATEGORY_REWARD = {
    "ContinueExplore": "rewDeltaGoalContinueExp",
    "StopExplore": "rewDeltaGoalStopExp",
    "StopGoal": "_rewDeltaGoalStopGoal",
    "ChangeGoal": "rewDeltaGoalDiffGoal",
    "ContinueGoal": "rewDeltaGoalContinueGoal",
}
# agent 1's pose and goal, against agent 0 at (17, 13.5) with its goal the
# space at (17, 3.5), 10 away: closer to that space, untracked (the car
# field of view reaches 5) with the same goal; closer, tracked, with
# another goal; far away and exploring
OTHER_AGENT = {
    "untracked-same-goal": ((17.0, 6.0), (17.0, 3.5)),
    "tracked-other-goal": ((21.0, 12.0), (22.0, 3.5)),
    "far": ((50.0, 50.0), None),
}
# per give-way scheme (_punishBetterOtherAgentLocal,
# _punishBetterOtherGoalAgent): where agent 1 makes agent 0's goal bad
BAD_GOAL = {
    (True, True): set(),
    (True, False): {"tracked-other-goal"},
    (False, True): {"untracked-same-goal"},
    (False, False): {"untracked-same-goal", "tracked-other-goal"},
}


@pytest.mark.parametrize("scheme", list(BAD_GOAL),
                         ids=["local-same", "local-any", "global-same",
                              "global-any"])
def test_goal_transition_reward_table(scheme):
    """Every transition category pays its own field, and a kept goal pays
    the better-other-agent punishment exactly where the scheme says."""
    local, same_goal = scheme
    for category, field in CATEGORY_REWARD.items():
        for other, ((x, y), other_goal) in OTHER_AGENT.items():
            env = make_env({**GOAL_REWARDS, "_obsNearbyCarsDiameter": 10,
                            "_punishBetterOtherAgentLocal": local,
                            "_punishBetterOtherGoalAgent": same_goal},
                           base=DYNAMIC, seed=20)
            sid = space_at(env, 17.0, 3.5)
            place(env, 1, x, y, 4,
                  goal=other_goal and space_at(env, *other_goal))
            place(env, 0, 17.0, 13.5, 4,
                  goal=None if category.endswith("Explore") else sid)
            tracked = 1 in env.agents[0].nearby
            assert tracked == (other == "tracked-other-goal")
            slots = env.agents[0].tracker.slots
            delta_g = {
                "ContinueExplore": 0, "StopExplore": 1, "StopGoal": 0,
                "ContinueGoal": slots.index(sid) + 1,
                "ChangeGoal": next(k for k, s in enumerate(slots)
                                   if s not in (None, sid)) + 1,
            }[category]
            outs = env.step_all([ActionTuple(0, 0, delta_g),
                                 ActionTuple(0, 0, 0)])
            paid = field
            if category == "ContinueGoal" and other in BAD_GOAL[scheme]:
                paid = "rewDeltaGoalContinueGoalBetterOtherAgent"
            assert outs[0].transition == category, (category, other)
            assert outs[0].transition_reward == GOAL_REWARDS[paid], other


# ------------------------------------------------------------------ lost goals


def test_goal_lost_when_it_leaves_tracking():
    env = make_env({"_obsNearbyParkingSpotsCount": 1}, base=DYNAMIC, seed=26)
    place(env, 0, 17.0, 20.0, 0, goal=None)
    place(env, 1, 40.0, 40.0, 0, goal=None)
    env.step_all([ActionTuple(0, 0, 1), ActionTuple(0, 0, 0)])
    taken = env.agents[0].goal_space
    assert taken is not None
    # teleport across the arena: a different space becomes the tracked one
    place(env, 0, 60.0, 60.0, 0, refresh=False)
    outs = env.step_all([ActionTuple(0, 0, 1), ActionTuple(0, 0, 0)])
    assert outs[0].lost_goal
    assert env.agents[0].goal_space is None
    assert env.stats["lost_goal"] == 1


def test_goal_lost_when_relocation_fills_it():
    env = make_env({"_numParkedCars": 16}, base=DYNAMIC, seed=27)
    sid = None
    for cand in env.world.free_space_ids():
        sp = env.world.spaces[cand]
        if sp.y == 3.5:
            sid = cand
            break
    assert sid is not None
    sp = env.world.spaces[sid]
    place(env, 1, sp.x, sp.y, sp.theta, goal=sid)
    place(env, 0, sp.x, sp.y + 10.0, 4, goal=sid)
    keep0 = env.agents[0].tracker.slot_of(sid) + 1
    keep1 = env.agents[1].tracker.slot_of(sid) + 1
    outs = env.step_all([ActionTuple(0, 0, keep0), ActionTuple(0, 0, keep1)])
    assert outs[1].terminal == "parked"
    assert sid in env.world.occupied_space_ids()
    assert outs[0].lost_goal
    assert env.agents[0].goal_space is None
    assert len(env.world.parked) == 16


# --------------------------------------------------- occupancy and relocation


def test_random_run_preserves_parked_count():
    env = make_env({"_numAgents": 3, "_numParkedCars": 16},
                   base=DYNAMIC, seed=28)
    rng = random.Random(28)
    n_space = env.cfg._obsNearbyParkingSpotsCount
    for step in range(400):
        actions = [
            ActionTuple(rng.randint(-1, 1), rng.randint(-1, 1),
                        rng.randint(0, n_space))
            for _ in env.agents
        ]
        env.step_all(actions)
        assert len(env.world.parked) == 16
        occupied = env.world.occupied_space_ids()
        assert len(occupied) == 16  # one space per parked car
        for car, sid in zip(env.world.parked, env.world.parked_space):
            sp = env.world.spaces[sid]
            assert (car.x, car.y, car.theta) == (sp.x, sp.y, sp.theta)
    assert env.stats["episodes"] > 0


def test_episode_reward_accounting():
    env = make_env(seed=29)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 17.0, 12.0, 4, goal=sid)
    total = 0.0
    steps = 0
    while True:
        out = env.step_all([ActionTuple(1, 0)])[0]
        total += out.reward
        steps += 1
        if out.terminal:
            break
    assert out.terminal == "parked"
    assert out.episode_steps == steps
    assert out.episode_reward == pytest.approx(total, rel=1e-12)
    assert out.ratio_toward_goal == 1.0


def test_ratio_toward_goal_zero_when_fleeing():
    env = make_env(seed=30)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 17.0, 60.0, 0, goal=sid)  # drives north, goal in the south
    while True:
        out = env.step_all([ActionTuple(1, 0)])[0]
        if out.terminal:
            break
    assert out.terminal == "crashed"
    assert out.ratio_toward_goal == 0.0


# ------------------------------------------------------------- relocation


def test_caches_invalidate_on_relocation():
    # a parked car relocated by a park shows in the ring counts at once
    env = make_env({"_numParkedCars": 16, "_obsRings": True,
                    "_ringMaxNumObjTrack": 3, "_rd0": 14, "_rd1": 11,
                    "_ringOnlyWall": False}, seed=32)
    sid = next(s for s in env.world.free_space_ids()
               if env.world.spaces[s].y == 3.5)
    sp = env.world.spaces[sid]
    probe = (sp.x, sp.y + 6.0)
    place(env, 0, *probe, 0)
    [before] = env.world.ring_counts(env.ring_spec, WorldArrays(env.world))
    place(env, 0, sp.x, sp.y, sp.theta, v=0, goal=sid)
    out = env.step_all([ActionTuple(0, 0)])[0]
    assert out.terminal == "parked"  # a parked car moved into the space
    place(env, 0, *probe, 0)
    [after] = env.world.ring_counts(env.ring_spec, WorldArrays(env.world))
    assert env.agents[0].cur_rings == after
    assert after != before  # a parked car now sits within the probe rings


def test_lone_car_counts_wall_rings_every_tick():
    # a lone agent with fixed goals and no parked cars senses nothing else,
    # so the tick has no array view; its rings still count the walls
    env = make_env({"_numParkedCars": 0, "_obsRings": True,
                    "_ringMaxNumObjTrack": 3, "_rd0": 40, "_rd1": 10,
                    "_ringOnlyWall": False}, seed=5)
    place(env, 0, 10.0, 10.0, 0)
    assert env.agents[0].cur_rings == (2, 0)  # the bottom and left walls
    out = env.step_all([ActionTuple(0, 0)])[0]
    assert out.terminal is None
    assert env.agents[0].cur_rings == (2, 0)


def test_ring_history_holds_the_counts_of_earlier_ticks():
    """Stepping fills the history: each ring{i}-prev{h} feature reads that
    ring's count h ticks earlier, and 0 before the episode began."""
    env = make_env({"_obsRings": True, "_ringMaxNumObjTrack": 4,
                    "ringDiams": [55, 57, 59, 61], "_ringOnlyWall": True,
                    "_ringNumPrevObs": 2, "_maxSteps": 200}, seed=5)
    # drive south toward the bottom wall, one ring more inside per tick
    place(env, 0, 37.0, 31.0, 4, v=1)
    seen = [env.agents[0].cur_rings]
    names = [f.name for f in env.schema.features]
    for t in range(1, 5):
        assert env.step_all([ActionTuple(0, 0)])[0].terminal is None
        seen.append(env.agents[0].cur_rings)
        obs = dict(zip(names, env.observe(0)))
        for h in range(3):
            tag = "" if h == 0 else f"-prev{h}"
            want = seen[t - h] if t >= h else (0,) * 4
            assert tuple(obs[f"ring{i}{tag}"] for i in range(4)) == want
    assert seen == [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1),
                    (1, 1, 1, 1)]


def test_a_respawn_starts_the_episode_from_the_defaults():
    """After a terminal, the respawned agent's episode counters, speed and
    ring window are back at an episode's start: the window holds
    _ringNumPrevObs zero states."""
    env = make_env({"_obsRings": True, "_ringMaxNumObjTrack": 4,
                    "ringDiams": [55, 61], "_ringOnlyWall": True,
                    "_ringNumPrevObs": 3, "_maxSteps": 3}, seed=5)
    place(env, 0, 37.0, 27.0, 4)  # both rings reach the bottom wall
    old = env.agents[0]
    for _ in range(2):
        assert env.step_all([ActionTuple(1, 0)])[0].terminal is None
    assert (old.episode_step, old.v) == (2, 1)
    assert old.episode_reward != 0.0
    assert old.ring_history == [(1, 1), (1, 1), (0, 0)]
    out = env.step_all([ActionTuple(1, 0)])[0]
    assert (out.terminal, out.episode_steps) == ("timeout", 3)
    agent = env.agents[0]
    assert agent.body is env.world.agents[0]
    assert (agent.v, agent.episode_step, agent.episode_reward) == (0, 0, 0.0)
    assert (agent.steps_exploring, agent.steps_toward_goal,
            agent.steps_toward_space_exploring) == (0, 0, 0)
    assert agent.ring_history == [(0, 0)] * 3
    names = [f.name for f in env.schema.features]
    obs = dict(zip(names, env.observe(0)))
    assert [obs[f"ring{i}-prev{h}"] for h in (1, 2, 3) for i in (0, 1)] \
        == [0] * 6


@pytest.mark.xfail(strict=True, reason=(
    "reset counts each agent's rings while the later agents are not placed "
    "yet; fixing it moves the ring configs' digests"))
def test_reset_rings_count_every_placed_agent():
    env = ParkingEnv(config_from_mapping(
        {"_numAgents": 4, "_obsRings": True, "_ringMaxNumObjTrack": 9,
         "_rd0": 40}), seed=0)
    # the first rings read [(2,), (3,), (2,), (2,)]
    assert [a.cur_rings for a in env.agents] == env.world.ring_counts(
        env.ring_spec, WorldArrays(env.world))  # [(4,), (4,), (2,), (2,)]


# ---------------------------------------------------------------------- views


def count_views(monkeypatch):
    """The worlds of the views the env builds from now on, one per view."""
    import carpark.env

    built = []
    view = carpark.env.WorldArrays
    monkeypatch.setattr(carpark.env, "WorldArrays",
                        lambda world: built.append(world) or view(world))
    return built


def test_a_tick_builds_one_view_and_one_per_respawn(monkeypatch):
    """The world moves once in a tick and once in each respawn, and the
    env builds one view per world state: the sensing pass at the end of
    the tick reuses the last."""
    env = make_env({"_numAgents": 3, "_numParkedCars": 4}, seed=9)
    built = count_views(monkeypatch)
    outs = env.step_all(still(env))
    assert [o.terminal for o in outs] == [None, None, None]
    assert built == [env.world]
    g0, g1 = env.agents[0].goal_space, env.agents[1].goal_space
    place(env, 0, 30.0, 30.0, 2, goal=g0)
    place(env, 1, 35.0, 30.0, 6, goal=g1)  # facing each other, 5 apart
    built.clear()
    outs = env.step_all([ActionTuple(1, 0), ActionTuple(1, 0),
                         ActionTuple(0, 0)])
    assert [o.terminal for o in outs] == ["crashed", "crashed", None]
    assert len(built) == 1 + 2


def test_reset_builds_one_view_per_agent(monkeypatch):
    """Each placement moves a car; the sensing pass at the end of reset
    reads the last placement's view."""
    env = make_env({"_numAgents": 4, "_numParkedCars": 6,
                    "_obsNearbyCars": True, "_obsNearbyCarsCount": 2,
                    "_obsNearbyCarsDiameter": 300, "_normalizeObs": True},
                   seed=3)
    built = count_views(monkeypatch)
    env.reset()
    assert len(built) == 4
    assert all(agent.nearby for agent in env.agents)


def test_a_lone_car_with_fixed_goals_builds_no_view(monkeypatch):
    """A lone car with fixed goals has nothing else to sense: its rings
    count the walls alone, and the nearest car is the arena diagonal."""
    built = count_views(monkeypatch)
    env = make_env({"_obsRings": True, "_ringMaxNumObjTrack": 3,
                    "_rd0": 40}, seed=5)
    for _ in range(100):
        env.step_all([ActionTuple(1, 1)])
    assert env.stats["episodes"] > 0  # respawns build none either
    assert built == []
    assert env._seen is None and env.nearest_car_distance(0) == D_MAX


def test_rng_and_seed_together_are_refused():
    # the seed was ignored: rng=Random(1), seed=2 gave the rng's world
    with pytest.raises(ValueError, match="^ParkingEnv takes an rng or a "
                                         "seed, not both$"):
        ParkingEnv(EnvironmentConfig(), rng=random.Random(1), seed=2)


# -------------------------------------------------------------- observations


def test_observe_matches_schema_everywhere():
    for base, seed in ((PPO_FIXED, 40), (DYNAMIC, 41), (None, 42)):
        env = make_env(base=base, seed=seed)
        rng = random.Random(seed)
        for step in range(30):
            actions = []
            for agent in env.agents:
                dg = rng.randint(0, 2) if agent.tracker else None
                actions.append(ActionTuple(
                    rng.randint(-env.cfg.max_reverse_accel,
                                env.cfg._maxDeltaVMagnitude),
                    rng.randint(-env.cfg._maxDeltaThetaMagnitude,
                                env.cfg._maxDeltaThetaMagnitude),
                    dg))
            env.step_all(actions)
            for i in range(len(env.agents)):
                obs = env.observe(i)
                assert len(obs) == len(env.schema.features)


def test_observe_own_goal_slot_and_shared_goal():
    env = dyn_env(seed=43)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 17.0, 12.0, 4, goal=sid)
    place(env, 1, 17.0, 7.5, 4, goal=sid)
    names = [f.name for f in env.schema.features]
    obs0 = env.observe(0)
    slot = env.agents[0].tracker.slot_of(sid)
    n_space = env.cfg._obsNearbyParkingSpotsCount
    assert obs0[names.index("own-goal-slot")] == pytest.approx(
        (slot + 1) / n_space)
    # the other agent's goal read through my own tracking slots
    other_slot = env.agents[0].tracker.slot_of(sid)
    assert obs0[names.index("car0-goal-slot")] == pytest.approx(
        (other_slot + 1) / (n_space + 1))
    # exploring agents read slot zero
    place(env, 1, 17.0, 7.5, 4, goal=None)
    obs0 = env.observe(0)
    assert obs0[names.index("car0-goal-slot")] == 0.0


def test_observe_space_distances_carry_global_info():
    env = dyn_env(seed=44)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 17.0, 13.5, 4, goal=None)   # 10 from the space
    place(env, 1, 17.0, 7.5, 4, goal=sid)     # 4 from the space
    slot = env.agents[0].tracker.slot_of(sid)
    assert slot is not None
    names = [f.name for f in env.schema.features]
    obs = env.observe(0)
    assert obs[names.index(f"space{slot}-nearest-agent")] == pytest.approx(
        4.0 / D_MAX)
    assert obs[names.index(f"space{slot}-nearest-goal-agent")] == pytest.approx(
        4.0 / D_MAX)
    # with nobody aiming at it the goal-agent channel reads the sentinel
    place(env, 1, 17.0, 7.5, 4, goal=None)
    obs = env.observe(0)
    assert obs[names.index(f"space{slot}-nearest-goal-agent")] == 1.0


STEP_EVENT_DEFAULTS = {
    "reward": 0.0, "terminal": None, "crash_kind": None, "lost_goal": False,
    "transition": None, "transition_reward": 0.0, "gave_way": None,
    "velocity": 0, "omega": 0, "moved_toward_goal": 0,
    "episode_steps": 0, "episode_reward": 0.0,
    "ratio_explore": None, "ratio_toward_goal": None,
    "ratio_toward_space_exploring": None,
}


def test_step_events_defaults_are_per_instance():
    """A fresh StepOutcome reads every documented default; a field set on
    one instance changes neither another instance nor the class."""
    assert set(StepOutcome.__annotations__) == set(STEP_EVENT_DEFAULTS)

    def values(obj):
        return {k: (type(getattr(obj, k)), getattr(obj, k))
                for k in STEP_EVENT_DEFAULTS}

    want = {k: (type(v), v) for k, v in STEP_EVENT_DEFAULTS.items()}
    a, b = StepOutcome(), StepOutcome()
    assert values(a) == values(b) == values(StepOutcome) == want
    for k in STEP_EVENT_DEFAULTS:
        setattr(a, k, "set")
    a.gave_way = {"LocalAnyGoal": True}
    assert values(b) == values(StepOutcome) == values(StepOutcome()) == want
    assert a.gave_way == {"LocalAnyGoal": True} and a.terminal == "set"


def test_observe_localizes_each_pair_once(monkeypatch):
    """One observe localizes the own goal, every nearby car and every other
    tracked space once: the tracked slot that holds the own goal reuses the
    goal's pose."""
    import carpark.env

    env = dyn_env(seed=43)
    sid = space_at(env, 17.0, 3.5)
    place(env, 0, 17.0, 12.0, 4, goal=sid)
    agent = env.agents[0]
    slot = agent.tracker.slot_of(sid)
    filled = [s for s in agent.tracker.slots if s is not None]
    assert slot is not None and len(filled) > 1 and agent.nearby
    calls = []
    localize = carpark.env.localize
    monkeypatch.setattr(carpark.env, "localize",
                        lambda *args: calls.append(args) or localize(*args))
    obs = env.observe(0)
    assert len(calls) == 1 + len(agent.nearby) + (len(filled) - 1)
    names = [f.name for f in env.schema.features]
    sp = env.world.spaces[sid]
    assert obs[names.index(f"space{slot}-distance")] == (
        localize(agent.body, sp, env.grid)[0] / D_MAX)


def test_basic_discrete_observation_roundtrip():
    env = make_env(seed=45)
    from carpark.observation import encode_state

    dims = env.schema.discrete_dims()
    assert dims == [3, 8]
    for step in range(40):
        env.step_all([ActionTuple(random.Random(step).randint(-1, 1),
                                  random.Random(step + 1).randint(-1, 1))])
        obs = env.observe(0)
        idx = encode_state(dims, obs)
        assert 0 <= idx < 24


def test_nearest_car_distance():
    env = make_env(seed=46)  # no parked cars, single agent
    assert env.nearest_car_distance(0) == pytest.approx(D_MAX)
    env2 = make_env({"_numAgents": 2, "_numParkedCars": 4}, seed=46)
    place(env2, 0, 30.0, 30.0, 0)
    want = min(
        math.hypot(c.x - 30.0, c.y - 30.0)
        for c in env2.world.all_cars()[1:])  # column 0 is agent 0
    assert env2.nearest_car_distance(0) == pytest.approx(want)


def test_nearest_cars_of_a_reset_world_tie_by_column():
    # reset puts the agents first: agent 1 is column 1, parked car k is
    # column 2 + k, and three cars 10 units from agent 0 sort by column
    env = make_env({"_numAgents": 2, "_numParkedCars": 2, "_obsNearbyCars": True,
                    "_obsNearbyCarsCount": 3, "_obsNearbyCarsDiameter": 300,
                    "_normalizeObs": True}, seed=48)
    parked = env.world.parked
    for car, x, y in [(env.agents[0].body, 37.0, 37.0),
                      (env.agents[1].body, 37.0, 47.0),
                      (parked[0], 47.0, 37.0), (parked[1], 27.0, 37.0)]:
        car.x, car.y = x, y
    env._look()
    env._sense()
    assert env.agents[0].nearby == [1, 2, 3]


def side_by_side_contacts(env):
    """Agent contacts with agents 0 and 1 parked side by side, 3.2 apart."""
    g0, g1 = (a.goal_space for a in env.agents)
    place(env, 0, 30.0, 30.0, 0, goal=g0)
    place(env, 1, 33.2, 30.0, 0, goal=g1)
    return env.world.agent_contacts(WorldArrays(env.world))


def test_set_car_scale_grows_hitboxes():
    env = make_env({"_numAgents": 2}, seed=47)
    assert side_by_side_contacts(env) == []
    env.set_car_scale(1.3)
    assert side_by_side_contacts(env) == [(0, 1)]


def test_reset_keeps_car_scale():
    env = make_env({"_numAgents": 2}, seed=47)
    env.set_car_scale(1.3)
    env.reset()
    assert env.world.scale == 1.3
    assert side_by_side_contacts(env) == [(0, 1)]


def test_same_seed_same_trajectory():
    def run(seed):
        env = make_env({"_numAgents": 2, "_numParkedCars": 8}, seed=seed)
        rng = random.Random(99)
        trace = []
        for step in range(120):
            actions = [ActionTuple(rng.randint(-1, 1), rng.randint(-1, 1))
                       for _ in env.agents]
            env.step_all(actions)
            trace.append(tuple((a.body.x, a.body.y, a.body.theta, a.v)
                               for a in env.agents))
        return trace, dict(env.stats)

    t1, s1 = run(5)
    t2, s2 = run(5)
    assert t1 == t2 and s1 == s2
