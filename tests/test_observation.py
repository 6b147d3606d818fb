"""Observation schema, assembly, and action flattening."""

import math

import pytest

from carpark.config import config_from_mapping
from carpark.env import ParkingEnv
from carpark.observation import (
    build_action_schema,
    build_observation,
    build_schema,
    decode_action,
    encode_state,
)

BASIC = config_from_mapping({})

PPO_FIXED = config_from_mapping({
    "_positionGranularity": 4, "_velocityGranularity": 4,
    "_thetaGranularity": 24, "_maxVelocityMagnitude": 4,
    "_minVelocityMagnitude": 2, "_maxDeltaVMagnitude": 2,
    "_maxDeltaThetaMagnitude": 3, "_normalizeObs": True,
    "_obsDist": True, "_obsGoalDeltaPose": True,
    "_obsRings": True, "_ringMaxNumObjTrack": 1, "_rd0": 11,
    "_ringOnlyWall": True, "_obsNearbyCars": True,
    "_obsNearbyCarsCount": 1, "_obsNearbyCarsDiameter": 300,
    "_obsNearbyCarsGoal": True, "_obsNearbyCarsVelocity": True,
})


def test_basic_dims_product_216():
    state = build_schema(BASIC).discrete_dims()
    action = build_action_schema(BASIC)
    assert state == [3, 8]
    assert action.branches == (3, 3)
    assert math.prod(state) * action.flat_size == 216


def test_ring_dims():
    cfg = config_from_mapping({
        "_obsRings": True, "_ringMaxNumObjTrack": 3,
        "ringDiams": [14, 11, 10, 7, 6],
    })
    assert build_schema(cfg).discrete_dims() == [3, 8] + [4] * 5
    cfg2 = config_from_mapping({
        "_obsRings": True, "_ringMaxNumObjTrack": 3,
        "ringDiams": [14, 11, 10, 7, 6], "_ringNumPrevObs": 1,
    })
    assert build_schema(cfg2).discrete_dims() == [3, 8] + [4] * 10


def test_continuous_features_rejected_in_discrete_mode():
    # the config refuses it, so no discrete schema holds an unsized feature
    with pytest.raises(ValueError, match="^feature car0-distance is "
                       "continuous-only .* set _normalizeObs$"):
        config_from_mapping({**PPO_FIXED.to_mapping(), "_normalizeObs": False})


def test_schema_deterministic():
    a = build_schema(PPO_FIXED)
    b = build_schema(config_from_mapping(PPO_FIXED.to_mapping()))
    assert a == b


def test_ppo_fixed_schema_layout():
    schema = build_schema(PPO_FIXED)
    names = [f.name for f in schema.features]
    assert names == [
        "velocity", "goal-distance", "goal-angle", "goal-delta-rotation",
        "ring0", "car0-distance", "car0-angle", "car0-delta-rotation",
        "car0-velocity", "car0-goal-distance", "car0-goal-angle",
        "car0-goal-delta-rotation",
    ]


def test_basic_discrete_observation():
    # velocity 0 sits at index 1 of its 3-value domain; angle index copied
    schema = build_schema(BASIC)
    assert build_observation(schema, BASIC, [0, 5.0], "discrete") == [1, 5]
    # 7.6 rounds up to 8 == 0 mod 8
    assert build_observation(schema, BASIC, [-1, 7.6], "discrete") == [0, 0]


def test_normalized_velocity_half():
    cfg = config_from_mapping(
        {"_maxVelocityMagnitude": 4, "_minVelocityMagnitude": 2,
         "_normalizeObs": True})
    schema = build_schema(cfg)
    obs = build_observation(schema, cfg, [2, 0.0], "normalized")
    assert obs[0] == 0.5
    obs = build_observation(schema, cfg, [-2, 0.0], "normalized")
    assert obs[0] == -0.5


def test_normalized_values_bounded():
    schema = build_schema(PPO_FIXED)
    raw = [4,                   # velocity
           104.0, 23.9, 12.0,   # goal
           1,                   # ring0
           150.0, 0.1, -12.0,   # car0
           -2,                  # car0 velocity
           104.6, 23.0, 5.0]    # car0 goal
    obs = build_observation(schema, PPO_FIXED, raw, "normalized")
    assert len(obs) == len(schema.features)
    for v, f in zip(obs, schema.features):
        lo = -1.0 if f.signed else 0.0
        assert lo <= v <= 1.0


def test_absent_slots_use_sentinel():
    # a lone agent: its one car slot stays empty
    cfg = config_from_mapping({**PPO_FIXED.to_mapping(), "_numAgents": 1,
                               "_numParkedCars": 0})
    env = ParkingEnv(cfg, seed=0)
    obs = env.observe(0)
    names = [f.name for f in env.schema.features]
    assert obs[names.index("car0-distance")] == 1.0
    assert obs[names.index("car0-angle")] == 0.0
    assert obs[names.index("car0-velocity")] == 0.0
    assert obs[names.index("car0-goal-distance")] == 1.0


def test_ring_history_zero_filled():
    cfg = config_from_mapping({
        "_obsRings": True, "_ringMaxNumObjTrack": 2,
        "ringDiams": [10, 6], "_ringNumPrevObs": 2,
    })
    schema = build_schema(cfg)
    obs = build_observation(schema, cfg, [0, 2.0, 2, 1, 1, 0, 0, 0],
                            "discrete")
    # velocity, angle, current(2), prev1(2), prev2 zero-filled(2)
    assert obs == [1, 2, 2, 1, 1, 0, 0, 0]
    # env.observe fills the history an episode has not reached yet
    env = ParkingEnv(cfg, seed=0)
    agent = env.agents[0]
    agent.cur_rings = (2, 1)
    agent.ring_history = [(1, 0)]
    assert env.observe(0)[2:] == [2, 1, 1, 0, 0, 0]


def two_agents(mapping: dict) -> ParkingEnv:
    return ParkingEnv(config_from_mapping(
        {**mapping, "_numAgents": 2, "_numParkedCars": 0}), seed=0)


def test_dynamic_goal_features():
    mapping = {
        "_dynamicGoals": True, "_obsNearbyParkingSpotsCount": 2,
        "_normalizeObs": True, "_obsNearbyCars": True,
        "_obsNearbyCarsCount": 1, "_obsNearbyCarsDiameter": 300,
        "_obsNearbyCarsGoal": True,
        "_obsParkingSpotClosestAgent": True,
        "_obsParkingSpotClosestGoalAgent": True,
    }
    schema = build_schema(config_from_mapping(mapping))
    names = [f.name for f in schema.features]
    assert "own-goal-slot" in names
    assert "car0-goal-slot" in names
    assert "space0-distance" in names and "space1-delta-rotation" in names
    assert "space0-nearest-agent" in names
    assert "space1-nearest-goal-agent" in names
    d_max = math.hypot(74, 74)
    env = two_agents(mapping)
    me, other = env.agents
    near_sid, goal_sid = 0, len(env.world.spaces) - 1
    near, goal = env.world.spaces[near_sid], env.world.spaces[goal_sid]
    # I sit on my goal in my second slot; the other agent explores 4 units
    # from the space in my first slot, which is nobody's goal
    me.goal_space, me.tracker.slots = goal_sid, [near_sid, goal_sid]
    me.body.x, me.body.y = goal.x, goal.y
    other.goal_space, other.tracker.slots = None, [near_sid, None]
    other.body.x, other.body.y = near.x, near.y + 4.0
    env._sense()
    obs = env.observe(0)
    assert obs[names.index("own-goal-slot")] == 1.0  # slot 2 of 2
    assert obs[names.index("car0-goal-slot")] == 0.0  # tracked car has no goal
    assert obs[names.index("space0-nearest-agent")] == pytest.approx(4.0 / d_max)
    assert obs[names.index("space0-nearest-goal-agent")] == 1.0  # empty set
    # the other agent's second slot is empty
    assert env.observe(1)[names.index("space1-distance")] == 1.0


def test_untracked_goal_sentinel_index():
    env = two_agents({
        "_dynamicGoals": True, "_obsNearbyParkingSpotsCount": 1,
        "_normalizeObs": True, "_obsNearbyCars": True,
        "_obsNearbyCarsCount": 2, "_obsNearbyCarsDiameter": 300,
        "_obsNearbyCarsGoal": True,
    })
    names = [f.name for f in env.schema.features]
    me, other = env.agents
    sid = 0
    me.goal_space, me.tracker.slots = None, [sid]
    other.goal_space = sid  # in my only slot: index 1
    obs = env.observe(0)
    # absent second slot reports the untracked sentinel n_space+1
    assert obs[names.index("car1-goal-slot")] == 1.0
    assert obs[names.index("car0-goal-slot")] == pytest.approx(0.5)


def test_out_of_domain_rejected():
    schema = build_schema(BASIC)
    with pytest.raises(ValueError, match="velocity"):
        build_observation(schema, BASIC, [5, 0.0], "discrete")


# ---------------------------------------------------------------- actions


def test_action_schema_branches():
    assert build_action_schema(BASIC).branches == (3, 3)
    assert build_action_schema(PPO_FIXED).branches == (5, 7)
    dyn = config_from_mapping({"_dynamicGoals": True, "_normalizeObs": True,
                               "_obsNearbyParkingSpotsCount": 1})
    assert build_action_schema(dyn).branches == (3, 3, 2)


def encode_action(schema, values):
    """Flat index of an action tuple, row-major: the inverse of
    decode_action, kept here as its oracle."""
    if len(values) != len(schema.branches):
        raise ValueError(
            f"expected {len(schema.branches)} action components, "
            f"got {len(values)}"
        )
    flat = 0
    for value, size, offset in zip(values, schema.branches, schema.offsets):
        idx = value + offset
        if not 0 <= idx < size:
            raise ValueError(f"action component {value} outside its branch")
        flat = flat * size + idx
    return flat


def test_encode_action_examples():
    schema = build_action_schema(BASIC)
    assert encode_action(schema, (-1, -1)) == 0
    assert encode_action(schema, (1, 1)) == 8
    assert encode_action(schema, (0, 1)) == 5


def test_action_roundtrip_exhaustive():
    for cfg in (BASIC, PPO_FIXED,
                config_from_mapping({"_dynamicGoals": True,
                                     "_normalizeObs": True,
                                     "_obsNearbyParkingSpotsCount": 2})):
        schema = build_action_schema(cfg)
        seen = set()
        for flat in range(schema.flat_size):
            tup = decode_action(schema, flat)
            assert encode_action(schema, tup) == flat
            seen.add(tup)
        assert len(seen) == schema.flat_size


def test_encode_action_bounds():
    schema = build_action_schema(BASIC)
    with pytest.raises(ValueError):
        encode_action(schema, (2, 0))
    with pytest.raises(ValueError):
        decode_action(schema, 9)
    with pytest.raises(ValueError):
        encode_action(schema, (0,))


def test_encode_state_row_major():
    assert encode_state([3, 8], [1, 5]) == 13
    assert encode_state([3, 8], [0, 0]) == 0
    assert encode_state([3, 8], [2, 7]) == 23
    with pytest.raises(ValueError):
        encode_state([3, 8], [3, 0])
