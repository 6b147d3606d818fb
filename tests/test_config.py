"""Parameter schema parsing and validation."""

import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carpark.config import (
    EnvironmentConfig,
    config_from_mapping,
    config_signature,
    load_config,
)
from carpark.env import ActionTuple, ParkingEnv


def test_empty_document_gives_defaults():
    cfg = load_config("")
    assert cfg._thetaGranularity == 8
    assert cfg._positionGranularity == 1
    assert cfg._velocityGranularity == 1
    assert cfg._maxVelocityMagnitude == 1
    assert cfg._minVelocityMagnitude == 1
    assert cfg._maxDeltaVMagnitude == 1
    assert cfg._maxDeltaThetaMagnitude == 1
    assert cfg._numAgents == 1
    assert cfg._numParkedCars == 0
    assert cfg._obsAngle is True
    assert cfg._obsDist is False
    assert cfg._obsRings is False
    assert cfg.ringDiams == ()
    assert cfg._maxSteps == 85
    assert cfg._spawnCloseDist == 10
    assert cfg.carSpawnMinDistance == 9
    assert cfg.spawnCrashTargetAgentMinDist == 10.0
    assert cfg.rewReachGoal == 10.0
    assert cfg.rewCrash == 10.0
    assert cfg.rewTimeSum == 0.5
    assert cfg.rewDistSum == 1.0
    assert cfg.rewReverseSum == 0.0
    assert cfg.carScaleTrain == 1.0
    # an unset deceleration bound stays unset and resolves to the
    # acceleration bound
    assert cfg._minDeltaVMagnitude is None
    assert cfg.max_reverse_accel == 1


def test_rd_fields_build_ring_diameters():
    cfg = load_config("_obsRings: true\n_ringMaxNumObjTrack: 1\n_rd0: 11\n")
    assert cfg.ringDiams == (11,)
    cfg = load_config(
        "_obsRings: true\n_ringMaxNumObjTrack: 3\n_rd0: 14\n_rd1: 11\n_rd2: 10\n"
    )
    assert cfg.ringDiams == (14, 11, 10)


def test_rd_overrides_explicit_list():
    cfg = config_from_mapping(
        {"_obsRings": True, "_ringMaxNumObjTrack": 1,
         "ringDiams": [14, 11], "_rd1": 9}
    )
    assert cfg.ringDiams == (14, 9)


def refused(kw, pattern):
    """Construction and config_from_mapping refuse kw alike, with one
    ValueError message that pattern matches."""
    with pytest.raises(ValueError, match=pattern) as direct:
        EnvironmentConfig(**kw)
    with pytest.raises(ValueError) as parsed:
        config_from_mapping(kw)
    assert str(parsed.value) == str(direct.value)


# each built a ParkingEnv when constructed directly, since only
# config_from_mapping validated
DIRECT_REFUSALS = [
    ({"rewCrash": math.nan}, "^rewCrash: must be finite, got nan$"),
    ({"_numAgents": 0}, "^_numAgents: must be >= 1$"),  # an env with no agents
    ({"_maxSteps": 0}, "^_maxSteps: must be >= 1$"),  # divides by zero
    ({"_obsRings": True}, "^ringDiams: must be non-empty"),
    ({"spawnCloseRatio": 2.0}, r"^spawnCloseRatio: must lie in \[0, 1\]$"),
    # the grid and the hitbox scale
    ({"_positionGranularity": -1}, "^_positionGranularity: must be >= 0$"),
    ({"_velocityGranularity": 0}, "^_velocityGranularity: must be >= 1$"),
    ({"carScaleTrain": 0.0}, "^carScaleTrain: must be > 0$"),
    # the arena diagonal over it overflowed in build_schema
    ({"_distGranularity": 2.2250738585072014e-308},
     "^_distGranularity: 2.22507e-308 gives the goal distance an infinite "
     "number of cells$"),
    # a value of the wrong type; each ran, or failed naming no field
    ({"_obsDist": "yes"}, "^_obsDist: must be a bool, got 'yes'$"),
    ({"_obsRings": 1, "ringDiams": (11,), "_ringMaxNumObjTrack": 1},
     "^_obsRings: must be a bool, got 1$"),
    ({"_maxSteps": 10.5}, "^_maxSteps: must be an int, got 10.5$"),
    ({"_numAgents": 2.5}, "^_numAgents: must be an int, got 2.5$"),
    ({"_numAgents": True}, "^_numAgents: must be an int, got True$"),
    ({"rewCrash": True}, "^rewCrash: must be an int or a float, got True$"),
    ({"_minDeltaVMagnitude": 1.5},
     "^_minDeltaVMagnitude: must be an int or None, got 1.5$"),
    ({"ringDiams": (11.5,), "_obsRings": True, "_ringMaxNumObjTrack": 1},
     r"^ringDiams\[0\]: must be an int, got 11.5$"),
]


def case_ids(cases):
    """Each case's first key, with its value's type name when the key
    has come before."""
    ids = []
    for kw, _ in cases:
        key = next(iter(kw))
        ids.append(f"{key}-{type(kw[key]).__name__}"
                   if any(i.split("-")[0] == key for i in ids) else key)
    return ids


@pytest.mark.parametrize("kw, pattern", DIRECT_REFUSALS,
                         ids=case_ids(DIRECT_REFUSALS))
def test_direct_construction_validates(kw, pattern):
    refused(kw, pattern)
    with pytest.raises(ValueError, match=pattern):
        replace(EnvironmentConfig(), **kw)


def test_config_is_frozen():
    cfg = EnvironmentConfig()
    with pytest.raises(FrozenInstanceError):
        cfg._numAgents = 0
    assert cfg == EnvironmentConfig()


def test_direct_construction_refuses_a_ring_list():
    with pytest.raises(ValueError, match="^ringDiams: must be a tuple, got list$"):
        EnvironmentConfig(_obsRings=True, _ringMaxNumObjTrack=1, ringDiams=[11])


def test_config_is_a_hashable_value_its_mapping_cannot_change():
    doc = {"_obsRings": True, "_ringMaxNumObjTrack": 2, "ringDiams": [14, 11]}
    cfg = config_from_mapping(doc)
    assert hash(cfg) == hash(config_from_mapping(doc))
    mapping = cfg.to_mapping()
    with pytest.raises(AttributeError):
        mapping["ringDiams"].append(-5)
    mapping.clear()
    assert cfg.ringDiams == (14, 11)
    assert cfg == config_from_mapping(doc)


def test_replace_keeps_an_unset_deceleration_bound_unset():
    """An unset bound is stored as None, so a changed acceleration bound
    moves it along, whether the config is replaced or re-parsed."""
    cfg = replace(EnvironmentConfig(), _maxDeltaVMagnitude=3)
    assert cfg == EnvironmentConfig(_maxDeltaVMagnitude=3)
    assert cfg.max_reverse_accel == 3
    parsed = config_from_mapping(
        {**EnvironmentConfig().to_mapping(), "_maxDeltaVMagnitude": 3})
    assert parsed == cfg
    assert EnvironmentConfig().to_mapping()["_minDeltaVMagnitude"] is None


# the schema's refusals, each naming the feature: a zero bound would divide
# by zero in every observe, and discrete mode cannot encode an unsized one
SCHEMA_REFUSALS = [
    ({"_obsNearbyCars": True, "_obsNearbyCarsCount": 1},
     "^feature car0-distance: normalization bound 0 must be positive"),
    ({"_normalizeObs": True, "_obsNearbyCars": True, "_obsNearbyCarsCount": 2},
     "^feature car0-distance: normalization bound 0 must be positive"),
    ({"_obsNearbyCars": True, "_obsNearbyCarsCount": 1,
      "_obsNearbyCarsDiameter": 300},
     "^feature car0-distance is continuous-only .* set _normalizeObs$"),
    ({"_dynamicGoals": True, "_obsNearbyParkingSpotsCount": 1},
     "^feature space0-distance is continuous-only"),
]


@pytest.mark.parametrize("kw, pattern", SCHEMA_REFUSALS,
                         ids=["zero-bound", "zero-bound-normalized",
                              "car-in-discrete", "space-in-discrete"])
def test_schema_refusals_name_the_feature(kw, pattern):
    refused(kw, pattern)


def test_rd_gap_rejected():
    with pytest.raises(ValueError, match="_rd2"):
        config_from_mapping({"_obsRings": True, "_ringMaxNumObjTrack": 1, "_rd2": 10})


def test_theta_must_divide_360():
    for theta in (7, 0, -8):
        refused({"_thetaGranularity": theta},
                f"^_thetaGranularity: {theta} does not divide 360$")
    assert load_config("_thetaGranularity: 24")._thetaGranularity == 24


@pytest.mark.parametrize("theta", [1, 2, 3, 5, 6, 10, 90])
def test_theta_must_be_a_multiple_of_the_space_orientations(theta):
    # each divides 360, but the arena's spaces face in quarter turns
    refused({"_thetaGranularity": theta},
            f"_thetaGranularity: {theta} .* 4 space orientations")


def test_parked_cars_must_fit_the_arena():
    refused({"_numParkedCars": 37, "_dynamicGoals": True},
            "_numParkedCars: 37 .* 36 spaces")


def test_fixed_goals_need_a_free_space_per_agent():
    refused({"_numAgents": 4, "_numParkedCars": 33},
            "^_numAgents \\+ _numParkedCars: 4 agents with fixed goals and "
            "33 parked cars exceed the arena's 36 spaces$")
    # dynamic goals hold no space, so only the parked cars must fit
    config_from_mapping({"_numAgents": 4, "_numParkedCars": 33,
                         "_dynamicGoals": True})


def test_fixed_goals_filling_every_space_run():
    """Agents plus parked cars equal to the spaces: each agent holds the
    one free space left for it at every respawn."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = config_from_mapping({"_numAgents": 4, "_numParkedCars": 32})
    run_random_ticks(cfg, seed=5)


# (mapping, the field its refusal names): each was accepted and then ran
# as if the value were 0, disabled a check, or failed later unnamed
NEGATIVE_REFUSALS = [
    ({"_obsNearbyCars": True, "_obsNearbyCarsCount": -1},
     "_obsNearbyCarsCount"),
    ({"_obsNearbyCars": True, "_obsNearbyCarsCount": 1,
      "_obsNearbyCarsDiameter": -300}, "_obsNearbyCarsDiameter"),
    ({"_obsRings": True, "_ringMaxNumObjTrack": 1, "ringDiams": (-10,)},
     "_rd0"),
    ({"_obsRings": True, "_ringMaxNumObjTrack": 1, "ringDiams": (11, 0)},
     "_rd1"),
    ({"_obsRings": True, "_ringMaxNumObjTrack": -1, "ringDiams": (11,)},
     "_ringMaxNumObjTrack"),
    ({"_obsRings": True, "_ringMaxNumObjTrack": 1, "ringDiams": (11,),
      "_ringNumPrevObs": -1}, "_ringNumPrevObs"),
    ({"spawnCloseRatio": 1.0, "_spawnCloseDist": -5}, "_spawnCloseDist"),
    ({"carSpawnMinDistance": -1}, "carSpawnMinDistance"),
    ({"_minDeltaVMagnitude": -1}, "_minDeltaVMagnitude"),
    ({"spawnCrashRatio": 0.5, "spawnCrashTargetAgentMinDist": -1.0},
     "spawnCrashTargetAgentMinDist"),
    ({"_dynamicGoals": True, "_obsNearbyParkingSpotsCount": -2},
     "_obsNearbyParkingSpotsCount"),
]


@pytest.mark.parametrize("doc, name", NEGATIVE_REFUSALS,
                         ids=[name for _, name in NEGATIVE_REFUSALS])
def test_negative_counts_and_distances_are_refused_by_name(doc, name):
    refused(doc, re.escape(name))


@pytest.mark.parametrize("name", ["_maxDeltaVMagnitude", "_ringNumPrevObs",
                                  "_obsNearbyCarsCount", "_spawnCloseDist",
                                  "carSpawnMinDistance"])
def test_only_the_deceleration_bound_may_be_none(name):
    with pytest.raises(ValueError, match=f"^{name}: must be an int, got None$"):
        EnvironmentConfig(**{name: None})


def test_unknown_field_rejected_with_path():
    with pytest.raises(ValueError, match="_obsAngel"):
        load_config("_obsAngel: true")


def test_never_read_keys_are_checked_and_dropped():
    ignored = {"_debugObs": True, "_visualiseNearbyCars": "false",
               "_numStepsTrain": 500000}
    cfg = config_from_mapping(ignored)
    assert not set(ignored) & set(cfg.to_mapping())
    for key, bad in (("_debugObs", 3), ("_visualiseNearbyCars", "maybe"),
                     ("_numStepsTrain", "many")):
        with pytest.raises(ValueError, match=f"^{key}: must be "):
            config_from_mapping({key: bad})


def test_type_mismatch_rejected_with_path():
    with pytest.raises(ValueError, match="^_numAgents: must be an int, got "
                       "'seven'$"):
        config_from_mapping({"_numAgents": "seven"})
    with pytest.raises(ValueError, match="^_obsDist: must be a bool, got 3$"):
        config_from_mapping({"_obsDist": 3})
    with pytest.raises(ValueError,
                       match="^_numParkedCars: must be an int, got True$"):
        config_from_mapping({"_numParkedCars": True})
    with pytest.raises(ValueError, match=r"^_rd0: must be an int, got 11\.5$"):
        config_from_mapping({"_obsRings": True, "_ringMaxNumObjTrack": 1,
                             "_rd0": 11.5})


@pytest.mark.parametrize("value", [5, "11", 11.0, None])
def test_a_ring_list_that_is_no_list_is_refused_by_name(value):
    """Refused by name, also beside an _rd key, whose merge must not
    split a string into its characters or iterate an int."""
    for rd in ({}, {"_rd0": 11}):
        with pytest.raises(ValueError, match="^ringDiams: must be a tuple, "
                           f"got {type(value).__name__}$"):
            config_from_mapping({"_obsRings": True, "_ringMaxNumObjTrack": 1,
                                 "ringDiams": value, **rd})


def test_a_float_field_holds_a_float_however_it_is_built():
    """An int given for a float field is stored as a float, so run.json
    records 10.0 whether the config was parsed or constructed."""
    for cfg in (EnvironmentConfig(rewCrash=10),
                replace(EnvironmentConfig(), rewCrash=10),
                config_from_mapping({"rewCrash": 10})):
        value = cfg.to_mapping()["rewCrash"]
        assert type(value) is float and value == 10.0
        assert json.dumps(cfg.to_mapping()) == json.dumps(
            config_from_mapping({"rewCrash": 10.0}).to_mapping())


def test_a_document_that_is_no_mapping_is_refused():
    for doc in ([1], "a", 3):
        with pytest.raises(ValueError, match="^environment parameters: "
                           f"expected a mapping, got {type(doc).__name__}$"):
            config_from_mapping(doc)
    with pytest.raises(ValueError, match="expected a mapping, got list"):
        load_config("- 1\n- 2\n")


def test_malformed_yaml_is_refused_with_its_cause():
    import yaml

    for text in ("a: [", "a: b: c", "{"):
        with pytest.raises(ValueError,
                           match="^environment parameters: malformed YAML"
                           ) as err:
            load_config(text)
        assert isinstance(err.value.__cause__, yaml.YAMLError)


def test_string_coercion():
    cfg = config_from_mapping(
        {"_numAgents": "7", "rewCrash": "1.5", "_obsDist": "true"}
    )
    assert cfg._numAgents == 7
    assert cfg.rewCrash == 1.5
    assert cfg._obsDist is True
    # an integral float reads as an int, a list as a tuple of read items
    cfg = config_from_mapping(
        {"_maxSteps": 60.0, "_minDeltaVMagnitude": 1.0, "_obsRings": True,
         "_ringMaxNumObjTrack": "1", "ringDiams": [14.0, "11"], "_rd2": 10.0,
         "spawnCloseRatio": "0.5", "_obsDist": "TRUE"})
    assert cfg == EnvironmentConfig(
        _maxSteps=60, _minDeltaVMagnitude=1, _obsRings=True,
        _ringMaxNumObjTrack=1, ringDiams=(14, 11, 10), spawnCloseRatio=0.5,
        _obsDist=True)
    for name in ("_maxSteps", "_minDeltaVMagnitude", "_ringMaxNumObjTrack"):
        assert type(getattr(cfg, name)) is int, name
    assert [type(d) for d in cfg.ringDiams] == [int, int, int]


def test_rings_flag_must_match_diameters():
    with pytest.raises(ValueError, match="ringDiams"):
        load_config("_obsRings: true")
    refused({"ringDiams": (11,)}, "ringDiams")


def test_ring_history_needs_rings():
    """A ring history without rings would be ignored, so it is refused by
    name, built directly or from a mapping; with rings it is kept."""
    refused({"_ringNumPrevObs": 2},
            "^_ringNumPrevObs: must be 0 when _obsRings is unset$")
    rings = {"_obsRings": True, "_ringMaxNumObjTrack": 1, "ringDiams": (11,)}
    assert EnvironmentConfig(**rings, _ringNumPrevObs=2)._ringNumPrevObs == 2
    assert EnvironmentConfig(_ringNumPrevObs=0)._ringNumPrevObs == 0


def test_stop_goal_reward_sentinel():
    cfg = config_from_mapping(
        {"_dynamicGoals": True, "_rewDeltaGoalStopGoal": -1,
         "rewDeltaGoalDiffGoal": -0.05}
    )
    assert cfg.stop_goal_reward == -0.05
    cfg = config_from_mapping({"_rewDeltaGoalStopGoal": -0.3})
    assert cfg.stop_goal_reward == -0.3


def test_min_delta_v_explicit():
    cfg = config_from_mapping({"_maxDeltaVMagnitude": 2, "_minDeltaVMagnitude": 1})
    assert cfg.max_reverse_accel == 1
    # null reads as unset, as to_mapping writes an unset bound
    cfg = config_from_mapping({"_maxDeltaVMagnitude": 2, "_minDeltaVMagnitude": None})
    assert cfg._minDeltaVMagnitude is None
    assert cfg.max_reverse_accel == 2


def test_default_config_is_the_empty_mapping_and_parses_back():
    default = EnvironmentConfig()
    assert default == config_from_mapping({})
    assert config_from_mapping(default.to_mapping()) == default
    # an unset deceleration bound takes the acceleration bound it is built with
    cfg = config_from_mapping({"_maxDeltaVMagnitude": 3})
    assert cfg == EnvironmentConfig(_maxDeltaVMagnitude=3)
    assert cfg.max_reverse_accel == 3
    assert config_from_mapping(cfg.to_mapping()) == cfg


def test_try_parameter_is_carried():
    cfg = config_from_mapping({"try": 3})
    assert cfg.try_ == 3
    assert cfg.to_mapping()["try"] == 3
    assert "try_" not in cfg.to_mapping()


def test_mdp_unit_conversion():
    cfg = config_from_mapping({"_positionGranularity": 4})
    assert cfg.mdp_to_world(210) == pytest.approx(13.125)
    cfg = config_from_mapping({})
    assert cfg.mdp_to_world(9) == 4.5


def test_grid_and_ring_spec_derivation():
    cfg = config_from_mapping(
        {"_positionGranularity": 4, "_velocityGranularity": 4,
         "_thetaGranularity": 24, "_obsRings": True,
         "_ringMaxNumObjTrack": 1, "_rd0": 11, "_ringOnlyWall": True}
    )
    g = cfg.grid()
    assert g.position_granularity == 4
    assert g.velocity_granularity == 4
    assert g.theta_granularity == 24
    rs = cfg.ring_spec()
    assert rs.diameters == (11.0,)
    assert rs.max_count == 1
    assert rs.walls_only is True
    assert config_from_mapping({}).ring_spec() is None


def test_positive_goal_transition_rewards_warn_under_dynamic_goals():
    for key in ("rewDeltaGoalContinueExp", "rewDeltaGoalDiffGoal"):
        with pytest.warns(UserWarning, match="expected to be punishments"):
            config_from_mapping({"_dynamicGoals": True, key: 0.1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # punishments, or fixed goals, where no goal transition pays
        config_from_mapping({"_dynamicGoals": True, "rewDistSum": 0.0,
                             "rewDeltaGoalContinueExp": -0.1,
                             "rewDeltaGoalDiffGoal": 0.0})
        config_from_mapping({"rewDistSum": 0.0, "rewDeltaGoalContinueExp": 0.1,
                             "rewDeltaGoalDiffGoal": 0.1})


def test_too_many_parked_cars_is_a_warning():
    with pytest.warns(UserWarning, match="^_numParkedCars=36 leaves no free "
                      "space in the 36-space arena; goals cannot be assigned$"):
        config_from_mapping({"_numParkedCars": 36, "_dynamicGoals": True})


def test_movement_reward_dominating_time_is_a_warning():
    with pytest.warns(UserWarning,
                      match="^rewDistSum=0.75 >= rewTimeSum=0.25: per-step "):
        config_from_mapping({"rewDistSum": 0.75, "rewTimeSum": 0.25})
    # below the time punishment, or no movement reward at all
    for dist, time in ((0.15, 0.2), (0.6, 0.7), (-0.1, -0.2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config_from_mapping({"rewDistSum": dist, "rewTimeSum": time})
        assert not any("rewDistSum" in str(w.message) for w in caught)


FLOAT_FIELDS = [f.name for f in fields(EnvironmentConfig) if f.type == "float"]


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf,
    pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400")])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_floats_are_refused_by_name(name, value):
    """A NaN or infinite float field was accepted, and the run then went
    on with a meaningless value (an infinite distance granularity encodes
    every goal distance as 0, a NaN crash-target distance turns crash
    spawns off) or failed later without the field's name (a NaN reward at
    the first crash). An int beyond the float range failed with an
    OverflowError that named no field, also when read from YAML."""
    refused({name: value}, f"^{re.escape(name)}: must be finite")
    if isinstance(value, int):
        with pytest.raises(ValueError, match=f"^{re.escape(name)}: must be "
                                             "finite, got -?inf$"):
            load_config(f"{name}: {value}")


def test_invalid_ratio_rejected():
    refused({"spawnCloseRatio": 1.5}, "spawnCloseRatio")


def test_signature_covers_observation_shape_fields():
    a = config_from_mapping({})
    b = config_from_mapping({"_thetaGranularity": 24})
    assert config_signature(a) != config_signature(b)
    c = config_from_mapping({"rewCrash": 2.0})
    assert config_signature(a) == config_signature(c)
    # an unset deceleration bound signs as the bound it resolves to
    for max_dv in (1, 2):
        unset = config_from_mapping({"_maxDeltaVMagnitude": max_dv})
        for min_dv in (1, 2):
            explicit = config_from_mapping({"_maxDeltaVMagnitude": max_dv,
                                            "_minDeltaVMagnitude": min_dv})
            assert ((config_signature(unset) == config_signature(explicit))
                    == (min_dv == max_dv)), (max_dv, min_dv)


def test_signature_covers_slot_meaning_fields():
    # same observation width, different meaning: the car field of view
    # (and its distance normalizer), and whether rings count cars
    base = {"_obsRings": True, "_ringMaxNumObjTrack": 2, "_rd0": 11,
            "_obsNearbyCars": True, "_obsNearbyCarsCount": 1,
            "_obsNearbyCarsDiameter": 300, "_normalizeObs": True}
    a = config_from_mapping(base)
    for key, value in (("_obsNearbyCarsDiameter", 100),
                       ("_ringOnlyWall", True)):
        b = config_from_mapping({**base, key: value})
        assert config_signature(a) != config_signature(b), key


def test_round_trip_is_idempotent():
    doc = {"_thetaGranularity": 24, "_obsRings": True,
           "_ringMaxNumObjTrack": 2, "_rd0": 11, "spawnCloseRatio": 0.2}
    cfg = config_from_mapping(doc)
    again = config_from_mapping(cfg.to_mapping())
    assert again == cfg


def test_importing_the_package_leaves_yaml_unloaded():
    """PyYAML loads only when load_config parses a document, and numpy
    not with the config, the environment or the metrics: the export path
    reads run directories without it."""
    code = (
        "import sys\n"
        "import carpark.config, carpark.env, carpark.metrics\n"
        "assert 'numpy' not in sys.modules, 'numpy imported with metrics'\n"
        "import carpark.qlearning, carpark.ppo\n"
        "assert 'yaml' not in sys.modules, 'yaml imported with the package'\n"
        "from carpark.config import load_config\n"
        "cfg = load_config('_numAgents: 3\\n_obsDist: true\\n')\n"
        "assert (cfg._numAgents, cfg._obsDist) == (3, True)\n"
        "assert 'yaml' in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# every config field by its declared type, as config_from_mapping coerces it
FIELD_KINDS = {("try" if f.name == "try_" else f.name): f.type
               for f in fields(EnvironmentConfig)}
INTS = st.one_of(st.integers(-1, 12), st.sampled_from([24, 36, 90, 300]))
RING_LISTS = st.lists(st.integers(-1, 120), max_size=3)
KIND_VALUES = {
    "bool": st.booleans(),
    "int": INTS,
    "int | None": st.one_of(st.none(), INTS),
    "float": st.one_of(st.floats(-1.0, 20.0, allow_nan=False),
                       st.sampled_from([0.0, 0.5, 1.0])),
    "tuple[int, ...]": st.one_of(RING_LISTS, RING_LISTS.map(tuple)),
}


@st.composite
def config_mappings(draw):
    """A mapping of some config fields, each drawn by its kind."""
    keys = draw(st.lists(st.sampled_from(sorted(FIELD_KINDS)), unique=True,
                         max_size=16))
    return {key: draw(KIND_VALUES[FIELD_KINDS[key]]) for key in keys}


@settings(max_examples=300, deadline=None)
@given(config_mappings())
def test_accepted_config_round_trips_through_json(doc):
    """What run.json records of a config rebuilds it: equal, and hashing
    alike."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            cfg = config_from_mapping(doc)
        except ValueError:
            return
        again = config_from_mapping(json.loads(json.dumps(cfg.to_mapping())))
    assert again == cfg
    assert hash(again) == hash(cfg)


def run_random_ticks(cfg, seed, ticks=30):
    """Build and reset an env, then observe every agent and step them all
    with random legal actions, ticks times."""
    rng = random.Random(seed)
    env = ParkingEnv(cfg, seed=seed)
    env.reset()
    schema = env.action_schema
    for _ in range(ticks):
        for i in range(len(env.agents)):
            env.observe(i)
        env.step_all([
            ActionTuple(*(rng.randrange(size) - offset for size, offset
                          in zip(schema.branches, schema.offsets)))
            for _ in env.agents])


# what config_from_mapping must refuse itself: more parked cars than
# spaces, no free space for a fixed goal, a zero normalization bound and a
# continuous-only feature in discrete mode
ARENA_REFUSALS = re.compile("larger than population|no free parking space|"
                            "normalization bound|continuous-only")


@settings(max_examples=150, deadline=None)
@example({"_normalizeObs": True, "_obsNearbyCars": True,
          "_obsNearbyCarsCount": 2}, 0)
@example({"_obsNearbyCars": True, "_obsNearbyCarsCount": 2,
          "_obsNearbyCarsDiameter": 300, "_obsNearbyCarsVelocity": True,
          "_obsNearbyCarsGoal": True, "_dynamicGoals": True,
          "_obsNearbyParkingSpotsCount": 2,
          "_obsParkingSpotClosestAgent": True}, 0)
@example({"_thetaGranularity": 6}, 0)
@example({"_numParkedCars": 40}, 0)
@example({"_numAgents": 4, "_numParkedCars": 33}, 0)
@given(config_mappings(), st.integers(0, 1 << 16))
def test_accepted_config_runs_or_fails_with_a_named_error(doc, seed):
    """In each observation mode, a config is rejected with ValueError (and
    the other mode still runs), or it builds, resets, observes and steps
    every agent for 30 random ticks, or it fails with a ValueError or
    RuntimeError whose message names the cause (no legal spawn position).
    A config the arena cannot hold, or whose schema the observation mode
    cannot encode, is never accepted."""
    for normalize in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                cfg = config_from_mapping({**doc, "_normalizeObs": normalize})
            except ValueError:
                continue
        try:
            run_random_ticks(cfg, seed)
        except (ValueError, RuntimeError) as err:
            assert str(err), f"{type(err).__name__} without a message"
            assert not ARENA_REFUSALS.search(str(err)), f"accepted, then {err}"
