"""Environment parameter schema, parsing, and validation.

Parameter names follow the environment's native config vocabulary verbatim
(including the leading-underscore names), so config files written for one
toolchain stay readable in the other. Distances are expressed in three
scales: world units, velocity-grid quanta, and MDP units (world units times
2^_positionGranularity); each field notes its scale where it matters.

A config is a value: `EnvironmentConfig` is frozen and checks its inputs
once, at construction; only its properties derive values from them. Only
`config_from_mapping` reads text: it turns a string into its field's type,
an integral float into an int for an int field and a list into a tuple,
and leaves every other value as given. Construction alone refuses, with a
ValueError naming the field, so a bad value gets one message however the
config is built. A float field holds a float. `config_from_mapping` also
warns about the soft constraints a valid config can break.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, fields

from .geometry import GridSpec
from .world import MAX_WORLD_DISTANCE, SPACE_POSES, SPACE_TURNS, RingSpec

_RD_PATTERN = re.compile(r"^_rd(\d+)$")

# a settings field's declared type -> its kind, which says what values
# the field takes (check_settings) and how text reads into it (_read)
_TYPE_KINDS = {"bool": "bool", "int": "int", "int | None": "int?",
               "float": "float", "tuple[int, ...]": "int_tuple"}
# kind -> the types its values may have, and how to say so; a bool is an
# int in Python, and only a bool field takes one
_KIND_TYPES = {"bool": ((bool,), "a bool"), "int": ((int,), "an int"),
               "int?": ((int, type(None)), "an int or None"),
               "float": ((int, float), "an int or a float")}


def _check_kind(name: str, kind: str, value) -> None:
    if kind == "int_tuple":
        if not isinstance(value, tuple):
            raise ValueError(f"{name}: must be a tuple, got "
                             f"{type(value).__name__}")
        for i, item in enumerate(value):
            _check_kind(f"{name}[{i}]", "int", item)
        return
    types, words = _KIND_TYPES[kind]
    if not isinstance(value, types) or (isinstance(value, bool)
                                        and kind != "bool"):
        raise ValueError(f"{name}: must be {words}, got {value!r}")


def check_settings(settings, at_least: dict) -> None:
    """The one check of a settings dataclass, run at its construction.
    Refuse, with a ValueError naming the field, a value of the wrong type
    by the kind of its declared type (ints, not bools, for int; ints or
    floats, not bools, for float; bools for bool; an int or None for
    int | None; a tuple of ints for tuple[int, ...]), a float field not
    finite as a float, and a field below its least value in at_least (None is not
    compared). An int given for a float field is stored as a float."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        kind = _TYPE_KINDS[f.type]
        _check_kind(f.name, kind, value)
        if kind == "float":
            try:
                value = float(value)
            except OverflowError:  # an int beyond the float range
                value = math.inf if value > 0 else -math.inf
            if not math.isfinite(value):
                raise ValueError(f"{f.name}: must be finite, got {value}")
            object.__setattr__(settings, f.name, value)
    for name, least in at_least.items():
        value = getattr(settings, name)
        if value is not None and value < least:
            raise ValueError(f"{name}: must be >= {least}")


# each bounded field's least value; an unset deceleration bound resolves
# to _maxDeltaVMagnitude, which is bounded too
_AT_LEAST = {
    "_positionGranularity": 0, "_velocityGranularity": 1,
    "_maxVelocityMagnitude": 0, "_minVelocityMagnitude": 0,
    "_maxDeltaVMagnitude": 0, "_minDeltaVMagnitude": 0,
    "_maxDeltaThetaMagnitude": 0, "_numAgents": 1, "_numParkedCars": 0,
    "_ringMaxNumObjTrack": 0, "_ringNumPrevObs": 0, "_obsNearbyCarsCount": 0,
    "_obsNearbyCarsDiameter": 0, "_spawnCloseDist": 0,
    "carSpawnMinDistance": 0, "spawnCrashTargetAgentMinDist": 0,
    "_maxSteps": 1, "_obsNearbyParkingSpotsCount": 0,
}


@dataclass(frozen=True)
class EnvironmentConfig:
    """Frozen, and checked by `validate` at construction however it is
    built: construction alone refuses a bad value, with a ValueError
    naming the field. The fields hold the inputs as given, but that a
    float field holds a float (an int given for it is stored as one); an
    unset deceleration bound stays None, so `dataclasses.replace` and a
    `to_mapping` round trip keep it. The properties resolve what derives
    from the fields."""

    # grid granularities
    _positionGranularity: int = 1
    _velocityGranularity: int = 1
    _thetaGranularity: int = 8
    # motion bounds, in velocity-grid quanta / rotation indices
    _maxVelocityMagnitude: int = 1
    _minVelocityMagnitude: int = 1  # reverse speed bound
    _maxDeltaVMagnitude: int = 1
    _minDeltaVMagnitude: int | None = None  # deceleration bound; None takes max
    _maxDeltaThetaMagnitude: int = 1
    _numAgents: int = 1
    _normalizeObs: bool = False
    _numParkedCars: int = 0
    # observation features
    _obsDist: bool = False
    _obsAngle: bool = True
    _obsRings: bool = False
    _ringMaxNumObjTrack: int = 0
    ringDiams: tuple[int, ...] = ()
    _obsGoalDeltaPose: bool = False
    _ringNumPrevObs: int = 0
    _ringOnlyWall: bool = False
    _obsNearbyCars: bool = False
    _obsNearbyCarsCount: int = 0
    _obsNearbyCarsDiameter: int = 0
    _obsNearbyCarsGoal: bool = False
    _obsNearbyCarsVelocity: bool = False
    _distGranularity: float = 1.0  # local-pose distance bucket, world units
    # spawning
    spawnCloseRatio: float = 0.0
    _spawnCloseDist: int = 10  # world units
    carSpawnMinDistance: int = 9  # MDP units
    spawnCrashRatio: float = 0.0
    spawnCrashTargetAgentMinDist: float = 10.0  # MDP units
    _maxSteps: int = 85
    # dynamic goals
    _dynamicGoals: bool = False
    _obsNearbyParkingSpotsCount: int = 0
    rewDeltaGoalContinueExp: float = 0.0
    rewDeltaGoalStopExp: float = 0.0
    rewDeltaGoalContinueGoal: float = 0.0
    rewDeltaGoalDiffGoal: float = 0.0
    _rewDeltaGoalStopGoal: float = 0.0  # -1 means: mirror rewDeltaGoalDiffGoal
    rewDeltaGoalContinueGoalBetterOtherAgent: float = 0.0
    # rewards
    rewReachGoal: float = 10.0
    rewCrash: float = 10.0
    rewTimeSum: float = 0.5
    rewReverseSum: float = 0.0
    rewDistSum: float = 1.0
    rewFinalVelocitySum: float = 0.0
    rewDeltaThetaSum: float = 0.0
    _rewDeltaThetaVelMult: bool = False
    # give-way conformity observations and schemes
    _obsParkingSpotClosestAgent: bool = False
    _obsParkingSpotClosestGoalAgent: bool = False
    _punishBetterOtherAgentLocal: bool = False  # local scheme if set, else global
    _punishBetterOtherGoalAgent: bool = False  # same-goal scheme if set, else any-goal
    # training-time knobs
    carScaleTrain: float = 1.0
    # grid-search redundancy marker; carried but never read by the env
    try_: int = 0

    def __post_init__(self):
        self.validate()

    # ------------------------------------------------------------- derived

    def grid(self) -> GridSpec:
        return GridSpec(
            position_granularity=self._positionGranularity,
            velocity_granularity=self._velocityGranularity,
            theta_granularity=self._thetaGranularity,
        )

    def ring_spec(self) -> RingSpec | None:
        if not self._obsRings:
            return None
        return RingSpec(
            diameters=tuple(float(d) for d in self.ringDiams),
            max_count=self._ringMaxNumObjTrack,
            walls_only=self._ringOnlyWall,
        )

    @property
    def max_reverse_accel(self) -> int:
        if self._minDeltaVMagnitude is None:
            return self._maxDeltaVMagnitude
        return self._minDeltaVMagnitude

    @property
    def speed_bound(self) -> int:
        """The largest speed either way, at least 1: the divisor that
        normalizes a velocity."""
        return max(self._maxVelocityMagnitude, self._minVelocityMagnitude, 1)

    @property
    def tracked_spaces(self) -> int:
        """Parking spaces each agent tracks: only dynamic goals track any."""
        return self._obsNearbyParkingSpotsCount if self._dynamicGoals else 0

    @property
    def car_view_radius(self) -> float:
        """The normalization bound of a nearby car's distance: half the
        field of view, at most the arena diagonal."""
        return min(self._obsNearbyCarsDiameter / 2.0, MAX_WORLD_DISTANCE)

    @property
    def stop_goal_reward(self) -> float:
        if self._rewDeltaGoalStopGoal == -1.0:
            return self.rewDeltaGoalDiffGoal
        return self._rewDeltaGoalStopGoal

    def mdp_to_world(self, value: float) -> float:
        """MDP-unit distances divide by the position subdivisions per unit."""
        return value / (1 << self._positionGranularity)

    def to_mapping(self) -> dict:
        return {key: getattr(self, f.name) for key, f in _FIELDS.items()}

    # ----------------------------------------------------------- validation

    def validate(self) -> None:
        """Refuse, naming the field or feature, a value the environment
        cannot run; construction calls it, so every config has passed."""
        check_settings(self, _AT_LEAST)
        if self._thetaGranularity < 1 or 360 % self._thetaGranularity != 0:
            raise ValueError(
                f"_thetaGranularity: {self._thetaGranularity} does not divide 360"
            )
        if self._thetaGranularity % SPACE_TURNS != 0:
            raise ValueError(
                f"_thetaGranularity: {self._thetaGranularity} is not a multiple "
                f"of the arena's {SPACE_TURNS} space orientations"
            )
        spaces = len(SPACE_POSES)
        if self._numParkedCars > spaces:
            raise ValueError(
                f"_numParkedCars: {self._numParkedCars} cars cannot park in "
                f"the arena's {spaces} spaces"
            )
        # a park relocates a parked car, so the free spaces stay as many as
        # at reset, and each agent holds its own free goal among them
        if not self._dynamicGoals and self._numAgents + self._numParkedCars > spaces:
            raise ValueError(
                f"_numAgents + _numParkedCars: {self._numAgents} agents with "
                f"fixed goals and {self._numParkedCars} parked cars exceed "
                f"the arena's {spaces} spaces"
            )
        if self._obsRings != bool(self.ringDiams):
            raise ValueError(
                "ringDiams: must be non-empty exactly when _obsRings is set"
            )
        for i, d in enumerate(self.ringDiams):
            if d <= 0:
                raise ValueError(f"ringDiams[{i}] (_rd{i}): must be > 0")
        for name in ("spawnCloseRatio", "spawnCrashRatio"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}: must lie in [0, 1]")
        if self._distGranularity <= 0.0:
            raise ValueError("_distGranularity: must be > 0")
        if math.isinf(MAX_WORLD_DISTANCE / self._distGranularity):
            raise ValueError(
                f"_distGranularity: {self._distGranularity:g} gives the "
                "goal distance an infinite number of cells")
        if self.carScaleTrain <= 0.0:
            raise ValueError("carScaleTrain: must be > 0")
        # the schema declares which features are bounded and which sized
        from .observation import build_schema  # observation imports config
        for f in build_schema(self).features:
            if not f.bound > 0.0:  # would divide by zero in every observe
                raise ValueError(
                    f"feature {f.name}: normalization bound {f.bound:g} must "
                    "be positive (a car's is half _obsNearbyCarsDiameter)")
            if f.size is None and not self._normalizeObs:
                raise ValueError(
                    f"feature {f.name} is continuous-only and cannot be used "
                    "in a discrete state space; set _normalizeObs")


_BOOL_WORDS = {"true": True, "false": False}


def _read(kind: str, value):
    """A parsed value as its field's kind takes it, since parameters
    travel as serialized text: a string read by the kind, an integral
    float as an int for an int field, a list as a tuple of read items;
    anything else as given, for construction to check."""
    if kind == "int_tuple":
        if isinstance(value, (list, tuple)):
            return tuple(_read("int", item) for item in value)
    elif isinstance(value, str):
        if kind == "bool":
            return _BOOL_WORDS.get(value.lower(), value)
        try:
            return float(value) if kind == "float" else int(value)
        except ValueError:
            pass
    elif (kind in ("int", "int?") and isinstance(value, float)
          and value.is_integer()):
        return int(value)
    return value


# mapping key -> field: each field is its own key, but for try_, whose
# key is a Python keyword
_FIELDS = {("try" if f.name == "try_" else f.name): f
           for f in fields(EnvironmentConfig)}

# Accepted for config compatibility and type-checked, then dropped: the
# environment reads none of them (debug and visualisation switches, and a
# step budget the trainers take from their own settings).
_IGNORED_KEYS = {
    "_debugObs": "bool",
    "_visualiseNearbyCars": "bool",
    "_numStepsTrain": "int",
}


def config_from_mapping(doc: dict) -> EnvironmentConfig:
    """Read a parsed document's values into their fields' types, construct
    the config (which refuses a bad one), and warn about soft constraints."""
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ValueError("environment parameters: expected a mapping, got "
                         f"{type(doc).__name__}")
    kwargs = {}
    ring_overrides: dict[int, int] = {}
    for key, value in doc.items():
        m = _RD_PATTERN.match(str(key))
        if m:
            value = _read("int", value)
            _check_kind(key, "int", value)
            ring_overrides[int(m.group(1))] = value
            continue
        if key in _IGNORED_KEYS:
            _check_kind(key, _IGNORED_KEYS[key],
                        _read(_IGNORED_KEYS[key], value))
            continue
        if key not in _FIELDS:
            raise ValueError(f"unknown environment parameter: {key}")
        f = _FIELDS[key]
        kwargs[f.name] = _read(_TYPE_KINDS[f.type], value)
    diams = kwargs.get("ringDiams", ())
    if isinstance(diams, tuple):  # else construction refuses it by name
        diams = list(diams)
        for idx in sorted(ring_overrides):
            if idx < len(diams):
                diams[idx] = ring_overrides[idx]
            elif idx == len(diams):
                diams.append(ring_overrides[idx])
            else:
                raise ValueError(f"_rd{idx}: leaves a gap (only {len(diams)} "
                                 "ring diameters so far)")
        kwargs["ringDiams"] = tuple(diams)
    cfg = EnvironmentConfig(**kwargs)
    _warn_soft_constraints(cfg)
    return cfg


def load_config(text: str) -> EnvironmentConfig:
    """Parse a YAML/JSON document of environment parameters."""
    import yaml  # here, so that importing the package does not load PyYAML

    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ValueError(f"environment parameters: malformed YAML: {e}") from e
    return config_from_mapping(doc)


def _warn_soft_constraints(cfg: EnvironmentConfig) -> None:
    if cfg._numParkedCars >= len(SPACE_POSES):
        warnings.warn(
            f"_numParkedCars={cfg._numParkedCars} leaves no free space in the "
            f"{len(SPACE_POSES)}-space arena; goals cannot be assigned",
            stacklevel=3,
        )
    if cfg._dynamicGoals:
        if cfg.rewDeltaGoalContinueExp > 0 or cfg.rewDeltaGoalDiffGoal > 0:
            warnings.warn(
                "goal-transition rewards for continue-explore and change-goal "
                "are expected to be punishments (<= 0)",
                stacklevel=3,
            )
    # per-step move-toward-goal reward must stay below the time punishment,
    # otherwise circling toward the goal out-earns finishing
    if cfg.rewDistSum > 0 and cfg.rewDistSum >= cfg.rewTimeSum:
        warnings.warn(
            f"rewDistSum={cfg.rewDistSum} >= rewTimeSum={cfg.rewTimeSum}: "
            "per-step movement reward should be smaller than the time "
            "punishment or roundabout paths become optimal",
            stacklevel=3,
        )


def config_signature(cfg: EnvironmentConfig) -> dict:
    """Mapping used to check model/environment compatibility on reload: the
    fields that set an observation's width or what one of its slots means,
    with the deceleration bound as resolved."""
    keys = (
        "_positionGranularity",
        "_velocityGranularity",
        "_thetaGranularity",
        "_maxVelocityMagnitude",
        "_minVelocityMagnitude",
        "_maxDeltaVMagnitude",
        "_maxDeltaThetaMagnitude",
        "_normalizeObs",
        "_obsDist",
        "_obsAngle",
        "_obsRings",
        "_ringMaxNumObjTrack",
        "ringDiams",
        "_obsGoalDeltaPose",
        "_ringNumPrevObs",
        "_ringOnlyWall",
        "_obsNearbyCars",
        "_obsNearbyCarsCount",
        "_obsNearbyCarsDiameter",
        "_obsNearbyCarsGoal",
        "_obsNearbyCarsVelocity",
        "_obsNearbyParkingSpotsCount",
        "_obsParkingSpotClosestAgent",
        "_obsParkingSpotClosestGoalAgent",
        "_dynamicGoals",
        "_distGranularity",
    )
    sig = {k: getattr(cfg, k) for k in keys}
    sig["_minDeltaVMagnitude"] = cfg.max_reverse_accel
    return sig
