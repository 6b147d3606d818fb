"""Environment parameter schema, parsing, and validation.

Parameter names follow the environment's native config vocabulary verbatim
(including the leading-underscore names), so config files written for one
toolchain stay readable in the other. Distances are expressed in three
scales: world units, velocity-grid quanta, and MDP units (world units times
2^_positionGranularity); each field notes its scale where it matters.

A config is checked once, at construction: `EnvironmentConfig` is frozen
and validates itself, and only `config_from_mapping` also warns about the
soft constraints a valid config can break.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field, fields

from .geometry import GridSpec
from .world import SPACE_POSES, SPACE_TURNS, RingSpec

_RD_PATTERN = re.compile(r"^_rd(\d+)$")


@dataclass(frozen=True)
class EnvironmentConfig:
    """Frozen, and checked by `validate` at construction however it is
    built; a bad value raises ValueError naming the field."""

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
    ringDiams: list[int] = field(default_factory=list)
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
        if self._minDeltaVMagnitude is None:
            object.__setattr__(self, "_minDeltaVMagnitude",
                               self._maxDeltaVMagnitude)
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
            history_len=self._ringNumPrevObs,
            walls_only=self._ringOnlyWall,
        )

    @property
    def max_reverse_accel(self) -> int:
        return self._minDeltaVMagnitude

    @property
    def stop_goal_reward(self) -> float:
        if self._rewDeltaGoalStopGoal == -1.0:
            return self.rewDeltaGoalDiffGoal
        return self._rewDeltaGoalStopGoal

    def mdp_to_world(self, value: float) -> float:
        """MDP-unit distances divide by the position subdivisions per unit."""
        return value / (1 << self._positionGranularity)

    def to_mapping(self) -> dict:
        out = {}
        for f in fields(self):
            name = "try" if f.name == "try_" else f.name
            out[name] = getattr(self, f.name)
        return out

    # ----------------------------------------------------------- validation

    def validate(self) -> None:
        """Refuse, naming the field or feature, a value the environment
        cannot run; construction calls it, so every config has passed."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name}: must be finite, got {value}")
        if self._thetaGranularity < 1 or 360 % self._thetaGranularity != 0:
            raise ValueError(
                f"_thetaGranularity: {self._thetaGranularity} does not divide 360"
            )
        if self._thetaGranularity % SPACE_TURNS != 0:
            raise ValueError(
                f"_thetaGranularity: {self._thetaGranularity} is not a multiple "
                f"of the arena's {SPACE_TURNS} space orientations"
            )
        if self._positionGranularity < 0:
            raise ValueError("_positionGranularity: must be >= 0")
        if self._velocityGranularity < 1:
            raise ValueError("_velocityGranularity: must be >= 1")
        for name in (
            "_maxVelocityMagnitude",
            "_minVelocityMagnitude",
            "_maxDeltaVMagnitude",
            "_minDeltaVMagnitude",
            "_maxDeltaThetaMagnitude",
            "_numParkedCars",
            "_ringMaxNumObjTrack",
            "_ringNumPrevObs",
            "_obsNearbyCarsCount",
            "_obsNearbyCarsDiameter",
            "_obsNearbyParkingSpotsCount",
            "_spawnCloseDist",
            "carSpawnMinDistance",
            "spawnCrashTargetAgentMinDist",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")
        if self._numAgents < 1:
            raise ValueError("_numAgents: must be >= 1")
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
        if self._maxSteps < 1:
            raise ValueError("_maxSteps: must be >= 1")
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


def _coerce(name: str, kind: str, value):
    """Coerce a parsed value to the field's table type; strings are accepted
    since parameters historically travel as serialized text."""
    if kind == "bool":
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in _BOOL_WORDS:
            return _BOOL_WORDS[value.lower()]
    elif kind == "int":
        if isinstance(value, bool):
            pass  # bools are ints in Python; reject explicitly
        elif isinstance(value, int):
            return value
        elif isinstance(value, float) and value.is_integer():
            return int(value)
        elif isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
    elif kind == "float":
        if isinstance(value, bool):
            pass
        elif isinstance(value, (int, float)):
            return float(value)
        elif isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
    elif kind == "int_list":
        if isinstance(value, (list, tuple)):
            out = []
            for i, item in enumerate(value):
                out.append(_coerce(f"{name}[{i}]", "int", item))
            return out
    raise TypeError(f"{name}: expected {kind}, got {value!r}")


def _field_kinds() -> dict[str, str]:
    kinds = {}
    for f in fields(EnvironmentConfig):
        name = "try" if f.name == "try_" else f.name
        if f.type == "bool":
            kinds[name] = "bool"
        elif f.type in ("int", "int | None"):
            kinds[name] = "int"
        elif f.type == "float":
            kinds[name] = "float"
        elif f.type == "list[int]":
            kinds[name] = "int_list"
        else:  # pragma: no cover - schema definition error
            raise AssertionError(f"unmapped field type {f.type} on {f.name}")
    return kinds


_KINDS = _field_kinds()

# Accepted for config compatibility and type-checked, then dropped: the
# environment reads none of them (debug and visualisation switches, and a
# step budget the trainers take from their own settings).
_IGNORED_KEYS = {
    "_debugObs": "bool",
    "_visualiseNearbyCars": "bool",
    "_numStepsTrain": "int",
}


def config_from_mapping(doc: dict) -> EnvironmentConfig:
    """Coerce a parsed document's values to their fields' types, construct
    the config (which validates it), and warn about soft constraints."""
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise TypeError(f"environment parameters: expected a mapping, got {type(doc).__name__}")
    kwargs = {}
    ring_overrides: dict[int, int] = {}
    for key, value in doc.items():
        m = _RD_PATTERN.match(str(key))
        if m:
            ring_overrides[int(m.group(1))] = _coerce(key, "int", value)
            continue
        if key in _IGNORED_KEYS:
            _coerce(key, _IGNORED_KEYS[key], value)
            continue
        if key not in _KINDS:
            raise ValueError(f"unknown environment parameter: {key}")
        attr = "try_" if key == "try" else key
        kwargs[attr] = _coerce(key, _KINDS[key], value)
    diams = list(kwargs.get("ringDiams", []))
    for idx in sorted(ring_overrides):
        if idx < len(diams):
            diams[idx] = ring_overrides[idx]
        elif idx == len(diams):
            diams.append(ring_overrides[idx])
        else:
            raise ValueError(
                f"_rd{idx}: leaves a gap (only {len(diams)} ring diameters so far)"
            )
    kwargs["ringDiams"] = diams
    cfg = EnvironmentConfig(**kwargs)
    _warn_soft_constraints(cfg)
    return cfg


def load_config(text: str) -> EnvironmentConfig:
    """Parse a YAML/JSON document of environment parameters."""
    import yaml  # here, so that importing the package does not load PyYAML

    return config_from_mapping(yaml.safe_load(text))


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
    fields that set an observation's width or what one of its slots means."""
    keys = (
        "_positionGranularity",
        "_velocityGranularity",
        "_thetaGranularity",
        "_maxVelocityMagnitude",
        "_minVelocityMagnitude",
        "_maxDeltaVMagnitude",
        "_minDeltaVMagnitude",
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
    return {k: getattr(cfg, k) for k in keys}
