"""Observation assembly, space dimensionality, and action flattening.

Feature order is fixed and documented here, since config files only say
which features are on:

  1. velocity
  2. goal distance (_obsDist)
  3. goal angle (_obsAngle)
  4. goal rotation delta (_obsGoalDeltaPose)
  5. own goal slot index (dynamic goals)
  6. ring counts, current state first, then previous states newest-first
  7. per tracked car: distance, angle, rotation delta, then shared velocity,
     then the shared goal (pose triple with fixed goals, slot index with
     dynamic goals)
  8. per tracked space: distance, angle, rotation delta (dynamic goals)
  9. per tracked space: nearest-agent distance (_obsParkingSpotClosestAgent),
     then nearest-same-goal-agent distance (_obsParkingSpotClosestGoalAgent)

`build_schema` is the one place that says how each feature is encoded,
through its kind; `env.observe` gathers one raw value per feature in this
order and `build_observation` encodes them:

  kind      raw value             discrete              normalized
  signed    velocity              v + offset            v / bound
  index     slot index, count     i                     i / bound
  distance  world units           round(d / gran)       min(d, bound) / bound
  angle     bearing, index units  round(a) mod Gtheta   a / bound
  delta     rotation delta        round(r) mod Gtheta   wrap(r) / bound

round is half-up, gran is _distGranularity, wrap maps into
(-Gtheta/2, Gtheta/2], and offset is _minVelocityMagnitude for velocities.
Discrete values must lie in the feature's domain of `size` values;
normalized ones in [0, 1], or [-1, 1] for the signed and delta kinds. A
feature without a size exists only in normalized form; `validate` refuses
it in discrete mode, and refuses a bound that is not positive.
`build_observation` runs once per agent per tick, so it reads all this
from the schema's encode plan, a tuple per feature built once per schema,
rather than asking every feature for its kind and limits on every call.

`env.observe` also emits the sentinels for what an agent cannot see. A
missing target (no goal, an absent car slot, a tracked car without a goal
under fixed goals, an empty space slot, no agent with that goal) reads as
the feature's bound distance with zero angle, delta and velocity. A goal
slot index reads 0 for no goal or an untracked own goal, and n_space + 1
for an absent car slot or a tracked car whose goal the observer does not
track. Ring history an episode has not reached yet reads as zero counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .config import EnvironmentConfig
from .geometry import round_half_up, wrap_signed_index
from .world import MAX_WORLD_DISTANCE


@dataclass(frozen=True, slots=True)
class Feature:
    """One observation element. kind (signed, index, distance, angle or
    delta) says how its raw value is encoded; bound is the normalization
    divisor; size is the discrete domain cardinality (None when the feature
    only exists in normalized form); offset shifts a signed value to start
    its discrete domain at zero."""

    name: str
    kind: str
    bound: float
    size: int | None = None
    offset: int = 0

    @property
    def signed(self) -> bool:
        """True when the normalized value lies in [-1, 1], not [0, 1]."""
        return self.kind in ("signed", "delta")


# kind codes of an encode plan; signed and index values encode alike
_DISTANCE, _ANGLE, _DELTA, _LINEAR = range(4)
_KIND_CODES = {"distance": _DISTANCE, "angle": _ANGLE, "delta": _DELTA,
               "signed": _LINEAR, "index": _LINEAR}


@dataclass(frozen=True)
class ObsSchema:
    features: tuple[Feature, ...]

    @cached_property
    def plan(self) -> tuple:
        """The encode plan, built once per schema: per feature its kind
        code, bound, normalized lower limit, size, offset and the feature
        itself (for error messages)."""
        return tuple((_KIND_CODES[f.kind], f.bound, -1.0 if f.signed else 0.0,
                      f.size, f.offset, f) for f in self.features)

    def discrete_dims(self) -> list[int | None]:
        """Cells per feature; None for a continuous-only (normalized) one."""
        return [f.size for f in self.features]


@dataclass(frozen=True)
class ActionSchema:
    branches: tuple[int, ...]  # acceleration, angular velocity[, goal choice]
    offsets: tuple[int, ...]  # added to raw values to get branch indices

    @property
    def flat_size(self) -> int:
        n = 1
        for b in self.branches:
            n *= b
        return n


def build_schema(cfg: EnvironmentConfig) -> ObsSchema:
    gtheta = cfg._thetaGranularity
    d_max = MAX_WORLD_DISTANCE
    vmax = float(max(cfg._maxVelocityMagnitude, cfg._minVelocityMagnitude, 1))
    v_offset = cfg._minVelocityMagnitude
    n_space = cfg._obsNearbyParkingSpotsCount if cfg._dynamicGoals else 0
    dist_size = round_half_up(d_max / cfg._distGranularity) + 1

    def pose_triple(prefix: str, d_bound: float, sized: bool) -> list[Feature]:
        """Distance, angle and rotation delta of a target."""
        return [
            Feature(f"{prefix}distance", "distance", d_bound,
                    size=dist_size if sized else None),
            Feature(f"{prefix}angle", "angle", float(gtheta),
                    size=gtheta if sized else None),
            Feature(f"{prefix}delta-rotation", "delta", gtheta / 2.0,
                    size=gtheta if sized else None),
        ]

    feats: list[Feature] = [
        Feature("velocity", "signed", vmax,
                size=cfg._maxVelocityMagnitude + v_offset + 1, offset=v_offset)
    ]
    goal = pose_triple("goal-", d_max, sized=True)
    for f, on in zip(goal, (cfg._obsDist, cfg._obsAngle,
                            cfg._obsGoalDeltaPose)):
        if on:
            feats.append(f)
    if cfg._dynamicGoals:
        feats.append(Feature("own-goal-slot", "index", float(max(n_space, 1)),
                             size=n_space + 1))
    if cfg._obsRings:
        n_o = cfg._ringMaxNumObjTrack
        for h in range(cfg._ringNumPrevObs + 1):
            tag = "" if h == 0 else f"-prev{h}"
            for i in range(len(cfg.ringDiams)):
                feats.append(Feature(f"ring{i}{tag}", "index",
                                     float(max(n_o, 1)), size=n_o + 1))
    if cfg._obsNearbyCars:
        car_bound = min(cfg._obsNearbyCarsDiameter / 2.0, d_max)
        for k in range(cfg._obsNearbyCarsCount):
            feats += pose_triple(f"car{k}-", car_bound, sized=False)
            if cfg._obsNearbyCarsVelocity:
                feats.append(Feature(f"car{k}-velocity", "signed", vmax,
                                     offset=v_offset))
            if cfg._obsNearbyCarsGoal:
                if cfg._dynamicGoals:
                    feats.append(Feature(f"car{k}-goal-slot", "index",
                                         float(n_space + 1),
                                         size=n_space + 2))
                else:
                    feats += pose_triple(f"car{k}-goal-", d_max, sized=False)
    if cfg._dynamicGoals:
        for k in range(n_space):
            feats += pose_triple(f"space{k}-", d_max, sized=False)
        if cfg._obsParkingSpotClosestAgent:
            for k in range(n_space):
                feats.append(Feature(f"space{k}-nearest-agent", "distance",
                                     d_max))
        if cfg._obsParkingSpotClosestGoalAgent:
            for k in range(n_space):
                feats.append(Feature(f"space{k}-nearest-goal-agent",
                                     "distance", d_max))
    return ObsSchema(tuple(feats))


def build_action_schema(cfg: EnvironmentConfig) -> ActionSchema:
    branches = [
        cfg.max_reverse_accel + cfg._maxDeltaVMagnitude + 1,
        2 * cfg._maxDeltaThetaMagnitude + 1,
    ]
    offsets = [cfg.max_reverse_accel, cfg._maxDeltaThetaMagnitude]
    if cfg._dynamicGoals:
        branches.append(cfg._obsNearbyParkingSpotsCount + 1)
        offsets.append(0)
    return ActionSchema(tuple(branches), tuple(offsets))


# ----------------------------------------------------------------- assembly


def build_observation(
    schema: ObsSchema,
    cfg: EnvironmentConfig,
    raw: list,
    mode: str,
) -> list:
    """Encode one raw value per schema feature, in schema order, by the
    feature's kind, and check each encoded value against its domain."""
    gtheta = cfg._thetaGranularity
    out = []
    if mode == "normalized":
        for x, (code, bound, lo, _, _, f) in zip(raw, schema.plan,
                                                 strict=True):
            if code == _DISTANCE:
                if bound < x:
                    x = bound  # min(x, bound)
            elif code == _DELTA:
                x = wrap_signed_index(x, gtheta)
            v = x / bound
            if not lo <= v <= 1.0:
                raise ValueError(f"{f.name}={v} outside [{lo}, 1.0]")
            out.append(v)
        return out
    if mode != "discrete":
        raise ValueError(f"unknown observation mode {mode!r}")
    dist_gran = cfg._distGranularity
    floor = math.floor  # round_half_up(x) is floor(x + 0.5), inlined
    for x, (code, _, _, size, offset, f) in zip(raw, schema.plan,
                                                strict=True):
        if code == _DISTANCE:
            iv = floor(x / dist_gran + 0.5)
        elif code == _LINEAR:
            iv = int(x + offset)
        else:
            iv = floor(x + 0.5) % gtheta
        if not 0 <= iv < size:
            raise ValueError(
                f"{f.name}={iv} outside its domain of {size} values")
        out.append(iv)
    return out


# ---------------------------------------------------------- action encoding


def decode_action(schema: ActionSchema, flat: int) -> tuple[int, ...]:
    """Action components of a flat action index, row-major: the first
    branch is the most significant."""
    if not 0 <= flat < schema.flat_size:
        raise ValueError(f"flat action {flat} outside {schema.flat_size}")
    out = []
    for size, offset in zip(reversed(schema.branches), reversed(schema.offsets)):
        out.append(flat % size - offset)
        flat //= size
    return tuple(reversed(out))


def encode_state(dims: list[int], values: list[int]) -> int:
    """Row-major flattening of a discrete observation for table lookups."""
    flat = 0
    for value, size in zip(values, dims):
        if not 0 <= value < size:
            raise ValueError(f"state component {value} outside domain {size}")
        flat = flat * size + value
    return flat
