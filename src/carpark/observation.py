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

Discrete mode emits one index per feature (signed domains shifted to start
at zero); normalized mode divides by each feature's bound so unsigned
features land in [0, 1] and signed ones in [-1, 1]. Absent tracked slots
are filled with a sentinel: bound distance, zero angles, zero velocity,
"untracked" goal index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import EnvironmentConfig, max_world_distance
from .geometry import LocalPose, round_half_up, wrap_signed_index


@dataclass(frozen=True, slots=True)
class Feature:
    """One observation element. size is the discrete domain cardinality
    (None when the feature only exists in normalized form); bound is the
    normalization divisor; signed features normalize to [-1, 1]."""

    name: str
    bound: float
    size: int | None = None
    signed: bool = False


@dataclass(frozen=True)
class ObsSchema:
    features: tuple[Feature, ...]
    extent: int

    def __len__(self) -> int:
        return len(self.features)

    def discrete_dims(self) -> list[int]:
        dims = []
        for f in self.features:
            if f.size is None:
                raise ValueError(
                    f"feature {f.name} is continuous-only and cannot be "
                    "used in a discrete state space"
                )
            dims.append(f.size)
        return dims

    def describe(self) -> str:
        lines = []
        for i, f in enumerate(self.features):
            dom = f"{f.size} values" if f.size is not None else "continuous"
            rng = "[-1,1]" if f.signed else "[0,1]"
            lines.append(f"{i:3d}  {f.name:38s} {dom:12s} bound={f.bound:g} {rng}")
        return "\n".join(lines)


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


@dataclass
class NearbyCarObs:
    """Raw values for one tracked-car slot as seen by the observer."""

    lp: LocalPose
    velocity: int = 0
    goal_lp: LocalPose | None = None  # the tracked agent's own goal triple
    goal_index: int | None = None  # dynamic-goal slot index in MY tracking


@dataclass
class ObsInputs:
    """Everything build_observation needs, gathered by the environment."""

    velocity: int
    goal: LocalPose | None = None  # None while exploring
    own_goal_index: int | None = None
    rings: tuple[int, ...] = ()
    ring_history: list[tuple[int, ...]] = field(default_factory=list)
    nearby: list[NearbyCarObs] = field(default_factory=list)
    spaces: list[LocalPose | None] = field(default_factory=list)
    global_any: list[float | None] = field(default_factory=list)
    global_same: list[float | None] = field(default_factory=list)


def build_schema(cfg: EnvironmentConfig, extent: int = 74) -> ObsSchema:
    gtheta = cfg._thetaGranularity
    d_max = max_world_distance(extent)
    vmax = max(cfg._maxVelocityMagnitude, cfg._minVelocityMagnitude)
    n_space = cfg._obsNearbyParkingSpotsCount if cfg._dynamicGoals else 0
    feats: list[Feature] = [
        Feature(
            "velocity",
            bound=float(max(vmax, 1)),
            size=cfg._maxVelocityMagnitude + cfg._minVelocityMagnitude + 1,
            signed=True,
        )
    ]
    dist_size = round_half_up(d_max / cfg._distGranularity) + 1
    if cfg._obsDist:
        feats.append(Feature("goal-distance", bound=d_max, size=dist_size))
    if cfg._obsAngle:
        feats.append(Feature("goal-angle", bound=float(gtheta), size=gtheta))
    if cfg._obsGoalDeltaPose:
        feats.append(
            Feature("goal-delta-rotation", bound=gtheta / 2.0, size=gtheta,
                    signed=True)
        )
    if cfg._dynamicGoals:
        feats.append(
            Feature("own-goal-slot", bound=float(max(n_space, 1)),
                    size=n_space + 1)
        )
    if cfg._obsRings:
        n_o = cfg._ringMaxNumObjTrack
        for h in range(cfg._ringNumPrevObs + 1):
            tag = "" if h == 0 else f"-prev{h}"
            for i in range(len(cfg.ringDiams)):
                feats.append(
                    Feature(f"ring{i}{tag}", bound=float(max(n_o, 1)),
                            size=n_o + 1)
                )
    if cfg._obsNearbyCars:
        car_bound = min(cfg._obsNearbyCarsDiameter / 2.0, d_max)
        for k in range(cfg._obsNearbyCarsCount):
            feats.append(Feature(f"car{k}-distance", bound=car_bound))
            feats.append(Feature(f"car{k}-angle", bound=float(gtheta)))
            feats.append(
                Feature(f"car{k}-delta-rotation", bound=gtheta / 2.0,
                        signed=True)
            )
            if cfg._obsNearbyCarsVelocity:
                feats.append(
                    Feature(f"car{k}-velocity", bound=float(max(vmax, 1)),
                            signed=True)
                )
            if cfg._obsNearbyCarsGoal:
                if cfg._dynamicGoals:
                    feats.append(
                        Feature(f"car{k}-goal-slot",
                                bound=float(n_space + 1),
                                size=n_space + 2)
                    )
                else:
                    feats.append(Feature(f"car{k}-goal-distance", bound=d_max))
                    feats.append(
                        Feature(f"car{k}-goal-angle", bound=float(gtheta))
                    )
                    feats.append(
                        Feature(f"car{k}-goal-delta-rotation",
                                bound=gtheta / 2.0, signed=True)
                    )
    if cfg._dynamicGoals:
        for k in range(n_space):
            feats.append(Feature(f"space{k}-distance", bound=d_max))
            feats.append(Feature(f"space{k}-angle", bound=float(gtheta)))
            feats.append(
                Feature(f"space{k}-delta-rotation", bound=gtheta / 2.0,
                        signed=True)
            )
        if cfg._obsParkingSpotClosestAgent:
            for k in range(n_space):
                feats.append(Feature(f"space{k}-nearest-agent", bound=d_max))
        if cfg._obsParkingSpotClosestGoalAgent:
            for k in range(n_space):
                feats.append(
                    Feature(f"space{k}-nearest-goal-agent", bound=d_max)
                )
    return ObsSchema(tuple(feats), extent)


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


def _check(value: float, lo: float, hi: float, name: str) -> None:
    if not lo <= value <= hi:
        raise ValueError(f"{name}={value} outside [{lo}, {hi}]")


def build_observation(
    schema: ObsSchema,
    cfg: EnvironmentConfig,
    inputs: ObsInputs,
    mode: str,
) -> list:
    if mode not in ("discrete", "normalized"):
        raise ValueError(f"unknown observation mode {mode!r}")
    discrete = mode == "discrete"
    if discrete:
        schema.discrete_dims()  # raises when a continuous feature is enabled
    gtheta = cfg._thetaGranularity
    d_max = max_world_distance(schema.extent)
    n_space = cfg._obsNearbyParkingSpotsCount if cfg._dynamicGoals else 0

    values: list[float] = []

    def emit_signed(v: float, offset: int, bound: float) -> None:
        values.append(v + offset if discrete else v / bound)

    def emit_index(i: int, bound: float) -> None:
        values.append(i if discrete else i / bound)

    def emit_distance(d: float, bound: float) -> None:
        if discrete:
            values.append(round_half_up(d / cfg._distGranularity))
        else:
            values.append(min(d, bound) / bound)

    def emit_angle(theta_rel: float) -> None:
        if discrete:
            values.append(round_half_up(theta_rel) % gtheta)
        else:
            values.append(theta_rel / gtheta)

    def emit_delta(delta: float) -> None:
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
        g = inputs.own_goal_index or 0
        emit_index(g, max(n_space, 1))
    if cfg._obsRings:
        n_o = max(cfg._ringMaxNumObjTrack, 1)
        states = [inputs.rings] + list(inputs.ring_history)
        want = cfg._ringNumPrevObs + 1
        zero = tuple(0 for _ in cfg.ringDiams)
        while len(states) < want:
            states.append(zero)  # zero-filled history at episode start
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
                        gi = n_space + 1  # untracked sentinel
                    elif car.goal_index is None:
                        gi = 0  # parked or exploring: no goal
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
                v = (inputs.global_any[k]
                     if k < len(inputs.global_any) else None)
                emit_distance(v if v is not None else d_max, d_max)
        if cfg._obsParkingSpotClosestGoalAgent:
            for k in range(n_space):
                v = (inputs.global_same[k]
                     if k < len(inputs.global_same) else None)
                emit_distance(v if v is not None else d_max, d_max)

    if len(values) != len(schema.features):
        raise AssertionError(
            f"assembled {len(values)} values for a {len(schema.features)}-"
            "feature schema"
        )
    if discrete:
        out = []
        for v, f in zip(values, schema.features):
            iv = int(v)
            if not 0 <= iv < f.size:
                raise ValueError(
                    f"{f.name}={iv} outside its domain of {f.size} values"
                )
            out.append(iv)
        return out
    for v, f in zip(values, schema.features):
        lo = -1.0 if f.signed else 0.0
        _check(v, lo, 1.0, f.name)
    return values


# ---------------------------------------------------------- action encoding


def encode_action(schema: ActionSchema, values: tuple[int, ...]) -> int:
    """Row-major flattening; the first branch is the most significant."""
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


def decode_action(schema: ActionSchema, flat: int) -> tuple[int, ...]:
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
