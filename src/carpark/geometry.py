"""Grid kinematics and relative-pose math for the parking world.

Headings are rotation indices: an integer theta in [0, Gtheta) stands for
the angle (360/Gtheta)*theta degrees measured clockwise from the +y axis.
Angles stay in index units everywhere; conversion to radians happens only
at the trig boundary. Positions live on a divided grid whose cells are
1/2^Gp world units wide, and the velocity quantum is 1/Gv world units, so
a car moving at velocity v covers v/Gv world units per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Granularities of the discretized world."""

    base_extent: int = 74
    position_granularity: int = 1
    velocity_granularity: int = 1
    theta_granularity: int = 8

    def __post_init__(self) -> None:
        if self.base_extent <= 0:
            raise ValueError("base_extent must be positive")
        if self.position_granularity < 0:
            raise ValueError("position_granularity must be >= 0")
        if self.velocity_granularity < 1:
            raise ValueError("velocity_granularity must be >= 1")
        if self.theta_granularity < 1 or 360 % self.theta_granularity != 0:
            raise ValueError("theta_granularity must divide 360")

    @property
    def cell_scale(self) -> int:
        """Divided-grid points per world unit (2^Gp)."""
        return 1 << self.position_granularity

    @property
    def degrees_per_index(self) -> float:
        return 360.0 / self.theta_granularity

    def snap(self, x: float, y: float) -> tuple[float, float]:
        """Round a position to the nearest divided-grid point, half up."""
        s = float(self.cell_scale)
        return math.floor(x * s + 0.5) / s, math.floor(y * s + 0.5) / s


@dataclass(frozen=True, slots=True)
class Pose:
    """World position plus heading index."""

    x: float
    y: float
    theta: int


class LocalPose(NamedTuple):
    """Pose of a target relative to an observer, as the triple an
    observation takes in this order.

    d is the center distance in world units. theta_rel is the bearing of
    the target from the observer's facing direction, in (real-valued)
    rotation-index units wrapped to [0, Gtheta). delta_theta is observer
    heading minus target heading, wrapped to (-Gtheta/2, Gtheta/2]; it is
    integer-valued whenever both headings are plain indices.
    """

    d: float
    theta_rel: float
    delta_theta: float


@lru_cache(maxsize=None)
def _trig_table(gtheta: int) -> tuple[tuple[float, float], ...]:
    """(sin, cos) per rotation index, exact on the quadrant indices."""
    table = []
    for i in range(gtheta):
        deg = (360.0 * i) / gtheta
        rad = math.radians(deg)
        s, c = math.sin(rad), math.cos(rad)
        if deg % 90.0 == 0.0:
            s, c = float(round(s)), float(round(c))
        table.append((s, c))
    return tuple(table)


def heading_vector(theta: int, grid: GridSpec) -> tuple[float, float]:
    """Unit forward vector (dx, dy) for a heading index."""
    return _trig_table(grid.theta_granularity)[theta % grid.theta_granularity]


def angle_vector(theta_index_units: float, grid: GridSpec) -> tuple[float, float]:
    """Unit vector for a real-valued angle given in rotation-index units."""
    rad = math.radians(theta_index_units * grid.degrees_per_index)
    return math.sin(rad), math.cos(rad)


def wrap_signed_index(value: float, gtheta: int) -> float:
    """Wrap an index difference into (-Gtheta/2, Gtheta/2]."""
    w = value % gtheta
    if w > gtheta / 2:
        w -= gtheta
    return w


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def motion_step(pose: Pose, v: int, omega: int, grid: GridSpec) -> Pose:
    """Advance one time-step: rotate first, then translate along the new
    heading by v/Gv world units, then snap to the divided grid."""
    theta = (pose.theta + omega) % grid.theta_granularity
    if v == 0:
        x, y = grid.snap(pose.x, pose.y)
        return Pose(x, y, theta)
    s, c = _trig_table(grid.theta_granularity)[theta]
    d = v / grid.velocity_granularity
    x, y = grid.snap(pose.x + d * s, pose.y + d * c)
    return Pose(x, y, theta)


def clamp_velocity(v: int, a: int, vmax_fwd: int, vmax_rev: int) -> int:
    nv = v + a
    if nv > vmax_fwd:
        return vmax_fwd
    if nv < -vmax_rev:
        return -vmax_rev
    return nv


def bearing_index_units(dx: float, dy: float, grid: GridSpec) -> float:
    """Clockwise-from-+y bearing of (dx, dy), in rotation-index units,
    wrapped to [0, Gtheta)."""
    deg = math.degrees(math.atan2(dx, dy))
    return (deg / grid.degrees_per_index) % grid.theta_granularity


def localize(observer: Pose, target: Pose, grid: GridSpec) -> LocalPose:
    """Encode the target's pose relative to the observer.

    A coincident target has bearing 0 by convention. delta_theta is
    observer.theta - target.theta (signed, wrapped), so the triple is
    invariant under a joint translation or joint rotation of both poses.
    """
    dx = target.x - observer.x
    dy = target.y - observer.y
    d = math.hypot(dx, dy)
    gtheta = grid.theta_granularity
    if d == 0.0:
        theta_rel = 0.0
    else:
        theta_rel = (bearing_index_units(dx, dy, grid) - observer.theta) % gtheta
    delta_theta = wrap_signed_index(observer.theta - target.theta, gtheta)
    return LocalPose(d, theta_rel, delta_theta)


def local_offset(lp_d: float, angle_index_units: float, grid: GridSpec) -> tuple[float, float]:
    sx, sy = angle_vector(angle_index_units, grid)
    return lp_d * sx, lp_d * sy


def reconstruct(observer: Pose, lp: LocalPose, grid: GridSpec) -> tuple[float, float]:
    """Recover the target's world position from observer + LocalPose."""
    dx, dy = local_offset(lp.d, lp.theta_rel + observer.theta, grid)
    return observer.x + dx, observer.y + dy
