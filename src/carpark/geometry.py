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


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Granularities of the discretized world."""

    position_granularity: int = 1
    velocity_granularity: int = 1
    theta_granularity: int = 8

    def __post_init__(self) -> None:
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


def wrap_signed_index(value: float, gtheta: int) -> float:
    """Wrap an index difference into (-Gtheta/2, Gtheta/2]."""
    w = value % gtheta
    if w > gtheta / 2:
        w -= gtheta
    return w


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def motion_step(pose, v: int, omega: int,
                grid: GridSpec) -> tuple[float, float, int]:
    """Advance one time-step: rotate first, then translate along the new
    heading by v/Gv world units, then snap to the divided grid.

    pose is anything with x, y and theta (a car body); the result is the
    plain triple (x, y, theta) of the new pose.
    """
    gtheta = grid.theta_granularity
    theta = (pose.theta + omega) % gtheta
    x, y = pose.x, pose.y
    if v != 0:
        s, c = _trig_table(gtheta)[theta]
        d = v / grid.velocity_granularity
        x, y = x + d * s, y + d * c
    # grid.snap inlined, operation for operation
    scale = float(1 << grid.position_granularity)
    return (math.floor(x * scale + 0.5) / scale,
            math.floor(y * scale + 0.5) / scale, theta)


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


def localize(observer, target, grid: GridSpec) -> tuple[float, float, float]:
    """Encode the target's pose relative to the observer as the plain
    triple (d, theta_rel, delta_theta), the order an observation takes.

    Both poses are anything with x, y and theta. d is the center distance
    in world units. theta_rel is the bearing of the target from the
    observer's facing direction, in (real-valued) rotation-index units
    wrapped to [0, Gtheta); a coincident target has bearing 0 by
    convention. delta_theta is observer.theta - target.theta wrapped to
    (-Gtheta/2, Gtheta/2]; it is integer-valued whenever both headings are
    plain indices. The triple is invariant under a joint translation or
    joint rotation of both poses.
    """
    dx = target.x - observer.x
    dy = target.y - observer.y
    d = math.hypot(dx, dy)
    gtheta = grid.theta_granularity
    theta = observer.theta
    # bearing_index_units and wrap_signed_index inlined, operation for
    # operation: localize runs about seven times per observation
    if d == 0.0:
        theta_rel = 0.0
    else:
        bearing = (math.degrees(math.atan2(dx, dy)) / (360.0 / gtheta)) % gtheta
        theta_rel = (bearing - theta) % gtheta
    delta_theta = (theta - target.theta) % gtheta
    if delta_theta > gtheta / 2:
        delta_theta -= gtheta
    return d, theta_rel, delta_theta
