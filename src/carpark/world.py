"""The arena, car hitboxes, collision, ring sensing, and relocation.

Ring counts, nearest cars, nearest free spaces and the park relocation
are seen from every agent: a ``WorldArrays`` view holds what they share,
the center distances from each agent to every car and space and its cars
sorted by distance. Each query answers one row per agent, in agent order,
never counting the agent's own car; a caller that needs one agent's answer
reads its row. A car is named by its column in ``WorldState.all_cars()``
(agents first, so agent i is column i) and a space by its index in
``WorldState.spaces``. Three rules keep these batched answers equal to
scalar loops: center distances are ``np.sqrt(dx*dx + dy*dy)``, which
equals ``math.hypot`` on grid-snapped centers (``np.hypot`` does not);
ties sort by column (or space id) with a stable sort; and numpy only
picks candidates, while an exact scalar test decides every hitbox
question. Ring counts and collisions walk each agent's sorted center
distances up to a reach that no hitbox within the threshold can exceed,
and send only those cars to the exact ``point_to_obb_distance`` or
``obb_intersects``.
Bearings stay scalar (``geometry.localize``): ``np.arctan2`` differs from
``math.atan2`` on some inputs. numpy is imported where an array is first
built, not with this module: config parsing needs no BLAS.

The arena is the paper's parking lot, and the only one: the 74x74 box
[0, EXTENT]^2, whose four edges are the walls, with 36 parking spaces
hugging the walls (9 per side) and a square ring road between the space
rows and the center used for spawning. It is declared once, below
(``EXTENT``, ``SPACE_POSES``, ``ROAD_POINTS``), and built at import.
Every car has the one footprint declared below, 3x5 world units
(``CAR_HALF_WIDTH``, ``CAR_HALF_LENGTH``), which only ``WorldState.scale``
varies, for every car at once. A space is 5x7, so a space exceeds the car
by 2 units per axis.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .geometry import GridSpec, heading_vector

if TYPE_CHECKING:
    import numpy as np

CAR_HALF_WIDTH = 1.5
CAR_HALF_LENGTH = 2.5
CAR_CIRCUMRADIUS = math.hypot(CAR_HALF_WIDTH, CAR_HALF_LENGTH)
SPACE_HALF_WIDTH = 2.5
SPACE_HALF_DEPTH = 3.5

# Added to a broad-phase reach so that rounding in the numpy center
# distance never drops a pair the exact test would keep.
REACH_SLACK = 1e-6


# ------------------------------------------------------------------ the arena

EXTENT = 74  # side of the square arena, world units
MAX_WORLD_DISTANCE = math.hypot(EXTENT, EXTENT)  # the arena's diagonal

# Space orientations are quarter turns: 0=north, 1=east, 2=south, 3=west.
SPACE_TURNS = 4
# The 36 spaces as (cx, cy, quarter turns), in space-id order: 9 per
# wall, centers 3.5 units off their wall and facing the arena.
_ROW = [17.0 + 5.0 * k for k in range(9)]
SPACE_POSES = tuple(
    [(c, 3.5, 0) for c in _ROW]  # bottom row, opening north
    + [(EXTENT - 3.5, c, 3) for c in _ROW]  # right column, opening west
    + [(c, EXTENT - 3.5, 2) for c in _ROW]  # top row, opening south
    + [(3.5, c, 1) for c in _ROW])  # left column, opening east
# the space centers in space-id order, as every WorldArrays view reads them
SPACE_X = [cx for cx, _, _ in SPACE_POSES]
SPACE_Y = [cy for _, cy, _ in SPACE_POSES]

# The ring-road spawn band: the grid points 10..12 units from the
# boundary, in x-major order (a plain spawn draws from it by index).
ROAD_POINTS = tuple(
    (float(x), float(y)) for x in range(EXTENT + 1) for y in range(EXTENT + 1)
    if 10 <= min(x, y, EXTENT - x, EXTENT - y) <= 12)


@dataclass(frozen=True, slots=True)
class ParkingSpace:
    x: float
    y: float
    theta: int  # rotation index in the environment's granularity


@dataclass(slots=True)
class CarBody:
    """A car's pose. Its hitbox is the car footprint times the world's
    scale, centered here and turned to theta; the car is named by its
    column in ``WorldState.all_cars()``."""

    x: float
    y: float
    theta: int


@dataclass(frozen=True, slots=True)
class RingSpec:
    diameters: tuple[float, ...]
    max_count: int
    walls_only: bool = False


# ------------------------------------------------------------------ hitboxes


def obb_corners(body: CarBody, scale: float, grid: GridSpec) -> list[tuple[float, float]]:
    sx, sy = heading_vector(body.theta, grid)  # forward
    rx, ry = sy, -sx  # right-hand direction
    hw = CAR_HALF_WIDTH * scale
    hl = CAR_HALF_LENGTH * scale
    fx, fy = sx * hl, sy * hl
    wx, wy = rx * hw, ry * hw
    cx, cy = body.x, body.y
    return [
        (cx + fx + wx, cy + fy + wy),
        (cx + fx - wx, cy + fy - wy),
        (cx - fx - wx, cy - fy - wy),
        (cx - fx + wx, cy - fy + wy),
    ]


def _project_gap(axis_x: float, axis_y: float, ca, cb) -> bool:
    """True when the projections of corner sets ca and cb onto the axis are
    strictly separated."""
    amin = amax = ca[0][0] * axis_x + ca[0][1] * axis_y
    for x, y in ca[1:]:
        p = x * axis_x + y * axis_y
        if p < amin:
            amin = p
        elif p > amax:
            amax = p
    bmin = bmax = cb[0][0] * axis_x + cb[0][1] * axis_y
    for x, y in cb[1:]:
        p = x * axis_x + y * axis_y
        if p < bmin:
            bmin = p
        elif p > bmax:
            bmax = p
    return amax < bmin or bmax < amin


def obb_intersects(a: CarBody, b: CarBody, scale: float, grid: GridSpec) -> bool:
    """Separating-axis test over both rectangles' edge normals. Touching
    rectangles count as intersecting."""
    dx, dy = b.x - a.x, b.y - a.y
    r = CAR_CIRCUMRADIUS * scale
    reach = r + r
    if dx * dx + dy * dy > reach * reach:
        return False
    ca = obb_corners(a, scale, grid)
    cb = obb_corners(b, scale, grid)
    for body in (a, b):
        fx, fy = heading_vector(body.theta, grid)
        if _project_gap(fx, fy, ca, cb) or _project_gap(fy, -fx, ca, cb):
            return False
    return True


def wall_distances(x: float, y: float) -> list[float]:
    """Distances from (x, y) to the four walls, the edges of the arena box
    [0, EXTENT]^2: bottom, right, top, left. ox and oy are how far the
    point lies past the ends of the walls along x and y, so a point outside
    the box (a crashed car's center can be) is measured too."""
    e = EXTENT
    ox = max(0.0, -x, x - e)
    oy = max(0.0, -y, y - e)
    return [math.hypot(ox, y), math.hypot(oy, e - x),
            math.hypot(ox, e - y), math.hypot(oy, x)]


def point_to_obb_distance(px: float, py: float, body: CarBody, scale: float,
                          grid: GridSpec) -> float:
    fx, fy = heading_vector(body.theta, grid)
    dx, dy = px - body.x, py - body.y
    # coordinates in the box frame: forward component and right component
    lf = dx * fx + dy * fy
    lr = dx * fy - dy * fx
    hl = CAR_HALF_LENGTH * scale
    hw = CAR_HALF_WIDTH * scale
    ef = abs(lf) - hl
    er = abs(lr) - hw
    if ef <= 0.0 and er <= 0.0:
        return 0.0
    ef = max(ef, 0.0)
    er = max(er, 0.0)
    return math.hypot(ef, er)


class WorldArrays:
    """One world state as arrays, seen from every agent.

    Rows are the agents, in agent order. Columns are the cars in
    ``all_cars()`` order (agents, then parked cars, so agent i is column
    i), then the parking spaces in space-id order. Every batched query of
    a world state reads the same center distances from here, and so does
    the park relocation. Each field is computed on first use and then
    kept, so a view is valid only until something in the world moves, and
    its owner builds one view per world state, when something moves; a
    view nothing reads costs no array work.
    """

    __slots__ = ("world", "cars", "na", "nc",
                 "_dist", "_by_distance", "_near", "_nearest")

    def __init__(self, world: "WorldState"):
        self.world = world
        self.cars = world.all_cars()
        self.na = len(world.agents)
        self.nc = len(self.cars)
        self._dist = self._by_distance = None
        self._near = self._nearest = None

    def distances(self) -> np.ndarray:
        """Center distance per agent and column: ``np.sqrt(dx*dx +
        dy*dy)``, not ``np.hypot``. On grid-snapped centers the sum of
        squares is exact, so this equals ``math.hypot`` bit for bit, while
        ``np.hypot`` differs from it on some inputs."""
        if self._dist is None:
            import numpy as np
            cars = self.cars
            xy = ([c.x for c in cars] + SPACE_X
                  + [c.y for c in cars] + SPACE_Y)
            p = np.fromiter(xy, float, len(xy)).reshape(2, -1)
            d = p[:, None, :] - p[:, :self.na, None]
            sq = d * d
            self._dist = np.sqrt(sq[0] + sq[1])
        return self._dist

    def cars_by_distance(self) -> tuple[list[list[int]], list[list[float]]]:
        """Per agent, the car columns in ascending center distance, ties
        by column (a stable sort), and the center distances to the cars by
        column."""
        if self._by_distance is None:
            dist = self.distances()[:, :self.nc]
            order = dist.argsort(axis=1, kind="stable")
            self._by_distance = order.tolist(), dist.tolist()
        return self._by_distance

    def near(self) -> list[list[int]]:
        """Broad phase: per agent, in column order, the cars whose
        centers are at most twice the car circumradius at the world's
        scale (plus REACH_SLACK) away; no pair outside it gets past
        obb_intersects' own circumradius check."""
        if self._near is None:
            reach = 2.0 * (CAR_CIRCUMRADIUS * self.world.scale) + REACH_SLACK
            self._near = []
            for order, row in zip(*self.cars_by_distance()):
                close = []
                for j in order:
                    if row[j] > reach:
                        break
                    close.append(j)
                close.sort()
                self._near.append(close)
        return self._near

    def nearest_other_car(self) -> list[float]:
        """Per agent, the center distance to the closest other car, or
        MAX_WORLD_DISTANCE when there is none."""
        if self._nearest is None:
            self._nearest = [
                next((row[j] for j in order if j != own), MAX_WORLD_DISTANCE)
                for own, (order, row) in enumerate(
                    zip(*self.cars_by_distance()))]
        return self._nearest


# ---------------------------------------------------------------- world state


@dataclass
class WorldState:
    """Mutable world snapshot owned by one environment instance: the
    arena's spaces at the grid's theta granularity, the parked cars, the
    agents, and the one hitbox scale of every car."""

    grid: GridSpec
    parked: list[CarBody] = field(default_factory=list)
    parked_space: list[int] = field(default_factory=list)  # space id per parked car
    agents: list[CarBody] = field(default_factory=list)
    scale: float = 1.0
    spaces: tuple[ParkingSpace, ...] = field(init=False)

    def __post_init__(self) -> None:
        mult = self.grid.theta_granularity // SPACE_TURNS
        self.spaces = tuple(
            ParkingSpace(cx, cy, th * mult) for cx, cy, th in SPACE_POSES
        )

    # -------------------------------------------------------------- occupancy

    def occupied_space_ids(self) -> set[int]:
        return set(self.parked_space)

    def free_space_ids(self) -> list[int]:
        occ = self.occupied_space_ids()
        return [sid for sid in range(len(self.spaces)) if sid not in occ]

    def place_parked_cars(self, count: int, rng: random.Random) -> None:
        ids = rng.sample(range(len(self.spaces)), count)
        for sid in sorted(ids):
            sp = self.spaces[sid]
            self.parked.append(CarBody(sp.x, sp.y, sp.theta))
            self.parked_space.append(sid)

    def relocate_furthest_parked_car(self, vacated_space: int,
                                     arrays: WorldArrays | None) -> int | None:
        """Teleport the parked car with the greatest minimum distance to any
        agent, read from `arrays`, into the vacated space. Returns the moved
        car's index, or None when there are no parked cars. Ties go to the
        lowest index. `arrays` must be the view of the world as it is now,
        from all agents; there is one whenever there are parked cars."""
        if not self.parked:
            return None
        if vacated_space in self.parked_space:
            raise ValueError(f"space {vacated_space} is already occupied")
        dist = arrays.distances()[:, arrays.na:arrays.nc]
        best_i = int(dist.min(axis=0).argmax())
        sp = self.spaces[vacated_space]
        car = self.parked[best_i]
        car.x, car.y, car.theta = sp.x, sp.y, sp.theta
        self.parked_space[best_i] = vacated_space
        return best_i

    # ---------------------------------------------------------------- queries

    def all_cars(self) -> list[CarBody]:
        return self.agents + self.parked

    def collides_static(self, bodies, arrays: WorldArrays | None = None):
        """Check each body against walls and parked cars: one 'wall',
        'parked-car' or None per body. With `arrays`, the current view from
        all agents, the bodies are the agents and only the parked cars its
        broad phase keeps are tested; without one, every parked car is,
        which serves the tick of a lone car that has no view."""
        if arrays is None:
            return [self.static_kind(b, self.parked) for b in bodies]
        cars, na = arrays.cars, arrays.na
        return [self.static_kind(b, [cars[j] for j in close if j >= na])
                for b, close in zip(bodies, arrays.near())]

    def static_kind(self, body: CarBody, cars) -> str | None:
        """The one hitbox test: 'wall' when body's hitbox reaches a wall,
        'parked-car' when it hits one of `cars`, else None."""
        # the walls are the arena box's edges, so a body hits one exactly
        # when a corner lies on or outside the box; a corner can only reach
        # an edge within the circumradius (plus REACH_SLACK for rounding in
        # the corners) of it
        e = EXTENT
        scale = self.scale
        r = CAR_CIRCUMRADIUS * scale + REACH_SLACK
        if not (r < body.x < e - r and r < body.y < e - r):
            for x, y in obb_corners(body, scale, self.grid):
                if x <= 0.0 or x >= e or y <= 0.0 or y >= e:
                    return "wall"
        for car in cars:
            if obb_intersects(body, car, scale, self.grid):
                return "parked-car"
        return None

    def agent_contacts(self, arrays: WorldArrays | None) -> list[tuple[int, int]]:
        """Index pairs (i, j), i < j, of agents whose hitboxes intersect,
        in (i, j) order. Only the pairs kept by the broad phase of
        `arrays`, the current view from all agents, are tested; a lone
        agent needs no view."""
        agents = self.agents
        na = len(agents)
        if na < 2:
            return []
        near = arrays.near()
        return [(i, j) for i in range(na) for j in near[i]
                if i < j < na
                and obb_intersects(agents[i], agents[j], self.scale, self.grid)]

    def ring_counts(self, spec: RingSpec, arrays: WorldArrays | None):
        """Per agent, the obstacles strictly inside each ring's disk around
        it, capped at max_count: one tuple per agent. An obstacle is inside
        when its hitbox is closer to the agent than the ring radius; the
        agent's own car never counts.

        The exact scalar distance decides every obstacle. The four walls
        are all measured (``wall_distances``, sorted once, so a ring's wall
        count is a bisection); with no view (a lone car with fixed goals
        has none) only they count. A car can only be inside when its center
        is within the largest radius plus its circumradius, so each agent
        walks its distance-sorted cars from `arrays` up to that reach (plus
        REACH_SLACK), and stops as soon as every ring is at the cap."""
        radii = [d / 2.0 for d in spec.diameters]
        cap = spec.max_count
        counts = []
        for car in self.agents:
            walls = sorted(wall_distances(car.x, car.y))
            counts.append([min(cap, bisect_left(walls, r)) for r in radii])
        # nothing to walk when the only car is the agent's own
        if (arrays is not None and not spec.walls_only and radii
                and arrays.nc > 1):
            cars = arrays.cars
            grid = self.grid
            scale = self.scale
            reach = max(radii) + CAR_CIRCUMRADIUS * scale + REACH_SLACK
            for k, (row, order, center) in enumerate(
                    zip(counts, *arrays.cars_by_distance())):
                if min(row) >= cap:
                    continue
                x, y = cars[k].x, cars[k].y
                for j in order:
                    if center[j] > reach:
                        break
                    if j == k:
                        continue
                    d = point_to_obb_distance(x, y, cars[j], scale, grid)
                    for ring, r in enumerate(radii):
                        if d < r and row[ring] < cap:
                            row[ring] += 1
                    if min(row) >= cap:
                        break
        return list(map(tuple, counts))

    def nearest_cars(self, n_track: int, fov_diameter: float,
                     arrays: WorldArrays):
        """Per agent, the columns of up to n_track other cars within the
        field of view, ascending center distance, ties by column."""
        if n_track <= 0:
            return [[] for _ in self.agents]
        reach = fov_diameter / 2.0
        out = []
        for own, (order, row) in enumerate(zip(*arrays.cars_by_distance())):
            found = []
            for j in order:
                if j == own:
                    continue
                if len(found) == n_track or not row[j] <= reach:
                    break
                found.append(j)
            out.append(found)
        return out

    def nearest_free_spaces(self, n_space: int, arrays: WorldArrays):
        """Per agent, from the space columns of `arrays`, up to
        n_space free spaces, ascending center distance, ties by space id.
        Slot stability lives in SpaceTracker."""
        if n_space <= 0:
            return [[] for _ in self.agents]
        free = self.free_space_ids()
        nc = arrays.nc
        dist = arrays.distances()[:, [nc + sid for sid in free]]
        order = dist.argsort(axis=1, kind="stable")[:, :n_space].tolist()
        return [[free[c] for c in cols] for cols in order]


class SpaceTracker:
    """Fixed-slot view of an agent's tracked parking spaces.

    A space keeps its slot for as long as it stays tracked; vacated slots
    are handed to newly tracked spaces in their distance order.
    """

    def __init__(self, n_space: int):
        self.n_space = n_space
        self.slots: list[int | None] = [None] * n_space

    def update(self, tracked_ids: list[int]) -> None:
        slots = self.slots
        wanted = set(tracked_ids)
        current = set(slots)
        current.discard(None)
        if current == wanted:
            return
        for i, sid in enumerate(slots):
            if sid is not None and sid not in wanted:
                slots[i] = None
        for sid in tracked_ids:
            if sid not in current:
                slots[slots.index(None)] = sid

    def slot_of(self, sid: int) -> int | None:
        try:
            return self.slots.index(sid)
        except ValueError:
            return None
