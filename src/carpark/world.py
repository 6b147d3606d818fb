"""The arena, car hitboxes, collision, ring sensing, and relocation.

Ring counts, nearest cars and nearest free spaces are seen from agents: a
``WorldArrays`` view names the observing agents (all, by default) and holds
what the queries share, the offsets and center distances from each
observer to every car and space and its cars sorted by distance. Each query
answers one row per observer, never counting the observer's own car. A car
is named by its column in ``WorldState.all_cars()`` (agents first, so agent
i is column i) and a space by its index in ``WorldState.spaces``. Three
rules keep these batched answers equal to scalar loops: center distances
are ``np.sqrt(dx*dx + dy*dy)``, which equals ``math.hypot`` on grid-snapped
centers (``np.hypot`` does not); ties sort by column (or space id) with a
stable sort; and numpy only picks candidates, while an exact scalar test
decides every hitbox question. Ring counts and collisions walk each
observer's sorted center distances up to a reach that no hitbox within the
threshold can exceed, and send only those cars to the exact
``point_to_obb_distance`` or ``obb_intersects``.
Bearings stay scalar (``geometry.localize``): ``np.arctan2`` differs from
``math.atan2`` on some inputs. numpy is imported where an array is first
built, not with this module: config parsing needs no BLAS.

The arena is the paper's parking lot, and the only one: a 74x74 square
bounded by four walls, with 36 parking spaces hugging the walls (9 per
side) and a square ring road between the space rows and the center used
for spawning. It is declared once, below (``EXTENT``, ``WALLS``,
``SPACE_POSES``, ``ROAD_POINTS``), and built at import. Every car has the
one footprint declared below, 3x5 world units (``CAR_HALF_WIDTH``,
``CAR_HALF_LENGTH``), which only ``WorldState.scale`` varies, for every car
at once. A space is 5x7, so a space exceeds the car by 2 units per axis.
"""

from __future__ import annotations

import math
import random
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


@dataclass(frozen=True, slots=True)
class Wall:
    x1: float
    y1: float
    x2: float
    y2: float


# ------------------------------------------------------------------ the arena

EXTENT = 74  # side of the square arena, world units
MAX_WORLD_DISTANCE = math.hypot(EXTENT, EXTENT)  # the arena's diagonal
_EDGE = float(EXTENT)  # the far edge of the arena box

WALLS = (
    Wall(0.0, 0.0, float(EXTENT), 0.0),
    Wall(float(EXTENT), 0.0, float(EXTENT), float(EXTENT)),
    Wall(float(EXTENT), float(EXTENT), 0.0, float(EXTENT)),
    Wall(0.0, float(EXTENT), 0.0, 0.0),
)

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
    history_len: int = 0
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


def point_to_segment_distance(px: float, py: float, wall: Wall) -> float:
    ex, ey = wall.x2 - wall.x1, wall.y2 - wall.y1
    wx, wy = px - wall.x1, py - wall.y1
    denom = ex * ex + ey * ey
    if denom == 0.0:
        return math.hypot(wx, wy)
    t = (wx * ex + wy * ey) / denom
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(wx - t * ex, wy - t * ey)


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
    """One world state as arrays, seen from the agents in `rows`.

    Rows are the observers: the agent indices in `rows`, all agents in
    agent order by default. Columns are the cars in ``all_cars()`` order
    (agents, then parked cars, so agent i is column i), then, if
    `with_spaces`, the parking spaces in space-id order. Every batched
    query of a tick reads the same offsets and distances from here. Each
    field is computed on first use and then kept, so a view is valid only
    until something in the world moves; a view nothing reads costs no
    array work.
    """

    __slots__ = ("world", "cars", "na", "nc", "rows", "with_spaces",
                 "_offsets", "_dist", "_by_distance", "_near")

    def __init__(self, world: "WorldState", rows=None,
                 with_spaces: bool = False):
        self.world = world
        self.cars = world.agents + world.parked
        self.na = len(world.agents)
        self.nc = len(self.cars)
        self.rows = list(range(self.na) if rows is None else rows)
        self.with_spaces = with_spaces
        self._offsets = self._dist = self._by_distance = None
        self._near = None

    def offsets(self) -> np.ndarray:
        """Column center minus observer, shape (2, observers, columns):
        x offsets, then y offsets."""
        if self._offsets is None:
            import numpy as np
            cars = self.cars
            if self.with_spaces:
                xy = ([c.x for c in cars] + SPACE_X
                      + [c.y for c in cars] + SPACE_Y)
            else:
                xy = [c.x for c in cars] + [c.y for c in cars]
            p = np.fromiter(xy, float, len(xy)).reshape(2, -1)
            q = p[:, self.rows]
            self._offsets = p[:, None, :] - q[:, :, None]
        return self._offsets

    def distances(self) -> np.ndarray:
        """Center distance per observer and column: ``np.sqrt(dx*dx +
        dy*dy)``, not ``np.hypot``. On grid-snapped centers the sum of
        squares is exact, so this equals ``math.hypot`` bit for bit, while
        ``np.hypot`` differs from it on some inputs."""
        if self._dist is None:
            import numpy as np
            d = self.offsets()
            sq = d * d
            self._dist = np.sqrt(sq[0] + sq[1])
        return self._dist

    def cars_by_distance(self) -> tuple[list[list[int]], list[list[float]]]:
        """Per observer, the car columns in ascending center distance, ties
        by column (a stable sort), and the center distances to the cars by
        column."""
        if self._by_distance is None:
            dist = self.distances()[:, :self.nc]
            order = dist.argsort(axis=1, kind="stable")
            self._by_distance = order.tolist(), dist.tolist()
        return self._by_distance

    def near(self) -> list[list[int]]:
        """Broad phase: per observer, in column order, the cars whose
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
        """Per observer, the center distance to the closest other car (inf
        when there is none)."""
        return [next((row[j] for j in order if j != own), math.inf)
                for own, order, row in zip(self.rows, *self.cars_by_distance())]


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

    def relocate_furthest_parked_car(self, vacated_space: int) -> int | None:
        """Teleport the parked car with the greatest minimum distance to any
        agent into the vacated space. Returns the moved car's index, or None
        when there are no parked cars. Ties go to the lowest index."""
        if not self.parked:
            return None
        if vacated_space in self.parked_space:
            raise ValueError(f"space {vacated_space} is already occupied")
        best_i = -1
        best_d = -math.inf
        for i, car in enumerate(self.parked):
            if self.agents:
                dmin = min(
                    math.hypot(car.x - a.x, car.y - a.y) for a in self.agents
                )
            else:
                dmin = 0.0
            if dmin > best_d:  # strict: a tie keeps the lower index
                best_d = dmin
                best_i = i
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
        broad phase keeps are tested."""
        if arrays is None:
            return [self._static_kind(b, self.parked) for b in bodies]
        cars, na = arrays.cars, arrays.na
        return [self._static_kind(b, [cars[j] for j in close if j >= na])
                for b, close in zip(bodies, arrays.near())]

    def _static_kind(self, body: CarBody, parked) -> str | None:
        # the walls are the arena box's edges, so a body hits one exactly
        # when a corner lies on or outside the box; a corner can only reach
        # an edge within the circumradius (plus REACH_SLACK for rounding in
        # the corners) of it
        e = _EDGE
        scale = self.scale
        r = CAR_CIRCUMRADIUS * scale + REACH_SLACK
        if not (r < body.x < e - r and r < body.y < e - r):
            for x, y in obb_corners(body, scale, self.grid):
                if x <= 0.0 or x >= e or y <= 0.0 or y >= e:
                    return "wall"
        for car in parked:
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

    def ring_counts(self, spec: RingSpec, arrays: WorldArrays):
        """Per observer of `arrays`, the obstacles strictly inside each
        ring's disk around it, capped at max_count: one tuple per observer.
        An obstacle is inside when its hitbox is closer to the observer than
        the ring radius; the observer's own car never counts.

        The exact scalar distance decides every obstacle. Walls, a handful,
        are all measured. A car can only be inside when its center is
        within the largest radius plus its circumradius, so each observer
        walks its distance-sorted cars from `arrays` up to that reach (plus
        REACH_SLACK), and stops as soon as every ring is at the cap."""
        radii = [d / 2.0 for d in spec.diameters]
        cap = spec.max_count
        cars = arrays.cars
        counts = []
        for k in arrays.rows:
            x, y = cars[k].x, cars[k].y
            dists = [point_to_segment_distance(x, y, w) for w in WALLS]
            row = []
            for r in radii:
                n = 0
                for d in dists:
                    if d < r:
                        n += 1
                        if n >= cap:
                            break
                row.append(n if n < cap else cap)
            counts.append(row)
        # nothing to walk when the only car is the observer's own
        if not spec.walls_only and radii and arrays.nc > 1:
            grid = self.grid
            scale = self.scale
            reach = max(radii) + CAR_CIRCUMRADIUS * scale + REACH_SLACK
            for k, row, order, center in zip(arrays.rows, counts,
                                             *arrays.cars_by_distance()):
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
        """Per observer of `arrays`, the columns of up to n_track other cars
        within the field of view, ascending center distance, ties by
        column."""
        if n_track <= 0:
            return [[] for _ in arrays.rows]
        reach = fov_diameter / 2.0
        out = []
        for own, order, row in zip(arrays.rows, *arrays.cars_by_distance()):
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
        """Per observer of `arrays`, which has the space columns, up to
        n_space free spaces, ascending center distance, ties by space id.
        Slot stability lives in SpaceTracker."""
        if n_space <= 0:
            return [[] for _ in arrays.rows]
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

    def reset(self) -> None:
        self.slots = [None] * self.n_space

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
