"""Static layout, car hitboxes, collision, ring sensing, and relocation.

Ring counts, nearest cars and nearest free spaces are seen from agents: a
``WorldArrays`` view names the observing agents (all, by default) and holds
what the queries share, the offsets and center distances from each
observer to every car and space and its cars sorted by distance. Each query
answers one row per observer, never counting the observer's own car. Three
rules keep these batched answers equal to scalar loops: center distances
are ``np.sqrt(dx*dx + dy*dy)``, which equals ``math.hypot`` on grid-snapped
centers (``np.hypot`` does not); ties sort by uid (or space id) with a
stable sort; and where a numpy value is too close to a threshold to call,
the exact scalar ``point_to_obb_distance`` decides. Collisions take a list
of bodies; given the tick's view, a broad phase over its sorted center
distances sends only nearby pairs to the exact ``obb_intersects``.
Bearings stay scalar (``geometry.localize``): ``np.arctan2`` differs from
``math.atan2`` on some inputs. numpy is imported where an array is first
built, not with this module: config parsing and layout files need no BLAS.

The default arena is a 74x74 square bounded by four walls, with 36 parking
spaces hugging the walls (9 per side) and a square ring road between the
space rows and the center used for spawning. A car footprint is 3x5 world
units and a space is 5x7, so a space exceeds the car by 2 units per axis.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .geometry import GridSpec, heading_vector

if TYPE_CHECKING:
    import numpy as np

CAR_HALF_WIDTH = 1.5
CAR_HALF_LENGTH = 2.5
SPACE_HALF_WIDTH = 2.5
SPACE_HALF_DEPTH = 3.5

# Relative half-width of the band around a squared ring radius inside
# which a numpy distance is too close to call and the exact scalar
# distance decides; numpy and scalar distances differ by a few ulps.
RING_BAND = 1e-9
# Added to the broad-phase reach so that rounding in the numpy center
# distance never drops a pair the exact test would keep.
REACH_SLACK = 1e-6

LAYOUT_MAGIC = "carpark-layout"
LAYOUT_VERSION = 1
# values each layout record carries
_RECORD_SIZES = {"extent": 1, "gtheta": 1, "wall": 4, "space": 3, "road": 2}


@dataclass(frozen=True, slots=True)
class Wall:
    x1: float
    y1: float
    x2: float
    y2: float


@dataclass(frozen=True, slots=True)
class ParkingSpace:
    sid: int
    x: float
    y: float
    theta: int  # rotation index in the environment's granularity
    half_width: float = SPACE_HALF_WIDTH
    half_depth: float = SPACE_HALF_DEPTH


@dataclass(slots=True)
class CarBody:
    """Oriented rectangular hitbox. kind is 'agent' or 'parked'."""

    x: float
    y: float
    theta: int
    half_width: float = CAR_HALF_WIDTH
    half_length: float = CAR_HALF_LENGTH
    scale: float = 1.0
    kind: str = "agent"
    uid: int = 0

    def circumradius(self) -> float:
        return math.hypot(self.half_width, self.half_length) * self.scale


@dataclass(frozen=True, slots=True)
class RingSpec:
    diameters: tuple[float, ...]
    max_count: int
    history_len: int = 0
    walls_only: bool = False

    def __post_init__(self) -> None:
        if self.max_count < 0 or self.history_len < 0:
            raise ValueError("ring counts and history must be non-negative")


@dataclass(frozen=True)
class Layout:
    extent: int
    gtheta: int  # granularity the space orientations are expressed in
    walls: tuple[Wall, ...]
    spaces: tuple[tuple[float, float, int], ...]  # (cx, cy, theta index)
    road_points: tuple[tuple[float, float], ...]


def default_layout() -> Layout:
    """36 spaces, 9 per wall, centers 3.5 units off their wall and facing
    the arena; ring-road spawn band 10..12 units from the boundary."""
    e = 74
    walls = (
        Wall(0.0, 0.0, float(e), 0.0),
        Wall(float(e), 0.0, float(e), float(e)),
        Wall(float(e), float(e), 0.0, float(e)),
        Wall(0.0, float(e), 0.0, 0.0),
    )
    # layout gtheta=4: 0=north, 1=east, 2=south, 3=west
    spaces: list[tuple[float, float, int]] = []
    centers = [17.0 + 5.0 * k for k in range(9)]
    for c in centers:
        spaces.append((c, 3.5, 0))  # bottom row, opening north
    for c in centers:
        spaces.append((70.5, c, 3))  # right column, opening west
    for c in centers:
        spaces.append((c, 70.5, 2))  # top row, opening south
    for c in centers:
        spaces.append((3.5, c, 1))  # left column, opening east
    road: list[tuple[float, float]] = []
    for xi in range(e + 1):
        for yi in range(e + 1):
            m = min(xi, yi, e - xi, e - yi)
            if 10 <= m <= 12:
                road.append((float(xi), float(yi)))
    return Layout(e, 4, walls, tuple(spaces), tuple(road))


def save_layout(layout: Layout, path: str) -> None:
    lines = [f"{LAYOUT_MAGIC} {LAYOUT_VERSION}"]
    lines.append(f"extent {layout.extent}")
    lines.append(f"gtheta {layout.gtheta}")
    for w in layout.walls:
        lines.append(f"wall {w.x1} {w.y1} {w.x2} {w.y2}")
    for cx, cy, th in layout.spaces:
        lines.append(f"space {cx} {cy} {th}")
    for x, y in layout.road_points:
        lines.append(f"road {x} {y}")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def load_layout(path: str) -> Layout:
    with open(path, encoding="ascii") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty layout file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != LAYOUT_MAGIC or head[1] != str(LAYOUT_VERSION):
        raise ValueError(f"{path}: unrecognized layout header {lines[0]!r}")
    extent = 0
    gtheta = 0
    walls: list[Wall] = []
    spaces: list[tuple[float, float, int]] = []
    road: list[tuple[float, float]] = []
    for ln in lines[1:]:
        tag, *args = ln.split()
        if tag not in _RECORD_SIZES:
            raise ValueError(f"{path}: unknown layout record {tag!r}")
        try:
            if len(args) != _RECORD_SIZES[tag]:
                raise ValueError(f"expected {_RECORD_SIZES[tag]} values")
            if tag == "extent":
                extent = int(args[0])
            elif tag == "gtheta":
                gtheta = int(args[0])
            elif tag == "wall":
                walls.append(Wall(*(float(a) for a in args)))
            elif tag == "space":
                spaces.append((float(args[0]), float(args[1]), int(args[2])))
            else:
                road.append((float(args[0]), float(args[1])))
        except ValueError as e:
            raise ValueError(
                f"{path}: malformed layout record {ln!r}: {e}") from None
    if extent <= 0 or gtheta <= 0:
        raise ValueError(f"{path}: missing extent or gtheta record")
    return Layout(extent, gtheta, tuple(walls), tuple(spaces), tuple(road))


# ------------------------------------------------------------------ hitboxes


def obb_corners(body: CarBody, grid: GridSpec) -> list[tuple[float, float]]:
    sx, sy = heading_vector(body.theta, grid)  # forward
    rx, ry = sy, -sx  # right-hand direction
    hw = body.half_width * body.scale
    hl = body.half_length * body.scale
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


def obb_intersects(a: CarBody, b: CarBody, grid: GridSpec) -> bool:
    """Separating-axis test over both rectangles' edge normals. Touching
    rectangles count as intersecting."""
    dx, dy = b.x - a.x, b.y - a.y
    reach = a.circumradius() + b.circumradius()
    if dx * dx + dy * dy > reach * reach:
        return False
    ca = obb_corners(a, grid)
    cb = obb_corners(b, grid)
    for body in (a, b):
        fx, fy = heading_vector(body.theta, grid)
        if _project_gap(fx, fy, ca, cb) or _project_gap(fy, -fx, ca, cb):
            return False
    return True


def obb_hits_segment(body: CarBody, wall: Wall, grid: GridSpec) -> bool:
    """Separating-axis test between a rectangle and a line segment."""
    ca = obb_corners(body, grid)
    cb = [(wall.x1, wall.y1), (wall.x2, wall.y2)]
    fx, fy = heading_vector(body.theta, grid)
    if _project_gap(fx, fy, ca, cb) or _project_gap(fy, -fx, ca, cb):
        return False
    ex, ey = wall.x2 - wall.x1, wall.y2 - wall.y1
    n = math.hypot(ex, ey)
    if n > 0.0:
        nx, ny = -ey / n, ex / n
        if _project_gap(nx, ny, ca, cb):
            return False
        if _project_gap(ex / n, ey / n, ca, cb):
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


def point_to_obb_distance(px: float, py: float, body: CarBody, grid: GridSpec) -> float:
    fx, fy = heading_vector(body.theta, grid)
    dx, dy = px - body.x, py - body.y
    # coordinates in the box frame: forward component and right component
    lf = dx * fx + dy * fy
    lr = dx * fy - dy * fx
    hl = body.half_length * body.scale
    hw = body.half_width * body.scale
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
                 "_offsets", "_dist", "_by_distance", "_near", "_boxes")

    def __init__(self, world: "WorldState", rows=None,
                 with_spaces: bool = False):
        self.world = world
        self.cars = world.agents + world.parked
        self.na = len(world.agents)
        self.nc = len(self.cars)
        self.rows = list(range(self.na) if rows is None else rows)
        self.with_spaces = with_spaces
        self._offsets = self._dist = self._by_distance = None
        self._near = self._boxes = None

    def offsets(self) -> np.ndarray:
        """Column center minus observer, shape (2, observers, columns):
        x offsets, then y offsets."""
        if self._offsets is None:
            import numpy as np
            w = self.world
            cars = self.cars
            if self.with_spaces:
                xy = ([c.x for c in cars] + w._space_x
                      + [c.y for c in cars] + w._space_y)
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
        """Per observer, the car columns in ascending (center distance,
        uid) order, and the center distances to the cars by column."""
        if self._by_distance is None:
            import numpy as np
            dist = self.distances()[:, :self.nc]
            uids = np.array([[c.uid for c in self.cars]]).repeat(len(dist), 0)
            order = np.lexsort((uids, dist))
            self._by_distance = order.tolist(), dist.tolist()
        return self._by_distance

    def near(self) -> list[list[int]]:
        """Broad phase: per observer, in column order, the cars whose
        centers are at most twice the largest car circumradius (plus
        REACH_SLACK) away; no pair outside it gets past obb_intersects'
        own circumradius check."""
        if self._near is None:
            reach = 2.0 * max(map(CarBody.circumradius, self.cars),
                              default=0.0) + REACH_SLACK
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

    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per car, its box axes [[fx, fy], [fy, -fx]] (shape (2, 2, cars))
        and scaled half-extents [half-length, half-width] (shape (2, cars))."""
        if self._boxes is None:
            import numpy as np
            g = self.world.grid.theta_granularity
            axes = self.world._axes[[c.theta % g for c in self.cars]]
            half = np.array([c.half_length * c.scale for c in self.cars]
                            + [c.half_width * c.scale for c in self.cars])
            self._boxes = axes.transpose(1, 2, 0), half.reshape(2, -1)
        return self._boxes


# ---------------------------------------------------------------- world state


@dataclass
class WorldState:
    """Mutable world snapshot owned by one environment instance."""

    grid: GridSpec
    extent: int
    walls: tuple[Wall, ...]
    spaces: tuple[ParkingSpace, ...]
    road_points: tuple[tuple[float, float], ...]
    parked: list[CarBody] = field(default_factory=list)
    parked_space: list[int] = field(default_factory=list)  # space id per parked car
    agents: list[CarBody] = field(default_factory=list)
    # walls are exactly the arena's four edges, so a corner outside the
    # extent is a wall hit and no segment test is needed
    boundary_walls_only: bool = field(init=False)

    def __post_init__(self) -> None:
        e = float(self.extent)
        box = ((0.0, 0.0), (e, 0.0), (e, e), (0.0, e))
        edges = {frozenset((box[k], box[k - 1])) for k in range(4)}
        walls = {frozenset(((w.x1, w.y1), (w.x2, w.y2))) for w in self.walls}
        self.boundary_walls_only = len(self.walls) == 4 and walls == edges
        # the space centers, a fixed part of every WorldArrays view
        self._space_x = [sp.x for sp in self.spaces]
        self._space_y = [sp.y for sp in self.spaces]

    @cached_property
    def _axes(self) -> np.ndarray:
        """Per heading index, the box axes [[fx, fy], [fy, -fx]]."""
        import numpy as np
        axes = []
        for t in range(self.grid.theta_granularity):
            fx, fy = heading_vector(t, self.grid)
            axes.append(((fx, fy), (fy, -fx)))
        return np.array(axes)

    @classmethod
    def from_layout(cls, layout: Layout, grid: GridSpec) -> "WorldState":
        if grid.theta_granularity % layout.gtheta != 0:
            raise ValueError(
                f"theta granularity {grid.theta_granularity} is not a multiple "
                f"of the layout's {layout.gtheta}"
            )
        mult = grid.theta_granularity // layout.gtheta
        spaces = tuple(
            ParkingSpace(i, cx, cy, th * mult)
            for i, (cx, cy, th) in enumerate(layout.spaces)
        )
        return cls(grid, layout.extent, layout.walls, spaces, layout.road_points)

    # -------------------------------------------------------------- occupancy

    def occupied_space_ids(self) -> set[int]:
        return set(self.parked_space)

    def free_space_ids(self) -> list[int]:
        occ = self.occupied_space_ids()
        return [s.sid for s in self.spaces if s.sid not in occ]

    def place_parked_cars(self, count: int, rng: random.Random) -> None:
        if count > len(self.spaces):
            raise ValueError(f"cannot park {count} cars in {len(self.spaces)} spaces")
        ids = rng.sample([s.sid for s in self.spaces], count)
        base_uid = len(self.agents)
        for i, sid in enumerate(sorted(ids)):
            sp = self.spaces[sid]
            self.parked.append(
                CarBody(sp.x, sp.y, sp.theta, kind="parked", uid=base_uid + i)
            )
            self.parked_space.append(sid)

    def relocate_furthest_parked_car(self, vacated_space: int) -> int | None:
        """Teleport the parked car with the greatest minimum distance to any
        agent into the vacated space. Returns the moved car's index, or None
        when there are no parked cars. Ties go to the lowest car uid."""
        if not self.parked:
            return None
        if vacated_space in self.parked_space:
            raise ValueError(f"space {vacated_space} is already occupied")
        best_i = -1
        best_key = None
        for i, car in enumerate(self.parked):
            if self.agents:
                dmin = min(
                    math.hypot(car.x - a.x, car.y - a.y) for a in self.agents
                )
            else:
                dmin = 0.0
            key = (-dmin, car.uid)
            if best_key is None or key < best_key:
                best_key = key
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
        e = float(self.extent)
        for x, y in obb_corners(body, self.grid):
            if x <= 0.0 or x >= e or y <= 0.0 or y >= e:
                if self.boundary_walls_only:
                    return "wall"
                break
        if not self.boundary_walls_only:
            for w in self.walls:
                if obb_hits_segment(body, w, self.grid):
                    return "wall"
        for car in parked:
            if obb_intersects(body, car, self.grid):
                return "parked-car"
        return None

    def agent_contacts(self, arrays: WorldArrays | None = None) -> list[tuple[int, int]]:
        """Index pairs (i, j), i < j, of agents whose hitboxes intersect,
        in (i, j) order. With `arrays`, the current view from all agents,
        only the pairs its broad phase keeps are tested."""
        agents = self.agents
        na = len(agents)
        if na < 2:
            return []
        near = [range(na)] * na if arrays is None else arrays.near()
        return [(i, j) for i in range(na) for j in near[i]
                if i < j < na and obb_intersects(agents[i], agents[j], self.grid)]

    def ring_counts(self, spec: RingSpec, arrays: WorldArrays):
        """Per observer of `arrays`, the obstacles strictly inside each
        ring's disk around it, capped at max_count: one tuple per observer.
        An obstacle is inside when its hitbox is closer to the observer than
        the ring radius; the observer's own car never counts.

        Walls, a handful, take the scalar distance. Cars take one numpy
        pass over all observers that compares squared distances; a pair
        within RING_BAND of a ring radius is decided by the exact scalar
        distance, so the counts equal a scalar loop's."""
        radii = [d / 2.0 for d in spec.diameters]
        cap = spec.max_count
        walls = self.walls
        cars = arrays.cars
        counts = []
        for k in arrays.rows:
            x, y = cars[k].x, cars[k].y
            dists = [point_to_segment_distance(x, y, w) for w in walls]
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
        # the array pass has nothing to count when the only car is the
        # observer's own
        if not spec.walls_only and radii and arrays.nc > 1:
            self._add_cars_in_rings(counts, radii, cap, arrays)
        return list(map(tuple, counts))

    def _add_cars_in_rings(self, counts, radii, cap,
                           arrays: WorldArrays) -> None:
        import numpy as np
        nc = arrays.nc
        rows = arrays.rows
        cars = arrays.cars
        axes, half = arrays.boxes()
        d = arrays.offsets()[:, :, :nc]
        # forward and right components, then the excess over the box
        terms = d[None] * axes[:, :, None, :]
        local = terms[:, 0] + terms[:, 1]
        excess = np.maximum(np.abs(local) - half[:, None, :], 0.0)
        sq = excess * excess
        d2 = sq[0] + sq[1]
        d2[range(len(rows)), rows] = np.inf  # the observer's own car
        r = np.array(radii)
        r2 = r * r
        band = RING_BAND * np.maximum(r2, 1.0)
        gap = d2[:, :, None] - r2
        inside = (gap < -band).sum(axis=1).tolist()
        unsure = np.abs(gap) <= band
        if unsure.any():
            for k, j, ring in zip(*(a.tolist() for a in unsure.nonzero())):
                own = cars[rows[k]]
                dist = point_to_obb_distance(own.x, own.y, cars[j], self.grid)
                inside[k][ring] += dist < radii[ring]
        for row, add in zip(counts, inside):
            for k, n in enumerate(add):
                n += row[k]
                row[k] = n if n < cap else cap

    def nearest_cars(self, n_track: int, fov_diameter: float,
                     arrays: WorldArrays):
        """Per observer of `arrays`, up to n_track other cars within the
        field of view, ascending center distance, ties by uid."""
        cars = arrays.cars
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
                found.append(cars[j])
            out.append(found)
        return out

    def nearest_free_spaces(self, n_space: int, fov_diameter: float,
                            arrays: WorldArrays):
        """Per observer of `arrays`, which has the space columns, up to
        n_space free spaces within the field of view, ascending center
        distance, ties by space id. Slot stability lives in SpaceTracker."""
        if n_space <= 0 or not self.spaces:
            return [[] for _ in arrays.rows]
        dist = arrays.distances()[:, arrays.nc:]
        if self.parked_space:
            dist = dist.copy()
            dist[:, self.parked_space] = math.nan  # occupied
        reach = fov_diameter / 2.0
        order = dist.argsort(axis=1, kind="stable")[:, :n_space].tolist()
        return [[j for j in cols if row[j] <= reach]
                for row, cols in zip(dist.tolist(), order)]


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
        wanted = set(tracked_ids)
        for i, sid in enumerate(self.slots):
            if sid is not None and sid not in wanted:
                self.slots[i] = None
        current = {sid for sid in self.slots if sid is not None}
        new_ids = [sid for sid in tracked_ids if sid not in current]
        for sid in new_ids:
            free = self.slots.index(None)
            self.slots[free] = sid

    def slot_of(self, sid: int) -> int | None:
        try:
            return self.slots.index(sid)
        except ValueError:
            return None
