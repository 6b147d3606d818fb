"""Static layout, car hitboxes, collision, ring sensing, and relocation.

The default arena is a 74x74 square bounded by four walls, with 36 parking
spaces hugging the walls (9 per side) and a square ring road between the
space rows and the center used for spawning. A car footprint is 3x5 world
units and a space is 5x7, so a space exceeds the car by 2 units per axis.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .geometry import GridSpec, Pose, heading_vector

CAR_HALF_WIDTH = 1.5
CAR_HALF_LENGTH = 2.5
SPACE_HALF_WIDTH = 2.5
SPACE_HALF_DEPTH = 3.5

LAYOUT_MAGIC = "carpark-layout"
LAYOUT_VERSION = 1


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

    @property
    def pose(self) -> Pose:
        return Pose(self.x, self.y, self.theta)

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
    if len(head) != 2 or head[0] != LAYOUT_MAGIC or int(head[1]) != LAYOUT_VERSION:
        raise ValueError(f"{path}: unrecognized layout header {lines[0]!r}")
    extent = 0
    gtheta = 0
    walls: list[Wall] = []
    spaces: list[tuple[float, float, int]] = []
    road: list[tuple[float, float]] = []
    for ln in lines[1:]:
        parts = ln.split()
        tag, args = parts[0], parts[1:]
        if tag == "extent":
            extent = int(args[0])
        elif tag == "gtheta":
            gtheta = int(args[0])
        elif tag == "wall":
            walls.append(Wall(*(float(a) for a in args)))
        elif tag == "space":
            spaces.append((float(args[0]), float(args[1]), int(args[2])))
        elif tag == "road":
            road.append((float(args[0]), float(args[1])))
        else:
            raise ValueError(f"{path}: unknown layout record {tag!r}")
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

    def collides_static(self, body: CarBody) -> str | None:
        """Check a body against walls and parked cars; returns 'wall',
        'parked-car', or None."""
        corners = obb_corners(body, self.grid)
        e = float(self.extent)
        for x, y in corners:
            if x <= 0.0 or x >= e or y <= 0.0 or y >= e:
                if self.boundary_walls_only:
                    return "wall"
                break
        if not self.boundary_walls_only:
            for w in self.walls:
                if obb_hits_segment(body, w, self.grid):
                    return "wall"
        for car in self.parked:
            if obb_intersects(body, car, self.grid):
                return "parked-car"
        return None

    def ring_counts(self, cx: float, cy: float, exclude_uid: int, spec: RingSpec) -> tuple[int, ...]:
        """Count obstacles strictly inside each ring's disk, capped at
        max_count. An obstacle is inside when its hitbox is closer to the
        ring center than the ring radius."""
        distances: list[float] = []
        for w in self.walls:
            distances.append(point_to_segment_distance(cx, cy, w))
        if not spec.walls_only:
            for car in self.all_cars():
                if car.uid == exclude_uid:
                    continue
                distances.append(point_to_obb_distance(cx, cy, car, self.grid))
        counts = []
        for diam in spec.diameters:
            r = diam / 2.0
            n = 0
            for d in distances:
                if d < r:
                    n += 1
                    if n >= spec.max_count:
                        break
            counts.append(min(n, spec.max_count))
        return tuple(counts)

    def nearest_cars(self, cx: float, cy: float, exclude_uid: int, n_track: int, fov_diameter: float) -> list[CarBody]:
        if n_track <= 0:
            return []
        reach = fov_diameter / 2.0
        found: list[tuple[float, int, CarBody]] = []
        for car in self.all_cars():
            if car.uid == exclude_uid:
                continue
            d = math.hypot(car.x - cx, car.y - cy)
            if d <= reach:
                found.append((d, car.uid, car))
        found.sort(key=lambda t: (t[0], t[1]))
        return [car for _, _, car in found[:n_track]]

    def nearest_free_spaces(self, cx: float, cy: float, n_space: int, fov_diameter: float) -> list[int]:
        """Free spaces within the field of view, ascending center distance,
        ties by space id. Slot stability lives in SpaceTracker."""
        if n_space <= 0:
            return []
        reach = fov_diameter / 2.0
        occ = self.occupied_space_ids()
        found: list[tuple[float, int]] = []
        for sp in self.spaces:
            if sp.sid in occ:
                continue
            d = math.hypot(sp.x - cx, sp.y - cy)
            if d <= reach:
                found.append((d, sp.sid))
        found.sort()
        return [sid for _, sid in found[:n_space]]


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
