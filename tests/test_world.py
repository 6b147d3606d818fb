"""Arena, hitbox, ring, and relocation tests.

Collision expectations were cross-checked against a dense point-sampling
oracle (membership of sampled interior points of one rectangle in the
other); distance expectations against boundary sampling.
"""

import hashlib
import math
import random

import pytest

from carpark.geometry import GridSpec
from carpark.world import (
    CAR_HALF_LENGTH,
    CAR_HALF_WIDTH,
    EXTENT,
    ROAD_POINTS,
    SPACE_POSES,
    WALLS,
    CarBody,
    RingSpec,
    SpaceTracker,
    Wall,
    WorldArrays,
    WorldState,
    obb_corners,
    obb_intersects,
    point_to_obb_distance,
    point_to_segment_distance,
)

G8 = GridSpec(theta_granularity=8)
G24 = GridSpec(theta_granularity=24)
# the road points as test_arena_is_pinned hashes them
ROAD_SHA256 = "3e69f7a2e4f91b9dadf0c47fe19af710cd6eecce04b10528466de95322dacb6f"


def make_world(grid=G8):
    return WorldState(grid)


# ------------------------------------------------------------------- arena


def test_default_layout_counts():
    assert EXTENT == 74
    assert len(WALLS) == 4
    assert len(SPACE_POSES) == 36
    # 9 spaces per side
    bottom = [s for s in SPACE_POSES if s[1] == 3.5]
    top = [s for s in SPACE_POSES if s[1] == 70.5]
    left = [s for s in SPACE_POSES if s[0] == 3.5]
    right = [s for s in SPACE_POSES if s[0] == 70.5]
    assert len(bottom) == len(top) == len(left) == len(right) == 9


def test_default_layout_spacing_and_margins():
    xs = sorted(s[0] for s in SPACE_POSES if s[1] == 3.5)
    assert xs[0] == 17.0 and xs[-1] == 57.0
    assert all(b - a == 5.0 for a, b in zip(xs, xs[1:]))
    # space strip is centered on the wall
    assert xs[0] - 2.5 == 74 - (xs[-1] + 2.5)


def test_road_band():
    assert ROAD_POINTS
    for x, y in ROAD_POINTS:
        m = min(x, y, 74 - x, 74 - y)
        assert 10 <= m <= 12
        assert x == int(x) and y == int(y)


def test_arena_is_pinned():
    """The walls in order, every space's center and quarter turns in
    space-id order, and the road points in the order a plain spawn draws
    them by index."""
    assert [(w.x1, w.y1, w.x2, w.y2) for w in WALLS] == [
        (0.0, 0.0, 74.0, 0.0), (74.0, 0.0, 74.0, 74.0),
        (74.0, 74.0, 0.0, 74.0), (0.0, 74.0, 0.0, 0.0)]
    row = [17.0, 22.0, 27.0, 32.0, 37.0, 42.0, 47.0, 52.0, 57.0]
    assert [tuple(p) for p in SPACE_POSES] == (
        [(c, 3.5, 0) for c in row] + [(70.5, c, 3) for c in row]
        + [(c, 70.5, 2) for c in row] + [(3.5, c, 1) for c in row])
    assert len(ROAD_POINTS) == 624
    text = "\n".join(f"{x!r} {y!r}" for x, y in ROAD_POINTS)
    assert hashlib.sha256(text.encode()).hexdigest() == ROAD_SHA256


def test_layout_theta_conversion():
    w8 = make_world(G8)
    w24 = make_world(G24)
    # bottom row opens north: index 0 in every granularity
    assert w8.spaces[0].theta == 0 and w24.spaces[0].theta == 0
    # right column opens west: 3/4 of a turn
    assert w8.spaces[9].theta == 6
    assert w24.spaces[9].theta == 18


# ------------------------------------------------------------------ hitboxes


def test_corners_axis_aligned():
    body = CarBody(10.0, 10.0, 0)
    xs = sorted(p[0] for p in obb_corners(body, 1.0, G8))
    ys = sorted(p[1] for p in obb_corners(body, 1.0, G8))
    assert xs == [8.5, 8.5, 11.5, 11.5]
    assert ys == [7.5, 7.5, 12.5, 12.5]


def test_corners_scale():
    body = CarBody(0.0, 0.0, 2)  # facing east
    xs = [p[0] for p in obb_corners(body, 2.0, G8)]
    ys = [p[1] for p in obb_corners(body, 2.0, G8)]
    assert max(xs) == 5.0 and min(xs) == -5.0
    assert max(ys) == 3.0 and min(ys) == -3.0


def test_touching_counts_as_hit():
    a = CarBody(10.0, 10.0, 0)
    assert obb_intersects(a, CarBody(13.0, 10.0, 0), 1.0, G8)
    assert not obb_intersects(a, CarBody(13.5, 10.0, 0), 1.0, G8)


def test_cross_and_diagonal():
    a = CarBody(10.0, 10.0, 0)
    assert obb_intersects(a, CarBody(10.0, 10.0, 2), 1.0, G8)
    assert obb_intersects(a, CarBody(12.0, 13.0, 1), 1.0, G8)
    assert not obb_intersects(a, CarBody(14.0, 14.0, 1), 1.0, G8)


def test_intersects_symmetric_random():
    rng = random.Random(11)
    for _ in range(300):
        grid = rng.choice([G8, G24])
        a = CarBody(rng.uniform(0, 20), rng.uniform(0, 20),
                    rng.randrange(grid.theta_granularity))
        b = CarBody(rng.uniform(0, 20), rng.uniform(0, 20),
                    rng.randrange(grid.theta_granularity))
        assert obb_intersects(a, b, 1.0, grid) == obb_intersects(b, a, 1.0, grid)


def test_intersects_matches_sampling_oracle():
    # membership of dense interior samples of either box in the other
    def inside(px, py, body, scale, grid):
        from carpark.geometry import heading_vector
        fx, fy = heading_vector(body.theta, grid)
        dx, dy = px - body.x, py - body.y
        lf = dx * fx + dy * fy
        lr = dx * fy - dy * fx
        return (abs(lf) <= CAR_HALF_LENGTH * scale + 1e-12
                and abs(lr) <= CAR_HALF_WIDTH * scale + 1e-12)

    def oracle(a, b, scale, grid, n=40):
        from carpark.geometry import heading_vector
        for body, other in ((a, b), (b, a)):
            fx, fy = heading_vector(body.theta, grid)
            rx, ry = fy, -fx
            hl = CAR_HALF_LENGTH * scale
            hw = CAR_HALF_WIDTH * scale
            for i in range(n + 1):
                for j in range(n + 1):
                    u = (2 * i / n - 1) * hl
                    v = (2 * j / n - 1) * hw
                    if inside(body.x + u * fx + v * rx,
                              body.y + u * fy + v * ry, other, scale, grid):
                        return True
        return False

    rng = random.Random(23)
    scales = set()
    for _ in range(120):
        grid = rng.choice([G8, G24])
        scale = rng.choice([1.0, 1.3])  # one world scale for both cars
        scales.add(scale)
        a = CarBody(rng.uniform(0, 20), rng.uniform(0, 20),
                    rng.randrange(grid.theta_granularity))
        b = CarBody(rng.uniform(0, 20), rng.uniform(0, 20),
                    rng.randrange(grid.theta_granularity))
        assert obb_intersects(a, b, scale, grid) == oracle(a, b, scale, grid)
    assert scales == {1.0, 1.3}


def test_point_segment_distance():
    wall = Wall(0.0, 0.0, 74.0, 0.0)
    assert point_to_segment_distance(10.0, 3.0, wall) == 3.0
    assert point_to_segment_distance(80.0, 3.0, wall) == pytest.approx(
        math.hypot(6.0, 3.0))


def test_point_obb_distance():
    body = CarBody(10.0, 10.0, 0)
    assert point_to_obb_distance(10.0, 10.0, body, 1.0, G8) == 0.0
    assert point_to_obb_distance(11.5, 10.0, body, 1.0, G8) == 0.0  # on the edge
    assert point_to_obb_distance(14.5, 10.0, body, 1.0, G8) == 3.0
    assert point_to_obb_distance(13.5, 14.5, body, 1.0, G8) == pytest.approx(
        math.hypot(2.0, 2.0))


# -------------------------------------------------------------------- rings


def test_ring_counts_strictness():
    # lone parked car whose hitbox is 3 units away (its long side, 1.5 from
    # its center, faces the observer): inside every ring with radius > 3,
    # outside the radius-3 ring; the walls are 30 units away
    w = make_world()
    w.agents.append(CarBody(30.0, 30.0, 0))
    w.parked.append(CarBody(34.5, 30.0, 0))
    w.parked_space.append(0)
    spec = RingSpec(diameters=(14.0, 11.0, 10.0, 7.0, 6.0), max_count=3)
    assert w.ring_counts(spec, WorldArrays(w)) == [(1, 1, 1, 1, 0)]


def test_ring_counts_cap_and_exclusion():
    w = make_world()
    w.agents.append(CarBody(30.0, 30.0, 0))
    # five parked cars whose hitboxes are 2.0-2.4 units away
    for i in range(5):
        w.parked.append(CarBody(33.5 + i * 0.1, 30.0, 0))
        w.parked_space.append(i)
    spec = RingSpec(diameters=(10.0,), max_count=3)
    assert w.ring_counts(spec, WorldArrays(w)) == [(3,)]
    # the querying car's own hitbox never counts
    spec1 = RingSpec(diameters=(10.0,), max_count=9)
    assert w.ring_counts(spec1, WorldArrays(w)) == [(5,)]


def test_ring_counts_walls_only():
    w = make_world()
    w.agents.append(CarBody(11.0, 11.0, 0))
    w.parked.append(CarBody(11.0, 16.0, 0))
    w.parked_space.append(0)
    both = RingSpec(diameters=(24.0,), max_count=9)
    walls = RingSpec(diameters=(24.0,), max_count=9, walls_only=True)
    # near the corner both boundary walls are within 11 < 12
    assert w.ring_counts(walls, WorldArrays(w)) == [(2,)]
    assert w.ring_counts(both, WorldArrays(w)) == [(3,)]


def test_ring_counts_hitbox_not_center():
    # car center 6 from the agent but its nose reaches to 3.5: the hitbox
    # distance decides membership
    w = make_world()
    w.agents.append(CarBody(30.0, 30.0, 0))
    w.parked.append(CarBody(30.0, 36.0, 0))
    w.parked_space.append(0)
    spec = RingSpec(diameters=(8.0,), max_count=1)
    assert w.ring_counts(spec, WorldArrays(w)) == [(1,)]


# --------------------------------------------------------- proximity queries


def test_nearest_cars_order_and_fov():
    w = make_world()
    w.agents.append(CarBody(30.0, 30.0, 0))
    w.agents.append(CarBody(34.0, 30.0, 0))
    w.parked.append(CarBody(30.0, 33.0, 0))
    w.parked.append(CarBody(70.0, 30.0, 0))
    w.parked_space.extend([0, 1])
    [got] = w.nearest_cars(5, 20.0, WorldArrays(w, [0]))
    assert got == [2, 1]  # 3.0 before 4.0; column 3 out of range
    [got] = w.nearest_cars(1, 20.0, WorldArrays(w, [0]))
    assert got == [2]


def test_nearest_cars_tie_breaks_by_column():
    # three cars 5 units from agent 0: ties go to the lower column, which
    # neither x nor y order gives
    w = make_world()
    w.agents.append(CarBody(30.0, 30.0, 0))
    w.agents.append(CarBody(30.0, 35.0, 0))  # column 1
    w.parked.append(CarBody(35.0, 30.0, 0))  # column 2
    w.parked.append(CarBody(25.0, 30.0, 0))  # column 3
    w.parked_space.extend([0, 1])
    [got] = w.nearest_cars(3, 50.0, WorldArrays(w, [0]))
    assert got == [1, 2, 3]
    [got] = w.nearest_cars(1, 50.0, WorldArrays(w, [0]))
    assert got == [1]


def test_nearest_free_spaces_skips_occupied():
    w = make_world()
    w.agents.append(CarBody(17.0, 12.0, 4))
    rng = random.Random(3)
    w.place_parked_cars(0, rng)
    # occupy the nearest space (id 0 at (17, 3.5))
    w.parked.append(CarBody(17.0, 3.5, 0))
    w.parked_space.append(0)
    [got] = w.nearest_free_spaces(3, WorldArrays(w, with_spaces=True))
    assert 0 not in got
    assert got == sorted(got, key=lambda sid: (
        math.hypot(w.spaces[sid].x - 17.0, w.spaces[sid].y - 12.0), sid))


def test_space_tracker_slots_are_sticky():
    tr = SpaceTracker(3)
    tr.update([5, 9, 2])
    assert tr.slots == [5, 9, 2]
    # 9 leaves, 4 enters: 4 takes the freed middle slot
    tr.update([5, 4, 2])
    assert tr.slots == [5, 4, 2]
    # everything leaves but 4
    tr.update([4])
    assert tr.slots == [None, 4, None]
    tr.update([1, 4, 8])
    assert tr.slots == [1, 4, 8]
    assert tr.slot_of(4) == 1 and tr.slot_of(99) is None


# ----------------------------------------------------------------- occupancy


def test_place_parked_cars_occupies_distinct_spaces():
    w = make_world()
    w.place_parked_cars(16, random.Random(5))
    assert len(w.parked) == 16
    assert len(set(w.parked_space)) == 16
    for car, sid in zip(w.parked, w.parked_space):
        sp = w.spaces[sid]
        assert (car.x, car.y, car.theta) == (sp.x, sp.y, sp.theta)
    assert len(w.free_space_ids()) == 20


def test_relocate_moves_furthest_from_agents():
    w = make_world()
    w.agents.append(CarBody(17.0, 12.0, 0))
    # two parked cars: one near the agent, one across the arena
    w.parked.append(CarBody(17.0, 3.5, 0))
    w.parked.append(CarBody(57.0, 70.5, 4))
    w.parked_space.extend([0, 26])
    moved = w.relocate_furthest_parked_car(4)
    assert moved == 1  # the car across the arena
    sp = w.spaces[4]
    assert (w.parked[1].x, w.parked[1].y, w.parked[1].theta) == (sp.x, sp.y, sp.theta)
    assert w.parked_space == [0, 4]


def test_relocate_tie_breaks_lowest_index():
    w = make_world()
    w.agents.append(CarBody(37.0, 37.0, 0))
    # parked car 0 is the nearest; cars 1 and 2 are equidistant and furthest
    w.parked.append(CarBody(70.5, 37.0, 6))
    w.parked.append(CarBody(17.0, 3.5, 0))
    w.parked.append(CarBody(17.0, 70.5, 4))
    w.parked_space.extend([13, 0, 18])
    assert w.relocate_furthest_parked_car(9) == 1
    assert w.parked_space == [13, 9, 18]


def test_relocate_without_parked_cars_is_noop():
    w = make_world()
    w.agents.append(CarBody(17.0, 12.0, 0))
    assert w.relocate_furthest_parked_car(0) is None


def test_relocate_rejects_occupied_target():
    w = make_world()
    w.agents.append(CarBody(17.0, 12.0, 0))
    w.parked.append(CarBody(17.0, 3.5, 0))
    w.parked_space.append(0)
    with pytest.raises(ValueError):
        w.relocate_furthest_parked_car(0)


# ------------------------------------------------------------ static queries


def test_collides_static_wall_and_parked():
    w = make_world()
    w.parked.append(CarBody(17.0, 3.5, 0))
    w.parked_space.append(0)
    assert w.collides_static([CarBody(10.0, 2.0, 0), CarBody(17.0, 7.0, 0),
                              CarBody(37.0, 37.0, 3)]) == [
        "wall", "parked-car", None]


def test_parked_cars_inside_their_spaces():
    # a car placed at a space pose never collides with the boundary
    w = make_world()
    w.place_parked_cars(36, random.Random(1))
    for car in w.parked:
        for x, y in obb_corners(car, 1.0, G8):
            assert 0.0 < x < 74.0 and 0.0 < y < 74.0
