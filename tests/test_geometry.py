"""Unit tests for grid kinematics and relative-pose math."""

import math
import random
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from carpark.config import config_from_mapping
from carpark.geometry import (
    GridSpec,
    bearing_index_units,
    clamp_velocity,
    heading_vector,
    localize,
    motion_step,
    round_half_up,
    wrap_signed_index,
)
from carpark.observation import build_observation, build_schema
from carpark.world import EXTENT

G8 = GridSpec(theta_granularity=8, position_granularity=0)


class Pose(NamedTuple):
    """World position plus heading index: a pose for localize and
    motion_step, which read x, y and theta."""

    x: float
    y: float
    theta: int


class LocalPose(NamedTuple):
    """localize's plain triple with its field names, in its order.

    d is the center distance in world units. theta_rel is the bearing of
    the target from the observer's facing direction, in (real-valued)
    rotation-index units wrapped to [0, Gtheta). delta_theta is observer
    heading minus target heading, wrapped to (-Gtheta/2, Gtheta/2].
    """

    d: float
    theta_rel: float
    delta_theta: float


def local_pose(observer, target, grid: GridSpec) -> LocalPose:
    return LocalPose(*localize(observer, target, grid))


# The inverse of localize, kept here as its oracle: localize encodes a
# target relative to an observer, and these recover the target from it.


def angle_vector(theta_index_units: float, grid: GridSpec) -> tuple[float, float]:
    """Unit vector for a real-valued angle given in rotation-index units."""
    rad = math.radians(theta_index_units * grid.degrees_per_index)
    return math.sin(rad), math.cos(rad)


def local_offset(lp_d: float, angle_index_units: float, grid: GridSpec) -> tuple[float, float]:
    sx, sy = angle_vector(angle_index_units, grid)
    return lp_d * sx, lp_d * sy


def reconstruct(observer: Pose, lp: LocalPose, grid: GridSpec) -> tuple[float, float]:
    """Recover the target's world position from observer + LocalPose."""
    dx, dy = local_offset(lp.d, lp.theta_rel + observer.theta, grid)
    return observer.x + dx, observer.y + dy


def random_grid_pose(rng: random.Random, grid: GridSpec) -> Pose:
    s = grid.cell_scale
    n = EXTENT * s
    return Pose(
        rng.randrange(0, n + 1) / s,
        rng.randrange(0, n + 1) / s,
        rng.randrange(grid.theta_granularity),
    )


# ---------------------------------------------------------------- grid spec


def test_grid_snap_rounds_half_up_per_axis():
    g = GridSpec(position_granularity=0)
    assert g.snap(0.5, -0.5) == (1.0, 0.0)
    g2 = GridSpec(position_granularity=1)
    assert g2.snap(0.25, 0.74) == (0.5, 0.5)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2  # no banker's rounding
    assert round_half_up(-0.5) == 0
    assert round_half_up(2.4) == 2


# -------------------------------------------------------------- motion step


def test_motion_straight_ahead():
    # cos 0 = 1: one unit along +y
    assert motion_step(Pose(0, 0, 0), 1, 0, G8) == Pose(0.0, 1.0, 0)


def test_motion_east():
    # sin 90 = 1
    assert motion_step(Pose(0, 0, 2), 2, 0, G8) == Pose(2.0, 0.0, 2)


def test_motion_rotate_then_move_snaps():
    # theta 1 -> 2 (90 deg) before moving; raw (2.0, 1.2e-16) snaps to (2, 0)
    # at Gp=0 (trig oracle + grid rounding)
    assert motion_step(Pose(0, 0, 1), 2, 1, G8) == Pose(2.0, 0.0, 2)


def test_motion_identity_on_grid_poses():
    rng = random.Random(7)
    for gp in (0, 1, 4):
        grid = GridSpec(position_granularity=gp)
        for _ in range(200):
            p = random_grid_pose(rng, grid)
            assert motion_step(p, 0, 0, grid) == p


def test_motion_step_snaps_as_grid_snap_does():
    # motion_step inlines GridSpec.snap; off-grid starts exercise its
    # rounding, and the result is a plain (x, y, theta) tuple
    rng = random.Random(23)
    for gp in (0, 1, 4):
        grid = GridSpec(position_granularity=gp, velocity_granularity=3,
                        theta_granularity=24)
        for _ in range(300):
            p = Pose(rng.uniform(0.0, 74.0), rng.uniform(0.0, 74.0),
                     rng.randrange(24))
            v, omega = rng.randint(-3, 3), rng.randint(-2, 2)
            out = motion_step(p, v, omega, grid)
            assert type(out) is tuple
            theta = (p.theta + omega) % 24
            fx, fy = heading_vector(theta, grid)
            d = v / 3
            x, y = (p.x + d * fx, p.y + d * fy) if v else (p.x, p.y)
            assert out == (*grid.snap(x, y), theta)


def test_motion_velocity_quantum_scales_with_granularity():
    grid = GridSpec(position_granularity=4, velocity_granularity=4)
    p = motion_step(Pose(10.0, 10.0, 0), 1, 0, grid)
    assert p == Pose(10.0, 10.25, 0)
    p = motion_step(Pose(10.0, 10.0, 0), 4, 0, grid)
    assert p == Pose(10.0, 11.0, 0)


def test_motion_reverse_moves_backwards():
    assert motion_step(Pose(5.0, 5.0, 0), -1, 0, G8) == Pose(5.0, 4.0, 0)


def test_heading_vector_exact_on_quadrants():
    g24 = GridSpec(theta_granularity=24)
    assert heading_vector(0, g24) == (0.0, 1.0)
    assert heading_vector(6, g24) == (1.0, 0.0)
    assert heading_vector(12, g24) == (0.0, -1.0)
    assert heading_vector(18, g24) == (-1.0, 0.0)


# ----------------------------------------------------------- velocity clamp


def test_clamp_upper():
    assert clamp_velocity(1, 1, 1, 1) == 1


def test_clamp_identity():
    assert clamp_velocity(0, 0, 1, 1) == 0


def test_clamp_lower_bound():
    # direct substitution into the clamp rule
    assert clamp_velocity(-1, -2, 1, 2) == -2


@given(
    v=st.integers(-6, 6),
    a=st.integers(-3, 3),
    fwd=st.integers(0, 6),
    rev=st.integers(0, 6),
)
def test_clamp_always_within_domain(v, a, fwd, rev):
    out = clamp_velocity(v, a, fwd, rev)
    assert -rev <= out <= fwd
    if -rev <= v + a <= fwd:
        assert out == v + a


# ---------------------------------------------------------------- localize


def test_localize_dead_ahead():
    lp = local_pose(Pose(0, 0, 0), Pose(0, 5, 0), G8)
    assert (lp.d, lp.theta_rel, lp.delta_theta) == (5.0, 0.0, 0.0)


def test_localize_offset_target():
    # numpy trig oracle: d=5, bearing=36.86989764584402 deg = 0.8193310587965338
    # index units at Gtheta=8, delta = -90 deg = -2 indices
    lp = local_pose(Pose(0, 0, 0), Pose(3, 4, 2), G8)
    assert lp.d == 5.0
    assert lp.theta_rel == pytest.approx(0.8193310587965338, abs=1e-12)
    assert lp.delta_theta == -2.0


def test_localize_coincident_positions():
    lp = local_pose(Pose(3, 3, 1), Pose(3, 3, 5), G8)
    assert lp.d == 0.0
    assert lp.theta_rel == 0.0
    assert lp.delta_theta == -4.0 or lp.delta_theta == 4.0


def test_localize_translation_invariance_exact():
    # integer translations keep coordinate differences bit-exact
    rng = random.Random(11)
    grid = GridSpec(position_granularity=2)
    for _ in range(500):
        p1 = random_grid_pose(rng, grid)
        p2 = random_grid_pose(rng, grid)
        a, b = rng.randrange(-40, 40), rng.randrange(-40, 40)
        t1 = Pose(p1.x + a, p1.y + b, p1.theta)
        t2 = Pose(p2.x + a, p2.y + b, p2.theta)
        assert localize(t1, t2, grid) == localize(p1, p2, grid)


def test_localize_quarter_rotation_invariance_exact_indices():
    # rotating both poses clockwise by a quarter turn maps (x, y) -> (y, -x)
    # and adds Gtheta/4 to both headings; the discretized triple must not move
    rng = random.Random(13)
    grid = GridSpec(position_granularity=1)
    q = grid.theta_granularity // 4
    for _ in range(500):
        p1 = random_grid_pose(rng, grid)
        p2 = random_grid_pose(rng, grid)
        r1 = Pose(p1.y, -p1.x, (p1.theta + q) % grid.theta_granularity)
        r2 = Pose(p2.y, -p2.x, (p2.theta + q) % grid.theta_granularity)
        base = local_pose(p1, p2, grid)
        rot = local_pose(r1, r2, grid)
        assert rot.d == base.d  # hypot is exact under coordinate swap/negate
        assert rot.delta_theta == base.delta_theta
        assert discrete_goal(rot) == discrete_goal(base)


def test_localize_general_rotation_invariance_within_tolerance():
    rng = random.Random(17)
    grid = GridSpec(theta_granularity=24, position_granularity=0)
    step = math.radians(grid.degrees_per_index)
    for _ in range(300):
        p1 = random_grid_pose(rng, grid)
        p2 = random_grid_pose(rng, grid)
        j = rng.randrange(1, grid.theta_granularity)
        ang = j * step  # clockwise rotation by j indices
        cos_a, sin_a = math.cos(ang), math.sin(ang)

        def rot(p):
            # clockwise rotation in a clockwise-bearing convention adds +ang
            x = p.x * cos_a + p.y * sin_a
            y = -p.x * sin_a + p.y * cos_a
            return Pose(x, y, (p.theta + j) % grid.theta_granularity)

        base = local_pose(p1, p2, grid)
        r = local_pose(rot(p1), rot(p2), grid)
        assert r.d == pytest.approx(base.d, abs=1e-9)
        assert r.delta_theta == base.delta_theta
        if base.d > 1e-6:
            diff = (r.theta_rel - base.theta_rel) % grid.theta_granularity
            assert min(diff, grid.theta_granularity - diff) < 1e-9


def test_localize_reconstruction():
    rng = random.Random(19)
    grid = GridSpec(position_granularity=3)
    for _ in range(500):
        p1 = random_grid_pose(rng, grid)
        p2 = random_grid_pose(rng, grid)
        lp = local_pose(p1, p2, grid)
        x, y = reconstruct(p1, lp, grid)
        assert x == pytest.approx(p2.x, abs=1e-9)
        assert y == pytest.approx(p2.y, abs=1e-9)


# ---------------------------------------------------------------- discretize


def discrete_goal(lp: LocalPose, dist_gran: float = 1.0) -> tuple:
    """(distance, angle, delta) indices of a goal pose as the discrete
    observation rounds them at Gtheta=8."""
    cfg = config_from_mapping({"_obsDist": True, "_obsGoalDeltaPose": True,
                               "_distGranularity": dist_gran})
    raw = [0, lp.d, lp.theta_rel, lp.delta_theta]
    obs = build_observation(build_schema(cfg), cfg, raw)
    return tuple(obs[1:])


def test_discretize_distance_to_multiple():
    lp = LocalPose(10.2, 0.0, 0.0)
    assert discrete_goal(lp, 2.0)[0] == 5
    assert discrete_goal(LocalPose(2.5, 0.0, 0.0))[0] == 3  # half up


def test_discretize_zero_distance():
    assert discrete_goal(LocalPose(0.0, 0.0, 0.0)) == (0, 0, 0)


def test_discretize_angle_to_nearest_index():
    # 43 deg at Gtheta=8 -> nearest 45-degree multiple -> index 1
    lp = LocalPose(1.0, 43.0 / 45.0, 0.0)
    assert discrete_goal(lp)[1] == 1


def test_discretize_negative_delta_wraps():
    lp = LocalPose(1.0, 0.0, -2.0)
    assert discrete_goal(lp)[2] == 6


def test_discretize_rejects_bad_granularity():
    with pytest.raises(ValueError, match="_distGranularity"):
        discrete_goal(LocalPose(1.0, 0.0, 0.0), 0.0)


@given(st.floats(-40, 40), st.integers(1, 48))
def test_wrap_signed_index_range(value, gtheta):
    w = wrap_signed_index(value, gtheta)
    assert -gtheta / 2 < w <= gtheta / 2
    # equal modulo gtheta
    assert abs((w - value) % gtheta) < 1e-9 or abs((w - value) % gtheta - gtheta) < 1e-9


def test_bearing_quadrants():
    assert bearing_index_units(0.0, 1.0, G8) == 0.0
    assert bearing_index_units(1.0, 0.0, G8) == 2.0
    assert bearing_index_units(0.0, -1.0, G8) == 4.0
    assert bearing_index_units(-1.0, 0.0, G8) == 6.0


def test_local_offset_roundtrip():
    dx, dy = local_offset(5.0, 2.0, G8)
    assert dx == pytest.approx(5.0, abs=1e-12)
    assert dy == pytest.approx(0.0, abs=1e-12)
