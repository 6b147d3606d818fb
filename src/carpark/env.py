"""The parking MDP: episode lifecycle, dynamics, rewards, goal mechanics,
give-way contexts, and terminal handling for N independent agents.

Step order within a single tick, one method per phase, each called once
by `step_all`: `_transition_goals` (dynamic goals only) applies the goal
actions on the pre-move state; `_move` moves every agent in index order;
`_collide` resolves collisions against post-move poses; `_score` does
tracking refresh, lost-goal handling, park checks and rewards, and is the
one place an episode ends, counting the outcome where it decides it and
handing out the finished AgentState. `_start_next_episodes` respawns the
terminal agents (a respawn is the one place an episode starts, with a new
state and car, and reset respawns every agent); a successful park first
relocates the parked car farthest from all agents into the space the
parking agent vacates, keeping the parked-car count constant. Last comes
`_sense`, the sensing pass: one center-distance matrix from every agent
to every car and space gives each agent's nearest-car list and
nearest-car distance and each space's closest-agent distances.

Every world query is seen from all agents through one view per world
state, `_seen`, a `WorldArrays` that `_look` builds when something moves
(after the tick's moves and after each respawn) and nowhere else; a lone
car with fixed goals has nothing to sense and no view. The sensing pass
reads the current view, so after respawns it reuses the last one.
Everything `observe` reads is derived state that `reset` and
`step_all` leave behind: the ring window (`rings`, whose current counts
come from `_score` or a respawn), and the nearest-car lists
(`nearby`) and the space table behind `global_info` from the sensing
pass. The next tick's goal transitions read the same tables, since
nothing moves between the end of one tick and the goal transitions of
the next.

`observe` is the one walk that gathers an agent's raw feature values, in
schema order and with the sentinels for what it cannot see; the schema's
feature kinds say how `build_observation` encodes them. The sensing pass
also builds the whole per-tick space table: each space's closest-agent
distance (a column min of the distance matrix) and closest-goal-agent
distance (one pass over the agents' goals), so `global_info` is a read of
two lists. Goals are read at the sensing pass, which is exact, since
goals and positions only change in `reset` and `step_all`, which both end
with that pass. An agent's own goal pose serves the tracked slot that
holds its goal, so `observe` localizes each (observer, target) pair once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

from .config import EnvironmentConfig
from .geometry import (
    GridSpec,
    bearing_index_units,
    clamp_velocity,
    heading_vector,
    localize,
    motion_step,
    round_half_up,
    wrap_signed_index,
)
from .observation import (
    ActionSchema,
    ObsSchema,
    build_action_schema,
    build_observation,
    build_schema,
)
from .world import (
    EXTENT,
    MAX_WORLD_DISTANCE,
    ROAD_POINTS,
    SPACE_HALF_DEPTH,
    SPACE_HALF_WIDTH,
    CarBody,
    RingSpec,
    SpaceTracker,
    WorldArrays,
    WorldState,
    obb_corners,
    obb_intersects,  # not called here; benchmarks/tracing.py patches it
    point_to_obb_distance,  # not called here; benchmarks/tracing.py patches it
)

PARK_CENTER_THRESHOLD = 1.0  # world units from space center
PLAIN_SPAWN_TRIES = 200  # random road points tried by one plain spawn
# a crash point lies on the target agent's line to its goal, at least
# this share of the line from either end
CRASH_POINT_MARGIN = 0.2

# context id -> metric name fragment
CONTEXTS = {
    ("L", "S"): "LocalSameGoal",
    ("L", "A"): "LocalAnyGoal",
    ("G", "S"): "GlobalSameGoal",
    ("G", "A"): "GlobalAnyGoal",
    ("G+", "S"): "NonLocalSameGoal",
    ("G+", "A"): "NonLocalAnyGoal",
}

TRANSITIONS = (
    "StopExplore", "StopGoal", "ChangeGoal", "ContinueExplore", "ContinueGoal",
)

# how an episode ended -> its stat key
TERMINAL_STATS = {"parked": "parked", "crashed": "crashed", "timeout": "halted"}
# crash kind -> its stat key
CRASH_STATS = {"wall": "crash_wall", "parked-car": "crash_parked",
               "agent-car": "crash_agent"}

# context id -> (name, total stat key, positive stat key)
GAVE_WAY_KEYS = {ctx: (name, f"gave_way_{name}_total", f"gave_way_{name}_pos")
                 for ctx, name in CONTEXTS.items()}


@dataclass(slots=True)
class ActionTuple:
    accel: int
    omega: int
    delta_g: int | None = None


class StepOutcome:
    """What happened to one agent in one tick: its reward, how its
    episode ended, if it did, and the events behind them. `terminal` is
    the one outcome field: whether the agent parked, crashed or timed out
    is read from it and from nothing else, and its speed when it parked is
    `velocity`. On a terminal tick `episode` is the AgentState that ended,
    as the tick left it: the episode's own record of its steps, reward and
    counters. Every field has its default on the class, so a fresh
    instance runs no __init__; setting a field sets it on that instance
    alone."""

    reward: float = 0.0
    terminal: str | None = None  # parked | crashed | timeout | None
    crash_kind: str | None = None  # agent-car | parked-car | wall
    lost_goal: bool = False
    transition: str | None = None
    transition_reward: float = 0.0
    # context name -> whether the agent gave way, for each context it was
    # in; set by the goal transition (dynamic goals), None without one
    gave_way: dict | None = None
    velocity: int = 0
    omega: int = 0
    moved_toward_goal: int = 0  # sign of goal-distance decrease
    episode: AgentState | None = None  # the episode that ended, if one did


@dataclass(slots=True)
class AgentState:
    """One agent's state within an episode. Every default is how an
    episode starts: a respawn builds a fresh AgentState around a new car
    and gives it only the episode's goal, a fresh tracker and a ring
    window of zero states. Nothing outlives an episode, so a finished
    state stays as its last tick left it. `rings` holds the current ring
    counts, then the `_ringNumPrevObs` earlier states, newest first."""

    body: CarBody
    v: int = 0
    goal_space: int | None = None  # space id; None = exploring (dynamic mode)
    episode_step: int = 0
    prev_goal_distance: float = 0.0
    tracker: SpaceTracker | None = None
    rings: list[tuple[int, ...]] = field(default_factory=list)
    nearby: list[int] = field(default_factory=list)  # tracked car columns
    episode_reward: float = 0.0
    steps_exploring: int = 0
    steps_toward_goal: int = 0
    steps_toward_space_exploring: int = 0


def _pose_values(lp: tuple | None, bound: float) -> tuple:
    """The triple (d, theta_rel, delta_theta) of a seen target as localize
    gives it, or the sentinel for an unseen one: (bound, 0.0, 0.0)."""
    return (bound, 0.0, 0.0) if lp is None else lp


class ParkingEnv:
    def __init__(
        self,
        cfg: EnvironmentConfig,
        rng=None,
        seed: int | None = None,
    ):
        import random as _random

        if rng is None:
            rng = _random.Random(seed)
        elif seed is not None:
            raise ValueError("ParkingEnv takes an rng or a seed, not both")
        self.rng = rng
        self.cfg = cfg
        self.grid: GridSpec = cfg.grid()
        self.ring_spec: RingSpec | None = cfg.ring_spec()
        self.schema: ObsSchema = build_schema(cfg)
        self.action_schema: ActionSchema = build_action_schema(cfg)
        self._accel_range = (-cfg.max_reverse_accel, cfg._maxDeltaVMagnitude)
        # the raw values of one absent nearby-car slot, in schema order
        self._absent_car = self._absent_car_values()
        # the ring window of an episode start: the current counts and
        # _ringNumPrevObs earlier states, all zero
        self._ring_start = ([(0,) * len(cfg.ringDiams)]
                            * (cfg._ringNumPrevObs + 1))
        self.world = WorldState(self.grid)  # reset rebuilds it, keeping its scale
        self.agents: list[AgentState] = []
        # space table of the sensing pass (dynamic goals only): per space,
        # every agent's distance to it, the closest agent's distance, and
        # the closest distance of an agent whose goal it is (None if none)
        self._space_agent_d: list[list[float]] = []
        self._space_near: list[float] = []
        self._space_goal_near: list[float | None] = []
        # the one view of the current world state (see _look)
        self._seen: WorldArrays | None = None
        # running totals, read by trainers for metric recording
        self.stats = {
            "episodes": 0,
            "parked": 0,
            "crashed": 0,
            "halted": 0,
            "crash_wall": 0,
            "crash_agent": 0,
            "crash_parked": 0,
            "lost_goal": 0,
        }
        for t in TRANSITIONS:
            self.stats[f"transition_{t}"] = 0
        for _, total, pos in GAVE_WAY_KEYS.values():
            self.stats[pos] = 0
            self.stats[total] = 0
        self.reset()

    # ------------------------------------------------------------- lifecycle

    def reset(self) -> None:
        self.world = WorldState(self.grid, scale=self.world.scale)
        # placeholders at the origin until each agent's respawn
        self.agents = [AgentState(CarBody(0.0, 0.0, 0))
                       for _ in range(self.cfg._numAgents)]
        self.world.agents = [agent.body for agent in self.agents]
        self.world.place_parked_cars(self.cfg._numParkedCars, self.rng)
        for i in range(len(self.agents)):
            self._respawn(i)
        self._sense()

    def set_car_scale(self, scale: float) -> None:
        """Switch every hitbox to a new scale (training/evaluation phases);
        reset keeps it."""
        self.world.scale = scale

    def require_obs_mode(self, normalized: bool, user: str) -> None:
        """Reject an environment whose observation mode, `_normalizeObs`,
        is not the one the user (a trainer or an evaluator) needs."""
        if self.cfg._normalizeObs != normalized:
            mode = "normalized" if normalized else "discrete"
            fix = "set" if normalized else "unset"
            raise ValueError(f"{user} requires the {mode} observation mode; "
                             f"{fix} _normalizeObs")

    def _absent_car_values(self) -> list:
        """The sentinels of an absent nearby-car slot: bound distance, zero
        angle, delta and velocity, and no goal (the bound pose triple with
        fixed goals, the absent-slot index n_space + 1 with dynamic ones)."""
        cfg = self.cfg
        values = list(_pose_values(None, cfg.car_view_radius))
        if cfg._obsNearbyCarsVelocity:
            values.append(0)
        if cfg._obsNearbyCarsGoal:
            values += ((cfg.tracked_spaces + 1,)
                       if cfg._dynamicGoals
                       else _pose_values(None, MAX_WORLD_DISTANCE))
        return values

    # -------------------------------------------------------------- spawning

    def _goal_candidates(self, agent_i: int) -> list[int]:
        taken = {a.goal_space for j, a in enumerate(self.agents)
                 if j != agent_i and a.goal_space is not None}
        return [sid for sid in self.world.free_space_ids() if sid not in taken]

    def _spawn_legal(self, body: CarBody, agent_i: int) -> bool:
        """Whether agent_i's car may start at body's pose: no other car's
        center closer than carSpawnMinDistance, and no wall or car hit."""
        others = self.world.all_cars()
        del others[agent_i]
        min_d = self.cfg.mdp_to_world(self.cfg.carSpawnMinDistance)
        return (all(math.hypot(car.x - body.x, car.y - body.y) >= min_d
                    for car in others)
                and self.world.static_kind(body, others) is None)

    def _place(self, agent_i: int, x: float, y: float, theta: int) -> bool:
        """Try agent_i's car at the snapped pose; a failed try is not undone."""
        body = self.agents[agent_i].body
        body.x, body.y = self.grid.snap(x, y)
        body.theta = theta
        return self._spawn_legal(body, agent_i)

    def _spawn_plain(self, agent_i: int, near: tuple[float, float] | None = None,
                     radius: float = 0.0) -> bool:
        points = ROAD_POINTS
        if near is not None:
            points = [p for p in points
                      if math.hypot(p[0] - near[0], p[1] - near[1]) <= radius]
            if not points:
                return False
        for _ in range(PLAIN_SPAWN_TRIES):
            x, y = self.rng.choice(points)
            theta = self.rng.randrange(self.grid.theta_granularity)
            if self._place(agent_i, x, y, theta):
                return True
        return False

    def spawn_crash_position(
        self, a2_pos: tuple[float, float], g2_pos: tuple[float, float],
        g1_pos: tuple[float, float],
    ) -> tuple[float, float, float, float] | None:
        """Position on the line crash-point -> g1, extended past the crash
        point by the target agent's distance to it. Returns (x, y, crash_x,
        crash_y) or None when the geometry degenerates."""
        ex, ey = g2_pos[0] - a2_pos[0], g2_pos[1] - a2_pos[1]
        if ex == 0.0 and ey == 0.0:
            return None
        u = self.rng.uniform(CRASH_POINT_MARGIN, 1.0 - CRASH_POINT_MARGIN)
        cx, cy = a2_pos[0] + u * ex, a2_pos[1] + u * ey
        d2 = math.hypot(cx - a2_pos[0], cy - a2_pos[1])
        gx, gy = cx - g1_pos[0], cy - g1_pos[1]
        norm = math.hypot(gx, gy)
        if norm == 0.0:
            return None
        return cx + d2 * gx / norm, cy + d2 * gy / norm, cx, cy

    def _spawn_crash(self, agent_i: int, g1: int | None) -> bool:
        min_target = self.cfg.mdp_to_world(self.cfg.spawnCrashTargetAgentMinDist)
        others = []
        for j, other in enumerate(self.agents):
            if j == agent_i or other.goal_space is None:
                continue
            sp = self.world.spaces[other.goal_space]
            if math.hypot(sp.x - other.body.x, sp.y - other.body.y) >= min_target:
                others.append((j, sp))
        if not others:
            return False
        if g1 is None:
            free = self._goal_candidates(agent_i)
            if not free:
                return False
            g1 = self.rng.choice(free)
        g1_sp = self.world.spaces[g1]
        for _ in range(20):
            j, g2_sp = self.rng.choice(others)
            other = self.agents[j]
            got = self.spawn_crash_position(
                (other.body.x, other.body.y), (g2_sp.x, g2_sp.y),
                (g1_sp.x, g1_sp.y))
            if got is None:
                continue
            x, y, cx, cy = got
            if not (0.0 < x < EXTENT and 0.0 < y < EXTENT):
                continue
            theta = round_half_up(
                bearing_index_units(cx - x, cy - y, self.grid)
            ) % self.grid.theta_granularity
            if self._place(agent_i, x, y, theta):
                return True
        return False

    def _respawn(self, agent_i: int) -> None:
        """Start agent_i's next episode, the one place an episode starts:
        draw its goal (fixed goals), give it a fresh AgentState around a
        new car in its column of `world.agents`, and draw a legal placement
        for that car; its tracker and rings are counted on the view the
        placement made. The placement reads only the other agents' goals
        and cars, so the finished episode's state is left as it ended."""
        cfg = self.cfg
        goal: int | None = None
        if not cfg._dynamicGoals:
            candidates = self._goal_candidates(agent_i)
            if not candidates:
                raise RuntimeError("no free parking space left for a goal")
            goal = self.rng.choice(candidates)
        n_space = cfg.tracked_spaces
        self.agents[agent_i] = agent = AgentState(
            CarBody(0.0, 0.0, 0), goal_space=goal,  # the car is placed below
            tracker=SpaceTracker(n_space) if n_space else None,
            rings=self._ring_start.copy())
        self.world.agents[agent_i] = agent.body
        # pick one scheme up front; a failed scheme falls back to the plain
        # random spawn, not to the next scheme in line
        scheme = "plain"
        if cfg.spawnCrashRatio > 0 and self.rng.random() < cfg.spawnCrashRatio:
            scheme = "crash"
        elif cfg.spawnCloseRatio > 0 and goal is not None \
                and self.rng.random() < cfg.spawnCloseRatio:
            scheme = "close"
        placed = False
        if scheme == "crash":
            placed = self._spawn_crash(agent_i, goal)
        elif scheme == "close":
            sp = self.world.spaces[goal]
            placed = self._spawn_plain(agent_i, near=(sp.x, sp.y),
                                       radius=float(cfg._spawnCloseDist))
        if not placed and not self._spawn_plain(agent_i):
            after = "" if scheme == "plain" else f" after the {scheme} spawn failed"
            raise RuntimeError(
                f"could not find a legal spawn position for agent {agent_i} "
                f"in {PLAIN_SPAWN_TRIES} plain-spawn tries{after}")
        # the placement moved a car; the respawned agent reads its own row
        # of the new view
        self._look()
        if agent.tracker:
            agent.tracker.update(self.world.nearest_free_spaces(
                agent.tracker.n_space, self._seen)[agent_i])
        if self.ring_spec:
            agent.rings[0] = self.world.ring_counts(
                self.ring_spec, self._seen)[agent_i]
        agent.prev_goal_distance = self._goal_distance(agent)

    # ------------------------------------------------------------- queries

    def _goal_distance(self, agent: AgentState) -> float:
        if agent.goal_space is None:
            return 0.0
        sp = self.world.spaces[agent.goal_space]
        return math.hypot(sp.x - agent.body.x, sp.y - agent.body.y)

    def nearest_car_distance(self, agent_i: int) -> float:
        """Center distance to the closest other car, as the current view
        keeps it; the arena diagonal for a lone car with fixed goals, which
        has no view and no other car."""
        seen = self._seen
        return (MAX_WORLD_DISTANCE if seen is None
                else seen.nearest_other_car()[agent_i])

    def _look(self) -> None:
        """Make `_seen` the view of the world as it is now, from all agents.
        Called exactly when something has moved: after the tick's moves and
        after each respawn; the env builds a view nowhere else. A lone car
        with fixed goals has nothing to sense, so its view is None."""
        world = self.world
        self._seen = (WorldArrays(world) if self.cfg._dynamicGoals
                      or len(world.agents) + len(world.parked) > 1 else None)

    def _sense(self) -> None:
        """The sensing pass, run at the end of reset and step_all on the
        current view: one center-distance matrix from every agent to every
        car and space fills each agent's nearest-car list and (with dynamic
        goals) the space table. The space table holds every agent's
        distance to each space, the closest of them (a column min, exact
        like min) and the closest among the agents whose goal the space is,
        with goals as they are now."""
        cfg = self.cfg
        world = self.world
        agents = self.agents
        arrays = self._seen
        if arrays is None:
            return
        if cfg._obsNearbyCars and cfg._obsNearbyCarsCount > 0:
            lists = world.nearest_cars(cfg._obsNearbyCarsCount,
                                       float(cfg._obsNearbyCarsDiameter),
                                       arrays)
            for agent, columns in zip(agents, lists):
                agent.nearby = columns
        if cfg._dynamicGoals:
            dist = arrays.distances()[:, arrays.nc:]
            by_space = self._space_agent_d = dist.T.tolist()
            self._space_near = dist.min(axis=0).tolist()
            goal_near: list[float | None] = [None] * len(by_space)
            for i, agent in enumerate(agents):
                sid = agent.goal_space
                if sid is not None:
                    d = by_space[sid][i]
                    near = goal_near[sid]
                    if near is None or d < near:
                        goal_near[sid] = d
            self._space_goal_near = goal_near

    def context_membership(self, agent_i: int) -> dict:
        """Give-way context membership (dynamic goals) on the current full
        state, for all six contexts. Empty when the agent has no goal.
        Positions come from the last sensing pass, goals from the agents as
        they are now."""
        agent = self.agents[agent_i]
        if agent.goal_space is None:
            return {}
        dists = self._space_agent_d[agent.goal_space]
        my_d = dists[agent_i]
        tracked = {j for j in agent.nearby if j < len(self.agents)}
        local_any = local_same = global_any = global_same = False
        for j, other in enumerate(self.agents):
            if j == agent_i:
                continue
            d = dists[j]
            if d >= my_d:
                continue
            global_any = True
            same = other.goal_space == agent.goal_space
            if same:
                global_same = True
            if j in tracked:
                local_any = True
                if same:
                    local_same = True
        return {
            ("L", "S"): local_same,
            ("L", "A"): local_any,
            ("G", "S"): global_same,
            ("G", "A"): global_any,
            ("G+", "S"): global_same and not local_same,
            ("G+", "A"): global_any and not local_any,
        }

    def global_info(self, space_id: int) -> tuple[float, float | None]:
        """Distance from the space to the closest agent, and to the closest
        agent whose goal it is (None when nobody's), from the space table
        of the last sensing pass, so dynamic goals only."""
        return self._space_near[space_id], self._space_goal_near[space_id]

    # ------------------------------------------------------------ observing

    def observe(self, agent_i: int) -> list:
        """The agent's observation: one raw value per schema feature, in
        schema order with the sentinels for what the agent cannot see,
        encoded by build_observation."""
        agent = self.agents[agent_i]
        cfg = self.cfg
        grid = self.grid
        body = agent.body  # localize reads only x, y and theta
        spaces = self.world.spaces
        d_max = MAX_WORLD_DISTANCE
        tracker = agent.tracker
        n_space = cfg.tracked_spaces
        goal_sid = agent.goal_space
        goal = (localize(body, spaces[goal_sid], grid)
                if goal_sid is not None else _pose_values(None, d_max))
        raw: list = [agent.v,
                     *compress(goal, (cfg._obsDist, cfg._obsAngle,
                                      cfg._obsGoalDeltaPose))]
        if cfg._dynamicGoals:
            slot = tracker.slot_of(goal_sid) if goal_sid is not None else None
            raw.append(slot + 1 if slot is not None else 0)
        if self.ring_spec:
            for state in agent.rings:
                raw.extend(state)
        if cfg._obsNearbyCars:
            nearby = agent.nearby[:cfg._obsNearbyCarsCount]
            cars = self.world.all_cars()
            for j in nearby:  # car column j is agent j when j < n_agents
                other = self.agents[j] if j < len(self.agents) else None
                raw += localize(body, cars[j], grid)
                if cfg._obsNearbyCarsVelocity:
                    raw.append(other.v if other else 0)
                if not cfg._obsNearbyCarsGoal:
                    continue
                other_sid = other.goal_space if other else None
                if not cfg._dynamicGoals:
                    raw += _pose_values(
                        localize(other.body, spaces[other_sid], grid)
                        if other_sid is not None else None, d_max)
                elif other_sid is None:
                    raw.append(0)  # parked or exploring: no goal
                else:
                    slot = tracker.slot_of(other_sid) if tracker else None
                    raw.append(slot + 1 if slot is not None else n_space + 1)
            raw += self._absent_car * (cfg._obsNearbyCarsCount - len(nearby))
        if cfg._dynamicGoals and tracker:
            slots = tracker.slots
            for sid in slots:
                if sid is None:
                    raw += _pose_values(None, d_max)
                elif sid == goal_sid:
                    raw += goal  # the own goal, localized above
                else:
                    raw += localize(body, spaces[sid], grid)
            if (cfg._obsParkingSpotClosestAgent
                    or cfg._obsParkingSpotClosestGoalAgent):
                near = []
                goal_near = []
                for sid in slots:
                    if sid is None:
                        near.append(d_max)
                        goal_near.append(d_max)
                        continue
                    a, g = self.global_info(sid)
                    near.append(a)
                    goal_near.append(d_max if g is None else g)
                if cfg._obsParkingSpotClosestAgent:
                    raw += near
                if cfg._obsParkingSpotClosestGoalAgent:
                    raw += goal_near
        return build_observation(self.schema, cfg, raw)

    # -------------------------------------------------------------- stepping

    def _check_action(self, action: ActionTuple) -> None:
        cfg = self.cfg
        lo, hi = self._accel_range
        if not lo <= action.accel <= hi:
            raise ValueError(f"acceleration {action.accel} outside domain")
        if abs(action.omega) > cfg._maxDeltaThetaMagnitude:
            raise ValueError(f"angular velocity {action.omega} outside domain")
        if cfg._dynamicGoals:
            if action.delta_g is None:
                raise ValueError("dynamic goals require a delta_g action")
            if not 0 <= action.delta_g <= cfg.tracked_spaces:
                raise ValueError(f"goal choice {action.delta_g} outside domain")
        elif action.delta_g not in (None, 0):
            raise ValueError("delta_g is only available with dynamic goals")

    def _goal_transition(self, agent_i: int, delta_g: int, events: StepOutcome) -> float:
        """Apply the dynamic-goal action on the pre-move state; returns the
        transition reward and records conformity counts."""
        agent = self.agents[agent_i]
        cfg = self.cfg
        old = agent.goal_space
        memberships = self.context_membership(agent_i)
        stats = self.stats
        gave = events.gave_way = {}
        # conformity: did the agent change goal when a context said to
        if old is not None:
            old_slot = agent.tracker.slot_of(old)
            gave_way = delta_g != (old_slot + 1 if old_slot is not None else 0)
            for ctx, inside in memberships.items():
                if inside:
                    name, total, pos = GAVE_WAY_KEYS[ctx]
                    gave[name] = gave_way
                    stats[total] += 1
                    if gave_way:
                        stats[pos] += 1
        new: int | None = None
        if delta_g > 0:
            new = agent.tracker.slots[delta_g - 1]  # empty slot -> explore
        scheme = ("L" if cfg._punishBetterOtherAgentLocal else "G",
                  "S" if cfg._punishBetterOtherGoalAgent else "A")
        bad_goal = bool(memberships) and memberships[scheme]
        if old is None and new is None:
            category, reward = "ContinueExplore", cfg.rewDeltaGoalContinueExp
        elif old is None:
            category, reward = "StopExplore", cfg.rewDeltaGoalStopExp
        elif new is None:
            category, reward = "StopGoal", cfg.stop_goal_reward
        elif new == old:
            category = "ContinueGoal"
            reward = (cfg.rewDeltaGoalContinueGoalBetterOtherAgent
                      if bad_goal else cfg.rewDeltaGoalContinueGoal)
        else:
            category, reward = "ChangeGoal", cfg.rewDeltaGoalDiffGoal
        agent.goal_space = new
        if new != old:
            agent.prev_goal_distance = self._goal_distance(agent)
        events.transition = category
        events.transition_reward = reward
        stats["transition_" + category] += 1
        return reward

    def step_all(self, actions: list[ActionTuple]) -> list[StepOutcome]:
        """One tick of every agent: the action check, then the six phases
        in order, with the tick's shared values passed between them."""
        n = len(self.agents)
        if len(actions) != n:
            raise ValueError(f"expected {n} actions, got {len(actions)}")
        for action in actions:
            self._check_action(action)
        events = [StepOutcome() for _ in actions]
        if self.cfg._dynamicGoals:
            self._transition_goals(actions, events)
        pre_nearest_space = self._move(actions, events)
        crashed = self._collide()
        terminals = self._score(actions, events, pre_nearest_space, crashed)
        self._start_next_episodes(events, terminals)
        self._sense()
        return events

    def _transition_goals(self, actions, events) -> None:
        """Phase 1 (dynamic goals): every agent's goal action, applied on
        the pre-move full state."""
        for i, (action, ev) in enumerate(zip(actions, events)):
            ev.reward += self._goal_transition(i, action.delta_g, ev)

    def _move(self, actions, events) -> list[tuple[int, float] | None]:
        """Phase 2: kinematics, in index order, then the view of the moved
        world. Returns, per agent, the nearest tracked space of an
        exploring agent before its move as (space id, distance), else
        None."""
        cfg = self.cfg
        agents = self.agents
        spaces = self.world.spaces
        grid = self.grid
        v_fwd, v_rev = cfg._maxVelocityMagnitude, cfg._minVelocityMagnitude
        pre_nearest_space: list[tuple[int, float] | None] = [None] * len(agents)
        for i, (agent, action, ev) in enumerate(zip(agents, actions, events)):
            body = agent.body
            # only dynamic goals track spaces or leave an agent exploring
            if agent.goal_space is None and agent.tracker:
                best = None
                for sid in agent.tracker.slots:
                    if sid is None:
                        continue
                    sp = spaces[sid]
                    d = math.hypot(sp.x - body.x, sp.y - body.y)
                    if best is None or d < best[1]:
                        best = (sid, d)
                pre_nearest_space[i] = best
            agent.v = v = clamp_velocity(agent.v, action.accel, v_fwd, v_rev)
            body.x, body.y, body.theta = motion_step(body, v, action.omega, grid)
            ev.omega = action.omega
            ev.velocity = v
        # the cars moved, so a new view, which serves _collide, _score and
        # _sense unless someone respawns
        self._look()
        return pre_nearest_space

    def _collide(self) -> dict[int, str]:
        """Phase 3: collisions on the post-move poses, read from the
        current view. Returns each crashed agent's crash kind by index:
        its wall or parked-car hit, else "agent-car"."""
        world = self.world
        seen = self._seen
        crashed: dict[int, str] = {}
        for i, kind in enumerate(world.collides_static(world.agents, seen)):
            if kind is not None:
                crashed[i] = kind
        for i, j in world.agent_contacts(seen):
            crashed.setdefault(i, "agent-car")
            crashed.setdefault(j, "agent-car")
        return crashed

    def _score(self, actions, events, pre_nearest_space, crashed) -> list[int]:
        """Phase 4, the one place an episode ends: tracking refresh, the
        ring window, lost goals, park checks and rewards, each outcome
        counted where it is decided. Returns the indices of the agents
        whose episode ended, in index order; each one's outcome holds its
        finished AgentState."""
        cfg = self.cfg
        dynamic = cfg._dynamicGoals
        world = self.world
        spaces = world.spaces
        ring_spec = self.ring_spec
        stats = self.stats
        if dynamic:
            tracked = world.nearest_free_spaces(cfg.tracked_spaces, self._seen)
            occupied_ids = world.occupied_space_ids()
        if ring_spec:
            counts = world.ring_counts(ring_spec, self._seen)
        tau = cfg._maxSteps
        terminals: list[int] = []
        for i, (agent, ev) in enumerate(zip(self.agents, events)):
            body = agent.body
            agent.episode_step += 1
            if agent.tracker:
                agent.tracker.update(tracked[i])
            if ring_spec:
                # a fixed window: the newest counts in, the oldest out
                agent.rings.insert(0, counts[i])
                agent.rings.pop()
            if dynamic and agent.goal_space is not None and i not in crashed:
                occupied = agent.goal_space in occupied_ids
                untracked = agent.tracker.slot_of(agent.goal_space) is None
                if occupied or untracked:
                    agent.goal_space = None
                    ev.lost_goal = True
                    stats["lost_goal"] += 1
            # movement bookkeeping covers terminal steps too
            if agent.goal_space is not None:
                sp = spaces[agent.goal_space]  # self._goal_distance, inlined
                new_d = math.hypot(sp.x - body.x, sp.y - body.y)
                moved = agent.prev_goal_distance - new_d
                agent.prev_goal_distance = new_d
                if moved > 0:
                    ev.moved_toward_goal = 1
                    agent.steps_toward_goal += 1
                elif moved < 0:
                    ev.moved_toward_goal = -1
            elif pre_nearest_space[i] is not None:
                sid, old_d = pre_nearest_space[i]
                sp = spaces[sid]
                if math.hypot(sp.x - body.x, sp.y - body.y) < old_d:
                    agent.steps_toward_space_exploring += 1
            if i in crashed:
                ev.crash_kind = kind = crashed[i]
                ev.reward -= cfg.rewCrash
                ev.terminal = "crashed"
                stats[CRASH_STATS[kind]] += 1
            elif self._parked_in_goal(agent):
                ev.reward += self._park_reward(agent)
                ev.terminal = "parked"
            else:
                ev.reward += self._dense_reward(agent, actions[i], ev)
                if agent.episode_step >= tau:
                    ev.terminal = "timeout"
            if dynamic and agent.goal_space is None:
                agent.steps_exploring += 1
            agent.episode_reward += ev.reward
            if ev.terminal:
                stats["episodes"] += 1
                stats[TERMINAL_STATS[ev.terminal]] += 1
                ev.episode = agent
                terminals.append(i)
        return terminals

    def _start_next_episodes(self, events, terminals) -> None:
        """Phase 5: respawn each agent whose episode ended, in index order,
        a park first relocating the parked car farthest from all agents
        into the space the parking agent vacates. A relocation may fill a
        space another agent targets; that goal is lost in the same tick."""
        filled: list[int] = []
        for i in terminals:
            agent = self.agents[i]
            if events[i].terminal == "parked":
                # the view is current: _move's, then the last respawn's
                self.world.relocate_furthest_parked_car(agent.goal_space,
                                                        self._seen)
                filled.append(agent.goal_space)
            self._respawn(i)
        if filled:
            done = set(terminals)
            for i, agent in enumerate(self.agents):
                if i not in done and agent.goal_space in filled:
                    agent.goal_space = None
                    events[i].lost_goal = True
                    self.stats["lost_goal"] += 1

    # --------------------------------------------------------------- rewards

    def _parked_in_goal(self, agent: AgentState) -> bool:
        if agent.goal_space is None:
            return False
        sp = self.world.spaces[agent.goal_space]
        dx, dy = agent.body.x - sp.x, agent.body.y - sp.y
        if dx * dx + dy * dy > PARK_CENTER_THRESHOLD * PARK_CENTER_THRESHOLD:
            return False
        return self._pose_fits_space(agent)

    def _park_reward(self, agent: AgentState) -> float:
        cfg = self.cfg
        reward = cfg.rewReachGoal
        if cfg.rewFinalVelocitySum > 0:
            reward -= cfg.rewFinalVelocitySum * abs(agent.v) / cfg.speed_bound
        if cfg.rewDeltaThetaSum > 0:
            sp = self.world.spaces[agent.goal_space]
            delta = wrap_signed_index(
                agent.body.theta - sp.theta, self.grid.theta_granularity)
            reward -= (cfg.rewDeltaThetaSum * abs(delta)
                       / (self.grid.theta_granularity / 2.0))
        return reward

    def _pose_fits_space(self, agent: AgentState) -> bool:
        sp = self.world.spaces[agent.goal_space]
        fx, fy = heading_vector(sp.theta, self.grid)
        for px, py in obb_corners(agent.body, self.world.scale, self.grid):
            lx, ly = px - sp.x, py - sp.y
            lf = lx * fx + ly * fy
            lr = lx * fy - ly * fx
            if abs(lf) > SPACE_HALF_DEPTH or abs(lr) > SPACE_HALF_WIDTH:
                return False
        return True

    def _dense_reward(self, agent: AgentState, action: ActionTuple,
                      ev: StepOutcome) -> float:
        cfg = self.cfg
        tau = cfg._maxSteps
        reward = -cfg.rewTimeSum / tau
        if agent.goal_space is not None and ev.moved_toward_goal:
            reward += ev.moved_toward_goal * cfg.rewDistSum / tau
        if agent.v < 0 and cfg.rewReverseSum > 0:
            reward -= cfg.rewReverseSum / tau
        if cfg.rewDeltaThetaSum > 0 and cfg._maxDeltaThetaMagnitude > 0:
            smooth = abs(action.omega) / cfg._maxDeltaThetaMagnitude
            if cfg._rewDeltaThetaVelMult:
                smooth *= abs(agent.v) / cfg.speed_bound
            reward -= cfg.rewDeltaThetaSum / tau * smooth
        return reward
