"""The parking MDP: episode lifecycle, dynamics, rewards, goal mechanics,
give-way contexts, and terminal handling for N independent agents.

Step order within a single tick: goal transitions (dynamic goals) are
applied on the pre-move state, then every agent moves in index order, then
collisions are resolved against post-move poses, then tracking refresh,
lost-goal handling, park checks, and rewards. Terminal agents respawn at
the end of the tick; a successful park first relocates the parked car
farthest from all agents into the space the parking agent vacates, keeping
the parked-car count constant. Last comes the sensing pass: one
center-distance matrix from every agent to every car and space gives each
agent's nearest-car list and nearest-car distance and each space's
closest-agent distances.

Every world query is seen from agents through one `WorldArrays` view:
the tick's view from all agents serves collisions, tracking, ring counts
and the sensing pass, and a respawn senses through a view from the
respawned agent alone. Everything `observe` reads is derived state that
`reset` and `step_all` leave behind: the ring counts (`cur_rings`, from the
tracking phase or a respawn), and the nearest-car lists (`nearby`) and the
space table behind `global_info` from the sensing pass. The next tick's
goal transitions read the same tables, since nothing moves between the
end of one tick and the goal transitions of the next.

`observe` is the one walk that gathers an agent's raw feature values, in
schema order and with the sentinels for what it cannot see; the schema's
feature kinds say how `build_observation` encodes them. Agents that track
the same space share its closest-agent distances through the per-tick
space table: `global_info` fills a space's entry on the first `observe`
that needs it, and the next sensing pass empties the table, since goals
and positions only change in `reset` and `step_all`, which both end with
that pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import EnvironmentConfig, max_world_distance
from .geometry import (
    GridSpec,
    LocalPose,
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
    CarBody,
    Layout,
    RingSpec,
    SpaceTracker,
    WorldArrays,
    WorldState,
    default_layout,
    obb_corners,
    obb_intersects,
    point_to_obb_distance,  # not called here; benchmarks/tracing.py patches it
)

PARK_CENTER_THRESHOLD = 1.0  # world units from space center
PLAIN_SPAWN_TRIES = 200  # random road points tried by one plain spawn

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


@dataclass(slots=True)
class ActionTuple:
    accel: int
    omega: int
    delta_g: int | None = None


@dataclass(slots=True)
class StepEvents:
    crash_kind: str | None = None  # agent-car | parked-car | wall
    parked: bool = False
    halted: bool = False
    lost_goal: bool = False
    transition: str | None = None
    transition_reward: float = 0.0
    gave_way: dict = field(default_factory=dict)  # context name -> bool
    velocity: int = 0
    omega: int = 0
    exploring: bool = False
    moved_toward_goal: int = 0  # sign of goal-distance decrease
    park_velocity: int | None = None
    # set on terminal steps only
    episode_steps: int = 0
    episode_reward: float = 0.0
    ratio_explore: float | None = None
    ratio_toward_goal: float | None = None
    ratio_toward_space_exploring: float | None = None


@dataclass(slots=True)
class StepOutcome:
    reward: float
    terminal: str | None  # parked | crashed | timeout | None
    events: StepEvents


@dataclass(slots=True)
class AgentState:
    body: CarBody
    v: int = 0
    goal_space: int | None = None  # space id; None = exploring (dynamic mode)
    episode_step: int = 0
    prev_goal_distance: float = 0.0
    tracker: SpaceTracker | None = None
    cur_rings: tuple[int, ...] = ()
    ring_history: list = field(default_factory=list)
    nearby: list[CarBody] = field(default_factory=list)  # tracked cars
    episode_reward: float = 0.0
    steps_exploring: int = 0
    steps_toward_goal: int = 0
    steps_toward_space_exploring: int = 0


def _pose_values(lp: LocalPose | None, bound: float) -> tuple:
    """Distance, angle and rotation delta of a seen target, or the sentinel
    for an unseen one: the bound distance with zero angle and delta."""
    return (bound, 0.0, 0.0) if lp is None else lp


class ParkingEnv:
    def __init__(
        self,
        cfg: EnvironmentConfig,
        layout: Layout | None = None,
        rng=None,
        seed: int | None = None,
    ):
        import random as _random

        if rng is None:
            rng = _random.Random(seed)
        self.rng = rng
        self.cfg = cfg
        layout = layout or default_layout()
        self.grid: GridSpec = cfg.grid(layout.extent)
        self.layout = layout
        self.ring_spec: RingSpec | None = cfg.ring_spec()
        self.schema: ObsSchema = build_schema(cfg, layout.extent)
        self.action_schema: ActionSchema = build_action_schema(cfg)
        self.obs_mode = "normalized" if cfg._normalizeObs else "discrete"
        self.d_max = max_world_distance(layout.extent)
        self.car_scale = 1.0
        self.world: WorldState = None  # type: ignore[assignment]
        self.agents: list[AgentState] = []
        # space table of the sensing pass (dynamic goals only): per space,
        # every agent's distance to it
        self._space_agent_d: list[list[float]] = []
        # the sensing pass's array view, and the nearest-car distances
        # taken from it on the first nearest_car_distance call
        self._sensed: WorldArrays | None = None
        self._nearest_car_d: list[float] | None = None
        # the per-tick space table: global_info of each space an observe
        # has needed since the last sensing pass
        self._space_info: dict[int, tuple[float, float | None]] = {}
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
        for name in CONTEXTS.values():
            self.stats[f"gave_way_{name}_pos"] = 0
            self.stats[f"gave_way_{name}_total"] = 0
        self.reset()

    # ------------------------------------------------------------- lifecycle

    def reset(self) -> None:
        self.world = WorldState.from_layout(self.layout, self.grid)
        self.agents = []
        for i in range(self.cfg._numAgents):
            body = CarBody(0.0, 0.0, 0, scale=self.car_scale, uid=i)
            self.world.agents.append(body)
            n_space = (self.cfg._obsNearbyParkingSpotsCount
                       if self.cfg._dynamicGoals else 0)
            self.agents.append(
                AgentState(body=body,
                           tracker=SpaceTracker(n_space) if n_space else None)
            )
        self.world.place_parked_cars(self.cfg._numParkedCars, self.rng)
        for car in self.world.parked:
            car.scale = self.car_scale
        for i in range(len(self.agents)):
            self._respawn(i)
        self._sense()

    def set_car_scale(self, scale: float) -> None:
        """Switch every hitbox to a new scale (training/evaluation phases)."""
        self.car_scale = scale
        for car in self.world.all_cars():
            car.scale = scale

    # -------------------------------------------------------------- spawning

    def _goal_candidates(self, agent_i: int) -> list[int]:
        taken = {a.goal_space for j, a in enumerate(self.agents)
                 if j != agent_i and a.goal_space is not None}
        return [sid for sid in self.world.free_space_ids() if sid not in taken]

    def _spawn_legal(self, body: CarBody, agent_i: int) -> bool:
        min_d = self.cfg.mdp_to_world(self.cfg.carSpawnMinDistance)
        for car in self.world.all_cars():
            if car.uid == agent_i:
                continue
            if math.hypot(car.x - body.x, car.y - body.y) < min_d:
                return False
        if self.world.collides_static([body])[0] is not None:
            return False
        for j, other in enumerate(self.agents):
            if j != agent_i and obb_intersects(body, other.body, self.grid):
                return False
        return True

    def _place(self, agent_i: int, x: float, y: float, theta: int) -> bool:
        body = self.agents[agent_i].body
        x, y = self.grid.snap(x, y)
        old = (body.x, body.y, body.theta)
        body.x, body.y, body.theta = x, y, theta
        if self._spawn_legal(body, agent_i):
            return True
        body.x, body.y, body.theta = old
        return False

    def _spawn_plain(self, agent_i: int, near: tuple[float, float] | None = None,
                     radius: float = 0.0) -> bool:
        points = self.world.road_points
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
        g1_pos: tuple[float, float], margin: float = 0.2,
    ) -> tuple[float, float, float, float] | None:
        """Position on the line crash-point -> g1, extended past the crash
        point by the target agent's distance to it. Returns (x, y, crash_x,
        crash_y) or None when the geometry degenerates."""
        ex, ey = g2_pos[0] - a2_pos[0], g2_pos[1] - a2_pos[1]
        if ex == 0.0 and ey == 0.0:
            return None
        u = self.rng.uniform(margin, 1.0 - margin)
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
            e = float(self.world.extent)
            if not (0.0 < x < e and 0.0 < y < e):
                continue
            theta = round_half_up(
                bearing_index_units(cx - x, cy - y, self.grid)
            ) % self.grid.theta_granularity
            if self._place(agent_i, x, y, theta):
                return True
        return False

    def _respawn(self, agent_i: int) -> None:
        agent = self.agents[agent_i]
        cfg = self.cfg
        goal: int | None = None
        if not cfg._dynamicGoals:
            candidates = self._goal_candidates(agent_i)
            if not candidates:
                raise RuntimeError("no free parking space left for a goal")
            goal = self.rng.choice(candidates)
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
        agent.v = 0
        agent.goal_space = goal
        agent.episode_step = 0
        agent.episode_reward = 0.0
        agent.steps_exploring = 0
        agent.steps_toward_goal = 0
        agent.steps_toward_space_exploring = 0
        agent.ring_history = []
        # one view from the respawned agent serves tracking and rings
        view = WorldArrays(self.world, [agent_i],
                           with_spaces=agent.tracker is not None)
        if agent.tracker:
            agent.tracker.reset()
            agent.tracker.update(self.world.nearest_free_spaces(
                agent.tracker.n_space, math.inf, view)[0])
        if self.ring_spec:
            agent.cur_rings = self.world.ring_counts(self.ring_spec, view)[0]
        agent.prev_goal_distance = self._goal_distance(agent)

    # ------------------------------------------------------------- queries

    def _goal_distance(self, agent: AgentState) -> float:
        if agent.goal_space is None:
            return 0.0
        sp = self.world.spaces[agent.goal_space]
        return math.hypot(sp.x - agent.body.x, sp.y - agent.body.y)

    def nearest_car_distance(self, agent_i: int) -> float:
        """Center distance to the closest other car; arena diagonal when
        there are no other cars. Taken from the sensing pass."""
        if self._nearest_car_d is None:
            view = self._sensed
            nearest = (view.nearest_other_car() if view is not None
                       else [math.inf] * len(self.agents))
            self._nearest_car_d = [min(d, self.d_max) for d in nearest]
        return self._nearest_car_d[agent_i]

    def _view(self) -> WorldArrays | None:
        """A view of the world from the agents, with the space columns for
        dynamic goals; None for a lone car with fixed goals, which has
        nothing to sense."""
        world = self.world
        if self.cfg._dynamicGoals:
            return WorldArrays(world, with_spaces=True)
        if len(world.agents) + len(world.parked) > 1:
            return WorldArrays(world)
        return None

    def _sense(self, arrays: WorldArrays | None = None) -> None:
        """The sensing pass, run at the end of reset and step_all: one
        center-distance matrix from every agent to every car and space
        fills each agent's nearest-car list and (with dynamic goals) the
        space table, and is kept for nearest_car_distance. `arrays`, if the
        caller has it, is the world's current view from the agents."""
        cfg = self.cfg
        world = self.world
        agents = self.agents
        if arrays is None:
            arrays = self._view()
        self._sensed = arrays
        self._nearest_car_d = None
        self._space_info = {}
        if arrays is None:
            return
        if cfg._obsNearbyCars and cfg._obsNearbyCarsCount > 0:
            lists = world.nearest_cars(cfg._obsNearbyCarsCount,
                                       float(cfg._obsNearbyCarsDiameter),
                                       arrays)
            for agent, cars in zip(agents, lists):
                agent.nearby = cars
        if cfg._dynamicGoals:
            self._space_agent_d = arrays.distances()[:, arrays.nc:].T.tolist()

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
        tracked = {c.uid for c in agent.nearby if c.kind == "agent"}
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
        agent whose goal it is (None when nobody's). Positions come from the
        last sensing pass, so dynamic goals only; goals from the agents as
        they are now."""
        row = self._space_agent_d[space_id]
        same = [d for a, d in zip(self.agents, row) if a.goal_space == space_id]
        return min(row), (min(same) if same else None)

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
        d_max = self.d_max
        tracker = agent.tracker
        n_space = cfg._obsNearbyParkingSpotsCount
        raw: list = [agent.v]
        goal = _pose_values(
            localize(body, spaces[agent.goal_space], grid)
            if agent.goal_space is not None else None, d_max)
        for value, on in zip(goal, (cfg._obsDist, cfg._obsAngle,
                                    cfg._obsGoalDeltaPose)):
            if on:
                raw.append(value)
        if cfg._dynamicGoals:
            slot = (tracker.slot_of(agent.goal_space)
                    if agent.goal_space is not None else None)
            raw.append(slot + 1 if slot is not None else 0)
        if self.ring_spec:
            raw.extend(agent.cur_rings)
            for state in agent.ring_history:
                raw.extend(state)
            # zero-filled history at episode start
            missing = cfg._ringNumPrevObs - len(agent.ring_history)
            raw.extend([0] * (missing * len(cfg.ringDiams)))
        if cfg._obsNearbyCars:
            car_bound = min(cfg._obsNearbyCarsDiameter / 2.0, d_max)
            nearby = agent.nearby
            for k in range(cfg._obsNearbyCarsCount):
                car = nearby[k] if k < len(nearby) else None
                other = (self.agents[car.uid]
                         if car is not None and car.kind == "agent" else None)
                raw += _pose_values(localize(body, car, grid)
                                    if car is not None else None, car_bound)
                if cfg._obsNearbyCarsVelocity:
                    raw.append(other.v if other else 0)
                if not cfg._obsNearbyCarsGoal:
                    continue
                goal_sid = other.goal_space if other else None
                if not cfg._dynamicGoals:
                    raw += _pose_values(
                        localize(other.body, spaces[goal_sid], grid)
                        if goal_sid is not None else None, d_max)
                elif car is None:
                    raw.append(n_space + 1)  # absent slot
                elif goal_sid is None:
                    raw.append(0)  # parked or exploring: no goal
                else:
                    slot = tracker.slot_of(goal_sid) if tracker else None
                    raw.append(slot + 1 if slot is not None else n_space + 1)
        if cfg._dynamicGoals and tracker:
            for sid in tracker.slots:
                raw += _pose_values(localize(body, spaces[sid], grid)
                                    if sid is not None else None, d_max)
            if (cfg._obsParkingSpotClosestAgent
                    or cfg._obsParkingSpotClosestGoalAgent):
                table = self._space_info
                info = []
                for sid in tracker.slots:
                    pair = table.get(sid) if sid is not None else (None, None)
                    if pair is None:
                        pair = table[sid] = self.global_info(sid)
                    info.append(pair)
                if cfg._obsParkingSpotClosestAgent:
                    raw.extend(d_max if a is None else a for a, _ in info)
                if cfg._obsParkingSpotClosestGoalAgent:
                    raw.extend(d_max if s is None else s for _, s in info)
        return build_observation(self.schema, cfg, raw, self.obs_mode)

    # -------------------------------------------------------------- stepping

    def _check_action(self, action: ActionTuple) -> None:
        cfg = self.cfg
        if not -cfg.max_reverse_accel <= action.accel <= cfg._maxDeltaVMagnitude:
            raise ValueError(f"acceleration {action.accel} outside domain")
        if abs(action.omega) > cfg._maxDeltaThetaMagnitude:
            raise ValueError(f"angular velocity {action.omega} outside domain")
        if cfg._dynamicGoals:
            if action.delta_g is None:
                raise ValueError("dynamic goals require a delta_g action")
            if not 0 <= action.delta_g <= cfg._obsNearbyParkingSpotsCount:
                raise ValueError(f"goal choice {action.delta_g} outside domain")
        elif action.delta_g not in (None, 0):
            raise ValueError("delta_g is only available with dynamic goals")

    def _goal_transition(self, agent_i: int, delta_g: int, events: StepEvents) -> float:
        """Apply the dynamic-goal action on the pre-move state; returns the
        transition reward and records conformity counts."""
        agent = self.agents[agent_i]
        cfg = self.cfg
        old = agent.goal_space
        memberships = self.context_membership(agent_i)
        # conformity: did the agent change goal when a context said to
        if old is not None:
            old_slot = agent.tracker.slot_of(old)
            gave_way = delta_g != (old_slot + 1 if old_slot is not None else 0)
            for ctx, inside in memberships.items():
                if inside:
                    name = CONTEXTS[ctx]
                    events.gave_way[name] = gave_way
                    self.stats[f"gave_way_{name}_total"] += 1
                    if gave_way:
                        self.stats[f"gave_way_{name}_pos"] += 1
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
        self.stats[f"transition_{category}"] += 1
        return reward

    def step_all(self, actions: list[ActionTuple]) -> list[StepOutcome]:
        if len(actions) != len(self.agents):
            raise ValueError(
                f"expected {len(self.agents)} actions, got {len(actions)}")
        for action in actions:
            self._check_action(action)
        cfg = self.cfg
        tau = cfg._maxSteps
        events = [StepEvents() for _ in self.agents]
        rewards = [0.0 for _ in self.agents]

        # phase 1: goal transitions on the pre-move full state
        if cfg._dynamicGoals:
            for i, action in enumerate(actions):
                rewards[i] += self._goal_transition(i, action.delta_g, events[i])

        # phase 2: kinematics, in index order
        pre_nearest_space: list[tuple[int, float] | None] = [None] * len(self.agents)
        for i, action in enumerate(actions):
            agent = self.agents[i]
            if cfg._dynamicGoals and agent.goal_space is None and agent.tracker:
                best = None
                for sid in agent.tracker.slots:
                    if sid is None:
                        continue
                    sp = self.world.spaces[sid]
                    d = math.hypot(sp.x - agent.body.x, sp.y - agent.body.y)
                    if best is None or d < best[1]:
                        best = (sid, d)
                pre_nearest_space[i] = best
            agent.v = clamp_velocity(
                agent.v, action.accel,
                cfg._maxVelocityMagnitude, cfg._minVelocityMagnitude)
            pose = motion_step(agent.body, agent.v, action.omega, self.grid)
            agent.body.x, agent.body.y, agent.body.theta = pose.x, pose.y, pose.theta
            events[i].omega = action.omega
            events[i].velocity = agent.v

        # phase 3: collisions on post-move poses; one array view serves
        # phases 3, 4 and 6 (unless someone respawns), as nothing moves in
        # between
        world = self.world
        arrays = self._view()
        crashed: dict[int, str] = {}
        for i, kind in enumerate(world.collides_static(world.agents, arrays)):
            if kind is not None:
                crashed[i] = kind
        for i, j in world.agent_contacts(arrays):
            crashed.setdefault(i, "agent-car")
            crashed.setdefault(j, "agent-car")

        # phase 4: tracking refresh, lost goals, park checks, rewards
        if cfg._dynamicGoals:
            tracked = world.nearest_free_spaces(
                cfg._obsNearbyParkingSpotsCount, math.inf, arrays)
        if self.ring_spec:
            # a lone car with fixed goals has no tick view; it counts walls
            rings = world.ring_counts(self.ring_spec,
                                      arrays or WorldArrays(world))
        outcomes: list[StepOutcome] = []
        terminals: list[tuple[int, str]] = []
        occupied_ids = world.occupied_space_ids() if cfg._dynamicGoals else set()
        for i, agent in enumerate(self.agents):
            ev = events[i]
            agent.episode_step += 1
            if agent.tracker:
                agent.tracker.update(tracked[i])
            if self.ring_spec:
                prev = agent.cur_rings
                agent.cur_rings = rings[i]
                if self.ring_spec.history_len > 0:
                    agent.ring_history.insert(0, prev)
                    del agent.ring_history[self.ring_spec.history_len:]
            if cfg._dynamicGoals and agent.goal_space is not None and i not in crashed:
                occupied = agent.goal_space in occupied_ids
                untracked = agent.tracker.slot_of(agent.goal_space) is None
                if occupied or untracked:
                    agent.goal_space = None
                    ev.lost_goal = True
                    self.stats["lost_goal"] += 1
            # movement bookkeeping covers terminal steps too
            if agent.goal_space is not None:
                new_d = self._goal_distance(agent)
                moved = agent.prev_goal_distance - new_d
                agent.prev_goal_distance = new_d
                if moved > 0:
                    ev.moved_toward_goal = 1
                    agent.steps_toward_goal += 1
                elif moved < 0:
                    ev.moved_toward_goal = -1
            elif pre_nearest_space[i] is not None:
                sid, old_d = pre_nearest_space[i]
                sp = self.world.spaces[sid]
                if math.hypot(sp.x - agent.body.x,
                              sp.y - agent.body.y) < old_d:
                    agent.steps_toward_space_exploring += 1
            terminal: str | None = None
            if i in crashed:
                ev.crash_kind = crashed[i]
                rewards[i] -= cfg.rewCrash
                terminal = "crashed"
            else:
                parked = self._parked_in_goal(agent)
                if parked:
                    ev.parked = True
                    ev.park_velocity = agent.v
                    rewards[i] += self._park_reward(agent)
                    terminal = "parked"
                else:
                    rewards[i] += self._dense_reward(i, actions[i], ev)
                    if agent.episode_step >= tau:
                        ev.halted = True
                        terminal = "timeout"
            ev.exploring = agent.goal_space is None and cfg._dynamicGoals
            if ev.exploring:
                agent.steps_exploring += 1
            agent.episode_reward += rewards[i]
            if terminal:
                terminals.append((i, terminal))
                self._finish_episode(i, terminal, ev)
            outcomes.append(StepOutcome(rewards[i], terminal, ev))

        # phase 5: respawns (park relocation first)
        filled: list[int] = []
        for i, terminal in terminals:
            agent = self.agents[i]
            if terminal == "parked":
                world.relocate_furthest_parked_car(agent.goal_space)
                filled.append(agent.goal_space)
            self._respawn(i)
        # a relocation may occupy a space another agent targets; that goal
        # is lost in the same tick
        if filled:
            done = {i for i, _ in terminals}
            for i, agent in enumerate(self.agents):
                if i not in done and agent.goal_space in filled:
                    agent.goal_space = None
                    events[i].lost_goal = True
                    self.stats["lost_goal"] += 1

        # phase 6: the sensing pass on the final state of the tick
        if terminals:
            arrays = self._view()
        if arrays is not None:
            self._sense(arrays)
        return outcomes

    def step(self, action: ActionTuple) -> StepOutcome:
        """Single-agent convenience wrapper."""
        return self.step_all([action])[0]

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
        vmax = max(cfg._maxVelocityMagnitude, cfg._minVelocityMagnitude)
        if cfg.rewFinalVelocitySum > 0 and vmax > 0:
            reward -= cfg.rewFinalVelocitySum * abs(agent.v) / vmax
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
        for px, py in obb_corners(agent.body, self.grid):
            lx, ly = px - sp.x, py - sp.y
            lf = lx * fx + ly * fy
            lr = lx * fy - ly * fx
            if abs(lf) > sp.half_depth or abs(lr) > sp.half_width:
                return False
        return True

    def _dense_reward(self, agent_i: int, action: ActionTuple,
                      ev: StepEvents) -> float:
        cfg = self.cfg
        agent = self.agents[agent_i]
        tau = cfg._maxSteps
        reward = -cfg.rewTimeSum / tau
        if agent.goal_space is not None and ev.moved_toward_goal:
            reward += ev.moved_toward_goal * cfg.rewDistSum / tau
        if agent.v < 0 and cfg.rewReverseSum > 0:
            reward -= cfg.rewReverseSum / tau
        if cfg.rewDeltaThetaSum > 0 and cfg._maxDeltaThetaMagnitude > 0:
            smooth = abs(action.omega) / cfg._maxDeltaThetaMagnitude
            if cfg._rewDeltaThetaVelMult:
                vmax = max(cfg._maxVelocityMagnitude,
                           cfg._minVelocityMagnitude, 1)
                smooth *= abs(agent.v) / vmax
            reward -= cfg.rewDeltaThetaSum / tau * smooth
        return reward

    def _finish_episode(self, agent_i: int, terminal: str, ev: StepEvents) -> None:
        agent = self.agents[agent_i]
        self.stats["episodes"] += 1
        if terminal == "parked":
            self.stats["parked"] += 1
        elif terminal == "timeout":
            self.stats["halted"] += 1
        else:
            self.stats["crashed"] += 1
            self.stats[{
                "wall": "crash_wall",
                "parked-car": "crash_parked",
                "agent-car": "crash_agent",
            }[ev.crash_kind]] += 1
        n = agent.episode_step
        ev.episode_steps = n
        ev.episode_reward = agent.episode_reward
        if self.cfg._dynamicGoals:
            ev.ratio_explore = agent.steps_exploring / n
            ev.ratio_toward_space_exploring = agent.steps_toward_space_exploring / n
        ev.ratio_toward_goal = agent.steps_toward_goal / n
