"""Span tracing from outside the package.

Each wrapper replaces the attribute its caller looks up (a module-level
name such as ``carpark.env.build_observation`` or a method on a class)
for the duration of one timed operation, and puts the original back
afterwards. Spans are kept in memory as four parallel arrays (name id,
start, end, parent index) and are reduced to per-name totals only when
the run ends. Hot leaves are counted, not timed, so that tracing stays
cheap; their time falls into the self time of the span that called them.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import carpark.env
import carpark.metrics
import carpark.ppo
import carpark.qlearning
import carpark.world

ROOT_SPAN = "bench.unit"

# (span name, owner, attribute): timed spans
SPANS = (
    ("env.step_all", carpark.env.ParkingEnv, "step_all"),
    ("env.observe", carpark.env.ParkingEnv, "observe"),
    ("env.global_info", carpark.env.ParkingEnv, "global_info"),
    ("env.context_membership", carpark.env.ParkingEnv, "context_membership"),
    ("observation.build_observation", carpark.env, "build_observation"),
    ("observation.encode_state", carpark.qlearning, "encode_state"),
    ("world.nearest_cars", carpark.world.WorldState, "nearest_cars"),
    ("world.nearest_free_spaces", carpark.world.WorldState,
     "nearest_free_spaces"),
    ("world.collides_static", carpark.world.WorldState, "collides_static"),
    ("qlearning.select_action", carpark.qlearning, "select_action"),
    ("qlearning.q_update", carpark.qlearning, "q_update"),
    ("ppo.ppo_update", carpark.ppo, "ppo_update"),
    ("ppo.gradients", carpark.ppo, "gradients"),
    ("ppo.adam_step", carpark.ppo, "adam_step"),
    ("ppo.gae", carpark.ppo, "gae"),
    ("metrics.TrainingRecorder.after_step", carpark.metrics.TrainingRecorder,
     "after_step"),
    ("metrics.MetricStore.record", carpark.metrics.MetricStore, "record"),
    ("metrics.read_store", carpark.metrics, "read_store"),
    ("metrics.model_row", carpark.metrics, "model_row"),
    ("metrics.export_rows", carpark.metrics, "export_rows"),
)

# Forward passes outside the update are one span; inside ppo.gradients
# they are part of the gradient's own time.
FORWARD_SPAN = "ppo.rollout_forward"
FORWARDS = ((carpark.ppo, "_actor_logps"), (carpark.ppo, "_critic_values"))

# (count name, [(owner, attribute), ...]): counted, not timed
COUNTS = (
    ("world.point_to_obb_distance",
     ((carpark.env, "point_to_obb_distance"),
      (carpark.world, "point_to_obb_distance"))),
    ("world.obb_intersects", ((carpark.env, "obb_intersects"),
                              (carpark.world, "obb_intersects"))),
    ("geometry.localize", ((carpark.env, "localize"),)),
    ("geometry.motion_step", ((carpark.env, "motion_step"),)),
    # segments flushed into the rollout buffer (train_ppo's flush_segment)
    ("ppo.buffer_flushes", ((carpark.ppo.RolloutBuffer, "add_segment"),)),
)

SPAN_NAMES = (ROOT_SPAN, *(name for name, _, _ in SPANS), FORWARD_SPAN)
COUNT_NAMES = tuple(name for name, _ in COUNTS)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.agent_steps = 0  # agent-steps done by traced units
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _forward(self, fn):
        gradients_id = self._ids["ppo.gradients"]
        timed = self._timed(FORWARD_SPAN, fn)

        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and self.name_id[stack[-1]] == gradients_id:
                return fn(*args, **kwargs)
            return timed(*args, **kwargs)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def unit(self):
        """Patch every traced attribute and open the root span; both are
        undone when the block exits."""
        saved = []

        def patch(owner, attr, make):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

        try:
            for name, owner, attr in SPANS:
                patch(owner, attr, lambda fn, name=name: self._timed(name, fn))
            for owner, attr in FORWARDS:
                patch(owner, attr, self._forward)
            for name, targets in COUNTS:
                for owner, attr in targets:
                    patch(owner, attr,
                          lambda fn, name=name: self._counted(name, fn))
            root = self._open(ROOT_SPAN)
            try:
                yield
            finally:
                self._close(root)
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds). Self time is a span's
        duration minus the time its direct children cover."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for i in range(n):
            k = self.name_id[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], self_s[k])
                for k, name in enumerate(SPAN_NAMES)}

    def root_seconds(self) -> float:
        root = self._ids[ROOT_SPAN]
        return sum(self.end[i] - self.start[i] for i in range(len(self.start))
                   if self.name_id[i] == root)
