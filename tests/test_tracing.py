"""The benchmark tracer against the package it patches: every traced name
must still exist where benchmarks/tracing.py looks it up, and a traced unit
must put every original back. A refactor that moves or renames a traced
name fails here rather than only in a traced benchmark run."""

import os

import pytest

BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


@pytest.fixture
def tracing_module(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    import tracing
    return tracing


def test_unit_patches_every_target_and_restores_it(tracing_module):
    t = tracing_module
    targets = [(owner, attr) for _, owner, attr in t.SPANS]
    targets += list(t.FORWARDS)
    targets += [target for _, group in t.COUNTS for target in group]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    with t.Tracer().unit():
        for (owner, attr), original in zip(targets, originals):
            assert owner.__dict__[attr] is not original, (owner, attr)
    for (owner, attr), original in zip(targets, originals):
        assert owner.__dict__[attr] is original, (owner, attr)


# the observation and policy layers each traced workload must reach
OBSERVATION_LAYERS = ("env.observe", "observation.build_observation",
                      "geometry.localize")
LAYERS = {
    "env-dynamic8": OBSERVATION_LAYERS + ("env.global_info",),
    "ppo-fixed4": OBSERVATION_LAYERS + ("ppo.rollout_forward",),
}


@pytest.mark.parametrize("workload", list(LAYERS))
def test_traced_unit_reaches_every_observation_layer(tracing_module,
                                                     workload, tmp_path):
    """A traced tiny unit records calls to every layer its per-layer
    metrics name, so a refactor that routes around a traced name fails
    here instead of zeroing a metric. The stacked rollout runs one actor
    and one critic pass per tick, plus one critic pass per bootstrapped
    segment."""
    import workloads
    unit = workloads.WORKLOADS[workload]("tiny", str(tmp_path))
    ctx = unit.setup(0)
    tracer = tracing_module.Tracer()
    with tracer.unit():
        steps = unit.run(ctx)
    totals = tracer.totals()
    for name in LAYERS[workload]:
        calls = (tracer.counts[name] if name in tracer.counts
                 else totals[name][0])
        assert calls > 0, name
    if workload == "ppo-fixed4":
        ticks = steps // len(ctx["env"].agents)
        assert totals["ppo.rollout_forward"][0] <= (
            2 * ticks + tracer.counts["ppo.buffer_flushes"])
