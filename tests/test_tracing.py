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
