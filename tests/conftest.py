"""Shared fixtures."""

import pytest

from hrru import engine


@pytest.fixture
def cap_lanes(monkeypatch):
    """``cap_lanes(plan, lanes)`` shrinks ``engine.WORKSPACE_BUDGET`` so a
    chunk of ``plan`` holds at most ``lanes`` lanes: the real chunking
    policy then splits the plan, as it does a plan too big for the
    budget."""

    def cap(plan, lanes):
        count = len(plan.horizons)
        lane_bytes = engine._Layout(plan.config, plan.labels).lane_bytes(count)
        monkeypatch.setattr(engine, "WORKSPACE_BUDGET", lanes * lane_bytes)
        assert engine.lane_cap(plan.config, count, plan.labels) == lanes

    return cap
