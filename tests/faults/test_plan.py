"""Unit tests for the fault-plan syntax and validation."""

import pytest

from repro.faults import KNOWN_POINTS, FaultError, FaultPlan, FaultSpec

pytestmark = pytest.mark.fast


class TestParse:
    def test_bare_point_defaults(self):
        plan = FaultPlan.parse("worker-crash")
        spec = plan.get("worker-crash")
        assert spec == FaultSpec(point="worker-crash")
        assert spec.probability == 1.0 and spec.count is None
        assert spec.seed == 0 and spec.delay_s == 0.0

    def test_full_parameter_set(self):
        plan = FaultPlan.parse("worker-crash:p=0.2,count=3,seed=7,delay=0.5")
        spec = plan.get("worker-crash")
        assert spec.probability == 0.2
        assert spec.count == 3
        assert spec.seed == 7
        assert spec.delay_s == 0.5

    def test_multiple_points_semicolon_separated(self):
        plan = FaultPlan.parse("cache-corrupt:count=1;dispatch-slow:p=0.5")
        assert "cache-corrupt" in plan and "dispatch-slow" in plan
        assert plan.get("cache-corrupt").count == 1
        assert plan.get("dispatch-slow").probability == 0.5

    def test_whitespace_tolerated(self):
        plan = FaultPlan.parse(" worker-crash : p=0.5 , seed=3 ; lru-storm ")
        assert plan.get("worker-crash").probability == 0.5
        assert "lru-storm" in plan

    def test_round_trip_is_canonical(self):
        text = "worker-crash:p=0.2,count=3,seed=7;cache-stale:count=1"
        plan = FaultPlan.parse(text)
        again = FaultPlan.parse(plan.render())
        assert again.render() == plan.render()
        assert again.specs == plan.specs

    def test_render_keeps_delay(self):
        plan = FaultPlan.parse("worker-hang:delay=0.25")
        assert "delay=0.25" in plan.render()
        assert FaultPlan.parse(plan.render()).get("worker-hang").delay_s \
            == 0.25


class TestRejection:
    def test_unknown_point_names_known_ones(self):
        with pytest.raises(FaultError, match="unknown fault point"):
            FaultPlan.parse("worker-vanish")

    def test_unknown_parameter(self):
        with pytest.raises(FaultError, match="unknown parameter"):
            FaultPlan.parse("worker-crash:q=0.5")

    def test_non_numeric_value(self):
        with pytest.raises(FaultError, match="not a number"):
            FaultPlan.parse("worker-crash:p=lots")

    def test_malformed_pair(self):
        with pytest.raises(FaultError, match="malformed parameter"):
            FaultPlan.parse("worker-crash:p")

    def test_empty_plan(self):
        with pytest.raises(FaultError, match="empty fault plan"):
            FaultPlan.parse(" ; ")

    def test_duplicate_point(self):
        with pytest.raises(FaultError, match="duplicate"):
            FaultPlan.parse("worker-crash;worker-crash:p=0.5")

    @pytest.mark.parametrize("bad", ["p=1.5", "p=-0.1", "count=-1",
                                     "delay=-2"])
    def test_out_of_range_parameters(self, bad):
        with pytest.raises(FaultError):
            FaultPlan.parse(f"worker-crash:{bad}")


class TestCatalogue:
    def test_every_known_point_parses_bare(self):
        for point in KNOWN_POINTS:
            assert point in FaultPlan.parse(point)

    def test_catalogue_covers_all_layers(self):
        names = set(KNOWN_POINTS)
        assert {"worker-crash", "worker-hang", "spawn-crash",
                "spawn-slow"} <= names        # runner pool
        assert {"cache-corrupt", "cache-truncate",
                "cache-stale"} <= names       # result cache
        assert {"dispatch-error", "dispatch-slow",
                "lru-storm"} <= names         # service
        assert {"worker-exit", "handoff-loss"} <= names  # fleet
        assert len(names) == 12
