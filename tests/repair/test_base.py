"""Algorithm registry and timing wrapper."""

import pytest

from repro.repair import (
    RepairAlgorithm,
    algorithm_names,
    compute_plan,
    get_algorithm,
)


class TestRegistry:
    def test_all_schemes_registered(self):
        names = algorithm_names()
        for expected in ("conventional", "rp", "ppt", "pivotrepair", "ppr",
                         "fullrepair"):
            assert expected in names

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="fullrepair"):
            get_algorithm("raid-z")

    def test_kwargs_forwarded(self):
        algo = get_algorithm("ppt", max_emulations=7)
        assert algo.max_emulations == 7

    def test_unknown_kwargs_rejected(self):
        with pytest.raises(TypeError):
            get_algorithm("rp", banana=True)

    def test_instances_are_fresh(self):
        assert get_algorithm("rp") is not get_algorithm("rp")

    def test_subclass_without_name_not_registered(self):
        class Anonymous(RepairAlgorithm):
            def schedule(self, context):  # pragma: no cover
                raise NotImplementedError

        assert "" not in algorithm_names()


class TestTimingWrapper:
    def test_plan_measures_calc_seconds(self, fig2_context):
        plan = get_algorithm("fullrepair").plan(fig2_context)
        assert plan.calc_seconds is not None
        assert plan.calc_seconds > 0

    def test_schedule_leaves_calc_unset(self, fig2_context):
        plan = get_algorithm("fullrepair").schedule(fig2_context)
        assert plan.calc_seconds is None

    def test_compute_plan_one_shot(self, fig2_context):
        plan = compute_plan("pivotrepair", fig2_context)
        assert plan.algorithm == "pivotrepair"
        assert plan.calc_seconds > 0

    def test_registered_custom_algorithm_usable(self, fig2_context):
        from repro.repair.plan import Edge, Pipeline, RepairPlan, Segment

        class EchoStar(RepairAlgorithm):
            name = "test-echo-star"

            def schedule(self, context):
                k = context.k
                chosen = sorted(
                    context.helpers, key=lambda h: -context.uplink(h)
                )[:k]
                edges = [Edge(h, context.requester, 1.0) for h in chosen]
                return RepairPlan(
                    self.name, context,
                    [Pipeline(0, Segment(0.0, 1.0), edges)],
                )

        try:
            plan = compute_plan("test-echo-star", fig2_context)
            plan.validate()
        finally:
            from repro.repair.base import _REGISTRY

            _REGISTRY.pop("test-echo-star", None)
