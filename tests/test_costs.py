"""Tests for cost accounting and budget enforcement."""

import pytest

from repro.crm.costs import HOURS_PER_MONTH, ClassCostMeter, CostModel
from repro.crm.template import ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog
from repro.crm.optimizer import RequirementOptimizer
from repro.model.pkg import loads_package
from repro.monitoring.plane import MetricsConfig
from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.sim.kernel import Environment
from repro.storage.kv import DocumentStore


class TestClassCostMeter:
    def test_replica_time_integration(self):
        env = Environment()
        replicas = {"n": 2}
        meter = ClassCostMeter(
            env, "T", CostModel(replica_usd_per_hour=1.0), lambda: replicas["n"], lambda: 0.0
        )
        env.run(until=3600.0)  # one hour at 2 replicas
        assert meter.accrued_usd() == pytest.approx(2.0)

    def test_integration_tracks_scale_changes(self):
        env = Environment()
        replicas = {"n": 1}
        meter = ClassCostMeter(
            env, "T", CostModel(replica_usd_per_hour=1.0), lambda: replicas["n"], lambda: 0.0
        )
        env.run(until=1800.0)
        meter.observe()         # half hour at 1 replica
        replicas["n"] = 3
        meter.observe()         # re-sample after the scale change
        env.run(until=3600.0)   # half hour at 3 replicas
        assert meter.accrued_usd() == pytest.approx(0.5 + 1.5)

    def test_db_units_priced(self):
        env = Environment()
        meter = ClassCostMeter(
            env,
            "T",
            CostModel(replica_usd_per_hour=0.0, db_usd_per_million_units=2.0),
            lambda: 0,
            lambda: 500_000.0,
        )
        assert meter.accrued_usd() == pytest.approx(1.0)

    def test_monthly_run_rate_with_extra(self):
        env = Environment()
        meter = ClassCostMeter(
            env, "T", CostModel(replica_usd_per_hour=0.1), lambda: 2, lambda: 0.0
        )
        base = meter.monthly_run_rate_usd()
        plus_one = meter.monthly_run_rate_usd(extra_replicas=1)
        assert base == pytest.approx(2 * 0.1 * HOURS_PER_MONTH)
        assert plus_one - base == pytest.approx(0.1 * HOURS_PER_MONTH)


class TestCostTracker:
    def test_db_units_attributed_per_collection(self, env):
        store = DocumentStore(env)

        def scenario(env):
            yield store.write("objects.A", [{"id": "x"}])
            yield store.write("objects.B", [{"id": "y"}, {"id": "z"}])
            yield store.read("objects.A", "x")

        env.run(until=env.process(scenario(env)))
        assert store.units_for("objects.A") == pytest.approx(5 + 5)  # write + read
        assert store.units_for("objects.B") == pytest.approx(6)
        assert store.units_for("objects.C") == 0.0

    def test_platform_report(self, platform):
        obj = platform.new_object("Image")
        platform.invoke(obj, "resize", {"width": 5})
        platform.advance(3600.0)
        report = platform.crm.costs.report()
        classes = {row["class"] for row in report}
        assert classes == {"Image", "LabelledImage"}
        image_row = next(r for r in report if r["class"] == "Image")
        assert image_row["accrued_usd"] > 0
        assert image_row["monthly_run_rate_usd"] > 0

    def test_register_idempotent(self, platform):
        runtime = platform.crm.runtime("Image")
        meter = platform.crm.costs.register(runtime)
        assert platform.crm.costs.register(runtime) is meter

    def test_update_meters_the_new_services(self, bare_platform):
        # 2 replicas for an hour, then 3 for an hour, at 0.048 USD each.
        platform = bare_platform
        platform.register_image("b/work", lambda ctx: {})
        capped = """
classes:
  - name: Capped
    constraint: {{ budget: 500 }}
    functions:
      - name: work
        image: b/work
        provision: {{ minScale: {n} }}
"""
        platform.deploy(capped.format(n=2))
        platform.advance(3600.0)
        platform.crm.update_class(
            loads_package(capped.format(n=3)).resolved_classes()["Capped"]
        )
        platform.advance(3600.0)
        [row] = platform.crm.costs.report()
        assert row["accrued_usd"] == pytest.approx(0.240)
        assert row["monthly_run_rate_usd"] == pytest.approx(3 * 0.048 * HOURS_PER_MONTH)


class TestBudgetEnforcement:
    def _budget_platform(self, budget_usd):
        # Non-autoscaled deployment so only the optimizer moves replicas.
        catalog = TemplateCatalog(
            [
                ClassRuntimeTemplate(
                    name="pinned",
                    config=RuntimeConfig(engine="deployment", min_scale_override=1),
                )
            ]
        )
        platform = Oparaca(
            PlatformConfig(nodes=3, catalog=catalog, metrics=MetricsConfig(enabled=True))
        )

        @platform.function("b/slow", service_time_s=0.2)
        def slow(ctx):
            return {}

        platform.deploy(
            f"""
classes:
  - name: Capped
    qos: {{ throughput: 400 }}
    constraint: {{ budget: {budget_usd} }}
    functions:
      - name: work
        image: b/slow
        provision: {{ concurrency: 2, minScale: 1 }}
"""
        )
        return platform

    def _drive(self, platform, optimizer, seconds=12.0):
        obj = platform.new_object("Capped")
        from repro.invoker.request import InvocationRequest

        def client(env):
            while env.now < seconds:
                yield platform.engine.invoke(
                    InvocationRequest(object_id=obj, fn_name="work")
                )

        for _ in range(12):
            platform.env.process(client(platform.env))
        platform.env.run(until=seconds)

    def test_tight_budget_blocks_scale_up(self):
        # ~0.048 USD/replica-hour * 730 h => one replica is ~35 USD/month;
        # a 40 USD budget cannot afford a second replica.
        platform = self._budget_platform(budget_usd=40)
        optimizer = RequirementOptimizer(
            platform.env, platform.crm, platform.metrics, interval_s=1.0
        )
        self._drive(platform, optimizer)
        svc = platform.crm.runtime("Capped").services["work"]
        assert svc.replicas == 1
        assert any(d.action == "budget-hold" for d in optimizer.decisions)
        assert not any(d.action == "scale-up" for d in optimizer.decisions)

    def test_loose_budget_allows_scale_up(self):
        platform = self._budget_platform(budget_usd=10_000)
        optimizer = RequirementOptimizer(
            platform.env, platform.crm, platform.metrics, interval_s=1.0
        )
        self._drive(platform, optimizer)
        svc = platform.crm.runtime("Capped").services["work"]
        assert svc.replicas > 1
        assert not any(d.action == "budget-hold" for d in optimizer.decisions)
