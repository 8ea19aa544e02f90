"""The NFR table: one compiled row per declared requirement, read at
"now" by the NFR report and over burn windows by the SLO evaluator."""

from __future__ import annotations

import json
from typing import Callable

import pytest

from repro.crm.template import ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog
from repro.durability.plane import DurabilityConfig
from repro.invoker.request import InvocationRequest
from repro.model.nfr import QosRequirement
from repro.monitoring.plane import MetricsConfig
from repro.qos.plane import QosConfig

from tests.golden import nfr as nfr_golden
from tests.helpers import make_platform


class TestGoldenVerdicts:
    """Every pinned scenario judges exactly what ``tests/golden/nfr.json``
    holds: report rows, SLO objectives and alert history, alert events."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(nfr_golden.GOLDEN.read_text())

    @pytest.mark.parametrize("name", list(nfr_golden.SCENARIOS))
    def test_scenario_judged_as_pinned(self, golden, name):
        captured = json.loads(json.dumps(nfr_golden.capture_scenario(name)))
        assert captured == golden[name]


def _metrics_platform(package: str, handlers, **config):
    metrics = MetricsConfig(enabled=True)
    return make_platform(package, handlers, seed=3, events_enabled=True, metrics=metrics, **config)


def _work(ctx):
    return {"ok": True}


def _delay(task):
    return float(task.payload.get("delay", 0.01))


LATENCY_YAML = """
classes:
  - name: Api
    qos: {latency: 50}
    functions: [{name: work, image: t/work}]
"""


class TestOneJudge:
    """The NFR report and the SLO evaluator read the same row, so at one
    instant they give the same verdict."""

    @staticmethod
    def _latency_run(slow: Callable[[int], bool]):
        """200 requests at 20 rps to a warm ``latency: 50`` class;
        request ``i`` takes 200 ms when ``slow(i)``, else 10 ms.
        Returns the platform, the requests over the bound, the report's
        latency row and the firing latency alerts."""
        platform = _metrics_platform(LATENCY_YAML, {"t/work": (_work, _delay)})
        obj = platform.new_object("Api")
        platform.invoke(obj, "work")  # the cold start
        platform.advance(1.0)
        start, obs = platform.now, platform.monitoring.for_class("Api")
        slow_before = obs.slow

        def arrivals(env):
            for i in range(200):
                payload = {"delay": 0.2} if slow(i) else {}
                env.process(call(payload))
                yield env.timeout(0.05)

        def call(payload):
            yield platform.engine.invoke(
                InvocationRequest(object_id=obj, fn_name="work", payload=payload)
            )

        platform.env.process(arrivals(platform.env))
        platform.env.run(until=start + 10.5)
        [row] = [v for v in platform.nfr_report() if v.requirement.startswith("latency")]
        firing = [a for a in platform.metrics.slo.firing() if a.slo == "latency_p95"]
        return platform, obs.slow - slow_before, row, firing

    def test_latency_report_and_slo_agree(self):
        # 7 slow requests out of 200: 3.5% over the bound, inside a p95.
        _platform, slow, row, firing = self._latency_run(lambda i: i % 29 == 5)
        assert slow == 7
        assert row.met and not firing
        assert row.requirement == "latency_p95_ms"
        # A steady 30% over the bound: violated now, and burning.
        _platform, _slow, row, firing = self._latency_run(lambda i: i % 10 < 3)
        assert not row.met and firing

    def test_throughput_report_and_slo_agree_at_95_percent(self):
        pinned = TemplateCatalog(
            [ClassRuntimeTemplate(name="pinned", config=RuntimeConfig(engine="deployment"))]
        )
        platform = _metrics_platform(
            "classes:\n"
            "  - name: Busy\n"
            "    qos: {throughput: 10.5}\n"
            "    functions:\n"
            "      - {name: work, image: t/slow, provision: {concurrency: 2, minScale: 1}}\n",
            {"t/slow": (_work, 0.2)},
            catalog=pinned,
        )
        obj = platform.new_object("Busy")

        def client(env):
            while True:
                yield platform.engine.invoke(InvocationRequest(object_id=obj, fn_name="work"))

        for _ in range(12):  # one two-slot replica: saturated throughout
            platform.env.process(client(platform.env))
        platform.env.run(until=40.0)
        [row] = platform.nfr_report()
        assert row.detail == "services saturated"
        assert 0.9 < row.observed / row.target < 1.0
        firing = [a for a in platform.metrics.slo.firing() if a.slo == "throughput"]
        assert row.met and not firing


class TestEnforcers:
    def test_unenforced_latency_is_named_at_deploy(self):
        platform = make_platform(LATENCY_YAML, {"t/work": (_work, 0.01)}, events_enabled=True)
        [deploy] = platform.events.events("class.deploy")
        assert deploy.fields["unenforced"] == ["latency"]
        assert platform.crm.runtime("Api").enforcers == {"latency": None}

    def test_enforced_requirements_leave_the_event_alone(self):
        handlers = {"t/work": (_work, 0.01)}
        qos = QosConfig(enabled=True)
        platform = make_platform(LATENCY_YAML, handlers, events_enabled=True, qos=qos)
        [deploy] = platform.events.events("class.deploy")
        assert "unenforced" not in deploy.fields
        assert platform.crm.runtime("Api").enforcers == {"latency": "qos brownout/EDF"}

    def test_each_row_names_its_enforcer(self):
        from repro.monitoring.nfr_table import class_rows

        platform = make_platform(
            "classes:\n"
            "  - name: Api\n"
            "    qos: {latency: 50, throughput: 10, availability: 0.99}\n"
            "    constraint: {persistence: standard}\n"
            "    functions: [{name: work, image: t/work}]\n",
            {"t/work": (_work, 0.01)},
            qos=QosConfig(enabled=True),
            durability=DurabilityConfig(enabled=True),
        )
        rows = class_rows("Api", platform.crm.runtime("Api"), platform.monitoring, platform.planes)
        assert [(row.requirement, row.enforcer) for row in rows] == [
            ("durability_rpo_s", "durability policy"),
            ("latency_p95_ms", "qos brownout/EDF"),
            ("throughput_rps", "qos admission"),
            ("availability", "resilience policy"),
        ]
        platform.shutdown()

    def test_enforcer_table(self):
        from repro.monitoring.nfr_table import enforcers

        qos = QosRequirement(latency_ms=50, throughput_rps=10, availability=0.99)
        assert enforcers(qos, ()) == {
            "latency": None,
            "throughput": None,
            "availability": "resilience policy",
        }
        assert enforcers(qos, ("optimizer", "federation")) == {
            "latency": "optimizer floor",
            "throughput": "optimizer floor",
            "availability": "resilience policy",
        }
        assert enforcers(QosRequirement(latency_ms=50), ("federation",)) == {
            "latency": "federation placement"
        }
