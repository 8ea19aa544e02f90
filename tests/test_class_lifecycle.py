"""One class-lifecycle hook: whatever the CRM deploys, updates or
undeploys, every listener hears of, in order (``Plane.class_changed``).

* A hypothesis property over deploy / update / undeploy / redeploy with
  every plane on: after an undeploy and the next scrape, no state
  section, registry instrument, scraped series, observed class, SLO
  objective or dispatch-core class names the class; after a redeploy its
  counts start from zero.
* An update's declared throughput is enforced from the next request.
* Outside input naming no deployed class leaves no observations behind.
* A request for an undeployed class fails typed on either transport
  (its workers keep what they installed), and a redeploy serves again;
  the asyncio front answers a class the CRM does not hold, not parks it.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.durability.plane import DurabilityConfig
from repro.federation import FederationConfig
from repro.model.pkg import loads_package
from repro.monitoring.plane import MetricsConfig
from repro.qos.plane import QosConfig, QosPlane
from repro.render import numbers
from repro.scheduler.plane import SchedulerConfig

from tests.helpers import make_platform, run_async
from tests.test_planes import ZONES
from tests.test_real_path_budget import KeepAlive

CLASS_YAML = """
name: life-{cls}
classes:
  - name: {cls}
    qos: {{throughput: {rps}, latency: 500}}
    constraint: {{persistence: strong}}
    keySpecs: [{{name: n, type: INT, default: 0}}]
    functions:
      - {{name: work, image: life/work}}
"""

CLASSES = ("Alpha", "Beta")
#: The declared throughput a class deploys with, and the one an update
#: moves it to (and back).
RATES = (1000, 3)


def _work(ctx):
    ctx.state["n"] = ctx.state.get("n", 0) + 1
    return {"n": ctx.state["n"]}


HANDLERS = {"life/work": (_work, 0.002)}


def every_plane():
    return make_platform(
        None,
        HANDLERS,
        nodes=3,
        seed=5,
        events_enabled=True,
        qos=QosConfig(enabled=True),
        durability=DurabilityConfig(enabled=True),
        metrics=MetricsConfig(enabled=True),
        scheduler=SchedulerConfig(enabled=True),
        federation=FederationConfig(enabled=True, zones=ZONES),
        regions=tuple(zone.name for zone in ZONES),
    )


def resolved(cls: str, rps: int):
    return loads_package(CLASS_YAML.format(cls=cls, rps=rps)).resolved_classes()[cls]


def what_names(platform, cls: str) -> list[str]:
    """Every place the platform still keeps ``cls``'s name."""
    found = [
        f"{section}: {name} {labels}"
        for section, stats in platform.sections().items()
        for name, labels, _value in numbers(stats, section)
        if cls in labels.values()
    ]
    registry = platform.monitoring.registry
    for instrument in (*registry.gauges(), *registry.histograms()):
        if cls in dict(instrument.labels).values():
            found.append(f"registry: {instrument.name} {instrument.labels}")
    for series in platform.metrics.scraper.all_series():
        if cls in dict(series.labels).values():
            found.append(f"scraper: {series.name} {series.labels}")
    if cls in platform.monitoring.observed_classes:
        found.append("monitoring: observed")
    if cls in platform.metrics.slo.watched:
        found.append("slo: watched")
    found += [f"qos: {queue} weight" for queue in platform.qos.queues if cls in queue._weights]
    core = platform.scheduler_plane.core
    if cls in core.deployed_classes():
        found.append("dispatch core: class")
    return found


OPS = st.lists(
    st.tuples(
        # Invokes and undeploys twice as likely: most examples then leave
        # an invoked class.
        st.sampled_from(("deploy", "update", "undeploy", "undeploy", "invoke", "invoke", "advance")),
        st.sampled_from(CLASSES),
    ),
    min_size=2,
    max_size=16,
)

REDEPLOY = [
    ("deploy", "Alpha"), ("invoke", "Alpha"), ("update", "Alpha"), ("invoke", "Alpha"),
    ("undeploy", "Alpha"), ("deploy", "Alpha"), ("invoke", "Alpha"), ("undeploy", "Alpha"),
]


class TestALeftClassLeavesEverywhere:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=OPS)
    @example(ops=REDEPLOY)
    def test_undeploy_forgets_and_redeploy_counts_from_zero(self, ops):
        platform = every_plane()
        rates: dict[str, int] = {}  # deployed class -> its declared throughput
        for op, cls in ops:
            if op == "deploy" and cls not in rates:
                platform.deploy(CLASS_YAML.format(cls=cls, rps=RATES[0]))
                rates[cls] = RATES[0]
                assert platform.monitoring.class_stats(cls)["completed"] == 0
                assert cls not in platform.qos.admission.stats()
                tracker = platform.durability.tracker_for(cls)
                assert (tracker.epoch_writes, tracker.cuts_taken) == (0, 0)
            elif op == "update" and cls in rates:
                rates[cls] = RATES[1] if rates[cls] == RATES[0] else RATES[0]
                platform.crm.update_class(resolved(cls, rates[cls]))
                assert platform.qos.policy_for(cls).rate_rps == rates[cls]
            elif op == "undeploy" and cls in rates:
                platform.crm.undeploy_class(cls)
                del rates[cls]
                platform.advance(0.6)  # past the next scrape
                assert what_names(platform, cls) == []
            elif op == "invoke" and cls in rates:
                oid = platform.new_object(cls)
                platform.http("POST", f"/api/objects/{oid}/invokes/work")
                platform.invoke_async(oid, "work")
            elif op == "advance":
                platform.advance(0.6)
        platform.advance(0.6)
        for cls in CLASSES:
            if cls not in rates:
                assert what_names(platform, cls) == []
        platform.shutdown()


class TestAnUpdateTakesEffect:
    def test_a_lowered_throughput_rejects_from_the_next_request(self):
        """The 1 000 rps policy is cached by a first request; the update
        to 2 rps must reach the token bucket, not wait for a restart."""
        platform = make_platform(
            CLASS_YAML.format(cls="Fast", rps=1000), HANDLERS, qos=QosConfig(enabled=True)
        )
        oid = platform.new_object("Fast")
        assert platform.http("POST", f"/api/objects/{oid}/invokes/work").status == 200
        platform.crm.update_class(resolved("Fast", 2))
        statuses = [
            platform.http("POST", f"/api/objects/{oid}/invokes/work").status for _ in range(40)
        ]
        assert statuses.count(429) >= 1
        assert platform.qos.policy_for("Fast").rate_rps == 2
        platform.shutdown()

    def test_no_operator_override_bypasses_the_declared_nfrs(self):
        assert not hasattr(QosPlane, "set_policy")


class TestOutsideInput:
    def test_unknown_class_names_leave_no_observations(self):
        """A request naming an undeployed class is recorded and let go:
        it leaves no 30-second window or sample reservoir behind."""
        platform = make_platform(CLASS_YAML.format(cls="Fast", rps=1000), HANDLERS)
        for index in range(5):
            response = platform.http("POST", f"/api/objects/Nope{index}~1/invokes/work")
            assert response.status >= 400
        assert platform.monitoring.observed_classes == ()
        oid = platform.new_object("Fast")
        platform.invoke(oid, "work")
        assert platform.monitoring.observed_classes == ("Fast",)
        platform.shutdown()

    def test_unknown_class_names_keep_no_qos_row(self):
        """QoS admits a request naming an undeployed class under the one
        unnamed default policy, so the name keeps no admission row, no
        snapshot key and no metrics series."""
        platform = make_platform(
            CLASS_YAML.format(cls="Fast", rps=1000),
            HANDLERS,
            qos=QosConfig(enabled=True),
            metrics=MetricsConfig(enabled=True),
            scheduler=SchedulerConfig(enabled=True),
        )
        for index in range(5):
            response = platform.http("POST", f"/api/objects/Nope{index}~1/invokes/work")
            assert response.status == 404
        platform.advance(1.0)  # a scrape
        assert [key for key in platform.snapshot() if "Nope" in key] == []
        assert not any("Nope" in name for name in platform.qos.admission.stats())
        oid = platform.new_object("Fast")
        assert platform.http("POST", f"/api/objects/{oid}/invokes/work").status == 200
        assert platform.qos.admission.stats()["Fast"]["admitted"] == 1
        platform.shutdown()


class TestAnUndeployedClassFailsTyped:
    def test_on_the_sim_scheduler_plane(self):
        platform = make_platform(
            CLASS_YAML.format(cls="Fast", rps=1000), HANDLERS, scheduler=SchedulerConfig(enabled=True)
        )
        oid = platform.new_object("Fast")

        def invoke():
            completion = platform.invoke_async(oid, "work")
            platform.advance(5.0)  # past the workers' cold start
            assert completion.triggered, "parked"
            return completion.value

        assert invoke().ok
        platform.crm.undeploy_class("Fast")
        result = invoke()
        assert (result.ok, result.error_type) == (False, "UnknownClassError")
        platform.crm.deploy_class(resolved("Fast", 1000))
        assert invoke().ok
        assert platform.queue.stats()["pending"] == 0
        platform.shutdown()

    @pytest.mark.parametrize("scheduler", [False, True], ids=["static-pool", "scheduler-plane"])
    def test_counted_rejected_at_submit_not_completed(self, scheduler):
        """The queue answers the request before the core sees it, with
        the worker pool static or on the scheduler plane alike: it is
        one ``rejected``, not a delivered ``completed``."""
        planes = {"scheduler": SchedulerConfig(enabled=True)} if scheduler else {}
        platform = make_platform(CLASS_YAML.format(cls="Fast", rps=1000), HANDLERS, **planes)
        oid = platform.new_object("Fast")
        completion = platform.invoke_async(oid, "work")
        platform.advance(5.0)
        assert completion.value.ok
        before = platform.queue.stats()
        platform.crm.undeploy_class("Fast")
        completion = platform.invoke_async(oid, "work")
        platform.advance(5.0)
        assert completion.value.error_type == "UnknownClassError"
        after = platform.queue.stats()
        moved = {key: after[key] - before[key] for key in after}
        assert moved == {"submitted": 1, "completed": 0, "rejected": 1, "shed": 0, "pending": 0}
        platform.shutdown()

    def test_once_every_worker_that_held_it_is_gone(self):
        """A replacement worker installs no undeployed class, so the
        submit is answered at the queue, not parked for an install that
        never comes."""
        platform = make_platform(
            CLASS_YAML.format(cls="Fast", rps=1000), HANDLERS, scheduler=SchedulerConfig(enabled=True)
        )
        oid = platform.new_object("Fast")
        completion = platform.invoke_async(oid, "work")
        platform.advance(5.0)  # past the workers' cold start
        assert completion.value.ok
        platform.crm.undeploy_class("Fast")
        plane = platform.scheduler_plane
        for name in sorted(plane.workers):
            plane.crash_worker(name)
        platform.advance(5.0)  # the replacements register
        completion = platform.invoke_async(oid, "work")
        platform.advance(5.0)
        assert completion.triggered, "parked"
        result = completion.value
        assert (result.ok, result.error_type) == (False, "UnknownClassError")
        assert platform.report("scheduler")["parked"] == 0
        platform.crm.deploy_class(resolved("Fast", 1000))
        completion = platform.invoke_async(oid, "work")
        platform.advance(5.0)
        assert completion.triggered and completion.value.ok
        assert platform.queue.stats()["pending"] == 0
        platform.shutdown()


class TestOverSockets:
    def test_a_redeployed_class_serves_and_a_left_one_is_answered(self):
        """An undeploy is local to the scheduler server (no frame
        uninstalls a class from a worker), so the worker must ack its
        redeploy's install again; meanwhile a request for the class, or
        for one never deployed, gets a typed 404 instead of parking."""
        platform = make_platform(
            CLASS_YAML.format(cls="Fast", rps=1000),
            HANDLERS,
            scheduler=SchedulerConfig(enabled=True, transport="asyncio", pool_size=2),
        )

        async def scenario():
            front = await platform.serve_http()
            http = KeepAlive(*await asyncio.open_connection(front.host, front.port))

            async def post(path):
                return await asyncio.wait_for(http.request("POST", path), 5)

            status, body = await post("/api/classes/Fast")
            assert status == 201
            work = f"/api/objects/{body['id']}/invokes/work"
            assert (await post(work))[0] == 200
            platform.crm.undeploy_class("Fast")
            for path in (work, "/api/objects/Nope~1/invokes/work"):
                status, body = await post(path)
                assert (status, body["type"]) == (404, "UnknownClassError")
            platform.crm.deploy_class(resolved("Fast", 1000))
            assert (await post(work))[0] == 200
            http.writer.close()
            assert await front.stop() == {"pending": 0, "parked": 0}

        run_async(scenario())
        platform.shutdown()
