"""End-to-end tests of the QoS plane wired into the platform."""

from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.qos.plane import QosConfig

from tests.helpers import make_platform

QOS_YAML = """
name: qos-app
classes:
  - name: Hot
    qos: {throughput: 4, latency: 50, priority: 8}
    functions:
      - name: work
        image: t/hot
  - name: Noisy
    constraint: {budget: 10}
    functions:
      - name: work
        image: t/noisy
"""


def qos_platform(**qos_kwargs) -> Oparaca:
    return make_platform(
        QOS_YAML,
        {
            "t/hot": (lambda ctx: {"ok": True}, 0.001),
            "t/noisy": (lambda ctx: {"ok": True}, 0.001),
        },
        nodes=2,
        qos=QosConfig(enabled=True, **qos_kwargs),
        events_enabled=True,
    )


class TestGatewayAdmission:
    def test_flood_gets_429_with_retry_hint(self):
        platform = qos_platform()
        obj = platform.new_object("Hot")
        statuses = [
            platform.http("POST", f"/api/objects/{obj}/invokes/work").status
            for _ in range(10)
        ]
        assert 200 in statuses
        rejected = [s for s in statuses if s == 429]
        assert rejected  # burst of 1 + rate 4 rps cannot admit 10 at once
        response = platform.http("POST", f"/api/objects/{obj}/invokes/work")
        assert response.status == 429
        assert response.body["type"] == "RateLimitedError"
        assert response.body["retry_after_s"] > 0
        platform.shutdown()

    def test_rejections_counted_and_evented(self):
        platform = qos_platform()
        obj = platform.new_object("Hot")
        for _ in range(10):
            platform.http("POST", f"/api/objects/{obj}/invokes/work")
        assert platform.gateway.rejected > 0
        assert platform.snapshot()["gateway.rejected"] == platform.gateway.rejected
        rejects = platform.platform_events("qos.reject")
        assert rejects and rejects[0].fields["path"] == "http"
        platform.shutdown()

    def test_tokens_refill_with_time(self):
        platform = qos_platform()
        obj = platform.new_object("Hot")
        for _ in range(10):
            platform.http("POST", f"/api/objects/{obj}/invokes/work")
        platform.advance(2.0)  # 4 rps * 2 s = 8 tokens back
        assert platform.http("POST", f"/api/objects/{obj}/invokes/work").status == 200
        platform.shutdown()

    def test_unlimited_class_not_rate_limited(self):
        platform = qos_platform()
        obj = platform.new_object("Noisy")
        statuses = {
            platform.http("POST", f"/api/objects/{obj}/invokes/work").status
            for _ in range(20)
        }
        assert statuses == {200}
        platform.shutdown()

    def test_concurrency_ceiling_503_and_release(self):
        from repro.platform.gateway import HttpRequest

        platform = qos_platform(concurrency_limit=1)
        platform.register_image("t/slow", lambda ctx: {"ok": True}, 5.0)
        platform.deploy(
            "name: extra\nclasses:\n  - name: Slow\n    functions:\n"
            "      - name: work\n        image: t/slow\n"
        )
        slow = platform.new_object("Slow")
        noisy = platform.new_object("Noisy")
        gateway = platform.gateway

        responses = []

        def driver(env):
            first = gateway.handle(
                HttpRequest("POST", f"/api/objects/{slow}/invokes/work")
            )
            yield env.timeout(0.1)  # first request still in flight
            second = yield gateway.handle(
                HttpRequest("POST", f"/api/objects/{noisy}/invokes/work")
            )
            responses.append(second)
            responses.append((yield first))
            third = yield gateway.handle(
                HttpRequest("POST", f"/api/objects/{noisy}/invokes/work")
            )
            responses.append(third)

        platform.run(driver(platform.env))
        assert responses[0].status == 503  # ceiling held by the slow call
        assert responses[1].status == 200
        assert responses[2].status == 200  # slot released after completion
        platform.shutdown()


class TestGatewayErrorPaths:
    def test_unknown_route_has_typed_body(self):
        platform = qos_platform()
        response = platform.http("GET", "/api/nothing/here")
        assert response.status == 404
        assert response.body["type"] == "NoRouteError"
        assert "/api/nothing/here" in response.body["error"]
        platform.shutdown()

    def test_handler_exception_becomes_500_and_releases_slot(self):
        platform = qos_platform(concurrency_limit=4)
        gateway = platform.gateway

        def boom(http):
            raise RuntimeError("router exploded")

        original = gateway._route
        gateway._route = boom
        try:
            response = platform.http("GET", "/api/classes")
        finally:
            gateway._route = original
        assert response.status == 500
        assert response.body["type"] == "InternalError"
        # The in-flight slot must not leak on the exception path.
        assert platform.qos.admission.in_flight == 0
        platform.shutdown()


class TestAsyncPath:
    def test_async_flood_resolves_with_rate_limited_failures(self):
        platform = qos_platform()
        obj = platform.new_object("Hot")
        completions = [platform.invoke_async(obj, "work") for _ in range(10)]
        platform.advance(5.0)
        results = [event.value for event in completions]
        ok = [r for r in results if r.ok]
        limited = [r for r in results if r.error_type == "RateLimitedError"]
        assert ok and limited
        assert len(ok) + len(limited) == 10
        assert platform.queue.rejected == len(limited)
        assert platform.snapshot()["queue.rejected"] == len(limited)
        platform.shutdown()

    def test_flood_is_shed_with_overload_error(self):
        platform = qos_platform(
            shed_queue_depth=16, shed_check_interval_s=0.05
        )
        ids = [platform.new_object("Noisy") for _ in range(4)]
        completions = [
            platform.invoke_async(ids[i % 4], "work") for i in range(200)
        ]
        platform.advance(10.0)
        results = [event.value for event in completions if event.triggered]
        shed = [r for r in results if r.error_type == "OverloadError"]
        assert shed
        assert platform.queue.shed == len(shed)
        assert platform.platform_events("qos.shed")
        platform.shutdown()

    def test_per_object_ordering_preserved_under_wfq(self):
        platform = qos_platform()
        seen = []

        def recorder(ctx):
            seen.append(ctx.payload["seq"])
            return {}

        platform.register_image("t/rec", recorder, 0.002)
        platform.deploy(
            "name: ord\nclasses:\n  - name: Ordered\n    functions:\n"
            "      - name: work\n        image: t/rec\n"
        )
        obj = platform.new_object("Ordered")
        for seq in range(30):
            platform.invoke_async(obj, "work", {"seq": seq})
        platform.advance(5.0)
        assert seen == list(range(30))
        platform.shutdown()

    def test_stop_reports_pending(self):
        platform = qos_platform()
        obj = platform.new_object("Noisy")
        for _ in range(50):
            platform.invoke_async(obj, "work")
        report = platform.queue.stop()
        assert report["pending"] > 0
        platform.shutdown()


class TestReportsAndBaseline:
    def test_qos_report_shape(self):
        platform = qos_platform()
        obj = platform.new_object("Hot")
        noisy = platform.new_object("Noisy")
        platform.http("POST", f"/api/objects/{obj}/invokes/work")
        platform.http("POST", f"/api/objects/{noisy}/invokes/work")
        report = platform.report("qos")
        classes = {p["class"]: p for p in report["policies"]}
        assert classes["Hot"]["rate_rps"] == 4
        assert classes["Hot"]["weight"] == 8
        assert classes["Noisy"]["tier"] == 1  # economy budget
        assert "Hot" in report["admission"]
        assert "fair_queue" in report and "shedder" in report
        platform.shutdown()

    def test_observability_report_and_summary_include_qos(self):
        from repro.monitoring.export import format_summary

        platform = qos_platform()
        obj = platform.new_object("Hot")
        for _ in range(6):
            platform.http("POST", f"/api/objects/{obj}/invokes/work")
        report = platform.observability_report()
        assert "qos" in report
        text = format_summary(report)
        assert "\nqos:" in text
        platform.shutdown()

    def test_snapshot_gains_qos_keys_only_when_enabled(self):
        platform = qos_platform()
        keys = set(platform.snapshot())
        assert {"qos.in_flight", "qos.fair_queue.depth"} <= keys
        platform.shutdown()

        baseline = Oparaca(PlatformConfig(nodes=2))
        snap = baseline.snapshot()
        assert not {"qos.in_flight", "qos.fair_queue.depth"} & set(snap)
        assert snap["gateway.rejected"] == snap["queue.rejected"] == 0.0
        baseline.shutdown()

    def test_nfr_report_adds_p95_verdict_when_plane_on(self):
        platform = qos_platform()
        obj = platform.new_object("Hot")
        for _ in range(30):
            platform.http("POST", f"/api/objects/{obj}/invokes/work")
            platform.advance(0.3)
        requirements = {v.requirement for v in platform.nfr_report() if v.cls == "Hot"}
        assert "latency_p95_ms" in requirements
        platform.shutdown()
