"""Tests for invocation tracing, the event log, and their exporters."""

import json

import pytest

from repro.monitoring.events import EventLog
from repro.monitoring.export import (
    chrome_trace_json,
    format_summary,
    span_breakdown,
    summary_report,
    to_chrome_trace,
)
from repro.monitoring.nfr_report import (
    format_nfr_report,
    nfr_compliance_report,
)
from repro.monitoring.tracing import Tracer
from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.sim.kernel import Environment

from tests.conftest import LISTING1_YAML, register_image_handlers


@pytest.fixture
def traced_platform():
    platform = Oparaca(PlatformConfig(nodes=3, tracing_enabled=True))
    register_image_handlers(platform)
    platform.deploy(LISTING1_YAML)
    return platform


@pytest.fixture
def observed_platform():
    """Tracing AND the event log on — the full observability surface."""
    platform = Oparaca(
        PlatformConfig(nodes=3, tracing_enabled=True, events_enabled=True)
    )
    register_image_handlers(platform)
    platform.deploy(LISTING1_YAML)
    return platform


class TestTracerUnit:
    def test_disabled_records_nothing(self):
        tracer = Tracer(Environment(), enabled=False)
        assert tracer.start("t", "x") is None
        tracer.finish(None)  # must be a no-op
        assert len(tracer) == 0

    def test_span_timing(self):
        env = Environment()
        tracer = Tracer(env, enabled=True)
        span = tracer.start("t", "op")
        env.run(until=2.5)
        tracer.finish(span, ok=True)
        (read,) = tracer.spans()
        assert read.span_id == span
        assert read.duration_s == 2.5
        assert read.attrs["ok"] is True

    def test_parent_by_span_and_id(self):
        tracer = Tracer(Environment(), enabled=True)
        parent = tracer.start("t", "parent")
        tracer.start("t", "a", parent=parent)
        tracer.start("t", "b", parent=parent)
        spans = {span.name: span for span in tracer.spans()}
        assert spans["parent"].span_id == parent
        assert spans["a"].parent_id == spans["b"].parent_id == parent

    def test_capacity_bounded(self):
        tracer = Tracer(Environment(), enabled=True, capacity=10)
        for i in range(50):
            tracer.start("t", f"s{i}")
        assert len(tracer) == 10

    def test_engine_respects_injected_empty_tracer(self):
        """Regression: an empty Tracer is falsy (__len__); the engine
        must keep the injected instance anyway."""
        platform = Oparaca(PlatformConfig(nodes=2, tracing_enabled=True))
        assert platform.engine.tracer is platform.tracer


class TestInvocationTraces:
    def test_task_invocation_spans(self, traced_platform):
        platform = traced_platform
        obj = platform.new_object("Image")
        result = platform.invoke(obj, "resize", {"width": 10})
        spans = platform.tracer.trace(result.request_id)
        names = [s.name for s in spans]
        assert names[0] == "invoke resize"
        assert "state.load" in names
        assert any(n.startswith("task.offload") for n in names)
        assert "state.commit" in names
        assert all(s.end is not None for s in spans)

    def test_macro_trace_spans_sub_invocations(self, traced_platform):
        platform = traced_platform
        obj = platform.new_object("Image")
        result = platform.invoke(obj, "thumbnail", {"width": 10})
        spans = platform.tracer.trace(result.request_id)
        names = [s.name for s in spans]
        # One trace covers the macro and both step invocations.
        assert "invoke thumbnail" in names
        assert "step r" in names and "step f" in names
        assert "invoke resize" in names and "invoke changeFormat" in names

    def test_step_spans_parented_to_macro(self, traced_platform):
        platform = traced_platform
        obj = platform.new_object("Image")
        result = platform.invoke(obj, "thumbnail", {"width": 10})
        spans = platform.tracer.trace(result.request_id)
        by_name = {s.name: s for s in spans}
        macro = by_name["invoke thumbnail"]
        assert by_name["step r"].parent_id == macro.span_id
        sub = by_name["invoke resize"]
        assert sub.parent_id == by_name["step r"].span_id

    def test_immutable_invocation_has_no_commit_span(self, traced_platform):
        platform = traced_platform
        obj = platform.new_object("Image")
        result = platform.invoke(obj, "get")
        names = [s.name for s in platform.tracer.trace(result.request_id)]
        assert "state.commit" not in names

    def test_render_tree(self, traced_platform):
        platform = traced_platform
        obj = platform.new_object("Image")
        result = platform.invoke(obj, "resize", {"width": 5})
        text = platform.tracer.render(result.request_id)
        assert "invoke resize" in text
        assert "ms" in text

    def test_render_unknown_trace(self, traced_platform):
        assert "no spans" in traced_platform.tracer.render("ghost")

    def test_tracing_off_by_default(self, platform):
        obj = platform.new_object("Image")
        result = platform.invoke(obj, "resize", {"width": 5})
        assert len(platform.tracer.trace(result.request_id)) == 0

    def test_orphaned_span_renders_as_root(self):
        """A span whose parent fell out of the bounded buffer must still
        render (as a root) instead of silently disappearing."""
        tracer = Tracer(Environment(), enabled=True)
        child = tracer.start("t", "orphan", parent=9999)
        tracer.finish(child)
        text = tracer.render("t")
        assert "orphan" in text

    def test_render_all_traces(self):
        tracer = Tracer(Environment(), enabled=True)
        tracer.finish(tracer.start("a", "one"))
        tracer.finish(tracer.start("b", "two"))
        text = tracer.render()
        assert "trace a" in text and "trace b" in text
        assert "(no spans recorded)" == Tracer(Environment(), enabled=True).render()


class TestGatewayTrace:
    """Acceptance: one HTTP invocation yields the full platform tree."""

    def test_http_invocation_full_span_tree(self, observed_platform):
        platform = observed_platform
        obj = platform.new_object("Image")
        resp = platform.http(
            "POST", f"/api/objects/{obj}/invokes/resize", {"width": 64}
        )
        assert resp.ok
        # The gateway span roots the invocation's trace.
        gateway_spans = [
            s for s in platform.tracer.spans() if s.name.startswith("gateway ")
        ]
        assert len(gateway_spans) == 1
        spans = platform.tracer.trace(gateway_spans[0].trace_id)
        by_name = {s.name.split(" ", 1)[0]: s for s in spans}
        for phase in (
            "gateway",
            "invoke",
            "state.load",
            "task.offload",
            "faas.queue",
            "faas.execute",
            "state.commit",
        ):
            assert phase in by_name, f"missing {phase} span in {sorted(by_name)}"
        gateway = by_name["gateway"]
        assert gateway.parent_id is None
        assert by_name["invoke"].parent_id == gateway.span_id
        invoke = by_name["invoke"]
        assert by_name["state.load"].parent_id == invoke.span_id
        # Where the request was routed is the load's attribute, not a span.
        assert by_name["state.load"].attrs["node"] in platform.cluster.node_names
        assert by_name["task.offload"].parent_id == invoke.span_id
        offload = by_name["task.offload"]
        assert by_name["faas.queue"].parent_id == offload.span_id
        assert by_name["faas.execute"].parent_id == offload.span_id
        assert by_name["state.load"].attrs.get("hit") is True
        assert all(s.end is not None for s in spans)

    def test_cold_start_span_attributed_to_request_trace(self, observed_platform):
        platform = observed_platform
        obj = platform.new_object("Image")
        platform.http("POST", f"/api/objects/{obj}/invokes/resize", {"width": 8})
        cold = platform.tracer.spans_named("faas.cold_start")
        assert cold, "scale-from-zero request should record a cold-start span"
        gateway = [
            s for s in platform.tracer.spans() if s.name.startswith("gateway ")
        ][0]
        assert cold[0].trace_id == gateway.trace_id
        assert len(cold) == len(platform.events.of_type("faas.cold_start"))

    def test_write_behind_flush_spans(self, observed_platform):
        platform = observed_platform
        obj = platform.new_object("Image")
        platform.invoke(obj, "resize", {"width": 32})
        platform.flush()
        flushes = platform.tracer.spans_named("wb.flush")
        assert flushes
        assert all(s.trace_id == "write-behind" for s in flushes)
        assert all(s.attrs.get("docs", 0) >= 1 for s in flushes)


class TestChromeExport:
    def test_export_is_valid_trace_event_json(self, observed_platform):
        platform = observed_platform
        obj = platform.new_object("Image")
        platform.http("POST", f"/api/objects/{obj}/invokes/resize", {"width": 64})
        doc = json.loads(platform.export_chrome_trace())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert {"name", "cat", "pid", "tid", "args"} <= set(event)
            assert "trace_id" in event["args"] and "span_id" in event["args"]
        names = {e["name"].split(" ", 1)[0] for e in events}
        assert {"gateway", "invoke", "faas.execute"} <= names

    def test_export_single_trace_and_file(self, observed_platform, tmp_path):
        platform = observed_platform
        obj = platform.new_object("Image")
        result = platform.invoke(obj, "resize", {"width": 4})
        path = tmp_path / "trace.json"
        text = platform.export_chrome_trace(trace_id=result.request_id, path=path)
        doc = json.loads(path.read_text())
        assert doc == json.loads(text)
        assert {e["args"]["trace_id"] for e in doc["traceEvents"]} == {
            result.request_id
        }

    def test_traces_get_distinct_lanes(self):
        env = Environment()
        tracer = Tracer(env, enabled=True)
        tracer.finish(tracer.start("a", "x"))
        tracer.finish(tracer.start("b", "y"))
        doc = to_chrome_trace(tracer.spans())
        tids = {e["tid"] for e in doc["traceEvents"]}
        assert len(tids) == 2

    def test_unfinished_span_exports_zero_duration(self):
        env = Environment()
        tracer = Tracer(env, enabled=True)
        tracer.start("a", "open-span")
        doc = json.loads(chrome_trace_json(tracer))
        assert doc["traceEvents"][0]["dur"] == 0


class TestEventLogUnit:
    def test_disabled_records_nothing(self):
        log = EventLog(Environment(), enabled=False)
        assert log.record("x", a=1) is None
        assert len(log) == 0

    def test_record_and_query(self):
        env = Environment()
        log = EventLog(env, enabled=True)
        log.record("pod.bind", pod="p1", node="vm-0")
        env.run(until=2.0)
        log.record("pod.ready", pod="p1", node="vm-0")
        assert len(log) == 2
        assert [e.type for e in log.events()] == ["pod.bind", "pod.ready"]
        assert log.of_type("pod.ready")[0].at == 2.0
        assert log.type_counts() == {"pod.bind": 1, "pod.ready": 1}
        assert log.events()[0].to_dict()["pod"] == "p1"

    def test_capacity_bounded_with_drop_count(self):
        log = EventLog(Environment(), enabled=True, capacity=5)
        for i in range(12):
            log.record("tick", i=i)
        assert len(log) == 5
        assert log.dropped == 7
        assert [e.fields["i"] for e in log.events()] == [7, 8, 9, 10, 11]

    def test_render(self):
        log = EventLog(Environment(), enabled=True)
        log.record("scheduler.place", pod="p", node="vm-1")
        text = log.render()
        assert "scheduler.place" in text and "node=vm-1" in text
        assert "(no events" in log.render(type="ghost")


class TestPlatformEvents:
    def test_deploy_emits_control_plane_events(self, observed_platform):
        platform = observed_platform
        counts = platform.events.type_counts()
        assert counts.get("template.select", 0) >= 2  # Image + LabelledImage
        assert counts.get("class.deploy", 0) >= 2
        assert counts.get("scheduler.place", 0) >= 1
        assert counts.get("pod.bind", 0) >= 1

    def test_cold_start_and_pod_ready_events(self, observed_platform):
        platform = observed_platform
        obj = platform.new_object("Image")
        platform.invoke(obj, "resize", {"width": 2})
        assert platform.events.of_type("faas.cold_start")
        ready = platform.events.of_type("pod.ready")
        assert ready and all(e.fields["startup_s"] >= 0 for e in ready)

    def test_knative_autoscale_event_on_scale_down(self, observed_platform):
        platform = observed_platform
        obj = platform.new_object("Image")
        platform.invoke(obj, "resize", {"width": 2})
        # Idle past the scale-to-zero grace; the autoscaler must record
        # its decision when replicas actually change.
        platform.advance(120.0)
        assert platform.events.of_type("autoscale.knative")

    def test_events_off_by_default(self, platform):
        obj = platform.new_object("Image")
        platform.invoke(obj, "resize", {"width": 2})
        assert len(platform.events) == 0
        assert platform.platform_events() == []


class TestSummaryReport:
    def test_report_covers_all_sources(self, observed_platform):
        platform = observed_platform
        obj = platform.new_object("Image")
        platform.invoke(obj, "resize", {"width": 2})
        report = platform.observability_report()
        assert report["span_count"] > 0
        assert report["event_count"] > 0
        classes = report["classes"]
        (image,) = [row for row in classes["invocations"] if row["class"] == "Image"]
        assert image["completed"] >= 2
        (dht,) = [row for row in classes["dht"] if row["class"] == "Image"]
        assert 0.0 <= dht["hit_rate"] <= 1.0
        (faas,) = [row for row in classes["faas"] if row["class"] == "Image"]
        assert faas["cold_starts"] >= 1
        assert any(v["cls"] == "Image" for v in report["nfr"])

    def test_span_breakdown_groups_by_phase(self):
        env = Environment()
        tracer = Tracer(env, enabled=True)
        for svc in ("Image.resize", "Image.changeFormat"):
            span = tracer.start("t", f"task.offload {svc}")
            tracer.finish(span)
        stats = span_breakdown(tracer.spans())
        assert stats["task.offload"]["count"] == 2

    def test_format_summary_renders(self, observed_platform):
        platform = observed_platform
        obj = platform.new_object("Image")
        platform.invoke(obj, "resize", {"width": 2})
        text = format_summary(
            summary_report(tracer=platform.tracer, events=platform.events)
        )
        assert "span latency breakdown" in text
        assert "control-plane events" in text
        text = format_summary(platform.observability_report())
        assert "\nclasses:" in text and "  dht:" in text and "Image" in text


class TestNfrCompliance:
    def test_idle_class_meets_capacity_targets(self, observed_platform):
        platform = observed_platform
        obj = platform.new_object("Image")
        platform.invoke(obj, "resize", {"width": 2})
        verdicts = platform.nfr_report()
        # LISTING1 declares throughput: 100 on Image; one quiet request
        # cannot violate a capacity requirement.
        throughput = [v for v in verdicts if v.requirement == "throughput_rps"]
        assert throughput and all(v.met for v in throughput)

    def test_latency_violation_under_overload(self):
        platform = Oparaca(
            PlatformConfig(nodes=2, tracing_enabled=True, events_enabled=True)
        )

        @platform.function("slow/fn", service_time_s=0.5)
        def slow(ctx):
            return {"ok": True}

        platform.deploy(
            """
name: overload
classes:
  - name: Slow
    qos: { latency: 10 }
    functions:
      - name: work
        image: slow/fn
"""
        )
        obj = platform.new_object("Slow")
        for _ in range(12):
            platform.invoke(obj, "work")
        verdicts = nfr_compliance_report(platform.crm.runtimes, platform.monitoring)
        latency = [v for v in verdicts if v.requirement == "latency_p95_ms"]
        assert latency and not latency[0].met
        assert latency[0].margin < 0
        assert "VIOLATED" in format_nfr_report(verdicts)

    def test_throughput_violation_requires_saturation(self):
        """A shortfall only counts while services are saturated."""
        platform = Oparaca(PlatformConfig(nodes=2))

        @platform.function("idle/fn", service_time_s=0.001)
        def handler(ctx):
            return {"ok": True}

        platform.deploy(
            """
name: quiet
classes:
  - name: Quiet
    qos: { throughput: 10000 }
    functions:
      - name: work
        image: idle/fn
"""
        )
        obj = platform.new_object("Quiet")
        platform.invoke(obj, "work")
        verdicts = nfr_compliance_report(platform.crm.runtimes, platform.monitoring)
        throughput = [v for v in verdicts if v.requirement == "throughput_rps"]
        assert throughput and throughput[0].met
        assert "not saturated" in throughput[0].detail

    def test_no_qos_no_verdicts(self):
        platform = Oparaca(PlatformConfig(nodes=2))

        @platform.function("plain/fn")
        def handler(ctx):
            return {"ok": True}

        platform.deploy(
            """
name: plain
classes:
  - name: Plain
    functions:
      - name: work
        image: plain/fn
"""
        )
        assert nfr_compliance_report(platform.crm.runtimes, platform.monitoring) == []
        assert "no classes declare QoS" in format_nfr_report([])


class TestDisabledZeroCost:
    def test_disabled_observability_records_nothing(self, platform):
        obj = platform.new_object("Image")
        platform.invoke(obj, "resize", {"width": 2})
        platform.flush()
        assert len(platform.tracer) == 0
        assert len(platform.events) == 0
        report = platform.observability_report()
        assert report["span_count"] == 0 and report["event_count"] == 0
