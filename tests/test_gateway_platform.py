"""Tests for the REST gateway and the Oparaca facade."""

import dataclasses

import pytest

from repro.errors import OaasError
from repro.invoker.request import InvocationRequest
from repro.monitoring.plane import MetricsConfig
from repro.platform.gateway import HttpRequest, HttpResponse
from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.sim.kernel import all_of

from tests.conftest import LISTING1_YAML, register_image_handlers
from tests.test_federation import fed_platform


class TestGatewayRouting:
    def test_create_object_201(self, platform):
        response = platform.http("POST", "/api/classes/Image", {"state": {"width": 9}})
        assert response.status == 201
        assert response.body["id"].startswith("Image~")

    def test_get_object(self, platform):
        obj = platform.new_object("Image", {"width": 3})
        response = platform.http("GET", f"/api/objects/{obj}")
        assert response.status == 200
        assert response.body["state"]["width"] == 3

    def test_invoke_function(self, platform):
        obj = platform.new_object("Image")
        response = platform.http(
            "POST", f"/api/objects/{obj}/invokes/resize", {"width": 77}
        )
        assert response.status == 200
        assert response.body == {"width": 77}

    def test_patch_updates_state(self, platform):
        obj = platform.new_object("Image")
        response = platform.http("PATCH", f"/api/objects/{obj}", {"state": {"width": 4}})
        assert response.status == 200
        assert response.body["version"] == 2

    def test_delete_object(self, platform):
        obj = platform.new_object("Image")
        assert platform.http("DELETE", f"/api/objects/{obj}").status == 200
        assert platform.http("GET", f"/api/objects/{obj}").status == 404

    def test_file_url_endpoints(self, platform):
        obj = platform.new_object("Image")
        put_response = platform.http("PUT", f"/api/objects/{obj}/files/image")
        assert put_response.status == 200
        assert put_response.body["url"].startswith("s3://")

    def test_unknown_route_404(self, platform):
        assert platform.http("GET", "/nope").status == 404
        assert platform.http("GET", "/api/unknown/x").status == 404

    def test_method_not_allowed_405(self, platform):
        obj = platform.new_object("Image")
        assert platform.http("PUT", f"/api/objects/{obj}").status == 405

    def test_unknown_object_404(self, platform):
        assert platform.http("GET", "/api/objects/Image~ghost").status == 404

    def test_unknown_class_404(self, platform):
        assert platform.http("POST", "/api/classes/Ghost").status == 404

    def test_validation_error_400(self, platform):
        obj = platform.new_object("Image")
        response = platform.http("PATCH", f"/api/objects/{obj}", {"state": {"bad": 1}})
        assert response.status == 400

    def test_internal_access_403(self, bare_platform):
        platform = bare_platform
        platform.register_image("img/x", lambda ctx: {})
        platform.deploy(
            "classes:\n  - name: T\n    functions:\n"
            "      - { name: f, image: img/x, access: INTERNAL }\n"
        )
        obj = platform.new_object("T")
        assert platform.http("POST", f"/api/objects/{obj}/invokes/f").status == 403

    def test_handler_crash_500(self, bare_platform):
        platform = bare_platform

        @platform.function("img/crash")
        def crash(ctx):
            raise RuntimeError("oops")

        platform.deploy(
            "classes:\n  - name: T\n    functions:\n      - { name: f, image: img/crash }\n"
        )
        obj = platform.new_object("T")
        response = platform.http("POST", f"/api/objects/{obj}/invokes/f")
        assert response.status == 500
        assert "oops" in response.body["error"]

    def test_request_normalizes_method_case(self):
        request = HttpRequest("get", "/api/objects/x")
        assert request.method == "GET"

    def test_response_ok_property(self):
        assert HttpResponse(200).ok
        assert not HttpResponse(404).ok


class TestRequestStamping:
    """The gateway fills origin zone and trace context into the request
    it has just parsed — and only into that one."""

    def traced(self, **federation):
        platform = fed_platform(**federation)
        platform.tracer.enable()
        return platform

    def test_callers_request_is_never_mutated(self):
        platform = self.traced(default_origin_zone="edge-a")
        obj = platform.new_object("Sensor", object_id="s-1")
        requests = [
            InvocationRequest(object_id=obj, fn_name="bump", payload={"by": 1}),
            InvocationRequest(
                object_id=obj, fn_name="bump", origin_zone="region-a",
                trace_id="t-7", trace_parent=7,
            ),
        ]
        before = [dataclasses.asdict(request) for request in requests]
        for request in requests:
            assert platform.run(platform.engine.invoke(request)).ok
            assert platform.run(platform.queue.submit(request)).ok
        assert [dataclasses.asdict(request) for request in requests] == before
        assert platform.invoke(obj, "bump", {}).ok  # the facade builds its own
        # The caller's trace context was honoured, not replaced.
        roots = [span for span in platform.tracer.trace("t-7") if span.name == "invoke bump"]
        assert roots and {span.parent_id for span in roots} == {7}
        with pytest.raises(dataclasses.FrozenInstanceError):
            requests[0].origin_zone = "core"

    def test_concurrent_requests_for_one_object_get_their_own_trace(self):
        platform = self.traced(default_origin_zone="edge-a")
        obj = platform.new_object("Sensor", object_id="s-2")
        http = HttpRequest("POST", f"/api/objects/{obj}/invokes/bump", {})
        replies = platform.run(
            all_of(platform.env, [platform.gateway.handle(http) for _ in range(2)])
        )
        assert [reply.status for reply in replies] == [200, 200]
        gateway_spans = [s for s in platform.tracer.spans() if s.name.startswith("gateway ")]
        invoke_spans = [s for s in platform.tracer.spans() if s.name == "invoke bump"]
        assert len(gateway_spans) == len(invoke_spans) == 2
        assert len({span.trace_id for span in gateway_spans}) == 2
        # Each invocation hangs under the gateway span of its own request.
        assert [(s.trace_id, s.parent_id) for s in invoke_spans] == [
            (s.trace_id, s.span_id) for s in gateway_spans
        ]

    def test_origin_header_wins_over_the_default_zone(self):
        # Sensor admits edge-a / region-a only; the default origin is outside.
        platform = self.traced(default_origin_zone="core")
        obj = platform.new_object("Sensor", object_id="s-3")
        path = f"/api/objects/{obj}/invokes/bump"
        assert platform.http("POST", path, {}).status == 451
        assert platform.http("POST", path, {}, headers={"X-Origin-Zone": "edge-a"}).status == 200
        assert platform.federation.class_stats("Sensor") == {
            "accesses": 2, "cross_zone": 0, "rejections": 1
        }

    def test_unknown_origin_zone_answers_as_before(self):
        platform = self.traced(default_origin_zone="core")
        obj = platform.new_object("Sensor", object_id="s-4")
        reply = platform.http(
            "POST", f"/api/objects/{obj}/invokes/bump", {}, headers={"X-Origin-Zone": "mars"}
        )
        assert reply.status == 400
        assert reply.body == {
            "error": "unknown zone 'mars'; known zones: ['core', 'edge-a', 'region-a']",
            "type": "ValidationError",
        }
        assert platform.federation.class_stats("Sensor")["accesses"] == 0


class TestFacade:
    def test_deploy_accepts_yaml_text(self, bare_platform):
        register_image_handlers(bare_platform)
        runtimes = bare_platform.deploy(LISTING1_YAML)
        assert [r.cls for r in runtimes] == ["Image", "LabelledImage"]

    def test_deploy_accepts_path(self, tmp_path, bare_platform):
        register_image_handlers(bare_platform)
        path = tmp_path / "pkg.yml"
        path.write_text(LISTING1_YAML)
        runtimes = bare_platform.deploy(path)
        assert len(runtimes) == 2

    def test_deploy_accepts_package_object(self, bare_platform):
        from repro.model.pkg import loads_package

        register_image_handlers(bare_platform)
        runtimes = bare_platform.deploy(loads_package(LISTING1_YAML))
        assert len(runtimes) == 2

    def test_now_and_advance(self, bare_platform):
        start = bare_platform.now
        bare_platform.advance(5.0)
        assert bare_platform.now == start + 5.0

    def test_run_accepts_generator(self, bare_platform):
        def gen():
            yield bare_platform.env.timeout(1.0)
            return "value"

        assert bare_platform.run(gen()) == "value"

    def test_flush_persists_pending_state(self, platform):
        obj = platform.new_object("Image")
        platform.invoke(obj, "resize", {"width": 44})
        platform.flush()
        doc = platform.store.get_sync("objects.Image", obj)
        assert doc is not None
        assert doc["state"]["width"] == 44

    def test_snapshot_keys(self, platform):
        obj = platform.new_object("Image")
        platform.invoke(obj, "resize", {"width": 10})
        snapshot = platform.snapshot()
        assert snapshot["engine.invocations"] >= 2
        assert "store.write_ops" in snapshot
        assert "classes.invocations.throughput_rps{class=Image}" in snapshot

    def test_shutdown_flushes_and_stops(self, platform):
        obj = platform.new_object("Image")
        platform.invoke(obj, "resize", {"width": 2})
        platform.shutdown()
        assert platform.crm.dht_for("Image").write_behind_stats["pending"] == 0

    def test_seed_determinism(self):
        def build():
            instance = Oparaca(PlatformConfig(nodes=3, seed=11))
            register_image_handlers(instance)
            instance.deploy(LISTING1_YAML)
            obj = instance.new_object("Image", object_id="fixed")
            instance.invoke(obj, "resize", {"width": 10})
            return instance.now

        assert build() == build()

    def test_invoke_raise_on_error_flag(self, platform):
        result = platform.invoke(
            "Image~ghost", "resize", {"width": 1}, raise_on_error=False
        )
        assert not result.ok
        with pytest.raises(OaasError):
            platform.invoke("Image~ghost", "resize", {"width": 1})

    def test_optimizer_enabled_by_config(self):
        platform = Oparaca(
            PlatformConfig(
                nodes=2, optimizer_enabled=True, metrics=MetricsConfig(enabled=True)
            )
        )
        assert platform.optimizer is not None
        platform.shutdown()
