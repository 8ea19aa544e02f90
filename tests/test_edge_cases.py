"""Edge-case coverage across less-travelled code paths."""

import json

import pytest

from repro.errors import UnknownFunctionError
from repro.platform.oparaca import Oparaca, PlatformConfig

from tests.conftest import LISTING1_YAML, register_image_handlers


class TestPublicApi:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2


class TestDeployInputs:
    def test_deploy_json_text(self, bare_platform):
        doc = {"name": "j", "classes": [{"name": "T"}]}
        runtimes = bare_platform.deploy(json.dumps(doc))
        assert runtimes[0].cls == "T"

    def test_deploy_path_string(self, tmp_path, bare_platform):
        register_image_handlers(bare_platform)
        path = tmp_path / "pkg.yaml"
        path.write_text(LISTING1_YAML)
        runtimes = bare_platform.deploy(str(path))
        assert len(runtimes) == 2


class TestInheritedServiceFallback:
    def test_parent_runtime_serves_after_child_service_removed(self, platform):
        """The runtime falls back to an ancestor's service when the
        child runtime lost its own (undeploy/redeploy edge)."""
        child = platform.crm.runtime("LabelledImage")
        removed = child.services.pop("resize")
        platform.crm.knative.delete(removed.name)
        svc = child.service("resize")
        assert svc is platform.crm.runtime("Image").services["resize"]
        obj = platform.new_object("LabelledImage")
        assert platform.invoke(obj, "resize", {"width": 3}).ok

    def test_no_fallback_for_truly_unknown(self, platform):
        with pytest.raises(UnknownFunctionError):
            platform.crm.runtime("LabelledImage").service("nonexistent")


class TestGatewayCreateWithId:
    def test_create_with_custom_id_via_rest(self, platform):
        response = platform.http(
            "POST", "/api/classes/Image", {"id": "rest-made", "state": {"width": 1}}
        )
        assert response.status == 201
        assert response.body["id"] == "Image~rest-made"


class TestEngineLifecycle:
    def test_knative_delete_stops_autoscaler(self, platform):
        service = platform.crm.runtime("Image").services["resize"]
        platform.crm.knative.delete(service.name)
        assert not service._running
        assert service.deployment.replicas == 0

    def test_router_recovers_after_topology_change(self):
        from repro.crm.template import ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog
        from repro.invoker.router import PlacementPolicy

        catalog = TemplateCatalog(
            [
                ClassRuntimeTemplate(
                    name="rr",
                    config=RuntimeConfig(
                        engine="deployment",
                        placement=PlacementPolicy.ROUND_ROBIN,
                        min_scale_override=1,
                    ),
                )
            ]
        )
        platform = Oparaca(PlatformConfig(nodes=4, catalog=catalog))
        platform.register_image("e/f", lambda ctx: {})
        platform.deploy(
            "classes:\n  - name: T\n    functions: [{name: f, image: e/f}]\n"
        )
        objects = [platform.new_object("T") for _ in range(4)]
        platform.advance(3.0)
        platform.fail_node(platform.cluster.node_names[0])
        for obj in objects:
            assert platform.invoke(obj, "f", raise_on_error=False).ok


class TestAsyncQueueDetails:
    def test_pending_counts_unconsumed(self, platform):
        obj = platform.new_object("Image")
        events = [platform.invoke_async(obj, "resize", {"width": i}) for i in range(3)]
        # Nothing consumed yet (no time has passed).
        assert platform.queue.pending >= 0
        from repro.sim.kernel import all_of

        platform.run(all_of(platform.env, events))
        assert platform.queue.pending == 0

    def test_unknown_result_is_none(self, platform):
        assert platform.queue.result("never-submitted") is None


class TestFigHelpers:
    def test_fig1_speedup_zero_division(self):
        from repro.bench.abstraction import Fig1Result

        result = Fig1Result(3, 1, 1.0, 0.0)
        assert result.latency_speedup == 0.0

    def test_batching_row_docs_per_op_zero(self):
        from repro.bench.ablations import BatchingRow

        row = BatchingRow(1, 0.0, 0, 0, 0.0)
        assert row.docs_per_op == 0.0


class TestTaskContextFiles:
    def test_immutable_file_update_rejected(self):
        from repro.faas.runtime import InvocationTask, TaskContext

        task = InvocationTask(
            request_id="r",
            cls="C",
            object_id="o",
            fn_name="f",
            image="i",
            immutable=True,
        )
        ctx = TaskContext(task)
        ctx.update_file("image", "somewhere")
        completion = ctx.completion({})
        assert not completion.ok
        assert "immutable" in completion.error

    def test_file_urls_visible_to_handler(self, platform):
        captured = {}

        @platform.function("probe/files")
        def probe(ctx):
            captured.update(ctx.files)
            return {}

        platform.deploy(
            "classes:\n  - name: P\n    keySpecs: [{name: blob, type: FILE}]\n"
            "    functions: [{name: probe, image: probe/files}]\n"
        )
        obj = platform.new_object("P")
        platform.upload_file(obj, "blob", b"zz")
        platform.invoke(obj, "probe")
        assert captured["blob"].startswith("s3://")
        # The URL actually works without credentials.
        assert platform.object_store.presigned_get(captured["blob"]).data == b"zz"
