"""Integration-level tests for the invocation engine (data plane)."""

import pytest

from repro.errors import (
    FunctionExecutionError,
    InvocationError,
    UnknownClassError,
    UnknownFunctionError,
    UnknownObjectError,
    ValidationError,
)
from repro.invoker.engine import make_object_id, split_object_id
from repro.invoker.request import InvocationRequest
from repro.invoker.router import ObjectRouter, PlacementPolicy
from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.sim.kernel import all_of
from repro.sim.rng import RngStreams

from tests.helpers import listing1_platform, make_platform


class TestObjectIds:
    def test_make_and_split(self):
        object_id = make_object_id("Image", "abc")
        assert object_id == "Image~abc"
        assert split_object_id(object_id) == ("Image", "abc")

    def test_split_unprefixed(self):
        assert split_object_id("plain") == (None, "plain")

    def test_make_generates_suffix(self):
        a, b = make_object_id("C"), make_object_id("C")
        assert a != b
        assert a.startswith("C~")


class TestRouter:
    def _router(self, policy):
        platform = Oparaca(PlatformConfig(nodes=4))
        platform.deploy("classes:\n  - name: T\n")
        dht = platform.crm.dht_for("T")
        return ObjectRouter(dht, policy, RngStreams(1)), dht

    def test_locality_routes_to_owner(self):
        router, dht = self._router(PlacementPolicy.LOCALITY)
        for i in range(20):
            key = f"T~{i}"
            assert router.place(key) == dht.owner(key)
        assert router.locality_ratio == 1.0

    def test_round_robin_cycles(self):
        router, dht = self._router(PlacementPolicy.ROUND_ROBIN)
        nodes = [router.place(f"T~{i}") for i in range(8)]
        assert nodes[:4] == list(dht.nodes)
        assert nodes[4:] == list(dht.nodes)

    def test_random_uses_all_nodes(self):
        router, dht = self._router(PlacementPolicy.RANDOM)
        nodes = {router.place(f"T~{i}") for i in range(100)}
        assert nodes == set(dht.nodes)

    def test_empty_object_id_rejected(self):
        router, _ = self._router(PlacementPolicy.LOCALITY)
        with pytest.raises(ValidationError):
            router.place("")


class TestBuiltins:
    def test_new_applies_defaults_and_overrides(self, platform):
        obj = platform.new_object("Image", {"width": 5})
        record = platform.get_object(obj)
        assert record["state"] == {"width": 5, "format": "png"}
        assert record["version"] == 1
        assert record["cls"] == "Image"

    def test_new_with_custom_id(self, platform):
        obj = platform.new_object("Image", object_id="my-img")
        assert obj == "Image~my-img"

    def test_new_duplicate_id_rejected(self, platform):
        platform.new_object("Image", object_id="dup")
        with pytest.raises(InvocationError, match="already exists"):
            platform.new_object("Image", object_id="dup")

    def test_new_wrong_prefix_rejected(self, platform):
        with pytest.raises(InvocationError, match="prefix"):
            platform.new_object("Image", object_id="LabelledImage~x")

    def test_new_unknown_class(self, platform):
        with pytest.raises(UnknownClassError):
            platform.new_object("Ghost")

    def test_new_invalid_state_rejected(self, platform):
        with pytest.raises(ValidationError):
            platform.new_object("Image", {"width": "not an int"})

    def test_update_bumps_version(self, platform):
        obj = platform.new_object("Image")
        version = platform.update_object(obj, {"width": 7})
        assert version == 2
        assert platform.get_object(obj)["state"]["width"] == 7

    def test_update_validates_schema(self, platform):
        obj = platform.new_object("Image")
        with pytest.raises(ValidationError):
            platform.update_object(obj, {"nope": 1})

    def test_delete_removes_object(self, platform):
        obj = platform.new_object("Image")
        platform.delete_object(obj)
        with pytest.raises(UnknownObjectError):
            platform.get_object(obj)

    def test_get_unknown_object(self, platform):
        with pytest.raises(UnknownObjectError):
            platform.get_object("Image~ghost")

    def test_file_url_requires_file_key(self, platform):
        obj = platform.new_object("Image")
        with pytest.raises(ValidationError, match="FILE"):
            platform.invoke(obj, "file-url", {"key": "width", "method": "PUT"})

    def test_file_roundtrip(self, platform):
        obj = platform.new_object("Image")
        platform.upload_file(obj, "image", b"bytes!")
        assert platform.download_file(obj, "image") == b"bytes!"
        assert platform.get_object(obj)["files"]["image"]

    def test_file_get_before_upload(self, platform):
        obj = platform.new_object("Image")
        with pytest.raises(UnknownObjectError, match="no file"):
            platform.invoke(obj, "file-url", {"key": "image", "method": "GET"})


class TestTaskPath:
    def test_state_committed(self, platform):
        obj = platform.new_object("Image")
        result = platform.invoke(obj, "resize", {"width": 333})
        assert result.ok
        assert platform.get_object(obj)["state"]["width"] == 333

    def test_unknown_function(self, platform):
        obj = platform.new_object("Image")
        with pytest.raises(UnknownFunctionError):
            platform.invoke(obj, "sharpen")

    def test_latency_recorded(self, platform):
        obj = platform.new_object("Image")
        result = platform.invoke(obj, "resize", {"width": 10})
        assert result.latency_s > 0

    def test_monitoring_records_per_class(self, platform):
        obj = platform.new_object("Image")
        platform.invoke(obj, "resize", {"width": 10})
        obs = platform.monitoring.for_class("Image")
        assert obs.completed >= 2  # new + resize

    def test_handler_error_is_failed_result(self, bare_platform):
        platform = bare_platform

        @platform.function("img/bug")
        def buggy(ctx):
            raise KeyError("missing key")

        platform.deploy(
            "classes:\n  - name: T\n    functions:\n      - {name: f, image: img/bug}\n"
        )
        obj = platform.new_object("T")
        result = platform.invoke(obj, "f", raise_on_error=False)
        assert not result.ok
        assert result.error_type == "FunctionExecutionError"
        assert "missing key" in result.error

    def test_concurrent_updates_serialize_via_cas(self, platform):
        obj = platform.new_object("Image")

        def one(width):
            result = yield platform.engine.invoke(
                InvocationRequest(object_id=obj, fn_name="resize", payload={"width": width})
            )
            return result

        procs = [platform.env.process(one(i)) for i in (100, 200, 300, 400)]
        results = platform.run(all_of(platform.env, procs))
        assert all(r.ok for r in results)
        record = platform.get_object(obj)
        # Every commit landed: version 1 (new) + 4 successful CAS commits.
        assert record["version"] == 5
        assert platform.engine.cas_conflicts > 0

    def test_polymorphic_dispatch_through_parent(self, platform):
        labelled = platform.new_object("LabelledImage")
        # Request typed as Image, object is actually LabelledImage.
        result = platform.invoke(labelled, "resize", {"width": 50}, cls="Image")
        assert result.ok
        assert result.cls == "LabelledImage"

    def test_subtype_check_rejects_wrong_cls(self, platform):
        image = platform.new_object("Image")
        with pytest.raises(InvocationError, match="not a subtype"):
            platform.invoke(image, "resize", {"width": 5}, cls="LabelledImage")

    def test_inherited_method_runs_on_child(self, platform):
        labelled = platform.new_object("LabelledImage")
        result = platform.invoke(labelled, "changeFormat", {"format": "gif"})
        assert result.ok
        assert platform.get_object(labelled)["state"]["format"] == "gif"

    def test_child_only_method_absent_on_parent(self, platform):
        image = platform.new_object("Image")
        with pytest.raises(UnknownFunctionError):
            platform.invoke(image, "detectObject")


class TestAccessControl:
    @pytest.fixture
    def guarded(self, bare_platform):
        platform = bare_platform

        @platform.function("img/secret")
        def secret(ctx):
            return {"secret": True}

        platform.deploy(
            """
classes:
  - name: Vault
    functions:
      - { name: hidden, image: img/secret, access: INTERNAL }
      - name: expose
        type: MACRO
        dataflow:
          steps:
            - { id: s, function: hidden }
          output: s
"""
        )
        return platform

    def test_internal_rejected_externally(self, guarded):
        obj = guarded.new_object("Vault")
        result = guarded.invoke(obj, "hidden", raise_on_error=False)
        assert not result.ok
        assert "INTERNAL" in result.error

    def test_internal_allowed_via_dataflow(self, guarded):
        obj = guarded.new_object("Vault")
        result = guarded.invoke(obj, "expose")
        assert result.ok
        assert result.output == {"secret": True}


class TestOutputObjects:
    def test_output_class_materialized(self, bare_platform):
        platform = bare_platform

        @platform.function("img/derive")
        def derive(ctx):
            return {"size": int(ctx.payload["size"])}

        platform.deploy(
            """
classes:
  - name: Derived
    keySpecs:
      - { name: size, type: INT }
  - name: Source
    functions:
      - { name: derive, image: img/derive, mutable: false, outputClass: Derived }
"""
        )
        source = platform.new_object("Source")
        result = platform.invoke(source, "derive", {"size": 42})
        created = result.created_object_id
        assert created and created.startswith("Derived~")
        assert platform.get_object(created)["state"]["size"] == 42


class TestDataflow:
    def test_macro_executes_chain(self, platform):
        obj = platform.new_object("Image")
        result = platform.invoke(obj, "thumbnail", {"width": 128})
        assert result.ok
        state = platform.get_object(obj)["state"]
        assert state["width"] == 128
        assert state["format"] == "webp"

    def test_macro_output_is_last_step(self, platform):
        obj = platform.new_object("Image")
        result = platform.invoke(obj, "thumbnail", {"width": 64})
        assert result.output == {"format": "webp"}

    def test_macro_step_failure_propagates(self, bare_platform):
        platform = bare_platform

        @platform.function("img/ok")
        def ok(ctx):
            return {}

        @platform.function("img/boom")
        def boom(ctx):
            raise RuntimeError("step exploded")

        platform.deploy(
            """
classes:
  - name: T
    functions:
      - { name: good, image: img/ok }
      - { name: bad, image: img/boom }
      - name: flow
        type: MACRO
        dataflow:
          steps:
            - { id: a, function: good }
            - { id: b, function: bad, inputs: [a] }
"""
        )
        obj = platform.new_object("T")
        result = platform.invoke(obj, "flow", raise_on_error=False)
        assert not result.ok
        assert "step 'b'" in result.error
        assert "step exploded" in result.error

    def test_parallel_steps_overlap_in_time(self, bare_platform):
        platform = bare_platform

        @platform.function("img/slow", service_time_s=0.1)
        def slow(ctx):
            return {"done": True}

        platform.deploy(
            """
classes:
  - name: T
    functions:
      - { name: work, image: img/slow, mutable: false }
      - name: fan
        type: MACRO
        dataflow:
          steps:
            - { id: a, function: work }
            - { id: b, function: work }
            - { id: c, function: work }
"""
        )
        obj = platform.new_object("T")
        platform.invoke(obj, "fan")  # warm the service
        result = platform.invoke(obj, "fan")
        # Three 0.1s steps in parallel: far less than 0.3s sequential.
        assert result.latency_s < 0.25

    def test_macro_on_created_object(self, bare_platform):
        platform = bare_platform

        @platform.function("img/make")
        def make(ctx):
            return {"n": 1}

        @platform.function("img/tag")
        def tag(ctx):
            ctx.state["n"] = int(ctx.state.get("n") or 0) + 10
            return {"n": ctx.state["n"]}

        platform.deploy(
            """
classes:
  - name: Child
    keySpecs:
      - { name: n, type: INT }
    functions:
      - { name: tag, image: img/tag }
  - name: Parent
    functions:
      - { name: make, image: img/make, mutable: false, outputClass: Child }
      - name: makeAndTag
        type: MACRO
        dataflow:
          steps:
            - { id: m, function: make }
            - { id: t, function: tag, target: "@m" }
          output: t
"""
        )
        obj = platform.new_object("Parent")
        result = platform.invoke(obj, "makeAndTag")
        assert result.ok
        assert result.output == {"n": 11}


class TestAsyncQueue:
    def test_async_completion_event(self, platform):
        obj = platform.new_object("Image")
        event = platform.invoke_async(obj, "resize", {"width": 77})
        result = platform.run(event)
        assert result.ok
        assert platform.get_object(obj)["state"]["width"] == 77

    def test_async_results_polled_by_request_id(self, platform):
        obj = platform.new_object("Image")
        event = platform.invoke_async(obj, "resize", {"width": 9})
        result = platform.run(event)
        assert platform.queue.result(result.request_id) is result

    def test_same_object_async_updates_ordered(self, platform):
        obj = platform.new_object("Image")
        events = [
            platform.invoke_async(obj, "resize", {"width": w}) for w in (1, 2, 3, 4, 5)
        ]
        results = platform.run(all_of(platform.env, events))
        assert platform.get_object(obj)["state"]["width"] == 5
        # Queue serializes per object: no CAS conflicts at all.
        assert platform.engine.cas_conflicts == 0
        # Same key -> same queue: one port served all five.
        ledger = platform.queue.core.ledger
        assert len({ledger.entry(r.request_id).worker for r in results}) == 1

    def test_one_server_per_queue_in_arrival_order(self):
        """Many objects share the pool: every port serves one item at a
        time, each object's items in submission order, and at no instant
        is an accepted submission anywhere but queued or in flight."""
        starts = []
        platform = make_platform()
        platform.register_image(
            "t/rec",
            lambda ctx: starts.append((ctx.payload["seq"], platform.now)) or {},
            0.004,
        )
        platform.deploy(
            "name: rec\nclasses:\n  - name: Rec\n    functions:\n"
            "      - name: work\n        image: t/rec\n"
        )
        objects = [platform.new_object("Rec") for _ in range(12)]
        events = {
            seq: platform.invoke_async(objects[seq % 12], "work", {"seq": seq})
            for seq in range(60)
        }
        queue = platform.queue
        ports = list(queue.core.workers.values())
        while queue.pending:
            held = sum(p.queue.depth() + (p.in_flight is not None) for p in ports)
            assert held == queue.pending
            platform.advance(0.001)
        assert queue.completed == queue.submitted == 60
        assert all(event.value.ok for event in events.values())
        by_object: dict[int, list[int]] = {}
        by_port: dict[str, list[float]] = {}
        for seq, at in starts:
            by_object.setdefault(seq % 12, []).append(seq)
            worker = queue.core.ledger.entry(events[seq].value.request_id).worker
            by_port.setdefault(worker, []).append(at)
        assert all(seqs == sorted(seqs) for seqs in by_object.values())
        assert 1 < len(by_port) <= 8
        for times in by_port.values():
            assert all(b - a >= 0.004 - 1e-9 for a, b in zip(times, times[1:]))
        assert queue.stop() == {"pending": 0}

    def test_idle_queue_serves_a_late_submission(self, platform):
        obj = platform.new_object("Image")
        platform.run(platform.invoke_async(obj, "resize", {"width": 1}))
        platform.advance(2.0)  # every port idle, blocked on its empty queue
        assert platform.run(platform.invoke_async(obj, "resize", {"width": 2})).ok
        assert platform.queue.pending == 0

    def test_stop_report_counts_queued_and_in_flight_work(self, platform):
        obj = platform.new_object("Image")
        for width in range(10):
            platform.invoke_async(obj, "resize", {"width": width})
        queue = platform.queue
        while queue.completed < 3:
            platform.advance(0.001)
        report = queue.stop()
        ports = queue.core.workers.values()
        in_flight = sum(p.in_flight is not None for p in ports)
        assert in_flight == 1
        assert report == {"pending": 10 - queue.completed}
        assert report["pending"] == in_flight + sum(p.queue.depth() for p in ports)
        # Stopped means stopped: nothing more is handled, and a late
        # submission is accounted for rather than vanishing.
        handled = queue.completed
        late = platform.invoke_async(obj, "resize", {"width": 99})
        platform.advance(1.0)
        assert not late.triggered and queue.completed == handled
        assert queue.stop() == {"pending": report["pending"] + 1}

    def test_undeployed_class_fails_typed_instead_of_parking(self, platform):
        request = InvocationRequest(object_id="Ghost~x", fn_name="f", cls="Ghost")
        result = platform.run(platform.queue.submit(request))
        assert not result.ok and result.error_type == "UnknownClassError"
        assert platform.queue.pending == 0

    def test_baseline_narrates_no_scheduler_events_spans_or_keys(self):
        platform = listing1_platform(events_enabled=True, tracing_enabled=True)
        obj = platform.new_object("Image")
        platform.run(platform.invoke_async(obj, "resize", {"width": 3}))
        assert platform.queue.core.ledger.audit()["completed"] == 1
        # ("scheduler.place" is the orchestrator's pod scheduler, which
        # the baseline always had; the worker pool adds nothing.)
        assert {
            e.type for e in platform.platform_events() if e.type.startswith("scheduler.")
        } <= {"scheduler.place"}
        assert not [
            s for s in platform.tracer.spans() if s.name.startswith("scheduler.")
        ]
        assert not [k for k in platform.snapshot() if k.startswith("scheduler.")]
        platform.shutdown()
