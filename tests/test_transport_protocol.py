"""Unit tests for the scheduler/worker wire protocol and the
transport-neutral dispatch core both transports drive."""

from __future__ import annotations

import pytest

from repro.errors import TransportError, ValidationError
from repro.invoker.request import InvocationRequest, InvocationResult
from repro.scheduler.state import WorkerState, WorkerStateMachine
from repro.scheduler.transport import (
    Complete,
    Dispatch,
    DispatchCore,
    DrainCmd,
    Drained,
    Executing,
    FrameDecoder,
    Heartbeat,
    Install,
    InstallAck,
    Ready,
    Register,
    RegisterAck,
    decode_message,
    encode_frame,
    rendezvous_score,
)
from repro.scheduler.transport.protocol import MAX_FRAME_BYTES, _LENGTH

ALL_MESSAGES = [
    Register(worker="w-0", node="node-1"),
    RegisterAck(worker="w-0", epoch=3, classes=("Ledger", "Image")),
    RegisterAck(worker="w-0", epoch=-1, error="already registered"),
    Ready(worker="w-0", epoch=3),
    Heartbeat(worker="w-0", epoch=3),
    Install(cls="Ledger"),
    InstallAck(worker="w-0", epoch=3, cls="Ledger"),
    Dispatch(
        request_id="req-1",
        object_id="Ledger~a",
        fn_name="add",
        epoch=3,
        seq=7,
        cls="Ledger",
        payload={"n": 1},
    ),
    Executing(worker="w-0", epoch=3, request_id="req-1"),
    Complete(worker="w-0", epoch=3, request_id="req-1", ok=True, output={"n": 2}),
    Complete(
        worker="w-0",
        epoch=3,
        request_id="req-2",
        ok=False,
        error="boom",
        error_type="FunctionExecutionError",
    ),
    DrainCmd(),
    Drained(worker="w-0", epoch=3),
]


class TestCodec:
    @pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: m.TYPE)
    def test_round_trip(self, message):
        decoder = FrameDecoder()
        (decoded,) = list(decoder.feed(encode_frame(message)))
        assert decoded == message
        assert decoder.pending_bytes == 0

    def test_byte_at_a_time_chunking(self):
        frame = encode_frame(Heartbeat(worker="w-0", epoch=1))
        decoder = FrameDecoder()
        out = []
        for i in range(len(frame)):
            out.extend(decoder.feed(frame[i : i + 1]))
        assert out == [Heartbeat(worker="w-0", epoch=1)]

    def test_many_frames_in_one_feed(self):
        frames = b"".join(encode_frame(m) for m in ALL_MESSAGES)
        decoder = FrameDecoder()
        assert list(decoder.feed(frames)) == ALL_MESSAGES

    def test_partial_frame_is_buffered(self):
        frame = encode_frame(Register(worker="w-0"))
        decoder = FrameDecoder()
        assert list(decoder.feed(frame[:5])) == []
        assert decoder.pending_bytes == 5
        assert list(decoder.feed(frame[5:])) == [Register(worker="w-0")]

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            decode_message({"type": "teleport"})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValidationError, match="epoch"):
            decode_message({"type": "ready", "worker": "w-0"})

    def test_classes_decode_to_tuple(self):
        message = decode_message(
            {"type": "register_ack", "worker": "w", "epoch": 1, "classes": ["A"]}
        )
        assert message.classes == ("A",)

    def test_oversized_announced_frame_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(TransportError):
            list(decoder.feed(_LENGTH.pack(MAX_FRAME_BYTES + 1)))

    def test_undecodable_payload_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(TransportError):
            list(decoder.feed(_LENGTH.pack(4) + b"\xff\xfe\x00\x01"))

    def test_unknown_wire_fields_ignored(self):
        wire = Heartbeat(worker="w-0", epoch=2).to_wire()
        wire["future_extension"] = {"x": 1}
        assert decode_message(wire) == Heartbeat(worker="w-0", epoch=2)


class FakePort:
    """A minimal WorkerPort for driving DispatchCore directly."""

    def __init__(self, name: str, *, ready: bool = True):
        self.name = name
        self.epoch = 1
        self.installed: set[str] = set()
        self.machine = WorkerStateMachine()
        self.pushed = []
        if ready:
            self.machine.transition(WorkerState.READY, 0.0, "test")

    def push(self, item):
        self.pushed.append(item)

    def take_queue(self):
        items = list(self.pushed)
        self.pushed.clear()
        return items


def _result(request: InvocationRequest, ok: bool = True) -> InvocationResult:
    return InvocationResult(
        request_id=request.request_id,
        cls=request.cls or "",
        object_id=request.object_id,
        fn_name=request.fn_name,
        ok=ok,
    )


def make_core():
    events = []
    core = DispatchCore(
        clock=lambda: 0.0,
        emit=lambda type, **fields: events.append((type, fields)),
    )
    return core, events


class TestDispatchCore:
    def test_routes_to_installed_ready_worker(self):
        core, events = make_core()
        core.note_class("Ledger")
        ready = FakePort("w-0")
        ready.installed.add("Ledger")
        bare = FakePort("w-1")  # READY but never installed the class
        core.add_worker(ready)
        core.add_worker(bare)
        request = InvocationRequest(object_id="Ledger~a", fn_name="add", cls="Ledger")
        core.submit(request)
        assert [i.request for i in ready.pushed] == [request]
        assert bare.pushed == []
        assert events[0][0] == "scheduler.dispatch"

    def test_unknown_class_parks_then_flushes(self):
        core, _ = make_core()
        worker = FakePort("w-0")
        core.add_worker(worker)
        request = InvocationRequest(object_id="Late~a", fn_name="add", cls="Late")
        core.submit(request)
        assert core.parked == 1 and worker.pushed == []
        core.note_class("Late")
        worker.installed.add("Late")
        core.flush_unassigned()
        assert core.parked == 0
        assert [i.request for i in worker.pushed] == [request]

    def test_rendezvous_affinity_is_stable(self):
        core, _ = make_core()
        core.note_class("C")
        workers = [FakePort(f"w-{i}") for i in range(4)]
        for worker in workers:
            worker.installed.add("C")
            core.add_worker(worker)
        request = InvocationRequest(object_id="C~obj", fn_name="f", cls="C")
        picks = {core.pick(request).name for _ in range(10)}
        assert len(picks) == 1
        expected = max(
            workers, key=lambda w: rendezvous_score("C~obj", w.name)
        ).name
        assert picks == {expected}

    def test_rendezvous_scores_are_pinned(self):
        """The score is the repo's one stable hash over ``object|worker``;
        these values predate the move onto ``storage.hashring``."""
        assert rendezvous_score("Probe/o0", "worker-0") == 2849716734782318387
        assert rendezvous_score("Image~abc", "worker-3") == 13835038256753212102
        assert rendezvous_score("o-17", "static-5") == 8176572375896078426

    def test_reroute_respects_requeue_guard(self):
        core, _ = make_core()
        core.note_class("C")
        first, second = FakePort("w-0"), FakePort("w-1")
        first.installed.add("C")
        second.installed.add("C")
        core.add_worker(first)
        core.add_worker(second)
        request = InvocationRequest(object_id="C~a", fn_name="f", cls="C")
        core.submit(request)
        owner = first if first.pushed else second
        other = second if owner is first else first
        (item,) = owner.take_queue()
        # Completed entries must not be rerouted.
        core.complete(owner.name, request, _result(request))
        assert core.reroute(owner.name, [item]) == 0
        assert other.pushed == []

    def test_first_completion_wins_and_duplicate_suppressed(self):
        core, events = make_core()
        core.note_class("C")
        worker = FakePort("w-0")
        worker.installed.add("C")
        core.add_worker(worker)
        seen = []
        core.on_complete = lambda request, result: seen.append(request.request_id)
        request = InvocationRequest(object_id="C~a", fn_name="f", cls="C")
        core.submit(request)
        assert core.complete("w-0", request, _result(request)) is True
        assert core.complete("w-0", request, _result(request)) is False
        assert seen == [request.request_id]
        assert core.delivered == 1
        types = [t for t, _ in events]
        assert types.count("scheduler.complete") == 1
        assert types.count("scheduler.suppressed") == 1
        assert core.ledger.audit()["suppressed"] == 1

    def test_stop_report_shape(self):
        core, _ = make_core()
        request = InvocationRequest(object_id="Ghost~a", fn_name="f", cls="Ghost")
        core.submit(request)
        assert core.stop_report() == {"pending": 1, "parked": 1}
