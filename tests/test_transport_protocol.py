"""Unit tests for the scheduler/worker wire protocol and the
transport-neutral dispatch core both transports drive."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchedulingError, TransportError, ValidationError
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
from repro.scheduler.transport.protocol import (
    MAX_FRAME_BYTES,
    _LENGTH,
    _MESSAGE_TYPES,
)

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


#: The frames of these thirteen messages, hashed: the value the codec
#: produced while ``to_wire`` was ``dataclasses.asdict`` (commit 03ce2da).
#: It changes only when the wire format is changed on purpose.
GOLDEN_MESSAGES = [
    Register(worker="w-0", node="node-1"),
    Register(worker="w-1"),
    RegisterAck(worker="w-0", epoch=3, classes=("Ledger", "Image")),
    RegisterAck(worker="w-0", epoch=-1, error="worker 'w-0' is already registered"),
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
        payload={"z": [1, {"b": None, "a": 2.5}], "a": {"y": "é", "x": True}},
    ),
    Executing(worker="w-0", epoch=3, request_id="req-1"),
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
GOLDEN_DIGEST = "77a506fd42555c3bfdc3dcd2780b2ee6d98dc7b7793c0c7cce323c48b2fbd3ef"

_names = st.text(max_size=12)
_maybe_names = st.none() | _names
_epochs = st.integers(-1, 2**40)
_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_json_objects = st.dictionaries(st.text(max_size=8), _json, max_size=4)
MESSAGE_STRATEGIES = {
    Register: st.builds(Register, worker=_names, node=_maybe_names),
    RegisterAck: st.builds(
        RegisterAck,
        worker=_names,
        epoch=_epochs,
        classes=st.lists(_names, max_size=3).map(tuple),
        error=_maybe_names,
    ),
    Ready: st.builds(Ready, worker=_names, epoch=_epochs),
    Heartbeat: st.builds(Heartbeat, worker=_names, epoch=_epochs),
    Install: st.builds(Install, cls=_names),
    InstallAck: st.builds(InstallAck, worker=_names, epoch=_epochs, cls=_names),
    Dispatch: st.builds(
        Dispatch,
        request_id=_names,
        object_id=_names,
        fn_name=_names,
        epoch=_epochs,
        seq=_epochs,
        cls=_maybe_names,
        payload=_json_objects,
    ),
    Executing: st.builds(Executing, worker=_names, epoch=_epochs, request_id=_names),
    Complete: st.builds(
        Complete,
        worker=_names,
        epoch=_epochs,
        request_id=_names,
        ok=st.booleans(),
        output=_json_objects,
        error=_maybe_names,
        error_type=_maybe_names,
    ),
    DrainCmd: st.just(DrainCmd()),
    Drained: st.builds(Drained, worker=_names, epoch=_epochs),
}


class TestCodec:
    def test_frames_are_byte_compatible_with_the_pinned_wire_format(self):
        digest = hashlib.sha256()
        for message in GOLDEN_MESSAGES:
            digest.update(encode_frame(message))
        assert digest.hexdigest() == GOLDEN_DIGEST

    def test_every_message_type_has_a_strategy(self):
        assert set(MESSAGE_STRATEGIES) == set(_MESSAGE_TYPES.values())
        assert len(MESSAGE_STRATEGIES) == 11

    @given(message=st.one_of(*MESSAGE_STRATEGIES.values()))
    def test_any_message_round_trips(self, message):
        decoder = FrameDecoder()
        assert list(decoder.feed(encode_frame(message))) == [message]
        assert decoder.pending_bytes == 0

    def test_encoding_shares_the_payload_and_never_mutates_it(self):
        payload = {"b": [1, {"d": 1, "c": 2}], "a": 1}
        message = Dispatch(
            request_id="r", object_id="o", fn_name="f", epoch=1, seq=1, payload=payload
        )
        wire = message.to_wire()
        assert wire["payload"] is payload and wire["type"] == "dispatch"
        encode_frame(message)
        assert list(payload) == ["b", "a"] and list(payload["b"][1]) == ["d", "c"]

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

    @pytest.mark.parametrize(
        "payload", [b"[1,2]", b'"ready"', b"7", b"null", b"[" * 100_000]
    )
    def test_payload_that_is_not_a_json_object_rejected(self, payload):
        decoder = FrameDecoder()
        with pytest.raises(TransportError):
            list(decoder.feed(_LENGTH.pack(len(payload)) + payload))

    def test_unhashable_type_rejected(self):
        with pytest.raises(ValidationError, match="unknown message type"):
            decode_message({"type": ["ready"]})

    @pytest.mark.parametrize(
        "wire",
        [
            {"type": "complete", "worker": "w", "epoch": 1, "request_id": "r",
             "ok": True, "output": [1]},
            {"type": "dispatch", "request_id": "r", "object_id": "o",
             "fn_name": "f", "epoch": 1, "seq": 1, "payload": None},
        ],
        ids=["complete.output", "dispatch.payload"],
    )
    def test_object_field_that_is_not_an_object_rejected(self, wire):
        with pytest.raises(ValidationError, match="is not an object"):
            decode_message(wire)

    def test_unknown_wire_fields_ignored(self):
        wire = Heartbeat(worker="w-0", epoch=2).to_wire()
        wire["future_extension"] = {"x": 1}
        assert decode_message(wire) == Heartbeat(worker="w-0", epoch=2)


class FakePort:
    """A minimal WorkerPort for driving DispatchCore directly: ``pushed``
    is its queue, ``executing`` what a test moved in flight, ``calls``
    the port methods the core invoked."""

    def __init__(self, name: str, *, ready: bool = True):
        self.name = name
        self.node = None
        self.epoch = 1
        self.installed: set[str] = set()
        self.machine = WorkerStateMachine()
        self.pushed = []
        self.executing = []
        self.last_beat = 0.0
        self.dispatched_count = self.completed_count = self.heartbeats_sent = 0
        self.calls = []
        if ready:
            self.machine.transition(WorkerState.READY, 0.0, "test")

    @property
    def queue_depth(self):
        return len(self.pushed)

    @property
    def in_flight(self):
        return self.executing

    def push(self, item):
        self.pushed.append(item)

    def take_queue(self):
        items = list(self.pushed)
        self.pushed.clear()
        return items

    def crash(self):
        self.epoch += 1
        held = self.take_queue() + self.executing
        self.executing = []
        return held

    def install(self, cls):
        self.calls.append(("install", cls))

    def begin_drain(self):
        self.calls.append("begin_drain")

    def release(self):
        self.calls.append("release")


def _result(request: InvocationRequest, ok: bool = True) -> InvocationResult:
    return InvocationResult(
        request_id=request.request_id,
        cls=request.cls or "",
        object_id=request.object_id,
        fn_name=request.fn_name,
        ok=ok,
    )


def make_core(clock=lambda: 0.0):
    events = []
    core = DispatchCore(
        clock=clock,
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

    def test_parked_request_completed_meanwhile_is_dropped_at_flush(self):
        """A request rebound off a degraded worker parks when nobody else
        can take it; the worker had already pulled it and completes it;
        the flush on recovery must not dispatch a finished entry."""
        core, _ = make_core()
        worker = FakePort("w-0")
        worker.installed.add("C")
        core.add_worker(worker)
        request = InvocationRequest(object_id="C~a", fn_name="f", cls="C")
        core.submit(request)
        worker.machine.transition(WorkerState.DEGRADED, 0.0, "test")
        assert core.reroute("w-0", worker.take_queue()) == 1
        assert core.parked == 1
        assert core.complete("w-0", request, _result(request)) is True
        worker.machine.transition(WorkerState.READY, 0.0, "test")
        core.flush_unassigned()
        assert core.parked == 0 and worker.pushed == []
        assert core.ledger.audit() == {
            "accepted": 1,
            "completed": 1,
            "outstanding": 0,
            "requeues": 1,
            "suppressed": 0,
        }


# -- the worker lifecycle, with no transport --------------------------------

#: The health budget every lifecycle case sweeps with.
INTERVAL_S, DEGRADED_AFTER, DEAD_AFTER = 0.5, 2, 5


class Rig:
    """A core on a hand-turned clock over two fake ports that both have
    ``C`` installed: ``subject`` is the worker a case is about, ``peer``
    the one that takes over its work."""

    def __init__(self, *, subject_ready: bool = True):
        self.now = 0.0
        self.core, self.events = make_core(lambda: self.now)
        self.dead = []
        self.core.on_worker_dead = lambda worker, reason: self.dead.append(
            (worker.name, reason)
        )
        self.subject = FakePort("subject", ready=subject_ready)
        self.peer = FakePort("peer")
        for port in (self.subject, self.peer):
            port.installed.add("C")
            self.core.add_worker(port)

    def submit_to_subject(self, count: int) -> list[InvocationRequest]:
        """``count`` requests that rendezvous hashing routes to the
        subject while both ports are READY."""
        requests = []
        for index in range(256):
            request = InvocationRequest(object_id=f"C~{index}", fn_name="f", cls="C")
            if self.core.pick(request) is self.subject:
                self.core.submit(request)
                requests.append(request)
                if len(requests) == count:
                    return requests
        raise AssertionError("rendezvous never picked the subject")

    def sweep_at(self, now: float, *, peer_beats: bool = True) -> None:
        self.now = now
        if peer_beats:
            self.core.heartbeat(self.peer)
        self.core.sweep(INTERVAL_S, DEGRADED_AFTER, DEAD_AFTER)

    def narrative(self) -> list[str]:
        """The event log, one short line per event."""
        lines = []
        for type, fields in self.events:
            line = f"{type.removeprefix('scheduler.')} {fields['worker']}"
            for key in ("reason", "moved", "requeued"):
                if key in fields:
                    line += f" {key}={fields[key]}"
            lines.append(line)
        return lines


def _silence_degrades_then_a_beat_recovers(rig: Rig) -> None:
    rig.core.worker_ready(rig.subject)
    (request,) = rig.submit_to_subject(1)
    rig.sweep_at(0.5)
    assert rig.subject.machine.state is WorkerState.READY  # one miss: fine
    rig.sweep_at(1.0)
    assert rig.subject.machine.state is WorkerState.DEGRADED
    assert [item.request for item in rig.peer.pushed] == [request]
    assert rig.core.pick(request) is rig.peer  # no new work for the silent one
    rig.now = 1.2
    rig.core.heartbeat(rig.subject)
    assert rig.subject.machine.is_dispatchable
    assert rig.subject.heartbeats_sent == 1 and rig.core.heartbeats == 3


def _long_silence_is_death(rig: Rig) -> None:
    running, queued = rig.submit_to_subject(2)
    rig.subject.executing.append(rig.subject.pushed.pop(0))
    rig.sweep_at(1.0)  # degraded: the queued one moves, the running one stays
    assert [item.request for item in rig.peer.pushed] == [queued]
    rig.sweep_at(2.5)
    assert rig.subject.machine.is_dead and rig.subject.epoch == 2  # fenced
    assert [item.request for item in rig.peer.pushed] == [queued, running]
    assert rig.subject.calls == ["release"]
    assert rig.dead == [("subject", "heartbeat-timeout")]
    assert rig.core.ledger.audit()["requeues"] == 2
    # The zombie's late beat is a fenced registration's: ignored.
    rig.core.heartbeat(rig.subject)
    assert rig.subject.heartbeats_sent == 0


def _drain_hands_the_queue_off_in_order(rig: Rig) -> None:
    requests = rig.submit_to_subject(3)
    assert rig.core.drain("subject") is rig.subject
    assert rig.core.drain("subject") is rig.subject  # already draining: no-op
    assert rig.subject.calls == ["begin_drain"]
    assert [item.request for item in rig.peer.pushed] == requests
    assert rig.dead == []
    rig.core.retire(rig.subject, "drained")  # the transport's "drained" report
    assert rig.subject.calls == ["begin_drain", "release"]
    assert rig.dead == [("subject", "drained")]
    assert "subject" not in rig.core.workers  # retired: its row is gone
    with pytest.raises(SchedulingError, match="unknown worker"):
        rig.core.drain("subject")
    with pytest.raises(SchedulingError, match="unknown worker"):
        rig.core.drain("ghost")


def _crash_of_unknown_or_dead_worker_is_a_noop(rig: Rig) -> None:
    assert rig.core.crash("ghost") is False
    assert rig.core.crash("subject", "first") is True
    assert rig.core.crash("subject", "again") is False
    assert rig.dead == [("subject", "first")]


def _deploy_installs_on_live_workers_and_ack_flushes(rig: Rig) -> None:
    request = InvocationRequest(object_id="Late~a", fn_name="f", cls="Late")
    rig.core.submit(request)
    assert rig.core.parked == 1
    rig.core.crash("peer", "gone")
    rig.core.class_changed("Late", object())  # deployed
    assert rig.subject.calls == [("install", "Late")]
    assert ("install", "Late") not in rig.peer.calls
    rig.core.worker_installed(rig.subject, "Late")
    assert [item.request for item in rig.subject.pushed] == [request]
    (row,) = [w for w in rig.core.describe_workers() if w["worker"] == "subject"]
    assert row["installed"] == ["C", "Late"] and row["queue_depth"] == 1
    assert rig.core.stats()["live_workers"] == 1


LIFECYCLE_CASES = [
    (
        _silence_degrades_then_a_beat_recovers,
        False,
        [
            "ready subject",
            "dispatch subject",
            "degraded subject",
            "dispatch peer",
            "rebind subject reason=degraded moved=1",
            "recovered subject",
        ],
    ),
    (
        _long_silence_is_death,
        True,
        [
            "dispatch subject",
            "dispatch subject",
            "degraded subject",
            "dispatch peer",
            "rebind subject reason=degraded moved=1",
            "dead subject reason=heartbeat-timeout requeued=1",
            "dispatch peer",
        ],
    ),
    (
        _drain_hands_the_queue_off_in_order,
        True,
        [
            "dispatch subject",
            "dispatch subject",
            "dispatch subject",
            "draining subject",
            "dispatch peer",
            "dispatch peer",
            "dispatch peer",
            "rebind subject reason=drain-handoff moved=3",
            "dead subject reason=drained requeued=0",
        ],
    ),
    (
        _crash_of_unknown_or_dead_worker_is_a_noop,
        True,
        ["dead subject reason=first requeued=0"],
    ),
    (
        _deploy_installs_on_live_workers_and_ack_flushes,
        True,
        [
            "dead peer reason=gone requeued=0",
            "install subject",
            "dispatch subject",
        ],
    ),
]


@pytest.mark.parametrize(
    "drive, subject_ready, narrative",
    LIFECYCLE_CASES,
    ids=[case[0].__name__.strip("_") for case in LIFECYCLE_CASES],
)
def test_worker_lifecycle(drive, subject_ready, narrative):
    rig = Rig(subject_ready=subject_ready)
    drive(rig)
    assert rig.narrative() == narrative
