"""Unit and property tests for the worker lifecycle state machine and
the invocation ledger — the two data structures the conformance
invariants stand on."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.invoker.request import InvocationRequest
from repro.scheduler import (
    PHASE,
    TRANSITIONS,
    EntryState,
    InvocationLedger,
    WorkerState,
    WorkerStateMachine,
)

# -- state machine unit tests ------------------------------------------------


class TestWorkerStateMachine:
    def test_happy_path_register_ready_drain_dead(self):
        machine = WorkerStateMachine()
        machine.transition(WorkerState.READY, at=0.1)
        machine.transition(WorkerState.DRAINING, at=0.2, reason="scale-in")
        machine.transition(WorkerState.DEAD, at=0.3, reason="drained")
        assert machine.is_dead
        assert machine.is_monotone()
        assert [t.target for t in machine.history] == [
            WorkerState.READY,
            WorkerState.DRAINING,
            WorkerState.DEAD,
        ]

    def test_degraded_oscillation_is_legal_and_monotone(self):
        machine = WorkerStateMachine()
        machine.transition(WorkerState.READY, at=0.1)
        for i in range(3):
            machine.transition(WorkerState.DEGRADED, at=0.2 + i)
            machine.transition(WorkerState.READY, at=0.25 + i)
        assert machine.is_dispatchable
        assert machine.is_monotone()

    def test_draining_admits_no_return(self):
        machine = WorkerStateMachine()
        machine.transition(WorkerState.READY, at=0.0)
        machine.transition(WorkerState.DRAINING, at=0.1)
        for target in (WorkerState.READY, WorkerState.DEGRADED):
            with pytest.raises(SchedulingError):
                machine.transition(target, at=0.2)
        assert machine.state is WorkerState.DRAINING  # unchanged on failure

    def test_dead_is_terminal(self):
        machine = WorkerStateMachine()
        machine.transition(WorkerState.DEAD, at=0.0, reason="crash")
        for target in WorkerState:
            with pytest.raises(SchedulingError):
                machine.transition(target, at=0.1)

    def test_registered_cannot_be_dispatched(self):
        machine = WorkerStateMachine()
        assert not machine.is_dispatchable
        assert not machine.is_serving

    def test_draining_serves_but_is_not_dispatchable(self):
        machine = WorkerStateMachine()
        machine.transition(WorkerState.READY, at=0.0)
        machine.transition(WorkerState.DRAINING, at=0.1)
        assert machine.is_serving and not machine.is_dispatchable

    def test_illegal_edge_message_names_both_states(self):
        machine = WorkerStateMachine()
        with pytest.raises(SchedulingError, match="REGISTERED -> DRAINING"):
            machine.transition(WorkerState.DRAINING, at=0.0)

    def test_edge_table_never_decreases_phase(self):
        # Structural check on the table itself, not just the runtime.
        for source, targets in TRANSITIONS.items():
            for target in targets:
                assert PHASE[target] >= PHASE[source], (source, target)


# -- state machine property tests --------------------------------------------


targets = st.sampled_from(list(WorkerState))


class TestStateMachineProperties:
    @given(attempts=st.lists(targets, max_size=40))
    def test_any_interleaving_of_attempts_stays_monotone(self, attempts):
        """Drive the machine with arbitrary transition attempts; illegal
        ones raise and change nothing, and whatever history survives is
        phase-monotone with DEAD terminal."""
        machine = WorkerStateMachine()
        phases = [machine.phase]
        for index, target in enumerate(attempts):
            before = machine.state
            try:
                machine.transition(target, at=float(index))
            except SchedulingError:
                assert machine.state is before  # failed attempt is a no-op
            phases.append(machine.phase)
        assert machine.is_monotone()
        assert all(b >= a for a, b in zip(phases, phases[1:]))
        if WorkerState.DEAD in [t.target for t in machine.history]:
            assert machine.is_dead

    @given(attempts=st.lists(targets, min_size=1, max_size=40))
    def test_history_replays_to_current_state(self, attempts):
        machine = WorkerStateMachine()
        for index, target in enumerate(attempts):
            try:
                machine.transition(target, at=float(index))
            except SchedulingError:
                pass
        state = WorkerState.REGISTERED
        for step in machine.history:
            assert step.source is state
            state = step.target
        assert state is machine.state


# -- ledger unit tests -------------------------------------------------------


def _request(n: int) -> InvocationRequest:
    return InvocationRequest(object_id=f"T~o{n}", fn_name="work")


class TestInvocationLedger:
    def test_accept_dispatch_complete_roundtrip(self):
        ledger = InvocationLedger()
        request = _request(0)
        entry = ledger.accept(request, at=1.0)
        assert entry.seq == 1 and entry.state is EntryState.ACCEPTED
        ledger.dispatch(request.request_id, "worker-0", epoch=0)
        assert entry.worker == "worker-0" and entry.attempts == 1
        assert ledger.complete(request.request_id, ok=True, at=2.0)
        assert ledger.audit() == {
            "accepted": 1,
            "completed": 1,
            "outstanding": 0,
            "requeues": 0,
            "suppressed": 0,
        }

    def test_double_accept_rejected(self):
        ledger = InvocationLedger()
        request = _request(0)
        ledger.accept(request, at=0.0)
        with pytest.raises(SchedulingError):
            ledger.accept(request, at=0.1)

    def test_duplicate_completion_suppressed_not_delivered(self):
        ledger = InvocationLedger()
        request = _request(0)
        ledger.accept(request, at=0.0)
        ledger.dispatch(request.request_id, "worker-0", epoch=0)
        assert ledger.complete(request.request_id, ok=True, at=1.0)
        assert not ledger.complete(request.request_id, ok=True, at=1.5)
        assert ledger.completed == 1 and ledger.suppressed == 1

    def test_requeue_only_from_owning_worker(self):
        ledger = InvocationLedger()
        request = _request(0)
        ledger.accept(request, at=0.0)
        ledger.dispatch(request.request_id, "worker-0", epoch=0)
        assert not ledger.requeue(request.request_id, "worker-1")  # not owner
        assert ledger.requeue(request.request_id, "worker-0")
        assert not ledger.requeue(request.request_id, "worker-0")  # not dispatched
        entry = ledger.entry(request.request_id)
        assert entry.state is EntryState.ACCEPTED and entry.worker is None

    def test_completion_beats_requeue(self):
        ledger = InvocationLedger()
        request = _request(0)
        ledger.accept(request, at=0.0)
        ledger.dispatch(request.request_id, "worker-0", epoch=0)
        ledger.complete(request.request_id, ok=True, at=1.0)
        assert not ledger.requeue(request.request_id, "worker-0")
        assert ledger.entry(request.request_id).state is EntryState.COMPLETED

    def test_unknown_request_raises(self):
        ledger = InvocationLedger()
        with pytest.raises(SchedulingError):
            ledger.dispatch("req-missing", "worker-0", epoch=0)
        with pytest.raises(SchedulingError):
            ledger.complete("req-missing", ok=True, at=0.0)
        assert ledger.entry("req-missing") is None

    def test_outstanding_in_acceptance_order(self):
        ledger = InvocationLedger()
        requests = [_request(n) for n in range(4)]
        for n, request in enumerate(requests):
            ledger.accept(request, at=float(n))
        ledger.dispatch(requests[1].request_id, "worker-0", epoch=0)
        ledger.complete(requests[1].request_id, ok=True, at=5.0)
        assert [e.seq for e in ledger.outstanding()] == [1, 3, 4]
        assert ledger.outstanding_count == 3
        # A suppressed duplicate completion moves neither.
        assert not ledger.complete(requests[1].request_id, ok=True, at=6.0)
        assert ledger.outstanding_count == len(ledger.outstanding()) == 3


# -- ledger property test ----------------------------------------------------


class TestLedgerProperties:
    @settings(max_examples=60)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["dispatch", "requeue", "complete"]),
                st.integers(0, 5),  # request index
                st.integers(0, 2),  # worker index
            ),
            max_size=60,
        )
    )
    def test_conservation_and_exactly_once_under_any_op_order(self, ops):
        """Apply an arbitrary op sequence; ignoring illegal ops, the
        conservation identity holds and no request completes twice."""
        ledger = InvocationLedger()
        requests = [_request(n) for n in range(6)]
        for request in requests:
            ledger.accept(request, at=0.0)
        delivered: dict[str, int] = {}
        for op, req_index, worker_index in ops:
            request_id = requests[req_index].request_id
            worker = f"worker-{worker_index}"
            if op == "dispatch":
                try:
                    ledger.dispatch(request_id, worker, epoch=0)
                except SchedulingError:
                    pass
            elif op == "requeue":
                ledger.requeue(request_id, worker)
            elif ledger.complete(request_id, ok=True, at=1.0):
                delivered[request_id] = delivered.get(request_id, 0) + 1
            # The O(1) count and the scan agree after every transition,
            # suppressed duplicates and refused requeues included.
            assert ledger.outstanding_count == len(ledger.outstanding())
        audit = ledger.audit()
        assert audit["outstanding"] == len(ledger.outstanding())
        assert audit["accepted"] == audit["completed"] + audit["outstanding"]
        assert all(count == 1 for count in delivered.values())
        assert len(delivered) == audit["completed"]
