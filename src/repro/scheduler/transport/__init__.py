"""Scheduler/worker transports.

The control-plane protocol (register / ready / heartbeat / install /
dispatch / executing / complete / drain) is spoken by two
interchangeable transports over one shared state machine:

* **sim** — the default.  :class:`~repro.scheduler.plane.SchedulerPlane`
  drives :class:`~repro.scheduler.transport.core.DispatchCore` with
  direct in-process calls from :class:`~repro.scheduler.worker.SimWorker`
  processes on the simulation kernel.  Deterministic, byte-identical to
  the pre-transport plane.
* **asyncio** — :class:`~repro.scheduler.transport.aio.AsyncSchedulerServer`
  drives the *same* ``DispatchCore`` while
  :class:`~repro.scheduler.transport.aio.AsyncWorkerClient` processes
  connect over TCP speaking the length-prefixed JSON wire protocol in
  :mod:`~repro.scheduler.transport.protocol`.  Crashes are real
  connection drops; fencing happens on worker epochs exactly as in sim.

Both transports preserve the ledger invariants the conformance suite
checks: exactly-once completion, dispatch-only-to-READY, and
phase-monotone worker histories.
"""

from repro.scheduler.transport.core import DispatchCore, DispatchItem, rendezvous_score
from repro.scheduler.transport.protocol import (
    Complete,
    Dispatch,
    DrainCmd,
    Drained,
    Executing,
    FrameDecoder,
    Heartbeat,
    Install,
    InstallAck,
    Message,
    Ready,
    Register,
    RegisterAck,
    decode_message,
    encode_frame,
)

__all__ = [
    "DispatchCore",
    "DispatchItem",
    "rendezvous_score",
    "Message",
    "Register",
    "RegisterAck",
    "Ready",
    "Heartbeat",
    "Install",
    "InstallAck",
    "Dispatch",
    "Executing",
    "Complete",
    "DrainCmd",
    "Drained",
    "FrameDecoder",
    "encode_frame",
    "decode_message",
]
