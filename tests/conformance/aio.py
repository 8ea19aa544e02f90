"""Asyncio-transport runner for the conformance scenario DSL.

:func:`run_scenario_asyncio` replays the same :class:`~tests.conformance.dsl.Scenario`
timelines as the sim runner, but over the real transport: an
:class:`AsyncSchedulerServer` listening on TCP and one
:class:`AsyncWorkerClient` process-alike per pool slot.  Chaos steps map
to *real* failures —

* ``Crash``/``FailNode`` abort the worker's TCP connection mid-flight
  (no goodbye frame), so the epoch fence and requeue paths are exercised
  by genuine connection drops;
* ``LoseHeartbeats`` silences the client's heartbeat loop while its
  executor keeps running, so the server's monitor escalates
  DEGRADED→DEAD for real;
* ``Drain`` goes through the DrainCmd/Drained handshake;
* ``Slow`` scales the client's executor latency.

The result is assembled into the sim runner's :class:`ScenarioResult`
shape, so the *same* invariant checks (`check_exactly_once`,
`check_no_dispatch_to_unready`, `check_monotone`) run unchanged over
both transports.  The one sim-only property is byte-identical replay:
real wall-clock interleavings are nondeterministic by nature, which is
exactly what this variant adds on top of the sim suite.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.errors import SchedulingError
from repro.invoker.request import InvocationRequest
from repro.scheduler import SchedulerConfig
from repro.scheduler.transport.aio import AsyncSchedulerServer, AsyncWorkerClient
from repro.scheduler.transport.protocol import Dispatch

from tests.conformance.dsl import (
    Crash,
    Drain,
    FailNode,
    LoseHeartbeats,
    RegisterWorker,
    Scenario,
    ScenarioResult,
    Slow,
    Step,
    Submit,
    WorkerRecord,
)
from tests.helpers import run_async

#: Wall-clock ceiling on the settle phase.  The sim runner can afford a
#: 30s virtual settle; here every second is real, and a healthy run
#: settles in well under a second after the last step.
MAX_SETTLE_WALL_S = 12.0

NODES = ("vm-0", "vm-1", "vm-2")


class _Pool:
    """Client-side of the scenario: live worker processes by name."""

    def __init__(self, server: AsyncSchedulerServer, config: SchedulerConfig):
        self.server = server
        self.config = config
        self.clients: dict[str, AsyncWorkerClient] = {}
        self.all_clients: list[AsyncWorkerClient] = []
        self.next_index = 0
        self.spawn_tasks: set[asyncio.Task] = set()
        self.service_time_s = 0.002

    async def _executor(self, dispatch: Dispatch, client: AsyncWorkerClient) -> dict:
        await asyncio.sleep(self.service_time_s * client.slow_factor)
        return {"ok": True, "output": {"fn": dispatch.fn_name}}

    async def spawn(self, name: str | None = None) -> AsyncWorkerClient:
        if name is None:
            name = f"worker-{self.next_index}"
        self.next_index = max(self.next_index, int(name.rsplit("-", 1)[1]) + 1)
        client = AsyncWorkerClient(
            name,
            "127.0.0.1",
            self.server.port,
            self._executor,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
            node=NODES[self.next_index % len(NODES)],
        )
        await client.connect()
        self.clients[name] = client
        self.all_clients.append(client)
        return client

    async def spawn_quietly(self, name: str | None = None) -> None:
        try:
            await self.spawn(name)
        except (SchedulingError, ConnectionError, OSError):
            pass  # rejected rejoin or scenario teardown won the race

    def live(self, name: str) -> AsyncWorkerClient | None:
        client = self.clients.get(name)
        if client is None:
            return None
        port = self.server.core.workers.get(name)
        if port is None or port.machine.is_dead:
            return None
        return client

    def replace_lost(self, worker: Any, reason: str) -> None:
        """Self-heal like the sim pool: every worker that died, crashed
        or drained, is replaced by a fresh registration so the scenario
        can settle."""
        task = asyncio.ensure_future(self.spawn_quietly())
        self.spawn_tasks.add(task)
        task.add_done_callback(self.spawn_tasks.discard)

    async def close(self) -> None:
        # Teardown drops every connection; none of those is a loss to heal.
        self.server.core.on_worker_dead = None
        for task in self.spawn_tasks:
            task.cancel()
        if self.spawn_tasks:
            await asyncio.gather(*self.spawn_tasks, return_exceptions=True)
        for client in self.all_clients:
            await client.close()


def _apply(
    pool: _Pool,
    step: Step,
    object_ids: list[str],
    futures: list[asyncio.Future],
    skipped: list[str],
) -> None:
    server = pool.server
    if isinstance(step, Submit):
        for _ in range(step.count):
            request = InvocationRequest(
                object_id=object_ids[step.object_key % len(object_ids)],
                fn_name="bump",
                cls="Probe",
            )
            futures.append(server.submit(request))
    elif isinstance(step, RegisterWorker):
        if step.name is not None and pool.live(step.name) is not None:
            skipped.append(f"register {step.name}: still live")
        else:
            task = asyncio.ensure_future(pool.spawn_quietly(step.name))
            pool.spawn_tasks.add(task)
            task.add_done_callback(pool.spawn_tasks.discard)
    elif isinstance(step, Drain):
        try:
            server.drain(step.worker)
        except SchedulingError as exc:
            skipped.append(f"drain {step.worker}: {exc}")
    elif isinstance(step, Crash):
        client = pool.live(step.worker)
        if client is None:
            skipped.append(f"crash {step.worker}: not live")
        else:
            client.kill()  # real connection drop, no goodbye frame
    elif isinstance(step, LoseHeartbeats):
        client = pool.live(step.worker)
        if client is None:
            skipped.append(f"heartbeat-loss {step.worker}: not live")
        else:
            client.suppress_heartbeats(step.duration_s)
    elif isinstance(step, Slow):
        client = pool.live(step.worker)
        if client is None:
            skipped.append(f"slow {step.worker}: not live")
        else:
            client.slow_factor = step.factor

            def clear(client=client):
                client.slow_factor = 1.0

            asyncio.get_running_loop().call_later(step.duration_s, clear)
    elif isinstance(step, FailNode):
        if step.node not in NODES:
            skipped.append(f"fail-node {step.node}: unknown")
            return
        victims = [
            name
            for name, client in pool.clients.items()
            if client.node == step.node and pool.live(name) is not None
        ]
        if not victims:
            skipped.append(f"fail-node {step.node}: no live workers")
        for name in victims:
            pool.clients[name].kill()
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown step {step!r}")


async def _run(scenario: Scenario) -> ScenarioResult:
    overrides = dict(scenario.scheduler)
    # Sim-only knobs have no transport analogue: registration/install
    # latency is the real TCP handshake here, and self-healing is the
    # pool's on_worker_dead hook below.
    for key in (
        "register_delay_s",
        "install_delay_s",
        "dispatch_overhead_s",
        "replace_dead_workers",
    ):
        overrides.pop(key, None)
    config = SchedulerConfig(transport="asyncio", **overrides)
    server = AsyncSchedulerServer(config=config, classes=["Probe"])
    pool = _Pool(server, config)
    server.core.on_worker_dead = pool.replace_lost
    await server.start()
    for _ in range(config.pool_size):
        await pool.spawn()
    loop = asyncio.get_running_loop()

    object_ids = [f"Probe~o{index}" for index in range(scenario.objects)]
    futures: list[asyncio.Future] = []
    skipped: list[str] = []
    started = loop.time()
    for step in sorted(scenario.steps, key=lambda s: s.at):
        delay = started + step.at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        _apply(pool, step, object_ids, futures, skipped)

    deadline = loop.time() + min(scenario.settle_s, MAX_SETTLE_WALL_S)
    while server.core.outstanding and loop.time() < deadline:
        await asyncio.sleep(0.02)
    settled = server.core.outstanding == 0

    workers = [
        WorkerRecord(
            name=port.name,
            epoch=port.epoch,
            final_state=port.machine.state.value,
            machine=port.machine,
        )
        for port in server.core.registrations
    ]
    audit = server.core.ledger.audit()
    delivered = server.core.delivered
    resolved = sum(1 for f in futures if f.done() and not f.cancelled())
    events = list(server.events)
    events_text = "\n".join(
        f"{e.seq:05d} {e.at:9.4f} {e.type} {sorted(e.fields.items())}"
        for e in events
    )
    await pool.close()
    await server.stop()
    return ScenarioResult(
        scenario=scenario,
        events_text=events_text,
        events=events,
        audit=audit,
        delivered=delivered,
        submitted=len(futures),
        resolved=resolved,
        workers=workers,
        settled=settled,
        skipped_steps=skipped,
    )


def run_scenario_asyncio(scenario: Scenario) -> ScenarioResult:
    """Blocking wrapper: replay ``scenario`` over the asyncio transport
    in a fresh event loop and return the sim-shaped result."""
    return run_async(_run(scenario))


def describe(result: ScenarioResult) -> dict[str, Any]:
    """Small debugging summary for assertion messages."""
    return {
        "audit": result.audit,
        "settled": result.settled,
        "skipped": result.skipped_steps,
        "workers": [(r.name, r.final_state) for r in result.workers],
    }
