"""The real-transport workload: HTTP front -> scheduler -> TCP workers ->
write-through SQLite, in a server child; the driver stays in the
benchmark process (one event loop, two keep-alive connections, closed
loop, zero think time).

The traced run adds wall-clock spans recorded *from here*, around the
public calls into each layer; spans inside the program are a later
change (ROADMAP item 5).  ``time.perf_counter`` is the system-wide
monotonic clock on Linux, so client and server spans share one axis.
"""

from __future__ import annotations

import asyncio
import collections
import contextvars
import cProfile
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

import estimators
import layers
import spec
from spec import ADD, CLS, HTTP_CONNECTIONS, PEEK, QUERY, Sizes, Workload

_HERE = Path(__file__).resolve().parent
WORK_ROOT = _HERE / ".work"
_SLICE_S = 0.2  # one timed slice, wall seconds (~200 requests)


# ---------------------------------------------------------------------------
# Server child
# ---------------------------------------------------------------------------


class ServerSpans:
    """Wall-clock wrappers around the public calls on the request path.

    A request's id is ``<client port>-<n>``: the n-th request on the
    connection from that port, which client and server can both derive
    without putting anything on the wire.
    """

    def __init__(self) -> None:
        self.recording = False
        self.spans: list[tuple[str, str, float, float]] = []
        self.frames = 0
        self.frame_bytes = 0
        self._request = contextvars.ContextVar("perf_request", default=None)
        self._awaiting_run: dict[tuple[str, str], collections.deque] = collections.defaultdict(
            collections.deque
        )
        self._run_rid: str | None = None

    def record(self, name: str, rid: str | None, started: float) -> None:
        if self.recording and rid is not None:
            self.spans.append((name, rid, started, time.perf_counter()))

    # -- front: request head in -> response out, per connection ----------------

    def wrap_start_server(self) -> None:
        original = asyncio.start_server
        spans = self

        class Connection:
            def __init__(self, reader, writer):
                self.reader, self.writer = reader, writer
                self.port = writer.get_extra_info("peername")[1]
                self.count = 0
                self.open: tuple[str, float] | None = None

        class Reader:
            def __init__(self, conn):
                self._conn = conn

            async def readuntil(self, separator=b"\n"):
                # Only the HTTP front reads by separator; scheduler
                # connections read chunks and never open a front span.
                conn = self._conn
                data = await conn.reader.readuntil(separator)
                rid = f"{conn.port}-{conn.count}"
                conn.count += 1
                conn.open = (rid, time.perf_counter())
                spans._request.set(rid)
                return data

            def __getattr__(self, name):
                return getattr(self._conn.reader, name)

        class Writer:
            def __init__(self, conn):
                self._conn = conn

            def write(self, data):
                # Stamp before the bytes leave: the client may have read
                # them by the time write() returns.
                conn = self._conn
                if conn.open is not None:
                    spans.record("front", *conn.open)
                    conn.open = None
                conn.writer.write(data)

            def __getattr__(self, name):
                return getattr(self._conn.writer, name)

        async def start_server(callback, *args, **kwargs):
            async def traced(reader, writer):
                conn = Connection(reader, writer)
                await callback(Reader(conn), Writer(conn))

            return await original(traced, *args, **kwargs)

        asyncio.start_server = start_server

    # -- submit / run / backend ------------------------------------------------

    def wrap_platform(self, platform: Any, front: Any) -> None:
        from repro.scheduler.transport import aio, protocol

        scheduler = front.scheduler
        original_submit = scheduler.submit

        def submit(request):
            rid = self._request.get()
            started = time.perf_counter()
            if self.recording and rid is not None:
                self._awaiting_run[(request.object_id, request.fn_name)].append(rid)
            future = original_submit(request)
            future.add_done_callback(lambda _: self.record("submit", rid, started))
            return future

        scheduler.submit = submit

        original_invoke = platform.engine.invoke

        def invoke(request):
            queue = self._awaiting_run.get((request.object_id, request.fn_name))
            if queue:
                self._run_rid = queue.popleft()
            return original_invoke(request)

        platform.engine.invoke = invoke

        original_run = platform.run

        def run(awaitable):
            # Engine runs never interleave (no await inside), so one slot
            # is enough.  Query routes call run() without engine.invoke():
            # they take the id of the connection task they run in.
            rid = self._run_rid or self._request.get()
            self._run_rid = rid
            started = time.perf_counter()
            try:
                return original_run(awaitable)
            finally:
                self.record("run", rid, started)
                self._run_rid = None

        platform.run = run

        backend = platform.store.backend
        for method, label in (
            ("put", "put"), ("put_many", "put"), ("get", "get"),
            ("get_many", "get"), ("query", "query"),
        ):
            setattr(backend, method, self._timed(getattr(backend, method), label))

        original_encode = protocol.encode_frame

        def encode_frame(message):
            data = original_encode(message)
            if self.recording:
                self.frames += 1
                self.frame_bytes += len(data)
            return data

        for module in (protocol, aio):
            if getattr(module, "encode_frame", None) is original_encode:
                module.encode_frame = encode_frame

    def _timed(self, original, label):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.record(label, self._run_rid, started)

        return timed


def serve(db_path: str, trace: bool, span_path: str | None) -> None:
    """Entry point of the server child.  Speaks one-line JSON over
    stdin/stdout: ``ready`` on start, then a reply per command."""
    from repro.durability.plane import DurabilityConfig
    from repro.platform.oparaca import Oparaca, PlatformConfig
    from repro.scheduler.plane import SchedulerConfig
    from repro.storage.backends import StorageConfig

    workload = spec.WORKLOADS["http-sqlite"]
    platform = Oparaca(
        PlatformConfig(
            seed=spec.PLATFORM_SEED,
            storage=StorageConfig("sqlite", db_path),
            durability=DurabilityConfig(enabled=True),
            scheduler=SchedulerConfig(
                enabled=True,
                transport="asyncio",
                pool_size=2,
                # Wall-clock heartbeats with a silence budget of seconds.
                # With ocli serve's 0.25 s x 2, a half-second stall of this
                # box degraded a worker in the middle of a run, and the
                # rebind then failed inside the platform ("cannot dispatch
                # ... in state COMPLETED"): a finding for ROADMAP item 4,
                # not something a throughput run should trip over.
                heartbeat_interval_s=1.0,
                degraded_after_misses=3,
                dead_after_misses=6,
            ),
        )
    )
    spec.register_functions(platform)
    platform.deploy(spec.package_yaml(workload))
    spans = ServerSpans() if trace else None
    if spans is not None:
        spans.wrap_start_server()
    profile = cProfile.Profile()

    def say(message: dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    async def main() -> None:
        front = await platform.serve_http(port=0)
        if spans is not None:
            spans.wrap_platform(platform, front)
        loop = asyncio.get_running_loop()
        commands = asyncio.StreamReader()
        await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(commands), sys.stdin)
        say(
            {
                "ready": True,
                "port": front.port,
                "collection": platform.crm.runtimes[CLS].dht.collection,
            }
        )
        while True:
            line = (await commands.readline()).decode().strip()
            if line in ("", "stop"):
                break
            if line == "mark":
                latency = platform.monitoring.for_class(CLS).latency
                say(
                    {
                        "sim_now": platform.now,
                        "count": latency.count,
                        "mean_s": latency.mean,
                        "docs_scanned": platform.store.query_docs_scanned,
                    }
                )
            elif line == "spans-on":
                spans.recording = True
                say({"ok": True})
            elif line == "spans-off":
                spans.recording = False
                say({"frames": spans.frames, "frame_bytes": spans.frame_bytes})
            elif line == "profile-on":
                profile.enable()
                say({"ok": True})
            elif line == "profile-off":
                profile.disable()
                say(layers.attribute(profile))
            else:
                say({"error": f"unknown command {line!r}"})
        await front.stop()

    asyncio.run(main())
    platform.shutdown()
    if spans is not None and span_path:
        Path(span_path).write_text(json.dumps(spans.spans))
    say({"stopped": True, "peak_rss_mb": estimators.peak_rss_mb()})


# ---------------------------------------------------------------------------
# Driver (benchmark process)
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONHASHSEED": "0"}


class Server:
    """Handle on one server child and its scratch directory."""

    def __init__(self, trace: bool) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.workdir = WORK_ROOT / f"http-{time.time_ns()}"
        self.workdir.mkdir()
        self.db_path = self.workdir / "perf.db"
        self.span_path = self.workdir / "server-spans.json"
        self.started = time.time()
        command = [
            sys.executable, str(_HERE / "run.py"), "--role", "http-server",
            "--db", str(self.db_path), "--trace", "1" if trace else "0",
            "--trace-out", str(self.span_path),
        ]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env()
        )
        try:
            self.ready = self._reply()
        except BaseException:
            self.close()
            raise
        self.port = self.ready["port"]

    def _reply(self) -> dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server child died (exit {self.process.wait()})")
        return json.loads(line)

    def command(self, word: str) -> dict[str, Any]:
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()
        return self._reply()

    def stop(self) -> dict[str, Any]:
        report = self.command("stop")
        self.process.wait(timeout=30)
        return report

    def close(self) -> None:
        """Leaves no process and no files behind, whatever happened."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # not empty: another run's directory, or a span file


class Sample(NamedTuple):
    """One request as the driver saw it.  ``latency`` runs from the due
    time in the open loop, else from ``started``."""

    started: float
    finished: float
    latency: float
    op: int
    request: str  # the request id, "<client port>-<n>"


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer
        self.port = writer.get_extra_info("sockname")[1]
        self.count = 0  # requests sent: the server counts the same way

    async def request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        payload = json.dumps(body).encode() if body is not None else b""
        self.count += 1
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: perf\r\nContent-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        marker = head.lower().find(b"content-length:")
        length = int(head[marker + 15: head.find(b"\r\n", marker)])
        return status, json.loads(await self.reader.readexactly(length))

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class Driver:
    """Closed-loop (and, for the diagnostic, open-loop) HTTP client."""

    def __init__(self, workload: Workload, plan: spec.Plan, objects: int, port: int) -> None:
        self.workload, self.plan, self.port = workload, plan, port
        self.ids = [f"{CLS}~o-{index}" for index in range(objects)]
        self.adds = [0] * objects  # acknowledged adds per object
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: list[Sample] = []
        self.docs_returned = 0  # by queries
        self._next_index = 0

    async def connect(self) -> Connection:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        return Connection(reader, writer)

    async def create_objects(self, conns: list[Connection]) -> None:
        async def create(conn: Connection, first: int) -> None:
            for index in range(first, len(self.ids), len(conns)):
                state = {"total": spec.initial_total(self.workload, index), "note": spec.NOTE}
                status, body = await conn.request(
                    "POST", f"/api/classes/{CLS}", {"id": f"o-{index}", "state": state}
                )
                if status != 201 or body.get("id") != self.ids[index]:
                    raise RuntimeError(f"object creation failed: {status} {body}")

        await asyncio.gather(*(create(conn, i) for i, conn in enumerate(conns)))

    async def _one(self, conn: Connection, slot: int, due: float | None = None) -> None:
        op = self.plan.ops[slot]
        target = self.plan.targets[slot]
        oid = self.ids[target]
        request = f"{conn.port}-{conn.count}"
        started = time.perf_counter()
        if op == PEEK:
            status, body = await conn.request("POST", f"/api/objects/{oid}/invokes/peek", {})
            ok = status == 200 and "total" in body
        elif op == ADD:
            status, body = await conn.request("POST", f"/api/objects/{oid}/invokes/add", {"n": 1})
            ok = status == 200 and body.get("total", 0) > spec.initial_total(self.workload, target)
        else:
            assert op == QUERY
            low = self.plan.args[slot]
            status, body = await conn.request(
                "GET", f"/api/classes/{CLS}/objects?where=total%3E%3D{low}&order=total&limit=10"
            )
            totals = [doc["state"]["total"] for doc in body.get("objects", ())]
            self.docs_returned += len(totals)
            ok = status == 200 and len(totals) == 10 and totals == sorted(totals) and totals[0] >= low
        finished = time.perf_counter()
        self.attempted += 1
        if ok:
            if op == ADD:
                self.adds[target] += 1
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{spec.OP_NAMES[op]} {oid}: {status} {body}")
        latency = finished - (due if due is not None else started)
        self.samples.append(Sample(started, finished, latency, op, request))

    async def closed_loop(self, conns: list[Connection], *, seconds: float = 0.0, ops: int = 0) -> None:
        """Each connection issues its share back to back until the
        deadline (``seconds``) or until ``ops`` requests are done."""
        base = self._next_index
        deadline = time.perf_counter() + seconds
        size = len(self.plan)

        async def loop(conn: Connection, index: int) -> None:
            while (index < base + ops) if ops else (time.perf_counter() < deadline):
                await self._one(conn, index % size)
                index += len(conns)
                self._next_index = max(self._next_index, index)

        await asyncio.gather(*(loop(conn, base + i) for i, conn in enumerate(conns)))

    async def open_loop(self, seconds: float, rate: float, pool: int = 16) -> dict[str, float]:
        """Requests leave on a fixed schedule whatever the server does;
        each is timed from when it was *due*, so a stall charges every
        request queued behind it."""
        conns = [await self.connect() for _ in range(pool)]
        free: asyncio.Queue = asyncio.Queue()
        for conn in conns:
            free.put_nowait(conn)
        first = len(self.samples)
        lags: list[float] = []
        tasks = []
        size = len(self.plan)
        base = self._next_index
        origin = time.perf_counter()

        async def fire(conn: Connection, slot: int, due: float) -> None:
            try:
                await self._one(conn, slot, due)
            finally:
                free.put_nowait(conn)

        for k in range(int(seconds * rate)):
            due = origin + k / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            conn = await free.get()
            lags.append(time.perf_counter() - due)
            tasks.append(asyncio.ensure_future(fire(conn, (base + k) % size, due)))
        await asyncio.gather(*tasks)
        self._next_index = base + len(tasks)
        for conn in conns:
            await conn.close()
        latencies = [sample.latency for sample in self.samples[first:]]
        del self.samples[first:]  # diagnostic samples stay out of the closed-loop numbers
        return {
            "client.open_p50_ms": estimators.nearest_rank(latencies, 50) * 1e3,
            "client.open_p99_ms": estimators.nearest_rank(latencies, 99) * 1e3,
            "client.open_lag_p99_ms": estimators.nearest_rank(lags, 99) * 1e3,
        }


def _slice_stats(samples: list[Sample], started: float, seconds: float) -> tuple[list[float], list[float]]:
    """Request rate over every pair of consecutive half-slice steps of
    the timed phase (slices that overlap by half; a trailing partial
    step is cut), and the median latency (ms) of each step."""
    step_s = _SLICE_S / 2
    count = int(seconds / step_s)
    buckets: list[list[float]] = [[] for _ in range(count)]
    for sample in samples:
        k = int((sample.finished - started) / step_s)
        if 0 <= k < count:
            buckets[k].append(sample.latency)
    rates = estimators.pair_rates([(len(bucket), step_s) for bucket in buckets])
    medians = [statistics.median(bucket) * 1e3 for bucket in buckets if bucket]
    return rates, medians


def verify_database(server: Server, driver: Driver) -> list[str]:
    """Reopen the SQLite file the dead server left: every acknowledged
    add is there."""
    from repro.storage.backends import StorageConfig, make_backend

    problems: list[str] = []
    backend = make_backend(StorageConfig("sqlite", str(server.db_path)))
    try:
        collection = server.ready["collection"]
        if backend.count(collection) != len(driver.ids):
            problems.append(
                f"database holds {backend.count(collection)} objects, expected {len(driver.ids)}"
            )
        for index, oid in enumerate(driver.ids):
            doc = backend.get(collection, oid)
            expected = spec.initial_total(driver.workload, index) + driver.adds[index]
            if doc is None:
                problems.append(f"{oid}: missing from the database")
                continue
            total = doc["state"]["total"]
            # A failed add may or may not have been applied; an
            # acknowledged one must have been.
            if total < expected or (driver.failed == 0 and total != expected):
                problems.append(f"{oid}: database total {total}, {expected} acknowledged")
    finally:
        backend.close()
    return problems


async def _set_up(server: Server, workload: Workload, seed: int, sizes: Sizes) -> tuple[Driver, list[Connection], float]:
    """Objects created over HTTP, then the warm-up; seconds since the
    server child was started."""
    plan = spec.make_plan(workload, seed, sizes.http_objects)
    driver = Driver(workload, plan, sizes.http_objects, server.port)
    conns = [await driver.connect() for _ in range(HTTP_CONNECTIONS)]
    await driver.create_objects(conns)
    await driver.closed_loop(conns, ops=sizes.http_warmup_ops)
    driver.samples.clear()
    return driver, conns, time.time() - server.started


async def _finish(conns: list[Connection]) -> list[str]:
    """The ledger check, then hang up."""
    status, body = await conns[0].request("GET", "/api/workers")
    ledger = body.get("ledger", {})
    conserved = ledger.get("accepted") == ledger.get("completed") and ledger.get("outstanding") == 0
    for conn in conns:
        await conn.close()
    return [] if status == 200 and conserved else [f"ledger not conserved: {status} {ledger}"]


def timed(workload: Workload, seed: int, seconds: float, sizes: Sizes) -> dict[str, Any]:
    """One server child: set-up, the timed closed loop, the output check."""
    server = Server(trace=False)
    try:
        async def go() -> tuple[Driver, dict[str, Any]]:
            driver, conns, setup_s = await _set_up(server, workload, seed, sizes)
            before = estimators.calibrate()
            mark = server.command("mark")
            started = time.perf_counter()
            await driver.closed_loop(conns, seconds=seconds)
            host_s = time.perf_counter() - started
            done = server.command("mark")
            drift = abs(estimators.calibrate() / before - 1.0)
            problems = await _finish(conns)
            rates, medians = _slice_stats(driver.samples, started, seconds)
            latencies = [sample.latency for sample in driver.samples]
            # The engine runs on the sim kernel here too: what the cost
            # model charges the same requests, whatever the host's speed.
            invocations = done["count"] - mark["count"]
            sim_latency_s = done["mean_s"] * done["count"] - mark["mean_s"] * mark["count"]
            return driver, {
                "setup_s": setup_s,
                "rates": rates,
                "slice_p50_ms": medians,
                "host_s": host_s,
                "ops": len(driver.samples),
                "wall_p99_ms": estimators.nearest_rank(latencies, 99) * 1e3,
                "sim_mean_ms": sim_latency_s / invocations * 1e3,
                "sim_rps": len(driver.samples) / (done["sim_now"] - mark["sim_now"]),
                "problems": problems,
                "calibration_drift": drift,
            }

        driver, result = asyncio.run(go())
        report = server.stop()
        result["problems"] += verify_database(server, driver)
        result.update(
            attempted=driver.attempted,
            failed=driver.failed,
            errors=driver.errors,
            peak_rss_mb=report["peak_rss_mb"],
            plan=driver.plan.digest,
        )
        return result
    finally:
        server.close()


def traced(workload: Workload, seed: int, sizes: Sizes, trace_out: Path) -> dict[str, Any]:
    """Plain phase, span phase, cProfile phase, open-loop diagnostic — one
    after the other, so neither instrument sits in the other's numbers."""
    ops = sizes.http_trace_ops
    server = Server(trace=True)
    try:
        async def go() -> tuple[Driver, dict[str, Any]]:
            driver, conns, _ = await _set_up(server, workload, seed, sizes)
            before = estimators.calibrate()

            started = time.perf_counter()
            await driver.closed_loop(conns, ops=ops)
            plain_s = time.perf_counter() - started
            driver.samples.clear()

            server.command("spans-on")
            await driver.closed_loop(conns, ops=ops)
            wire = server.command("spans-off")
            span_samples = list(driver.samples)
            driver.samples.clear()

            mark, returned = server.command("mark"), driver.docs_returned
            server.command("profile-on")
            started = time.perf_counter()
            await driver.closed_loop(conns, ops=ops)
            traced_s = time.perf_counter() - started
            folded = server.command("profile-off")
            scanned = server.command("mark")["docs_scanned"] - mark["docs_scanned"]
            returned = driver.docs_returned - returned

            drift = abs(estimators.calibrate() / before - 1.0)
            problems = await _finish(conns)
            open_loop = await driver.open_loop(sizes.open_loop_s, spec.OPEN_LOOP_RATE)
            return driver, {
                "plain_s": plain_s, "traced_s": traced_s, "wire": wire, "folded": folded,
                "span_samples": span_samples, "open_loop": open_loop, "drift": drift,
                "scanned_per_result": scanned / returned if returned else 0.0,
                "problems": problems,
            }

        driver, result = asyncio.run(go())
        server.stop()
        problems = result["problems"] + verify_database(server, driver)
        spans = [tuple(span) for span in json.loads(server.span_path.read_text())]
    finally:
        server.close()

    samples, folded = result["span_samples"], result["folded"]
    spans += [("client", s.request, s.started, s.finished) for s in samples]
    write_chrome_trace(spans, {s.request: spec.OP_NAMES[s.op] for s in samples}, trace_out)
    metrics = layers.layer_metrics(folded, ops, result["traced_s"])
    metrics.update(_span_metrics(spans, samples))
    metrics.update(result["open_loop"])
    metrics.update(
        {
            "scheduler.transport.frames_per_op": result["wire"]["frames"] / ops,
            "scheduler.transport.bytes_per_op": result["wire"]["frame_bytes"] / ops,
            "storage.query.scanned_per_result": result["scanned_per_result"],
            "trace.overhead_ratio": result["traced_s"] / result["plain_s"],
            "host.calibration_drift": result["drift"],
        }
    )
    return {
        "metrics": metrics,
        "ops": ops,
        "plain_us_per_op": result["plain_s"] * 1e6 / ops,
        "traced_us_per_op": result["traced_s"] * 1e6 / ops,
        "attempted": driver.attempted,
        "failed": driver.failed,
        "errors": driver.errors,
        "problems": problems,
    }


def _span_metrics(spans: list[tuple], samples: list[Sample]) -> dict[str, float]:
    """Medians over the span phase.  ``front_us`` and ``hop_us`` are self
    times (a span minus the child it encloses); ``run_us`` is the whole
    engine run, of which the backend timers are a part."""
    by_request: dict[str, dict[str, float]] = collections.defaultdict(
        lambda: collections.defaultdict(float)
    )
    for name, request, started, finished in spans:
        by_request[request][name] += finished - started
    front, hop, run = [], [], []
    backend: dict[str, list[float]] = {"put": [], "get": [], "query": []}
    for durations in by_request.values():
        if all(name in durations for name in ("front", "submit", "run")):
            front.append(durations["front"] - durations["submit"])
            hop.append(durations["submit"] - durations["run"])
        if "run" in durations:
            run.append(durations["run"])
        for label, values in backend.items():
            if label in durations:
                values.append(durations[label])

    def median_us(values: list[float]) -> float:
        return statistics.median(values) * 1e6 if values else 0.0

    def p50_ms(op: int | None = None) -> float:
        return estimators.nearest_rank([s.latency for s in samples if op in (None, s.op)], 50) * 1e3

    return {
        "platform.httpfront.front_us": median_us(front),
        "scheduler.transport.hop_us": median_us(hop),
        "invoker.engine.run_us": median_us(run),
        "storage.backends.put_us": median_us(backend["put"]),
        "storage.backends.get_us": median_us(backend["get"]),
        "storage.backends.query_us": median_us(backend["query"]),
        "client.wall_latency_p50_ms": p50_ms(),
        "client.add_p50_ms": p50_ms(ADD),
        "client.peek_p50_ms": p50_ms(PEEK),
        "client.query_p50_ms": p50_ms(QUERY),
        "client.wall_latency_p99_ms": estimators.nearest_rank([s.latency for s in samples], 99) * 1e3,
    }


def write_chrome_trace(spans: list[tuple], kinds: dict[str, str], path: Path) -> None:
    """Chrome ``trace_event`` JSON (load in chrome://tracing or Perfetto):
    one complete event per span, ``args.request`` its request id; the
    client's span also carries the op kind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = min(span[2] for span in spans)
    events = [
        {
            "name": name,
            "ph": "X",
            "ts": (started - origin) * 1e6,
            "dur": (finished - started) * 1e6,
            "pid": 1 if name == "client" else 2,
            "tid": int(request.split("-")[0]),
            "args": {"request": request, "op": kinds[request]} if name == "client" else {"request": request},
        }
        for name, request, started, finished in sorted(spans, key=lambda span: span[2])
    ]
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
