"""``ocli`` — the Oparaca command-line interface (tutorial step 2).

``ocli --help`` lists the subcommands.  ``validate``, ``show`` and
``templates`` read a package file or the template catalog; every other
one deploys the package on an ephemeral in-process platform, makes the
``--invoke`` calls on a ``--new`` object (handlers from ``--handlers
module:callable`` or stubs from ``--auto-handlers``) and prints what the
platform reports: a plane's ``stats()`` reaches text through the one
renderer, :func:`repro.render.render`, after a one-line workload tally.

Workload commands accept ``--backend {dict,sqlite}`` and ``--db PATH``
to choose the store engine; with ``--backend sqlite --db FILE`` the
platform's objects survive process death (see ``serve --linger``).

A subcommand is one row of :data:`COMMANDS`: its name, help, handler,
the option groups it takes (each group is declared once, in
:data:`GROUPS`), options of its own, its ``--rounds``/``--interval``
defaults, the :class:`PlatformConfig` fields it turns on, and a printer.
A workload row's handler runs inside :func:`_platform` — the one owner
of the platform's lifetime, which builds it, registers handlers, deploys
the package and, however the handler exits (return, error, Ctrl-C),
calls ``shutdown()``: write-behind is drained and the store closed, so
no acknowledged write is left behind.  The printer, if any, runs after
that, on what the shutdown settled.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import sys
from collections import Counter
from typing import Any, Callable, Iterator, NamedTuple

from repro.chaos import PLAN_NAMES, named_plan
from repro.crm.template import default_catalog
from repro.durability.plane import DurabilityConfig
from repro.errors import OaasError
from repro.federation.plane import FederationConfig
from repro.model.pkg import Package, load_package
from repro.monitoring.export import format_summary
from repro.monitoring.nfr_report import format_nfr_report
from repro.monitoring.plane import MetricsConfig
from repro.qos.plane import QosConfig
from repro.render import render
from repro.scheduler.plane import SchedulerConfig

__all__ = ["main", "build_parser", "COMMANDS"]


def _opt(*flags: str, **kwargs: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    """One ``add_argument`` call, as data."""
    return flags, kwargs


#: Option groups by name; a row lists the ones it takes.
GROUPS: dict[str, tuple] = {
    "workload": (
        _opt("package"),
        _opt("--handlers", help="module:callable registering images"),
        _opt("--auto-handlers", action="store_true",
             help="register stub handlers for every image in the package"),
        _opt("--new", dest="new_cls", required=True, help="class to instantiate"),
        _opt("--state", default="{}", help="initial state JSON"),
        _opt("--invoke", action="append", default=[], metavar="FN[:PAYLOAD_JSON]",
             help="function to invoke on the new object (repeatable)"),
        _opt("--nodes", type=int, default=3, help="worker VM count"),
        _opt("--backend", choices=("dict", "sqlite"), default="dict",
             help="store engine behind the document store (sqlite survives "
             "process death and auto-enables the durability plane)"),
        _opt("--db", default=None, metavar="PATH",
             help="SQLite database file (default: in-memory); requires --backend sqlite"),
    ),
    "seed": (_opt("--seed", type=int, default=0, help="platform RNG seed"),),
    "pool": (_opt("--pool", type=int, default=4, help="worker pool size"),),
    "async-per-round": (
        _opt("--async-per-round", type=int, default=4,
             help="fire-and-forget invocations submitted per round "
             "(copies of the first --invoke)"),
    ),
    "scrape-interval": (
        _opt("--scrape-interval", type=float, default=0.5,
             help="metrics scrape interval (simulated seconds)"),
    ),
    "snapshot-interval": (
        _opt("--snapshot-interval", type=float, default=1.0,
             help="periodic cut interval (simulated seconds)"),
    ),
    "json": (
        _opt("--json", dest="as_json", action="store_true", help="emit JSON instead of text"),
    ),
}


class Command(NamedTuple):
    """One subcommand.  ``handler(args)`` for a row without the workload
    group; ``handler(platform, args)`` inside the platform's lifetime for
    one with it, whose result ``printer(platform, args, result)`` turns
    into the exit code after ``shutdown()`` (no printer: the result is
    the exit code)."""

    name: str
    help: str
    handler: Callable[..., Any]
    groups: tuple[str, ...] = ()
    options: tuple = ()
    #: ``(--rounds, --interval)`` defaults; ``None``: no paced rounds.
    rounds: tuple[int, float] | None = None
    #: ``args`` -> the :class:`PlatformConfig` fields this command turns on.
    planes: Callable[[argparse.Namespace], dict[str, Any]] | None = None
    printer: Callable[..., int] | None = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocli", description="Oparaca platform CLI (OaaS reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for row in COMMANDS:
        cmd = sub.add_parser(row.name, help=row.help)
        options = [option for group in row.groups for option in GROUPS[group]]
        if row.rounds is not None:
            rounds, interval = row.rounds
            options += [
                _opt("--rounds", type=int, default=rounds, help="workload rounds to drive"),
                _opt("--interval", type=float, default=interval,
                     help="simulated seconds between rounds"),
            ]
        for flags, kwargs in (*options, *row.options):
            cmd.add_argument(*flags, **kwargs)
        cmd.set_defaults(handler=row)
    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    package = load_package(args.package)
    resolved = package.resolved_classes()
    print(f"package {package.name!r}: OK")
    print(f"  classes:   {len(package.classes)}")
    print(f"  functions: {len(package.functions)}")
    for name in sorted(resolved):
        cls = resolved[name]
        parent = cls.definition.parent or "-"
        print(
            f"    {name} (parent={parent}, state keys={len(cls.state)}, "
            f"methods={len(cls.methods)})"
        )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    package = load_package(args.package)
    resolved = package.resolved_classes()
    names = [args.cls] if args.cls else sorted(resolved)
    for name in names:
        if name not in resolved:
            print(f"error: no class {name!r} in package", file=sys.stderr)
            return 1
        cls = resolved[name]
        print(f"class {cls.name}")
        print(f"  ancestry: {' -> '.join(cls.ancestry)}")
        print(f"  nfr: qos={cls.nfr.qos} constraint={cls.nfr.constraint}")
        print("  state:")
        for spec in cls.state:
            print(f"    {spec.name}: {spec.dtype.value}")
        print("  methods:")
        for method in cls.method_names:
            binding = cls.methods[method]
            kind = binding.function.ftype.value
            impl = binding.function.image or "(dataflow)"
            print(f"    {method} [{kind}] {impl} access={binding.access.value}")
    return 0


def _cmd_templates(_args: argparse.Namespace) -> int:
    catalog = default_catalog()
    for template in sorted(catalog.templates, key=lambda t: -t.priority):
        print(f"{template.name} (priority {template.priority})")
        print(f"  engine={template.config.engine} "
              f"placement={template.config.placement.value} "
              f"replication={template.config.replication} "
              f"persistent={template.config.persistent}")
        if template.description:
            print(f"  {template.description}")
    return 0


def _register_stub_handlers(platform, package: Package) -> None:
    functions = [*package.functions, *(b.function for c in package.classes for b in c.bindings)]
    images = {fn.image for fn in functions if fn.image}

    def make_stub(image: str):
        # Stubs must not touch state: the class schema is arbitrary and
        # commit-time validation would reject unknown keys.
        def stub(ctx):
            return {"image": image, "payload": dict(ctx.payload)}

        return stub

    for image in sorted(images):
        platform.register_image(image, make_stub(image), service_time_s=0.001)


class _UsageError(Exception):
    """Invalid flags or handler wiring; ``main`` prints it and exits 2."""


def _check_usage(args: argparse.Namespace) -> None:
    """Refuse what the parser accepts but the platform would ignore or
    mis-report."""
    if args.db is not None and args.backend != "sqlite":
        raise _UsageError("--db requires --backend sqlite")
    for flag in ("rounds", "interval", "limit", "async_per_round", "requests"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise _UsageError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")
    if args.nodes < 1:
        raise _UsageError(f"--nodes must be >= 1, got {args.nodes}")
    port = getattr(args, "port", None)
    if port is not None and not 0 <= port <= 65535:
        raise _UsageError(f"--port must be 0-65535, got {port}")


@contextlib.contextmanager
def _platform(args: argparse.Namespace, **overrides: Any) -> Iterator[Any]:
    """The platform's one lifetime: an ephemeral :class:`Oparaca` with
    the workload's handlers registered and ``args.package`` deployed,
    shut down however the block exits.  ``overrides`` are
    :class:`PlatformConfig` fields — the plane configs and observability
    switches a subcommand turns on."""
    from repro.platform.oparaca import Oparaca, PlatformConfig
    from repro.storage.backends import StorageConfig

    _check_usage(args)
    package = load_package(args.package)
    storage = StorageConfig(backend=args.backend, path=args.db)
    if storage.backend == "sqlite":
        # A durable engine without the durability plane would still lose
        # queued write-behind commits on a kill; enabling the plane makes
        # strong-persistence classes write through synchronously.
        overrides.setdefault("durability", DurabilityConfig(enabled=True))
    platform = Oparaca(
        PlatformConfig(
            nodes=args.nodes,
            seed=getattr(args, "seed", 0),
            storage=storage,
            **overrides,
        )
    )
    try:
        if args.handlers:
            module_name, _, attr = args.handlers.partition(":")
            if not attr:
                raise _UsageError("--handlers must be module:callable")
            register = getattr(importlib.import_module(module_name), attr)
            register(platform)
        elif args.auto_handlers:
            _register_stub_handlers(platform, package)
        else:
            raise _UsageError("provide --handlers module:callable or --auto-handlers")
        platform.deploy(package)
        yield platform
    finally:
        platform.shutdown()


def _parse_invoke(spec: str) -> tuple[str, dict]:
    """``FN[:PAYLOAD_JSON]`` -> ``(fn, payload)``."""
    fn, _, payload_text = spec.partition(":")
    return fn, json.loads(payload_text) if payload_text else {}


def _state_body(state_text: str) -> dict:
    return {"state": json.loads(state_text)} if state_text != "{}" else {}


def _create_object(platform, cls: str, state_text: str) -> str:
    created = platform.http("POST", f"/api/classes/{cls}", _state_body(state_text))
    if not created.ok:
        raise OaasError(f"object creation failed: {created.body.get('error')}")
    return created.body["id"]


class _Driven(NamedTuple):
    """The object :func:`_drive` invoked, and how the gateway answered."""

    object_id: str
    ok: int
    #: Answered 429/503: admission or overload refused the request.
    rejected: int
    failed: int


def _drive(
    platform,
    args: argparse.Namespace,
    *,
    object_id: str | None = None,
    echo: bool = False,
    halfway: Callable[[], None] | None = None,
    creates: tuple[str, ...] | list[str] = (),
) -> _Driven:
    """The one workload loop.  Creates the object (unless ``object_id``
    names one), makes every ``--invoke`` on it through the gateway's
    REST surface — so traces start at the ``gateway`` span, like a real
    client's would — then creates one more object per ``creates`` state.

    A command with paced rounds drives ``--rounds`` rounds
    ``--interval`` simulated seconds apart (the cadence the scraper, the
    SLO evaluator and the fault plans are built for), invoking ``get``
    when no ``--invoke`` is given, submitting ``--async-per-round``
    fire-and-forget copies of the first invoke per round, and running
    ``halfway`` before the middle round.  Otherwise it makes one pass and
    leaves the clock alone.  ``echo`` narrates each step."""
    if object_id is None:
        object_id = _create_object(platform, args.new_cls, args.state)
        if echo:
            print(f"created {object_id}")
    paced = hasattr(args, "rounds")
    invokes = (args.invoke or ["get"]) if paced else args.invoke
    async_per_round = getattr(args, "async_per_round", 0)
    ok = rejected = failed = 0
    for round_index in range(args.rounds if paced else 1):
        if halfway is not None and round_index == max(1, args.rounds // 2):
            halfway()
        for spec in invokes:
            fn, payload = _parse_invoke(spec)
            response = platform.http(
                "POST", f"/api/objects/{object_id}/invokes/{fn}", payload
            )
            if echo:
                status = "ok" if response.ok else f"FAILED: {response.body.get('error')}"
                print(f"invoke {fn}: {status}")
                if response.ok and response.body:
                    print(f"  output: {json.dumps(response.body, default=str)}")
            if response.ok:
                ok += 1
            elif response.status in (429, 503):
                rejected += 1
            else:
                failed += 1
        for _ in range(async_per_round):
            platform.invoke_async(object_id, *_parse_invoke(invokes[0]))
        if paced:
            platform.advance(args.interval)
    for state_text in creates:
        _create_object(platform, args.new_cls, state_text)
    return _Driven(object_id, ok, rejected, failed)


def _cmd_run(platform, args: argparse.Namespace) -> int:
    for runtime in platform.describe():
        print(
            f"deployed {runtime['class']} via template {runtime['template']!r} "
            f"on {runtime['engine']}"
        )
    object_id = _drive(platform, args, echo=True).object_id
    record = platform.get_object(object_id)
    print(f"final state: {json.dumps(record['state'], default=str)}")
    return 0


def _print_trace(platform, args: argparse.Namespace, _driven) -> int:
    if args.chrome:
        if args.chrome == "-":
            print(platform.export_chrome_trace())
        else:
            platform.export_chrome_trace(path=args.chrome)
            print(f"wrote Chrome trace ({len(platform.tracer)} spans) to {args.chrome}")
            print("open chrome://tracing or https://ui.perfetto.dev to view")
    else:
        print(platform.render_trace())
    return 0


def _print_events(platform, args: argparse.Namespace, _driven) -> int:
    print(platform.events.render(type=args.event_type, limit=args.limit))
    counts = platform.events.type_counts()
    if counts and not args.event_type:
        print(f"\n{render(dict(sorted(counts.items())), f'{len(platform.events)} event(s)')}")
    return 0


def _print_report(platform, args: argparse.Namespace, _driven) -> int:
    report = platform.observability_report()
    if args.as_json:
        print(json.dumps(report, indent=2, default=str))
        return 0
    print(format_summary(report))
    print("\nNFR compliance (declared QoS vs observed):")
    print(format_nfr_report(platform.nfr_report()))
    return 0


def _workload(run: _Driven, args: argparse.Namespace) -> str:
    """The one workload line a paced command's output opens with."""
    line = (f"workload: {run.ok} ok / {run.rejected} rejected / {run.failed} failed "
            f"over {args.rounds} rounds")
    per_round = getattr(args, "async_per_round", 0)
    return f"{line} (+{args.rounds * per_round} async submissions)" if per_round else line


def _printer(state: Callable[[Any], dict], *extras: Callable[[Any], str]) -> Callable[..., int]:
    """A paced command's printer: the workload line, ``state(platform)``
    rendered, then each of ``extras``; ``--json`` prints the state alone."""

    def printer(platform, args: argparse.Namespace, run: _Driven) -> int:
        report = state(platform)
        if getattr(args, "as_json", False):
            print(json.dumps(report, indent=2, default=str))
        else:
            print(_workload(run, args), render(report), *(e(platform) for e in extras),
                  sep="\n")
        return 0

    return printer


def _nfr(platform) -> str:
    return "\nNFR compliance:\n" + format_nfr_report(platform.nfr_report())


def _queue_delay_ms(platform) -> dict[str, Any]:
    delay = platform.monitoring.registry.histogram("qos.queue_delay_s")
    return {"n": delay.count, "mean": delay.mean * 1000, "p95": delay.percentile(95) * 1000}


def _resilience(engine) -> dict[str, int]:
    return {"retries": engine.fault_retries, "timeouts": engine.timeouts,
            "stale_reads": engine.stale_reads, "open_breakers": engine.breakers.open_count()}


#: Scheduler events that are traffic, not a worker's lifecycle.
_TRAFFIC = ("scheduler.dispatch", "scheduler.complete", "scheduler.place")


def _lifecycle(platform) -> str:
    events = [event for event in platform.events if event.type.startswith("scheduler.")
              and event.type not in _TRAFFIC]
    return "\n".join([f"\nlifecycle events ({len(events)}):",
                      *(f"  {event.render()}" for event in events)])


def _slo(platform) -> dict[str, Any]:
    """The SLO report after one final scrape, so it counts what the
    shutdown drained."""
    platform.metrics.scraper.scrape_once()
    return platform.slo_report()


def _inject(platform, plan_name: str):
    plan = named_plan(plan_name, list(platform.cluster.node_names))
    platform.inject_chaos(plan)
    return plan


def _cmd_chaos(platform, args: argparse.Namespace) -> _Driven:
    plan = _inject(platform, args.plan)
    print(f"injecting plan {plan.name!r}")
    driven = _drive(platform, args)
    # Let the plan finish (and breakers settle) before judging.
    platform.advance(max(0.0, plan.end_s - platform.now) + 1.0)
    return driven


def _drive_and_settle(platform, args: argparse.Namespace, halfway=None) -> _Driven:
    driven = _drive(platform, args, halfway=halfway)
    platform.advance(2.0)  # drain the async backlog
    return driven


def _print_metrics(platform, args: argparse.Namespace, run: _Driven) -> int:
    # One final scrape after the flush so the exported counters include
    # everything the shutdown drained.
    platform.metrics.scraper.scrape_once()
    if args.as_json:
        print(platform.metrics_report(indent=2))
    else:
        print(platform.metrics_exposition(), end="")
    print(_workload(run, args), render(platform.report("metrics"), "metrics"),
          sep="\n", file=sys.stderr)
    return 0


def _cmd_slo(platform, args: argparse.Namespace) -> _Driven:
    if args.chaos_plan:
        plan = _inject(platform, args.chaos_plan)
        print(f"injecting plan {plan.name!r}", file=sys.stderr)
    return _drive(platform, args)


def _cmd_serve(platform, args: argparse.Namespace) -> int:
    import asyncio

    async def request(host, port, method, path, body=None):
        reader, writer = await asyncio.open_connection(host, port)
        payload = json.dumps(body or {}).encode("utf-8")
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode("latin-1")
            + payload
        )
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.partition(b":")[2])
        data = await reader.readexactly(length)
        writer.close()
        return status, json.loads(data)

    async def drive() -> None:
        front = await platform.serve_http(port=args.port)
        host, port = front.host, front.port
        print(f"serving on http://{host}:{port} with {args.pool} workers", flush=True)
        if args.linger:
            # Serve real clients until Ctrl-C (the lifetime then drains
            # and closes the store) or until killed.  This is the mode
            # the sqlite durability drill runs: kill -9 this process,
            # restart it on the same --db file, and the objects are
            # still there.
            await asyncio.Event().wait()
        status, created = await request(
            host, port, "POST", f"/api/classes/{args.new_cls}", _state_body(args.state)
        )
        if status != 201:
            raise OaasError(f"object creation failed: {created.get('error')}")
        object_id = created["id"]
        invokes = args.invoke or ["get"]
        statuses: list[int] = []
        semaphore = asyncio.Semaphore(max(1, args.concurrency))
        crash_at = args.requests // 2

        async def one(index: int) -> None:
            fn, payload = _parse_invoke(invokes[index % len(invokes)])
            async with semaphore:
                worker = front.workers.get(args.crash_worker)
                if worker is not None and index == crash_at:
                    worker.kill()
                    print(f"killed {worker.name}'s connection mid-run")
                status, _ = await request(
                    host,
                    port,
                    "POST",
                    f"/api/objects/{object_id}/invokes/{fn}",
                    payload,
                )
                statuses.append(status)

        await asyncio.gather(*[one(i) for i in range(args.requests)])
        _, workers_body = await request(host, port, "GET", "/api/workers")
        report = await front.stop()
        print("HTTP statuses:", " ".join(f"{k}x{v}" for k, v in sorted(Counter(statuses).items())))
        print(render({**workers_body, "fenced": front.scheduler.fenced, "stop_report": report}))

    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(drive())
    return 0


def _cmd_workers(platform, args: argparse.Namespace) -> _Driven:
    def retire_halfway() -> None:
        if args.drain_worker:
            response = platform.http("POST", f"/api/workers/{args.drain_worker}/drain")
            verb = "draining" if response.ok else "drain FAILED:"
            print(f"{verb} {args.drain_worker} at t={platform.now:.3f}s")
        if args.crash_worker:
            crashed = platform.scheduler_plane.crash_worker(
                args.crash_worker, reason="cli"
            )
            verb = "crashed" if crashed else "crash no-op (unknown/dead):"
            print(f"{verb} {args.crash_worker} at t={platform.now:.3f}s")

    return _drive_and_settle(platform, args, halfway=retire_halfway)


def _snapshot_cut(platform, args: argparse.Namespace) -> tuple[str, dict]:
    """The shared opening of ``snapshot`` and ``restore``: the workload,
    then one cut through the gateway.  Returns ``(object_id, cut_body)``."""
    object_id = _drive(platform, args).object_id
    cut = platform.http("POST", f"/api/classes/{args.new_cls}/snapshots")
    if cut.status not in (200, 201):
        raise OaasError(f"snapshot failed: {cut.body.get('error')}")
    return object_id, cut.body


def _cmd_snapshot(platform, args: argparse.Namespace) -> int:
    _, cut = _snapshot_cut(platform, args)
    print(render(cut, "cut"), render(platform.report("durability"), "durability"), sep="\n")
    return 0


def _cmd_restore(platform, args: argparse.Namespace) -> int:
    object_id, cut = _snapshot_cut(platform, args)
    # No new generation: the periodic loop already covered the workload,
    # and the restore takes the latest retained one.
    print(render(cut, "cut"))
    # Mutate past the cut so the rewind is visible.
    _drive(platform, args, object_id=object_id)
    before = platform.get_object(object_id)
    body = {} if args.at is None else {"at": args.at}
    restored = platform.http("POST", f"/api/classes/{args.new_cls}/restore", body)
    if not restored.ok:
        print(f"error: restore failed: {restored.body.get('error')}", file=sys.stderr)
        return 1
    print(render(restored.body, "restored"))
    after = platform.get_object(object_id)
    print(f"state before restore: {json.dumps(before['state'], default=str)}")
    print(f"state after restore:  {json.dumps(after['state'], default=str)}")
    return 0


def _parse_zones(text: str):
    from repro.orchestrator.topology import Zone

    zones = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, tier = part.partition(":")
        zones.append(Zone(name=name.strip(), tier=tier.strip() or "regional"))
    return tuple(zones)


def _cmd_migrate(platform, args: argparse.Namespace) -> int:
    object_id = _drive(platform, args).object_id
    response = platform.http(
        "POST",
        f"/api/classes/{args.new_cls}/objects/{object_id}/migrate",
        {"zone": args.target_zone},
    )
    if not response.ok:
        print(f"error: migration failed: {response.body.get('error')}", file=sys.stderr)
        return 1
    print(render(response.body, "migrated"))
    owner = platform.crm.runtime(args.new_cls).dht.owner(object_id)
    record = platform.get_object(object_id)
    print(f"post-migration owner: {owner}, version {record['version']}")
    print(render(platform.report("federation"), "federation"))
    return 0


def _cmd_query(platform, args: argparse.Namespace) -> int:
    import urllib.parse

    _drive(platform, args, creates=args.create)
    params = [
        (name, value)
        for name, value in (
            ("where", args.where),
            ("order", args.order),
            ("limit", None if args.limit is None else str(args.limit)),
            ("cursor", args.cursor),
            ("explain", "1" if args.explain else None),
        )
        if value
    ]
    # A bare "?" still selects the query route (an unfiltered query),
    # which is the point: same surface, same accounting.
    query_string = urllib.parse.urlencode(params)
    response = platform.http(
        "GET", f"/api/classes/{args.new_cls}/objects?{query_string}"
    )
    if not response.ok:
        print(f"error: query failed: {response.body.get('error')}", file=sys.stderr)
        return 1
    body = response.body
    for doc in body["objects"]:
        print(f"{doc['id']}  {json.dumps(doc.get('state', {}), default=str)}")
    print(
        f"\n{body['count']} object(s), {body['scanned']} scanned "
        f"(backend={platform.store.backend.name})"
    )
    if body.get("cursor"):
        print(f"next page: --cursor {body['cursor']}")
    if args.explain:
        print(f"plan: {body.get('plan')}")
        print(f"index used: {body.get('index_used')}")
    return 0


_WORKLOAD = ("workload",)
_TRACING = {"tracing_enabled": True}
_EVENTS = {"events_enabled": True}
_OBSERVED = {**_TRACING, **_EVENTS}


def _metrics(args: argparse.Namespace) -> dict[str, Any]:
    return {**_EVENTS, "metrics": MetricsConfig(
        enabled=True, scrape_interval_s=args.scrape_interval)}


def _durability(args: argparse.Namespace) -> dict[str, Any]:
    return {**_EVENTS, "durability": DurabilityConfig(
        enabled=True, default_interval_s=args.snapshot_interval)}


#: Every subcommand, in ``--help`` order.
COMMANDS: tuple[Command, ...] = (
    Command("validate", "parse and resolve a package file", _cmd_validate,
            options=(_opt("package", help="path to a YAML/JSON package file"),)),
    Command("show", "print resolved class details", _cmd_show,
            options=(_opt("package"), _opt("--cls", help="show only this class"))),
    Command("templates", "list class-runtime templates", _cmd_templates),
    Command("run", "deploy a package and invoke functions", _cmd_run, _WORKLOAD),
    Command("trace", "run a workload with tracing on and print span trees", _drive, _WORKLOAD,
            options=(_opt("--chrome", metavar="FILE", help="also write Chrome trace_event "
                          "JSON to FILE ('-' for stdout)"),),
            planes=lambda args: _TRACING, printer=_print_trace),
    Command("events", "run a workload and print control-plane events", _drive, _WORKLOAD,
            options=(_opt("--type", dest="event_type", help="only this event type"),
                     _opt("--limit", type=int, help="only the newest N events")),
            planes=lambda args: _EVENTS, printer=_print_events),
    Command("report", "run a workload and print the observability report", _drive,
            ("workload", "json"), planes=lambda args: _OBSERVED, printer=_print_report),
    Command("chaos", "run a workload under a named fault plan", _cmd_chaos, ("workload", "seed"),
            options=(_opt("--plan", default="node-crash", choices=PLAN_NAMES,
                          help="builtin fault plan to inject"),),
            rounds=(60, 0.15), planes=lambda args: _OBSERVED, printer=_printer(lambda platform: {
                "chaos": platform.report("chaos"), "resilience": _resilience(platform.engine)},
                _nfr)),
    Command("qos", "run a workload with the QoS enforcement plane on and print "
            "admission / fair-queue / shedding statistics", _drive_and_settle,
            ("workload", "async-per-round", "seed"),
            options=(_opt("--concurrency-limit", type=int, default=None,
                          help="platform-wide in-flight HTTP ceiling"),),
            rounds=(60, 0.05),
            planes=lambda args: {**_EVENTS, "qos": QosConfig(
                enabled=True, concurrency_limit=args.concurrency_limit)},
            printer=_printer(lambda platform: {
                "qos": platform.report("qos"),
                "queue_delay_ms": _queue_delay_ms(platform)}, _nfr)),
    Command("metrics", "run a workload with the metrics plane on and print the registry as "
            "OpenMetrics text", _drive, ("workload", "scrape-interval", "seed", "json"),
            rounds=(60, 0.1), planes=_metrics, printer=_print_metrics),
    Command("slo", "run a workload with the SLO evaluator on and print burn-rate alerts and "
            "budget consumption", _cmd_slo, ("workload", "scrape-interval", "seed", "json"),
            options=(_opt("--chaos", dest="chaos_plan", default=None, choices=PLAN_NAMES,
                          help="also inject this fault plan (burns error budget)"),),
            rounds=(60, 0.1), planes=_metrics, printer=_printer(_slo)),
    Command("serve", "serve the platform over the real asyncio HTTP front end (scheduler "
            "transport=asyncio) and drive concurrent requests at it", _cmd_serve,
            ("workload", "pool", "seed"),
            options=(
                _opt("--port", type=int, default=0, help="HTTP port (0 picks an ephemeral one)"),
                _opt("--requests", type=int, default=24, help="invocations to drive over HTTP"),
                _opt("--concurrency", type=int, default=8, help="concurrent HTTP connections"),
                _opt("--crash-worker", dest="crash_worker", default=None, metavar="WORKER",
                     help="abort this worker's connection mid-run (epoch fence + requeue)"),
                _opt("--linger", action="store_true",
                     help="serve until interrupted instead of driving a benchmark workload "
                     "(no object is created; pair with --backend sqlite --db FILE for a "
                     "store that survives the process)"),
            ),
            # Wall-clock heartbeats: keep the silence budget generous so
            # a busy event loop doesn't read as worker death.
            planes=lambda args: {"scheduler": SchedulerConfig(
                enabled=True, transport="asyncio", pool_size=args.pool,
                heartbeat_interval_s=0.25, degraded_after_misses=2, dead_after_misses=4)}),
    Command("query", "deploy a package, create objects, and run a typed query "
            "(where/order/limit) over a class's declared keySpecs", _cmd_query, _WORKLOAD,
            options=(
                _opt("--create", action="append", default=[], metavar="STATE_JSON",
                     help="additional object to create with this initial state (repeatable)"),
                _opt("--where", default=None,
                     help="predicate conjunction, e.g. 'total>=10,region^=eu'"),
                _opt("--order", default=None, help="order key, e.g. 'total:desc'"),
                _opt("--limit", type=int, default=None, help="page size"),
                _opt("--cursor", default=None, help="resume token from a previous page"),
                _opt("--explain", action="store_true",
                     help="print the engine's query plan and whether an index was used"),
            )),
    Command("workers", "run a workload with the scheduler plane on and print the worker "
            "table, ledger audit, and lifecycle events", _cmd_workers,
            ("workload", "pool", "async-per-round", "seed"),
            options=(
                _opt("--drain", dest="drain_worker", default=None, metavar="WORKER",
                     help="drain this worker halfway through (graceful handoff)"),
                _opt("--crash", dest="crash_worker", default=None, metavar="WORKER",
                     help="crash this worker halfway through (epoch fence + requeue)"),
            ),
            rounds=(40, 0.05),
            planes=lambda args: {**_EVENTS, "scheduler": SchedulerConfig(
                enabled=True, pool_size=args.pool)},
            printer=_printer(lambda platform: {"scheduler": platform.report("scheduler")},
                             _lifecycle)),
    Command("snapshot", "run a workload with the durability plane on and take a consistent "
            "snapshot cut", _cmd_snapshot, ("workload", "snapshot-interval"),
            planes=_durability),
    Command("restore", "run a workload, snapshot, mutate further, then restore the class to "
            "the snapshot point", _cmd_restore, ("workload", "snapshot-interval"),
            options=(_opt("--at", type=float, default=None,
                          help="restore point in simulated seconds (default: latest cut)"),),
            planes=_durability),
    Command("migrate", "run a workload with the federation plane on and live-migrate the "
            "object into another zone", _cmd_migrate, ("workload", "seed"),
            options=(
                _opt("--zones", default="edge-a:edge,region-a:regional,core:core",
                     metavar="NAME:TIER[,NAME:TIER...]",
                     help="zone topology; cluster nodes are labelled round-robin "
                     "across the zones (tiers: edge, regional, core)"),
                _opt("--to", dest="target_zone", required=True, metavar="ZONE",
                     help="target zone for the live migration"),
                _opt("--origin", default=None, metavar="ZONE",
                     help="origin zone stamped on workload requests (geo-routing)"),
            ),
            planes=lambda args: {**_EVENTS, "federation": FederationConfig(
                enabled=True, zones=_parse_zones(args.zones),
                default_origin_zone=args.origin)}),
)


def _execute(row: Command, args: argparse.Namespace) -> int:
    if "workload" not in row.groups:
        return row.handler(args)
    planes = row.planes(args) if row.planes is not None else {}
    with _platform(args, **planes) as platform:
        result = row.handler(platform, args)
    return result if row.printer is None else row.printer(platform, args, result)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _execute(args.handler, args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OaasError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON argument: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
