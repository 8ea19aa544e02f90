"""The plane seam: the one base class every optional plane subclasses.

``Oparaca.__init__`` is the composition root — it constructs each plane
its config enables, explicitly — and keeps the ones it built in
``Oparaca.planes`` (name → plane, wiring order; a disabled plane is
simply absent).  Everything the platform does *after* construction is a
loop over that registry calling one of the hooks below, so the facade,
the gateway, the metrics scraper and the NFR report never name a plane.

Every hook defaults to "nothing", and a hook exists only while at least
two planes implement it (``docs/architecture.md`` has the table of who
implements what; ``tests/test_planes.py`` enforces the rule).

Per-request enforcement is *not* a hook: the code on an invocation's
path (gateway admission, the async queue, the CRM's deploy-time attach,
the DHT's commit tracker, the engine's geo-router) holds its plane
directly, so the hot path pays one attribute test, not a registry walk.

This module imports nothing from ``repro`` at run time, so any plane —
and the modules that walk the registry — can import it freely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.http import HttpRequest, HttpResponse
    from repro.monitoring.metrics import MetricsRegistry
    from repro.monitoring.nfr_table import Objective

__all__ = ["Plane"]


class Plane:
    """Base of the optional planes; override only the hooks that apply."""

    #: Registry key, ``observability_report()`` section and
    #: ``Oparaca.report(name)`` argument.
    name = ""

    def node_failed(self, node: str, stats: dict[str, dict[str, int]]) -> Any:
        """``Oparaca.fail_node`` hook, called after the DHT failover;
        ``stats`` is its per-class failover statistics."""

    def admin_route(self, http: HttpRequest) -> Generator | HttpResponse | None:
        """The plane's REST surface: a response, a sim generator that
        returns one, or ``None`` when the request is not the plane's.
        Walked only for requests the invocation route table does not
        know, so a plane route cannot shadow an invocation route."""
        return None

    def verdicts(self, cls: str, runtime: Any) -> list[Objective]:
        """The NFR-table rows this plane owns for one deployed class
        (``repro.monitoring.nfr_table``), read by the NFR report and
        the SLO evaluator alike."""
        return []

    def collect_metrics(self, registry: MetricsRegistry) -> None:
        """Metrics-plane pull hook: mirror statistics into ``registry``."""

    def stats(self) -> dict[str, Any]:
        """The plane's report section, JSON-friendly."""
        return {}

    def snapshot(self) -> dict[str, float]:
        """The plane's keys of the flat ``Oparaca.snapshot()``."""
        return {}

    def stop(self) -> Any:
        """Stop the plane's background loops (platform shutdown)."""
