"""Attribute a cProfile run to platform layers.

Sim-path layers are generators resumed by ``sim.kernel``: timing a
public call such as ``Dht.get()`` measures only the creation of a
process, not the work.  So the traced run profiles a fixed number of
ops and sums *self* time and call counts by the module a function's
source file belongs to.  No private name is pinned — a refactor moves
time between layers, it does not break the table.

A generic builtin (``len``, ``dict.get``, ``heappush`` ...) has no
module of its own; its self time is charged to the layer of the
function that called it, which cProfile records per caller.  Builtins
that *are* a layer (md5, the sqlite3 and socket methods) keep their own.
"""

from __future__ import annotations

import cProfile
import sys
from pathlib import Path
from typing import Any

HARNESS_DIR = str(Path(__file__).resolve().parent)

#: (path prefix under ``repro/``, layer).  First match wins.
_REPRO_PREFIXES = (
    ("sim/kernel", "sim.kernel"),
    ("sim/network", "sim.network"),
    ("sim/resources", "sim.resources"),
    ("platform/httpfront", "platform.httpfront"),
    ("platform/", "platform.gateway"),
    ("invoker/queue", "invoker.queue"),
    ("invoker/", "invoker.engine"),
    ("messaging/", "messaging"),
    ("storage/hashring", "storage.hashring"),
    ("storage/kv", "storage.kv"),
    ("storage/write_behind", "storage.write_behind"),
    ("storage/backends/", "storage.backends"),
    ("storage/query", "storage.query"),
    ("storage/object_store", "storage.kv"),
    ("storage/", "storage.dht"),
    ("faas/", "faas"),
    ("orchestrator/", "faas"),
    ("crm/", "crm"),
    ("model/", "crm"),
    ("object/", "object"),
    ("monitoring/", "monitoring"),
    ("qos/", "qos"),
    ("durability/", "durability"),
    ("scheduler/transport/", "scheduler.transport"),
    ("scheduler/", "scheduler"),
    ("federation/", "federation"),
)

#: (substring of a stdlib source path, layer).
_STDLIB_FILES = (
    ("/copy.py", "stdlib.copy"),
    ("/copyreg.py", "stdlib.copy"),
    ("/json/", "stdlib.json"),
    ("/dataclasses.py", "stdlib.dataclasses"),
    ("/hashlib.py", "stdlib.hashlib"),
    ("/sqlite3/", "stdlib.sqlite3"),
    ("/asyncio/", "stdlib.asyncio"),
    ("/selectors.py", "stdlib.asyncio"),
)

IDLE = "idle"  # the event loop waiting in epoll: nobody's CPU time

#: (substring of a builtin's repr, layer).  Anything else is generic and
#: is charged to its caller.
_BUILTINS = (
    ("_hashlib", "stdlib.hashlib"),
    ("_md5", "stdlib.hashlib"),
    ("sqlite3", "stdlib.sqlite3"),
    ("_json", "stdlib.json"),
    ("select.epoll", IDLE),
    ("_socket", "stdlib.asyncio"),
    ("_asyncio", "stdlib.asyncio"),
)

LAYERS = (
    "sim.kernel",
    "sim.network",
    "sim.resources",
    "platform.gateway",
    "platform.httpfront",
    "invoker.engine",
    "invoker.queue",
    "messaging",
    "storage.dht",
    "storage.hashring",
    "storage.kv",
    "storage.write_behind",
    "storage.backends",
    "storage.query",
    "faas",
    "crm",
    "object",
    "monitoring",
    "qos",
    "durability",
    "scheduler",
    "scheduler.transport",
    "federation",
    "stdlib.copy",
    "stdlib.json",
    "stdlib.dataclasses",
    "stdlib.hashlib",
    "stdlib.sqlite3",
    "stdlib.asyncio",
    "harness",
    "other",
)


def _generated_code() -> dict[Any, str]:
    """Dataclass-generated methods compile from ``<string>``; map their
    code objects back to the layer of the class that owns them."""
    owners: dict[Any, str] = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.") or module is None:
            continue
        source = getattr(module, "__file__", None)
        if not source:
            continue
        layer = layer_of_file(source)
        for value in vars(module).values():
            if not isinstance(value, type) or value.__module__ != name:
                continue
            for attr in vars(value).values():
                code = getattr(attr, "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    owners[code] = layer
    return owners


def layer_of_file(filename: str) -> str:
    path = filename.replace("\\", "/")
    if path.startswith(HARNESS_DIR):
        return "harness"
    marker = path.rfind("/repro/")
    if marker >= 0:
        relative = path[marker + len("/repro/"):]
        for prefix, layer in _REPRO_PREFIXES:
            if relative.startswith(prefix):
                return layer
        return "other"
    for needle, layer in _STDLIB_FILES:
        if needle in path:
            return layer
    return "other"


def _builtin_layer(label: str) -> str | None:
    for needle, layer in _BUILTINS:
        if needle in label:
            return layer
    return None


def attribute(profile: cProfile.Profile) -> dict[str, Any]:
    """Fold a finished profile into per-layer self seconds and calls.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n}, "idle_s": s,
    "total_calls": n, "deepcopy_top_level": n, "md5": n}``.
    """
    generated = _generated_code()
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    idle_s = 0.0
    total_calls = 0
    deepcopy_top_level = 0
    md5 = 0
    for entry in profile.getstats():
        code = entry.code
        total_calls += entry.callcount
        if isinstance(code, str):
            layer = _builtin_layer(code)
            if layer is None:
                continue  # generic builtin: charged to its callers below
            if layer == IDLE:
                idle_s += entry.inlinetime
                continue
            if "openssl_md5" in code or "_md5.md5" in code:
                md5 += entry.callcount
        else:
            layer = generated.get(code) or layer_of_file(code.co_filename)
            if code.co_name == "deepcopy" and layer == "stdlib.copy":
                # callcount - reccallcount = calls that were not recursive.
                deepcopy_top_level += entry.callcount - entry.reccallcount
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str) and _builtin_layer(sub.code) is None:
                self_s[layer] += sub.inlinetime
    return {
        "self_s": self_s,
        "calls": calls,
        "idle_s": idle_s,
        "total_calls": total_calls,
        "deepcopy_top_level": deepcopy_top_level,
        "md5": md5,
    }


def layer_metrics(folded: dict[str, Any], ops: int, traced_s: float) -> dict[str, float]:
    """``<layer>.self_us_per_op`` and ``<layer>.calls_per_op`` of a
    profiled phase of ``ops`` requests that took ``traced_s`` host
    seconds, and the counts every profile yields."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_us_per_op"] = folded["self_s"][layer] * 1e6 / ops
        out[f"{layer}.calls_per_op"] = folded["calls"][layer] / ops
    out["stdlib.asyncio.idle_us_per_op"] = folded["idle_s"] * 1e6 / ops
    out["stdlib.copy.deepcopy_per_op"] = folded["deepcopy_top_level"] / ops
    out["stdlib.hashlib.md5_per_op"] = folded["md5"] / ops
    out["trace.py_calls_per_op"] = folded["total_calls"] / ops
    out["trace.coverage_ratio"] = (sum(folded["self_s"].values()) + folded["idle_s"]) / traced_s
    return out
