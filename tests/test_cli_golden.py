"""Output parity for ``ocli``: every subcommand, byte for byte.

Each case runs ``main(argv)`` in-process with object ids and request ids
made deterministic (``uuid.uuid4`` replaced by a counter in the two
modules that mint ids, the request sequence restarted), then compares
stdout, stderr and the exit code with ``tests/golden/cli/<case>.txt``.
The second test pins the parser surface: every subcommand's options
with their dest, default, type, choices, required flag and action.

Regenerate the golden files (only when an output change is intended)::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.platform.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "cli"
CHAOS_DEMO = str(REPO_ROOT / "examples" / "packages" / "chaos_demo.yaml")
FLEET = str(REPO_ROOT / "examples" / "packages" / "fleet_dashboard.yaml")
LEDGER = ["--auto-handlers", "--new", "Ledger", "--invoke", "add"]
FLEET_QUERY = [
    "--auto-handlers", "--new", "Vehicle",
    "--create", '{"battery_pct": 17, "region": "eu-west"}',
    "--create", '{"battery_pct": 80, "region": "us-east"}',
    "--where", "battery_pct<=20", "--explain",
]

#: case name -> argv.  Names avoid the word "chaos": conftest skips any
#: test carrying that keyword.
CASES: dict[str, list[str]] = {
    "validate": ["validate", CHAOS_DEMO],
    "show": ["show", CHAOS_DEMO],
    "templates": ["templates"],
    "run": ["run", CHAOS_DEMO, *LEDGER, "--invoke", 'add:{"n": 2}'],
    "trace": ["trace", CHAOS_DEMO, *LEDGER],
    "events": ["events", CHAOS_DEMO, *LEDGER],
    "report": ["report", CHAOS_DEMO, *LEDGER],
    "report-json": ["report", CHAOS_DEMO, *LEDGER, "--json"],
    "fault-plan": ["chaos", CHAOS_DEMO, *LEDGER, "--plan", "node-crash"],
    "qos": ["qos", CHAOS_DEMO, *LEDGER],
    "metrics": ["metrics", CHAOS_DEMO, *LEDGER, "--rounds", "10"],
    "slo-node-crash": ["slo", CHAOS_DEMO, *LEDGER, "--chaos", "node-crash"],
    "workers-drain": ["workers", CHAOS_DEMO, *LEDGER, "--drain", "worker-1"],
    "workers-crash": ["workers", CHAOS_DEMO, *LEDGER, "--crash", "worker-2"],
    "snapshot": ["snapshot", CHAOS_DEMO, *LEDGER],
    "restore": ["restore", CHAOS_DEMO, *LEDGER],
    "migrate": ["migrate", CHAOS_DEMO, *LEDGER, "--to", "core"],
    "query-dict": ["query", FLEET, *FLEET_QUERY],
    "query-sqlite": ["query", FLEET, *FLEET_QUERY, "--backend", "sqlite"],
    "serve": ["serve", CHAOS_DEMO, *LEDGER, "--requests", "8", "--pool", "2",
              "--concurrency", "1"],
    "no-handlers": ["run", CHAOS_DEMO, "--new", "Ledger"],
    "missing-file": ["validate", str(REPO_ROOT / "examples" / "packages" / "ghost.yaml")],
    "unknown-cls": ["show", CHAOS_DEMO, "--cls", "Ghost"],
}


class _Uuid:
    """Stands in for the ``uuid`` module: ``uuid4().hex`` counts up."""

    def __init__(self) -> None:
        self._seq = itertools.count(1)

    def uuid4(self):
        return mock.Mock(hex=f"{next(self._seq):032x}")


def _keep(case: str, line: str) -> bool:
    if "kernel_dispatches_seconds" in line:  # wall clock
        return False
    if case == "serve":  # wall-clock ports and timings: statuses, ledger and fencing only
        return line.startswith(("HTTP statuses:", "ledger:", "count="))
    return True


def run_case(case: str) -> str:
    """One case rendered as the golden file's text."""
    import repro.invoker.engine as engine
    import repro.invoker.request as request
    import repro.object.obj as obj

    fake = _Uuid()
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(engine, "uuid", fake), mock.patch.object(
        obj, "uuid", fake
    ), mock.patch.object(request, "_request_seq", itertools.count(1)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(CASES[case]))

    def keep(text: str) -> str:
        text = text.replace(str(REPO_ROOT), "<repo>")
        return "".join(
            line for line in text.splitlines(keepends=True) if _keep(case, line)
        )

    return f"exit: {code}\n--- stdout\n{keep(out.getvalue())}--- stderr\n{keep(err.getvalue())}"


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(case):
    expected = (GOLDEN_DIR / f"{case}.txt").read_text()
    assert run_case(case) == expected


def parser_surface() -> dict[str, list[list]]:
    """Per subcommand: each option's (option_strings, dest, default,
    type, choices, required, action), sorted by dest — the option set,
    not the order ``--help`` lists it in."""
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    surface = {}
    for name, cmd in sorted(sub.choices.items()):
        surface[name] = sorted(
            (
                [
                    list(a.option_strings),
                    a.dest,
                    a.default,
                    getattr(a.type, "__name__", a.type),
                    list(a.choices) if a.choices is not None else None,
                    a.required,
                    type(a).__name__,
                ]
                for a in cmd._actions
            ),
            key=lambda option: option[1],
        )
    return surface


def test_parser_surface_is_pinned():
    expected = json.loads((GOLDEN_DIR / "parser_surface.json").read_text())
    assert json.loads(json.dumps(parser_surface())) == expected


if __name__ == "__main__":  # regenerate the golden files
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        (GOLDEN_DIR / f"{name}.txt").write_text(run_case(name))
        print(f"wrote {name}", file=sys.stderr)
    rows = ",\n".join(
        f"  {json.dumps(name)}: [\n" + ",\n".join(
            f"    {json.dumps(option)}" for option in options
        ) + "\n  ]"
        for name, options in parser_surface().items()
    )
    (GOLDEN_DIR / "parser_surface.json").write_text("{\n" + rows + "\n}\n")
