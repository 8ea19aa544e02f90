"""``ocli`` owns the platform's lifetime: no acknowledged write is left
behind on an exit the CLI controls.

The class under test is ``Cart`` from ``durability_demo.yaml``: its
``standard`` persistence level rides write-behind, so a commit is
acknowledged before the store holds it and only a drain at exit (the
platform's ``shutdown()``) lands it in the SQLite file.  Each case
reopens the file with plain ``sqlite3`` and counts what is there: after
a normal end of run, after Ctrl-C on ``serve --linger``, and after a
query that fails.  ``kill -9`` and SIGTERM are not exits the CLI
controls (``tests/test_sqlite_durability.py`` covers ``strong`` there).
"""

from __future__ import annotations

import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.platform.cli import main

from tests.test_sqlite_durability import REPO_ROOT, _request

PACKAGE = str(Path(REPO_ROOT) / "examples" / "packages" / "durability_demo.yaml")

HANDLERS = """
def register(platform):
    @platform.function("cart/add", service_time_s=0.001)
    def add(ctx):
        ctx.state["items"] = ctx.state.get("items", 0) + 1
        return {"items": ctx.state["items"]}

    @platform.function("ledger/add", service_time_s=0.001)
    def ledger_add(ctx):
        return dict(ctx.payload)
"""


def _carts(db) -> list[dict]:
    with sqlite3.connect(db) as conn:
        rows = conn.execute('SELECT doc FROM "objects.Cart"').fetchall()
    return [json.loads(doc) for (doc,) in rows]


def test_serve_lands_every_acknowledged_write(tmp_path, monkeypatch, capsys):
    (tmp_path / "cart_handlers.py").write_text(HANDLERS)
    monkeypatch.syspath_prepend(str(tmp_path))
    db = tmp_path / "carts.db"
    code = main([
        "serve", PACKAGE, "--handlers", "cart_handlers:register",
        "--new", "Cart", "--invoke", "add", "--requests", "20", "--pool", "2",
        "--backend", "sqlite", "--db", str(db),
    ])
    assert code == 0
    assert "HTTP statuses: 200x20" in capsys.readouterr().out
    [cart] = _carts(db)
    assert cart["state"]["items"] == 20


def test_query_error_still_lands_the_creates(tmp_path, capsys):
    db = tmp_path / "carts.db"
    code = main([
        "query", PACKAGE, "--auto-handlers", "--new", "Cart",
        "--create", '{"items": 1}', "--create", '{"items": 2}',
        "--where", "nope<=20", "--backend", "sqlite", "--db", str(db),
    ])
    assert code == 1
    assert "nope" in capsys.readouterr().err
    assert len(_carts(db)) == 3


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_ctrl_c_on_linger_lands_the_creates(tmp_path):
    db = tmp_path / "carts.db"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [f"{REPO_ROOT}/src", env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.platform.cli", "serve", PACKAGE,
            "--auto-handlers", "--new", "Cart", "--linger", "--pool", "2",
            "--backend", "sqlite", "--db", str(db),
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        match = re.search(r"http://([\d.]+):(\d+)", proc.stdout.readline())
        assert match
        host, port = match.group(1), int(match.group(2))
        for items in (1, 2, 3):
            status, body = _request(
                host, port, "POST", "/api/classes/Cart", {"state": {"items": items}}
            )
            assert status == 201, body
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, err
    assert sorted(c["state"]["items"] for c in _carts(db)) == [1, 2, 3]
