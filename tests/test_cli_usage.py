"""``ocli`` refuses input it would otherwise accept and then ignore or
mis-report: each is a usage error (exit 2) that names the flag, raised
before any platform is built."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.platform.cli import main
from repro.platform.oparaca import PlatformConfig

CHAOS_DEMO = str(
    Path(__file__).resolve().parent.parent / "examples" / "packages" / "chaos_demo.yaml"
)
LEDGER = ["--auto-handlers", "--new", "Ledger", "--invoke", "add"]


def test_db_without_sqlite_backend(tmp_path, capsys):
    db = tmp_path / "ignored.db"
    assert main(["run", CHAOS_DEMO, *LEDGER, "--db", str(db)]) == 2
    err = capsys.readouterr().err
    assert "--db" in err and "--backend sqlite" in err
    assert not db.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("qos", "--rounds", "-2"),
        ("workers", "--rounds", "-1"),
        ("metrics", "--interval", "-1"),
        ("slo", "--interval", "-0.5"),
        ("events", "--limit", "-12"),
        ("qos", "--async-per-round", "-2"),
        ("workers", "--async-per-round", "-1"),
        ("serve", "--requests", "-1"),
        ("run", "--nodes", "0"),
        ("qos", "--nodes", "-3"),
        ("serve", "--port", "70000"),
        ("serve", "--port", "-1"),
    ],
)
def test_negative_drive_options(command, flag, value, capsys):
    assert main([command, CHAOS_DEMO, *LEDGER, flag, value]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


def test_platform_config_refuses_an_empty_cluster():
    with pytest.raises(ValidationError, match="nodes must be >= 1"):
        PlatformConfig(nodes=0)


def test_zero_rounds_and_interval_stay_valid(capsys):
    assert main(["qos", CHAOS_DEMO, *LEDGER, "--rounds", "0", "--interval", "0"]) == 0
    assert "workload: 0 ok / 0 rejected / 0 failed over 0 rounds" in capsys.readouterr().out


def test_limit_zero_selects_no_events(capsys):
    assert main(["events", CHAOS_DEMO, *LEDGER, "--limit", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(no events)\n")
    assert "[" not in out
