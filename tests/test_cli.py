"""Tests for the ocli command-line interface."""

from pathlib import Path

import pytest

from repro.platform.cli import main

from tests.conftest import LISTING1_YAML


@pytest.fixture
def pkg_file(tmp_path):
    path = tmp_path / "pkg.yml"
    path.write_text(LISTING1_YAML)
    return str(path)


class TestValidate:
    def test_valid_package(self, pkg_file, capsys):
        assert main(["validate", pkg_file]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "LabelledImage" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "ghost.yml")]) == 1
        assert "error" in capsys.readouterr().err

    def test_broken_package(self, tmp_path, capsys):
        path = tmp_path / "bad.yml"
        path.write_text("classes:\n  - name: A\n    parent: Missing\n")
        assert main(["validate", str(path)]) == 1


class TestShow:
    def test_show_all(self, pkg_file, capsys):
        assert main(["show", pkg_file]) == 0
        out = capsys.readouterr().out
        assert "class Image" in out
        assert "ancestry: LabelledImage -> Image" in out

    def test_show_single_class(self, pkg_file, capsys):
        assert main(["show", pkg_file, "--cls", "Image"]) == 0
        out = capsys.readouterr().out
        assert "class Image" in out
        assert "class LabelledImage" not in out

    def test_show_unknown_class(self, pkg_file, capsys):
        assert main(["show", pkg_file, "--cls", "Ghost"]) == 1


class TestTemplates:
    def test_lists_catalog(self, capsys):
        assert main(["templates"]) == 0
        out = capsys.readouterr().out
        for name in ("default", "low-latency", "in-memory-ephemeral"):
            assert name in out


class TestRun:
    def test_run_with_auto_handlers(self, pkg_file, capsys):
        code = main(
            [
                "run",
                pkg_file,
                "--auto-handlers",
                "--new",
                "Image",
                "--invoke",
                'resize:{"width": 10}',
                "--invoke",
                "changeFormat",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "created Image~" in out
        assert "invoke resize: ok" in out
        assert "invoke changeFormat: ok" in out

    def test_run_requires_handlers(self, pkg_file, capsys):
        assert main(["run", pkg_file, "--new", "Image"]) == 2
        assert "handlers" in capsys.readouterr().err

    def test_run_reports_failures(self, pkg_file, capsys):
        code = main(
            ["run", pkg_file, "--auto-handlers", "--new", "Image", "--invoke", "ghost"]
        )
        assert code == 0
        assert "FAILED" in capsys.readouterr().out

    def test_run_with_handlers_module(self, pkg_file, tmp_path, capsys, monkeypatch):
        module = tmp_path / "my_handlers.py"
        module.write_text(
            "def register(platform):\n"
            "    for image in ('img/resize', 'img/change-format', 'img/detect-object'):\n"
            "        platform.register_image(image, lambda ctx: {'ok': True})\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        code = main(
            ["run", pkg_file, "--handlers", "my_handlers:register", "--new", "Image"]
        )
        assert code == 0

    def test_run_bad_handlers_spec(self, pkg_file, capsys):
        assert main(["run", pkg_file, "--handlers", "nocolon", "--new", "Image"]) == 2


WORKLOAD = ["--auto-handlers", "--new", "Image", "--invoke", 'resize:{"width": 4}']


class TestTrace:
    def test_prints_span_tree(self, pkg_file, capsys):
        assert main(["trace", pkg_file, *WORKLOAD]) == 0
        out = capsys.readouterr().out
        assert "trace req-" in out
        for name in ("gateway POST", "invoke resize", "state.load", "faas.execute"):
            assert name in out

    def test_chrome_export_to_stdout(self, pkg_file, capsys):
        import json

        assert main(["trace", pkg_file, *WORKLOAD, "--chrome", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traceEvents"]

    def test_chrome_export_to_file(self, pkg_file, tmp_path, capsys):
        import json

        out_file = tmp_path / "trace.json"
        assert main(["trace", pkg_file, *WORKLOAD, "--chrome", str(out_file)]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        assert any(e["name"].startswith("gateway ") for e in doc["traceEvents"])


class TestEvents:
    def test_prints_control_plane_events(self, pkg_file, capsys):
        assert main(["events", pkg_file, *WORKLOAD]) == 0
        out = capsys.readouterr().out
        for event_type in ("scheduler.place", "pod.ready", "class.deploy"):
            assert event_type in out
        assert "event(s):" in out

    def test_type_filter(self, pkg_file, capsys):
        assert main(["events", pkg_file, *WORKLOAD, "--type", "scheduler.place"]) == 0
        out = capsys.readouterr().out
        assert "scheduler.place" in out
        assert "class.deploy" not in out


class TestReport:
    def test_text_report(self, pkg_file, capsys):
        assert main(["report", pkg_file, *WORKLOAD]) == 0
        out = capsys.readouterr().out
        assert "NFR compliance" in out
        assert "Image" in out
        assert "met" in out

    def test_json_report(self, pkg_file, capsys):
        import json

        assert main(["report", pkg_file, *WORKLOAD, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "spans" in doc
        assert "nfr" in doc


CHAOS_DEMO = str(
    Path(__file__).resolve().parent.parent / "examples" / "packages" / "chaos_demo.yaml"
)

#: (ocli arguments before the package, extra arguments) -> headline lines
#: the run must print.  Simulated time, so the numbers are exact.
PLANE_COMMANDS = {
    "qos": (
        ["qos"],
        [
            "workload: 60 ok / 0 rejected / 0 failed over 60 rounds "
            "(+240 async submissions)",
            "  fair_queue: pushed=240 served=240 depth=0 shed_by_class=-",
        ],
    ),
    # Not "chaos": conftest skips anything carrying that keyword.
    "fault-plan": (
        ["chaos", "--plan", "node-crash"],
        [
            "workload: 60 ok / 0 rejected / 0 failed over 60 rounds",
            "  injected=1 recovered=1 active_faults=0 fault_time_s=6.0",
        ],
    ),
    "workers-drain": (
        ["workers", "--drain", "worker-1"],
        [
            "draining worker-1 at t=2.865s",
            "workload: 40 ok / 0 rejected / 0 failed over 40 rounds "
            "(+160 async submissions)",
            "  ledger: accepted=160 completed=160 outstanding=0 requeues=0 suppressed=0",
            "  retained_completions=160 late=0 dispatched=160 delivered=160 heartbeats=44 "
            "parked=0 parked_total=0 registrations=5 live_workers=4 retired=1",
            "  [    2.8649s] scheduler.dead       worker=worker-1 reason=drained requeued=0",
            "  [    2.8649s] scheduler.register   worker=worker-4 node=vm-1",
        ],
    ),
    "workers-crash": (
        ["workers", "--crash", "worker-2"],
        [
            "crashed worker-2 at t=2.865s",
            "  ledger: accepted=160 completed=160 outstanding=0 requeues=0 suppressed=0",
            "  [    2.8649s] scheduler.dead       worker=worker-2 reason=cli requeued=0",
        ],
    ),
    "snapshot": (
        ["snapshot"],
        [
            "      seq=1 dirty=0 generation_count=1 commits_recorded=1 epoch_writes=0 "
            "cuts_taken=1 cuts_skipped=1 docs_captured=1 snapshot_bytes=388 gc_generations=0 "
            "recoveries=0 restores=0 last_recovery=-",
        ],
    ),
    "restore": (
        ["restore"],
        ["restored: class=Ledger generation=1 cut_time=1.0 restored=1 purged=0"],
    ),
    "migrate": (
        ["migrate", "--to", "core"],
        [
            # The object id is a uuid, so where it starts out varies.
            "post-migration owner: vm-2, version 1",
            "  placement=nfr migrations_total=1 migrations_failed=0 accesses_total=0 "
            "cross_zone_total=0 rejections_total=0 classes=-",
        ],
    ),
}


@pytest.mark.parametrize("case", PLANE_COMMANDS)
def test_plane_command_on_chaos_demo(case, capsys):
    (command, *options), headlines = PLANE_COMMANDS[case]
    argv = [command, CHAOS_DEMO, "--auto-handlers", "--new", "Ledger", "--invoke", "add"]
    assert main(argv + options) == 0
    lines = capsys.readouterr().out.splitlines()
    for headline in headlines:
        assert headline in lines
