"""Chaos test: SIGKILL a parallel ``run all`` campaign mid-flight, resume
it from the checkpoint directory, and require the final output to be
byte-identical to an uninterrupted serial run.

This is the end-to-end guarantee the whole robustness layer exists for:
atomic journal writes mean a kill at any instant leaves only complete
records; per-task determinism means the resumed remainder recomputes to
exactly what it would have been; task-order assembly means the combined
JSON cannot depend on which half ran before the kill.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.runner import experiment_names

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def _run_cli(args, json_path):
    code = main(list(args) + ["--json", str(json_path)])
    assert code == 0
    return json_path.read_bytes()


def _live_cli_processes(marker):
    """PIDs of live (non-zombie) ``repro.cli`` processes with *marker* as
    one of their arguments."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            argv = (entry / "cmdline").read_bytes().split(b"\0")
            stat = (entry / "stat").read_text()
        except OSError:  # exited while we looked
            continue
        state = stat.rsplit(")", 1)[1].split()[0]
        if state != "Z" and b"repro.cli" in argv and marker.encode() in argv:
            pids.append(int(entry.name))
    return pids


def _assert_no_orphaned_workers(marker):
    """Pool workers must not outlive their SIGKILLed parent: an orphan
    would block on the call queue forever."""
    if not Path("/proc").is_dir():
        return  # no process table to inspect on this platform
    deadline = time.monotonic() + 30
    while _live_cli_processes(marker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _live_cli_processes(marker) == []


@pytest.mark.slow
class TestKillAndResume:
    def test_killed_parallel_run_resumes_byte_identical(self, tmp_path):
        serial_json = tmp_path / "serial.json"
        serial_bytes = _run_cli(
            ["run", "all", "--scale", "quick", "--seed", "3"], serial_json
        )

        ckpt = tmp_path / "ckpt"
        victim_json = tmp_path / "victim.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        victim = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "run", "all",
                "--scale", "quick", "--seed", "3", "--jobs", "4",
                "--resume", str(ckpt), "--json", str(victim_json),
            ],
            cwd=str(REPO_ROOT),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        total = len(experiment_names())
        # Kill once some — but not all — tasks are journaled. If the run
        # beats the poll to the finish line, that's fine: resume then just
        # restores everything, which still must be byte-identical.
        deadline = time.monotonic() + 120
        try:
            while time.monotonic() < deadline:
                if victim.poll() is not None:
                    break
                done = len(list(ckpt.glob("task-*.json")))
                if 1 <= done < total:
                    victim.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.02)
            victim.wait(timeout=120)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()

        _assert_no_orphaned_workers(str(ckpt))
        completed = len(list(ckpt.glob("task-*.json")))
        assert 0 < completed <= total

        resumed_json = tmp_path / "resumed.json"
        resumed_bytes = _run_cli(
            [
                "run", "all", "--scale", "quick", "--seed", "3",
                "--jobs", "4", "--resume", str(ckpt),
            ],
            resumed_json,
        )
        assert resumed_bytes == serial_bytes
        # Every task is journaled now; a third invocation is restore-only.
        assert len(list(ckpt.glob("task-*.json"))) == total

    def test_journal_has_no_partial_files_after_kill(self, tmp_path):
        """Atomic writes: whatever the kill left behind parses cleanly."""
        import json

        ckpt = tmp_path / "ckpt"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        victim = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "run", "all",
                "--scale", "quick", "--seed", "5", "--jobs", "4",
                "--resume", str(ckpt),
            ],
            cwd=str(REPO_ROOT),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 120
        try:
            while time.monotonic() < deadline:
                if victim.poll() is not None:
                    break
                if len(list(ckpt.glob("task-*.json"))) >= 1:
                    victim.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.02)
            victim.wait(timeout=120)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()

        _assert_no_orphaned_workers(str(ckpt))
        records = sorted(ckpt.glob("task-*.json"))
        assert records  # the poll saw at least one before killing
        for path in records:
            record = json.loads(path.read_text(encoding="utf-8"))
            assert {"key", "payload"} <= set(record)
