"""The benchmark must keep working against the current source: its oracle's
self-test runs real suites and plants wrong verdicts, and its worker builds
each workload from ndcheck's own names and runs it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_oracle_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-test passed" in done.stdout


@pytest.mark.parametrize(
    "args",
    [
        # WORKLOAD NDSEED MAXTESTS PASSES TRACE; the traced run installs the tracer
        ["structured", "0", "20", "2", "1"],
        ["corpus", "0", "5", "2", "0"],
        ["int_lists", "0", "1", "1", "0"],
    ],
)
def test_worker_runs_each_workload(args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["workload"] == args[0]
    assert len(result["passes"]) == int(args[3])
    assert result["tally"]["failed"] == 0, result["tally"]["problems"]
