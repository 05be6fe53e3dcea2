"""Print the sha256 of each of the 48 whole-corpus reports.

    python3 tools/report_digests.py | diff tools/report_digests.txt -

Every bundled suite is run through ``python -m ndcheck.cli`` in a fresh
process, under ``PYTHONHASHSEED=0``, for each strategy (rdiag, diag, bfs),
seed (0-3), report format (text, json) and test count (the default and
``--maxtests 40``).  Each line names the run, its exit status and the
sha256 of its stdout.  ``tools/report_digests.txt`` holds the lines of the
committed code: a change that moves a byte of any report shows up as a
diff.  Stdlib only; run from anywhere, with any interpreter that runs
ndcheck.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
STRATEGIES = ("rdiag", "diag", "bfs")
SEEDS = (0, 1, 2, 3)
FORMATS = ("text", "json")
MAX_TESTS = (None, 40)


def main() -> int:
    if len(sys.argv) > 1:
        print(f"usage: {sys.argv[0]} (takes no options)", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    for strategy in STRATEGIES:
        for seed in SEEDS:
            for fmt in FORMATS:
                for max_tests in MAX_TESTS:
                    argv = ["--strategy", strategy, "--seed", str(seed), "--format", fmt]
                    if max_tests is not None:
                        argv += ["--maxtests", str(max_tests)]
                    run = subprocess.run(
                        [sys.executable, "-m", "ndcheck.cli", *argv],
                        env=env, capture_output=True, check=False,
                    )
                    if run.stderr:
                        sys.stderr.buffer.write(run.stderr)
                    digest = hashlib.sha256(run.stdout).hexdigest()
                    print(f"{digest} exit={run.returncode} {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
