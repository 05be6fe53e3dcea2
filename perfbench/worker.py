"""One benchmark round in a fresh process: set-up, a cold pass, warm reruns.

    python3 perfbench/worker.py WORKLOAD NDSEED MAXTESTS PASSES TRACE

WORKLOAD is corpus, int_lists or structured; NDSEED is the seed handed to
ndcheck; MAXTESTS the per-property test count (corpus, structured); PASSES the
number of passes, the cold one included; TRACE 1 wraps
ndcheck's layers before the cold pass.  The worker prints ``ready`` once
set-up is done, then one JSON line with the round's timings, verdict tally
and (traced) per-layer figures.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

class CliWorkload:
    """Suites selected and run through ``ndcheck.cli.main``, stdout captured."""

    def __init__(self, cli, registry, argv: list[str], selection: list[str], max_tests: int):
        self.cli, self.registry, self.argv = cli, registry, argv
        self.selection, self.max_tests = selection, max_tests
        self.drop_limit = 10_000
        self._reports: list = []

    def single_case(self) -> set:
        return {(s.module, s.name) for s in self.registry.specs_for(self.selection)
                if s.kind in ("unit", "io")}

    def capture_reports(self) -> None:
        """Keep each report cli.main builds, for the oracle."""
        run = self.cli.run_suite

        def run_suite(specs, cfg):
            self._reports.append(run(specs, cfg))
            return self._reports[-1]

        self.cli.run_suite = run_suite

    def run_pass(self):
        self._reports.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.cli.main(self.argv)
        return self._reports[-1], out.getvalue()


class SpecWorkload:
    """One spec built here and run with ``ndcheck.runner.run_suite``."""

    def __init__(self, runner, spec, cfg):
        self.runner, self.spec, self.cfg = runner, spec, cfg
        self.max_tests, self.drop_limit = cfg.max_tests, cfg.drop_limit

    def single_case(self) -> set:
        return set()

    def capture_reports(self) -> None:
        pass

    def run_pass(self):
        report = self.runner.run_suite([self.spec], self.cfg)
        return report, self.runner.render_report(report, "text")


def set_up(workload: str, ndseed: int, max_tests: int):
    """Import ndcheck (registering the bundled suites) and build the workload."""
    started = time.perf_counter()
    import ndcheck.cli as cli
    import ndcheck.registry as registry
    import ndcheck.runner as runner
    from ndcheck import BaseType, builtin, is_equal, list_of

    import_s = time.perf_counter() - started
    if workload == "corpus":
        argv = ["--maxtests", str(max_tests), "--seed", str(ndseed)]
        wl = CliWorkload(cli, registry, argv, [], max_tests)
    elif workload == "structured":
        argv = ["Trees", "--maxtests", str(max_tests), "--seed", str(ndseed)]
        wl = CliWorkload(cli, registry, argv, ["Trees"], max_tests)
    elif workload == "int_lists":
        spec = runner.TestSpec(
            name="trivial", module="Perf", line=1, kind=runner.PARAM,
            input_gen=list_of(builtin(BaseType.INT)),
            body=lambda xs: is_equal(xs, xs),
        )
        wl = SpecWorkload(runner, spec, runner.RunConfig(max_tests=10_000, seed=ndseed))
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    n_specs = sum(1 + len(s.by_base_type or ()) for s in registry.specs_for())
    return wl, import_s, n_specs


def peak_rss_mb() -> float:
    """Peak resident set of this process.  ``VmHWM`` starts afresh at exec;
    ``ru_maxrss`` can carry over the peak of the process that started this
    one, so it is only the fallback where ``/proc`` is missing."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    workload, ndseed, max_tests, n_passes, trace = argv[0], *map(int, argv[1:5])
    wl, import_s, n_specs = set_up(workload, ndseed, max_tests)
    print("ready", flush=True)

    tr = None
    if trace:
        tr = tracing.Tracer()
        tracing.install(tr)
        if isinstance(wl, SpecWorkload):
            wl.spec = tracing.trace_spec(wl.spec, tr)
    wl.capture_reports()
    single = wl.single_case()

    passes = []
    cold_report = cold_text = None
    tally = oracle.Tally()
    for i in range(n_passes):
        if tr is not None:
            tr.reset()
        if i > 0:
            # start each rerun from a collected heap, so that where the GC's
            # generation counters stand does not depend on the previous pass
            gc.collect()
        start = time.perf_counter()
        report, text = wl.run_pass()
        spent = time.perf_counter() - start
        entry = {"s": spent}
        tally.merge(oracle.check_report(report, single, wl.max_tests, wl.drop_limit))
        if i == 0:
            cold_report, cold_text = report, text
            entry["tests"] = sum(e.verdict.tests_executed + e.verdict.tests_dropped
                                 for e in report.entries)
        else:
            before = tally.failed
            oracle.check_rerun(cold_report, report, tally)
            if text != cold_text and tally.failed == before:
                tally.attempted += 1
                tally.flag("report", "warm report text differs from the cold one")
        if tr is not None:
            entry["layers"] = tracing.layer_metrics(tr, spent)
            if i == 0:
                entry["layers"]["gc.tracked_after_cold"] = len(gc.get_objects())
        passes.append(entry)

    result = {
        "workload": workload,
        "ndseed": ndseed,
        "import_s": import_s,
        "specs": n_specs,
        "passes": passes,
        "rss_mb": peak_rss_mb(),
        "tally": vars(tally),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
