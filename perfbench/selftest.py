"""Self-test of the benchmark's verdict oracle.

    python3 perfbench/selftest.py

Runs the ConcDup, Sort and BoolTest suites once (seed 0), checks that the
oracle accepts their real verdicts, then plants wrong verdicts into copies
of the report and checks that each one raises failed_share.  Exits 0 when
every planted fault is caught.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402


def share(tally: oracle.Tally) -> float:
    return tally.failed / tally.attempted


def main() -> int:
    from ndcheck import corpus, registry  # noqa: F401  (corpus registers the suites)
    from ndcheck.runner import RunConfig, TestReport, Verdict, run_suite

    cfg = RunConfig(seed=0)
    selection = ["ConcDup", "Sort", "BoolTest"]
    single = {(s.module, s.name) for s in registry.specs_for(selection) if s.kind in ("unit", "io")}
    report = run_suite(registry.specs_for(selection), cfg)

    def judge(rep) -> oracle.Tally:
        return oracle.check_report(rep, single, cfg.max_tests, cfg.drop_limit)

    base = judge(report)
    print(f"real report: failed_share {share(base):.3f} {base.problems}")
    ok = base.failed == 0

    def planted(name: str, **changes) -> TestReport:
        entries = tuple(
            replace(e, verdict=replace(e.verdict, **changes)) if e.name == name else e
            for e in report.entries
        )
        return TestReport(entries)

    falsified = Verdict("Falsified", tests_executed=1, case_index=1, arguments="[]", counterexample=[])
    cases = {
        "commuting counterexample": planted("concIsCommutative", counterexample=([1], [1])),
        "sorted-correctly counterexample": planted("sortlength", counterexample=[2, 1]),
        "falsified sound property": planted("concLength", **vars(falsified)),
        "wrong test count": planted("concAddLengths", tests_executed=99),
        "non-exhaustive finite domain": planted("negOr", tests_executed=3),
        "error verdict": planted("concCurry", kind="Error", message="planted"),
    }
    for label, rep in cases.items():
        tally = judge(rep)
        caught = share(tally) > share(base)
        ok &= caught
        print(f"{label}: failed_share {share(tally):.3f} {'caught' if caught else 'MISSED'}")

    rerun = judge(report)
    oracle.check_rerun(report, planted("concIsCommutative", case_index=5), rerun)
    caught = share(rerun) > share(base)
    ok &= caught
    print(f"warm verdict differs: failed_share {share(rerun):.3f} {'caught' if caught else 'MISSED'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
