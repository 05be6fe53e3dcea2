"""Verdict oracle: decides, per report entry, whether ndcheck's verdict is
one the benchmark accepts.

An entry counts as failed when

* its verdict is ``Error``;
* a passing verdict carries the wrong test count;
* it is ``Falsified`` but is not one of the corpus's deliberately broken
  properties, or its counterexample does not fail a plain-Python re-check;
* its warm-pass rendering differs from the cold one (checked by the caller).

Errors are failed operations; every other finding is a wrong answer and
also makes the run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Verdict kinds as ndcheck.runner names them.  Not imported from there: the
# worker imports this module before it times ndcheck's import.
ERROR = "Error"
PASSED = "Passed"
PASSED_EXHAUSTIVE = "PassedExhaustive"
EXHAUSTED = "Exhausted"
FALSIFIED = "Falsified"
SKIPPED_PROVED = "SkippedProved"


def _sort_impl():
    from ndcheck.corpus.sort import quicksort

    return quicksort


def _conc_breaks(args) -> bool:
    xs, ys = args
    return xs + ys != ys + xs


def _sort_spec_breaks(xs) -> bool:
    return _sort_impl()(list(xs)) != sorted(xs)


def _sort_length_breaks(xs) -> bool:
    return len(_sort_impl()(list(xs))) != len(xs)


# The README's deliberately broken properties, each with a re-check that is
# True iff the counterexample really violates the property.
BROKEN = {
    ("ConcDup", "concIsCommutative"): _conc_breaks,
    ("Sort", "sortSatisfiesSpecification"): _sort_spec_breaks,
    ("Sort", "sortSatisfiesPostCondition"): _sort_length_breaks,
    ("Sort", "sortlength"): _sort_length_breaks,
}

# Test inputs of finite domains: an exhaustive pass must run exactly these.
FINITE_DOMAINS = {("BoolTest", "negOr"): 4}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0            # failures that are wrong answers, not Errors
    missed_broken: int = 0    # broken properties that passed (informational)
    problems: list[str] = field(default_factory=list)

    def flag(self, where: str, reason: str, wrong: bool = True) -> None:
        self.failed += 1
        self.wrong += int(wrong)
        self.problems.append(f"{where}: {reason}")

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.missed_broken += other.missed_broken
        self.problems += other.problems


def check_entry(entry, single_case: bool, max_tests: int, drop_limit: int, tally: Tally) -> None:
    """Judge one TestEntry.  single_case is True for unit and io specs,
    which run their property exactly once."""
    tally.attempted += 1
    v = entry.verdict
    key = (entry.module, entry.name.removesuffix("_ON_BASETYPE"))
    where = f"{entry.module}.{entry.name}"
    if v.kind == ERROR:
        tally.flag(where, f"Error: {v.message}", wrong=False)
    elif v.kind == PASSED:
        want = 1 if single_case else max_tests
        if v.tests_executed != want:
            tally.flag(where, f"Passed after {v.tests_executed} tests, expected {want}")
        elif key in BROKEN:
            tally.missed_broken += 1
    elif v.kind in (PASSED_EXHAUSTIVE, EXHAUSTED):
        # the input domain ended, or the drop limit did
        size = FINITE_DOMAINS.get(key)
        if size is not None:
            if v.kind != PASSED_EXHAUSTIVE or v.tests_executed != size:
                tally.flag(where, f"{v.kind} after {v.tests_executed} tests, domain has {size}")
        elif v.tests_dropped != drop_limit:
            tally.flag(where, f"{v.kind} with {v.tests_dropped} drops on an infinite domain")
    elif v.kind == FALSIFIED:
        recheck = BROKEN.get(key)
        if recheck is None:
            tally.flag(where, f"falsified by {v.arguments}, but the property holds")
        elif not recheck(v.counterexample):
            tally.flag(where, f"counterexample {v.counterexample!r} does not fail the re-check")
    elif v.kind != SKIPPED_PROVED:
        tally.flag(where, f"unknown verdict {v.kind!r}")


def check_report(report, single_case_names: set, max_tests: int, drop_limit: int) -> Tally:
    tally = Tally()
    for entry in report.entries:
        check_entry(entry, (entry.module, entry.name) in single_case_names, max_tests, drop_limit, tally)
    return tally


def check_rerun(cold, warm, tally: Tally) -> None:
    """Flag every warm-pass entry that differs from its cold-pass twin."""
    if len(cold.entries) != len(warm.entries):
        tally.attempted += 1
        tally.flag("report", "warm report has a different number of entries")
        return
    for c, w in zip(cold.entries, warm.entries):
        if c != w:
            tally.flag(f"{w.module}.{w.name}", "warm verdict differs from the cold one")
