"""Test runner: binds generated inputs to properties, enforces budgets and
drop limits, detects exhaustive domains, and produces structured reports.

Externally supplied proofs exempt individual properties from checking: a
file ``proof-<name>.<ext>`` in the configured proof directory marks the
spec registered as <name> proved, and the run reports it as skipped.
"""

from __future__ import annotations

import gc
import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from .gen import BaseType, Generator
from .prop import (
    DROPPED,
    FALSIFIED,
    INCONCLUSIVE,
    SATISFIED,
    EvalContext,
    Outcome,
    Prop,
    gc_paused,
    keyed,
    not_a_prop,
)
from .searchtree import DEFAULT_NODE_BUDGET, Strategy, enumerate_tree
from .values import render_args

# spec kinds
UNIT = "unit"
PARAM = "param"
POLY = "poly"

# spec origins
USER = "user"
CONTRACT = "contract"

# verdicts
PASSED = "Passed"
PASSED_EXHAUSTIVE = "PassedExhaustive"
FALSIFIED_V = "Falsified"
EXHAUSTED_V = "Exhausted"
SKIPPED_PROVED = "SkippedProved"
ERROR = "Error"

_PASSING = (PASSED, PASSED_EXHAUSTIVE, SKIPPED_PROVED)

# the outcome status of a case that raised, or of a spec that cannot run
_ERRED = "erred"


@dataclass(frozen=True)
class TestSpec:
    """A registered, named, located test.

    kind selects the payload: a unit test (effectful ones included) carries
    a ready property; a parameterized test carries an input generator and a
    property-producing body; a polymorphic test carries the body and a
    gen_for that maps a base type to the input generator.
    """

    __test__ = False  # not a pytest class, despite the name

    name: str
    module: str
    line: int | None = None
    kind: str = UNIT
    prop: Prop | None = None
    input_gen: Generator | None = None
    body: Callable[..., Prop] | None = None
    arity: int = 1
    gen_for: Callable[[BaseType], Generator] | None = None
    origin: str = USER
    by_base_type = None  # not a field, so never set; read only by perfbench


@dataclass(frozen=True)
class RunConfig:
    max_tests: int = 100
    drop_limit: int = 10_000
    default_base_type: BaseType = BaseType.ORDERING
    strategy_kind: str = "rand_level_diag"
    seed: int = 0
    node_budget: int = DEFAULT_NODE_BUDGET
    value_budget: int = 10_000
    proof_dir: str | Path | None = None

    def __post_init__(self):
        if self.max_tests < 1:
            raise ValueError("max_tests must be >= 1")
        if self.drop_limit < 1:
            raise ValueError("drop_limit must be >= 1")
        if self.value_budget < 1:
            raise ValueError("value_budget must be >= 1")
        self.strategy  # raises ValueError on a bad kind or node budget

    @property
    def strategy(self) -> Strategy:
        return Strategy(self.strategy_kind, self.seed, self.node_budget)


@dataclass(frozen=True)
class Verdict:
    kind: str
    tests_executed: int = 0
    tests_dropped: int = 0
    case_index: int | None = None
    arguments: str | None = None
    results: str | None = None
    message: str | None = None
    proof_file: str | None = None
    counterexample: Any = None  # raw failing input, for re-evaluation


@dataclass(frozen=True)
class TestEntry:
    __test__ = False

    name: str
    module: str
    line: int | None
    verdict: Verdict
    labels: tuple[tuple[str, int], ...] = ()  # label frequency, sorted


@dataclass(frozen=True)
class TestReport:
    __test__ = False

    entries: tuple[TestEntry, ...]
    unused_proofs: tuple[str, ...] = ()  # proof files the run did not use, sorted

    @property
    def exit_code(self) -> int:
        return 0 if all(e.verdict.kind in _PASSING for e in self.entries) else 1

    def entry(self, name: str) -> TestEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _context(cfg: RunConfig, scratch: Path | None) -> EvalContext:
    return EvalContext(
        strategy=cfg.strategy,
        value_budget=cfg.value_budget,
        for_all_limit=cfg.max_tests,
        scratch_dir=scratch,
    )


def instantiate_poly(spec: TestSpec, cfg: RunConfig) -> TestSpec:
    """The parameterized instantiation for the configured base type, renamed.

    Non-polymorphic specs pass through unchanged.
    """
    if spec.kind != POLY:
        return spec
    return replace(
        spec,
        name=f"{spec.name}_ON_BASETYPE",
        kind=PARAM,
        input_gen=spec.gen_for(cfg.default_base_type),
    )


def _render_input(raw: Any, arity: int) -> str:
    """render_args, or a placeholder for an input too deep to render."""
    try:
        return render_args(raw, arity)
    except RecursionError:
        return "<input too deep to render>"


def run_param(spec: TestSpec, cfg: RunConfig, ctx: EvalContext | None = None) -> tuple[Verdict, Counter]:
    """Run one parameterized test: draw de-duplicated inputs, evaluate the
    body per input, and account executed and dropped cases.  Inputs of a
    generator marked distinct are drawn without keying them."""
    ctx = ctx or _context(cfg, None)
    gen, body, arity = spec.input_gen, spec.body, spec.arity
    assert gen is not None and body is not None
    max_tests, drop_limit = cfg.max_tests, cfg.drop_limit
    inputs = enumerate_tree(gen.tree, ctx.strategy)
    cursor = iter(inputs) if gen.distinct else (v for _, v in keyed(inputs))
    labels: Counter = Counter()
    executed = 0
    dropped = 0
    while True:
        try:
            raw = next(cursor)
        except StopIteration:
            break
        except Exception as exc:  # noqa: BLE001 - a failing generator is a verdict too
            # not rendered: the input itself may be what failed (too deep to key)
            where = f"while drawing input {executed + dropped + 1}"
            return _ended(Outcome(_ERRED, f"{_message(exc)} ({where})"), executed, dropped), labels
        try:
            prop = body(*raw) if arity > 1 else body(raw)
        except Exception as exc:  # noqa: BLE001 - a failing test body is a verdict
            out = Outcome(_ERRED, _message(exc))
        else:
            out = _check(prop, ctx, "body returned")
        if out.labels:
            labels.update(out.labels)
        if out.status == SATISFIED and executed + 1 < max_tests:
            executed += 1
        elif out.status == DROPPED and dropped + 1 < drop_limit:
            dropped += 1
        else:
            return _ended(out, executed, dropped, raw, arity), labels
    if inputs.budget_exceeded:
        detail = f"input generator exceeded the node budget after {executed} tests;"
        detail += " domain coverage undecided"
        return _ended(Outcome(INCONCLUSIVE, detail), executed, dropped), labels
    # A proof needs the whole domain; a run at the drop limit ended in the
    # loop, before the walk did.
    kind = PASSED_EXHAUSTIVE if executed and inputs.exhausted else EXHAUSTED_V
    return Verdict(kind, executed, dropped), labels


def _message(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _check(prop: Prop, ctx: EvalContext, what: str) -> Outcome:
    """prop's outcome in ctx, or an erred one if its check raised; what
    says what prop is, for not_a_prop."""
    try:
        return prop.check(ctx)
    except Exception as exc:  # noqa: BLE001 - a failing check is a verdict
        return Outcome(_ERRED, _message(not_a_prop(exc, prop, what)))


def _ended(out: Outcome, executed: int, dropped: int, raw: Any = None, arity: int | None = None) -> Verdict:
    """The verdict of a run whose last case had outcome out, after executed
    passing and dropped cases before it.  A pass or a drop ends a run only
    at its limit; an inconclusive or erred outcome is an Error.  raw is the
    case's input, of the given arity; a unit test's case and an end outside
    any case have none (arity None)."""
    status = out.status
    if status == SATISFIED:
        return Verdict(PASSED, executed + 1, dropped)
    if status == DROPPED:
        return Verdict(EXHAUSTED_V, executed, dropped + 1)
    shown = out.arguments if arity is None else _render_input(raw, arity)
    if status == FALSIFIED:
        return Verdict(
            FALSIFIED_V, executed + 1, dropped, case_index=executed + 1,
            arguments=shown, results=out.results, counterexample=raw,
        )
    message = out.detail if arity is None else f"{out.detail} (input {shown})"
    return Verdict(ERROR, executed, dropped, message=message)


def run_suite(specs: list[TestSpec], cfg: RunConfig) -> TestReport:
    """Execute the given specs in registration order under one configuration.

    A spec whose registered name has a proof file (if a proof directory is
    configured) gets a skipped entry; every other spec gets exactly one
    verdict.  The report names the proof files the run did not use: those
    that matched no spec, and any second file for a name another file took.
    """
    files = [] if cfg.proof_dir is None else _proof_files(cfg.proof_dir)
    proofs = _first_per_name(files)
    entries: list[TestEntry] = []
    # Automatic GC, paused here, would only rescan the memoised generator
    # trees; a young collection after each spec frees the cycles a property
    # body makes.
    with gc_paused(), tempfile.TemporaryDirectory(prefix="ndcheck-") as scratch:
        ctx = _context(cfg, Path(scratch))
        for spec in specs:
            entries.append(_run_spec(spec, cfg, ctx, proofs))
            gc.collect(0)
    used = {_normalize(spec.name) for spec in specs}
    unused = tuple(f for k, f in files if k not in used or proofs[k] != f)   # files are sorted
    return TestReport(tuple(entries), unused)


def _run_spec(spec: TestSpec, cfg: RunConfig, ctx: EvalContext, proofs: dict[str, str]) -> TestEntry:
    name, module, line = spec.name, spec.module, spec.line
    labels: Counter = Counter()
    proof_file = proofs.get(_normalize(name))  # before a poly spec is renamed
    if proof_file is not None:
        verdict = Verdict(SKIPPED_PROVED, proof_file=proof_file)
    elif spec.kind in (PARAM, POLY):
        try:
            inst = instantiate_poly(spec, cfg)
        except Exception as exc:  # noqa: BLE001 - a failing gen_for is a verdict too
            where = f"while instantiating for base type {cfg.default_base_type.value}"
            verdict = _ended(Outcome(_ERRED, f"{_message(exc)} ({where})"), 0, 0)
        else:
            name = inst.name
            verdict, labels = run_param(inst, cfg, ctx)
    elif spec.kind == UNIT:
        out = _check(spec.prop, ctx, "unit test is")
        labels.update(out.labels)
        verdict = _ended(out, 0, 0)
    else:
        verdict = _ended(Outcome(_ERRED, f"unknown spec kind {spec.kind!r}"), 0, 0)
    label_table = tuple(sorted(labels.items(), key=lambda kv: (-kv[1], kv[0])))
    return TestEntry(name, module, line, verdict, label_table)


# -- proof files -----------------------------------------------------------


class ConfigError(Exception):
    """Bad runner configuration, e.g. an unreadable proof directory."""


def _normalize(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "")


def scan_proofs(proof_dir: str | Path) -> dict[str, str]:
    """The proof files in a directory, as normalized property name -> file
    name.

    A file ``proof-<t>.<ext>`` (any extension, matching case-insensitively,
    '-' and '_' ignored inside <t>) marks property t as proved.  The file
    content is trusted, not validated.  Of two files for one name, the
    first in sorted order counts; ``run_suite`` reports the other unused.
    """
    return _first_per_name(_proof_files(proof_dir))


def _proof_files(proof_dir: str | Path) -> list[tuple[str, str]]:
    """(normalized property name, file name) of each proof file, sorted by
    file name."""
    path = Path(proof_dir)
    if not path.is_dir():
        raise ConfigError(f"proof directory not readable: {path}")
    try:
        names = sorted(os.listdir(path))
    except OSError as exc:
        raise ConfigError(f"proof directory not readable: {path} ({exc})") from exc
    files = []
    for fname in names:
        stem = fname.rsplit(".", 1)[0] if "." in fname else fname
        if not stem.lower().startswith("proof-"):
            continue
        key = _normalize(stem[len("proof-"):])
        if key:
            files.append((key, fname))
    return files


def _first_per_name(files: list[tuple[str, str]]) -> dict[str, str]:
    proofs: dict[str, str] = {}
    for key, fname in files:
        proofs.setdefault(key, fname)
    return proofs


# -- rendering -------------------------------------------------------------


def _ordinal(n: int) -> str:
    if n % 100 in (11, 12, 13):
        return f"{n}th"
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
    return f"{n}{suffix}"


def _verdict_lines(e: TestEntry) -> list[str]:
    v = e.verdict
    if v.kind == PASSED:
        return [f" OK, passed {v.tests_executed} tests."]
    if v.kind == PASSED_EXHAUSTIVE:
        return [f" Passed all available tests: {v.tests_executed} tests."]
    if v.kind == EXHAUSTED_V:
        tests = "tests" if v.tests_executed > 1 else "test"
        return [f" Arguments exhausted after {v.tests_executed} {tests}."]
    if v.kind == SKIPPED_PROVED:
        return [f" Skipped: proved by {v.proof_file}."]
    if v.kind == ERROR:
        return [f" Error: {v.message}"]
    lines = [f"Falsified by {_ordinal(v.case_index)} test."]
    if v.arguments is not None:
        lines.append(f"Arguments: {v.arguments}")
    if v.results is not None:
        lines.append(f"Results: {v.results}")
    return lines


def _entry_header(e: TestEntry) -> str:
    if e.line is not None:
        return f"{e.name} (module {e.module}, line {e.line}):"
    return f"{e.name} (module {e.module}):"


def render_report(report: TestReport, fmt: str = "text") -> str:
    """Render a report as human-readable text or as JSON lines (one record
    per test, fixed field order)."""
    if fmt == "text":
        blocks = []
        for e in report.entries:
            lines = [_entry_header(e)] + _verdict_lines(e)
            lines += [f" {count}x {label}" for label, count in e.labels]
            blocks.append("\n".join(lines))
        return "\n".join(blocks)
    if fmt == "json":
        records = []
        for e in report.entries:
            v = e.verdict
            records.append(
                json.dumps(
                    {
                        "name": e.name,
                        "module": e.module,
                        "line": e.line,
                        "verdict": v.kind,
                        "tests_executed": v.tests_executed,
                        "tests_dropped": v.tests_dropped,
                        "case_index": v.case_index,
                        "arguments": v.arguments,
                        "results": v.results,
                        "labels": {k: c for k, c in e.labels},
                        "proof_file": v.proof_file,
                        "message": v.message,
                    }
                )
            )
        return "\n".join(records)
    raise ValueError(f"unknown report format: {fmt!r}")
