"""Test runner: binds generated inputs to properties, enforces budgets and
drop limits, detects exhaustive domains, and produces structured reports.
"""

from __future__ import annotations

import gc
import json
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from .gen import BaseType, Generator
from .prop import (
    BUDGET,
    DROPPED,
    EXHAUSTED,
    FALSIFIED,
    INCONCLUSIVE,
    SATISFIED,
    Distinct,
    EvalContext,
    Prop,
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
    proof_file: str | None = None
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
    selection: tuple[str, ...] = ()

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
    gen = spec.input_gen
    assert gen is not None and spec.body is not None
    inputs = Distinct(gen.tree, ctx.strategy, enumerate_tree, distinct=gen.distinct)
    cursor = iter(inputs)
    labels: Counter = Counter()
    executed = 0
    dropped = 0

    def verdict(kind: str, **fields) -> tuple[Verdict, Counter]:
        return Verdict(kind, tests_executed=executed, tests_dropped=dropped, **fields), labels

    while True:
        try:
            _, raw = next(cursor)
        except StopIteration:
            break
        except Exception as exc:  # noqa: BLE001 - a failing generator is a verdict too
            # not rendered: the input itself may be what failed (too deep to key)
            return verdict(
                ERROR,
                message=f"{type(exc).__name__}: {exc} (while drawing input {executed + dropped + 1})",
            )
        try:
            prop = spec.body(*raw) if spec.arity > 1 else spec.body(raw)
            out = prop.check(ctx)
        except Exception as exc:  # noqa: BLE001 - a failing test body is a verdict
            return verdict(
                ERROR,
                message=f"{type(exc).__name__}: {exc} (input {_render_input(raw, spec.arity)})",
            )
        if out.labels:
            labels.update(out.labels)
        if out.status == DROPPED:
            dropped += 1
            if dropped >= cfg.drop_limit:
                break
            continue
        if out.status == FALSIFIED:
            executed += 1
            return verdict(
                FALSIFIED_V,
                case_index=executed,
                arguments=_render_input(raw, spec.arity),
                results=out.results,
                counterexample=raw,
            )
        if out.status == INCONCLUSIVE:
            return verdict(ERROR, message=f"{out.detail} (input {_render_input(raw, spec.arity)})")
        executed += 1
        if executed >= cfg.max_tests:
            return verdict(PASSED)
    if inputs.end == BUDGET:
        return verdict(
            ERROR,
            message=(
                f"input generator exceeded the node budget after {executed} tests;"
                " domain coverage undecided"
            ),
        )
    # A proof needs the whole domain: at the drop limit the cursor's end is
    # not EXHAUSTED, even if no input was left to draw.
    if executed and inputs.end == EXHAUSTED:
        return verdict(PASSED_EXHAUSTIVE)
    return verdict(EXHAUSTED_V)


def _run_prop_once(spec: TestSpec, ctx: EvalContext) -> tuple[Verdict, Counter]:
    labels: Counter = Counter()
    try:
        out = spec.prop.check(ctx)
    except Exception as exc:  # noqa: BLE001
        return Verdict(ERROR, message=f"{type(exc).__name__}: {exc}"), labels
    labels.update(out.labels)
    if out.status == SATISFIED:
        return Verdict(PASSED, tests_executed=1), labels
    if out.status == FALSIFIED:
        return (
            Verdict(
                FALSIFIED_V,
                tests_executed=1,
                case_index=1,
                arguments=out.arguments,
                results=out.results,
            ),
            labels,
        )
    if out.status == DROPPED:
        return Verdict(EXHAUSTED_V, tests_executed=0, tests_dropped=1), labels
    return Verdict(ERROR, message=out.detail), labels


def run_suite(specs: list[TestSpec], cfg: RunConfig) -> TestReport:
    """Execute the given specs in registration order under one configuration.

    Proof files (if a proof directory is configured) turn matching specs
    into skipped entries; everything else gets exactly one verdict.
    """
    if cfg.proof_dir is not None:
        from .contracts import apply_proofs, scan_proofs

        specs = apply_proofs(specs, scan_proofs(cfg.proof_dir))
    entries: list[TestEntry] = []
    # Generators, the trees they build and the walks over them make no
    # reference cycles, so automatic cyclic GC would only rescan the memoised
    # generator trees; a young collection after each spec frees the cycles a
    # property body makes.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with tempfile.TemporaryDirectory(prefix="ndcheck-") as scratch:
            ctx = _context(cfg, Path(scratch))
            for spec in specs:
                entries.append(_run_spec(spec, cfg, ctx))
                gc.collect(0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return TestReport(tuple(entries))


def _run_spec(spec: TestSpec, cfg: RunConfig, ctx: EvalContext) -> TestEntry:
    name, module, line = spec.name, spec.module, spec.line
    labels: Counter = Counter()
    if spec.proof_file is not None:
        verdict = Verdict(SKIPPED_PROVED, proof_file=spec.proof_file)
    elif spec.kind in (PARAM, POLY):
        try:
            inst = instantiate_poly(spec, cfg)
        except Exception as exc:  # noqa: BLE001 - a failing gen_for is a verdict too
            where = f"while instantiating for base type {cfg.default_base_type.value}"
            verdict = Verdict(ERROR, message=f"{type(exc).__name__}: {exc} ({where})")
        else:
            name = inst.name
            verdict, labels = run_param(inst, cfg, ctx)
    elif spec.kind == UNIT:
        verdict, labels = _run_prop_once(spec, ctx)
    else:
        verdict = Verdict(ERROR, message=f"unknown spec kind {spec.kind!r}")
    label_table = tuple(sorted(labels.items(), key=lambda kv: (-kv[1], kv[0])))
    return TestEntry(name, module, line, verdict, label_table)


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
