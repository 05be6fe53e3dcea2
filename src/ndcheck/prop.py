"""The property algebra: operators that turn computations into checkable
statements with set semantics.

A property is a deferred check: evaluating it under an EvalContext yields an
Outcome.  Operators compare de-duplicated value sets, so enumeration order
and duplicate results never affect a verdict.  When a value set cannot be
decided within budget the outcome is Inconclusive rather than a guess.
"""

from __future__ import annotations

import gc
import tempfile
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, Union

from .gen import Generator
from .searchtree import (
    FailNode, SearchTree, Strategy, ValueNode, enumerate_tree, value,
)
from .values import canonical, render, same_value

SATISFIED = "satisfied"
FALSIFIED = "falsified"
DROPPED = "dropped"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Outcome:
    status: str
    detail: str = ""                      # diagnosis for Inconclusive / context
    results: str | None = None            # observed evidence for Falsified
    arguments: str | None = None          # offending element, when known
    labels: tuple[str, ...] = ()

    def with_label(self, label: str) -> "Outcome":
        return replace(self, labels=self.labels + (label,))


_SAT = Outcome(SATISFIED)
_DROP = Outcome(DROPPED)


@dataclass(frozen=True)
class EvalContext:
    """Evaluation knobs shared by all operators.

    value_budget caps how many raw values one side may produce while its
    value set is being decided; the strategy's node budget caps expansion
    work.  for_all_limit bounds how many elements a for_all sequence is
    checked on (mirrors the runner's test count).
    """

    strategy: Strategy = field(default_factory=Strategy)
    value_budget: int = 10_000
    for_all_limit: int = 100
    scratch_dir: Path | None = None

    def __post_init__(self):
        if self.value_budget < 1:
            raise ValueError("value budget must be >= 1")


@dataclass(frozen=True)
class Prop:
    """A named, deferred check; evaluation is repeatable given equal context."""

    kind: str
    check: Callable[[EvalContext], Outcome]

    def evaluate(self, ctx: EvalContext | None = None) -> Outcome:
        """Run the check with automatic cyclic GC paused, as ``run_suite``
        does: trees and walks make no reference cycles, so a collection
        would only rescan the memo of the tree being walked."""
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self.check(ctx or EvalContext())
        finally:
            if gc_was_enabled:
                gc.enable()


TreeLike = Union[SearchTree, Any]


def as_tree(x: TreeLike) -> SearchTree:
    """Lift a plain value into a single-value tree; trees pass through."""
    return x if isinstance(x, SearchTree) else value(x)


# -- value-set plumbing ---------------------------------------------------

EXHAUSTED = "exhausted"
BUDGET = "budget"
LIMIT = "limit"


def keyed(values: Iterable) -> Iterator[tuple[Any, Any]]:
    """(canonical key, value) for the first value of each key."""
    seen: set = set()
    for v in values:
        k = canonical(v)
        if k not in seen:
            seen.add(k)
            yield k, v


def _distinct(t: SearchTree, ctx: EvalContext, need: int | None = None) -> tuple[list, list, str]:
    """(keys, values, end) of at most `need` distinct values, within the
    value budget (which also ends the draw with LIMIT).

    Every operator gets its value sets here.  A leaf side, such as a plain
    value lifted by ``as_tree``, is decided in one step, with no walk: a
    value leaf is keyed once, and a walk would reach it, as a node budget
    is at least 1.  Any other side is walked and keyed up to the cap, and
    the walk's own ``exhausted`` flag tells EXHAUSTED from BUDGET."""
    cap = ctx.value_budget if need is None else min(need, ctx.value_budget)
    if cap < 1:
        return [], [], LIMIT
    c = type(t)
    if c is ValueNode:
        v = t.payload
        return [canonical(v)], [v], LIMIT if cap == 1 else EXHAUSTED
    if c is FailNode:
        return [], [], EXHAUSTED
    enum = enumerate_tree(t, ctx.strategy)
    pairs = list(islice(keyed(enum), cap))
    end = LIMIT if len(pairs) == cap else EXHAUSTED if enum.exhausted else BUDGET
    return [k for k, _ in pairs], [v for _, v in pairs], end


def _show(v: Any) -> str:
    """render, or a placeholder for a value too deep to render: the verdict
    was decided without rendering, so it stands."""
    try:
        return render(v)
    except RecursionError:
        return "<value too deep to render>"


def _render_side(vals: list, end: str) -> str:
    if len(vals) == 1 and end == EXHAUSTED:
        return _show(vals[0])
    body = ",".join(_show(v) for v in vals)
    return "{" + body + ("" if end == EXHAUSTED else ",..") + "}"


def _results(lvals: list, lend: str, rvals: list, rend: str) -> str:
    return f"({_render_side(lvals, lend)},{_render_side(rvals, rend)})"


def _leaf_pair(lt: SearchTree, rt: SearchTree, ctx: EvalContext) -> Outcome | None:
    """The outcome of comparing two value leaves; None: not two value leaves.

    With a value budget of at least 2, a value leaf is one exhausted value, so
    is_equal, same_set and reduces_to each hold iff the two values key
    alike, and each reports the same results when they do not."""
    if type(lt) is ValueNode and type(rt) is ValueNode and ctx.value_budget >= 2:
        a, b = lt.payload, rt.payload
        if same_value(a, b):
            return _SAT
        return Outcome(FALSIFIED, results=_results([a], EXHAUSTED, [b], EXHAUSTED))
    return None


def _inconclusive(op: str, side: str, end: str) -> Outcome:
    reason = "node budget exceeded" if end == BUDGET else "value budget exceeded"
    return Outcome(INCONCLUSIVE, detail=f"{op}: {side} side undecided ({reason})")


# -- operators -------------------------------------------------------------


def is_equal(l: TreeLike, r: TreeLike) -> Prop:
    """Satisfied iff both sides have exactly one value and the values match."""
    lt, rt = as_tree(l), as_tree(r)

    def check(ctx: EvalContext) -> Outcome:
        if (out := _leaf_pair(lt, rt, ctx)) is not None:
            return out
        lkeys, lvals, lend = _distinct(lt, ctx, need=2)
        rkeys, rvals, rend = _distinct(rt, ctx, need=2)
        # a side is decided once it exhausts or shows a second value
        if lend != EXHAUSTED and len(lvals) < 2:
            return _inconclusive("is_equal", "left", lend)
        if rend != EXHAUSTED and len(rvals) < 2:
            return _inconclusive("is_equal", "right", rend)
        if len(lkeys) == 1 and lkeys == rkeys:
            return _SAT
        return Outcome(FALSIFIED, results=_results(lvals, lend, rvals, rend))

    return Prop("is_equal", check)


def same_set(l: TreeLike, r: TreeLike) -> Prop:
    """Satisfied iff both sides produce the same set of values (multiplicity
    and order ignored); needs both sides exhausted to decide."""
    lt, rt = as_tree(l), as_tree(r)

    def check(ctx: EvalContext) -> Outcome:
        if (out := _leaf_pair(lt, rt, ctx)) is not None:
            return out
        lkeys, lvals, lend = _distinct(lt, ctx)
        if lend != EXHAUSTED:
            return _inconclusive("same_set", "left", lend)
        rkeys, rvals, rend = _distinct(rt, ctx)
        if rend != EXHAUSTED:
            return _inconclusive("same_set", "right", rend)
        if set(lkeys) == set(rkeys):
            return _SAT
        return Outcome(FALSIFIED, results=_results(lvals, lend, rvals, rend))

    return Prop("same_set", check)


def reduces_to(l: TreeLike, r: TreeLike) -> Prop:
    """Satisfied iff every value of the right side is among the values of the
    left side.  The right side must exhaust; the left side is searched lazily
    and may be left unexplored once all targets are found."""
    lt, rt = as_tree(l), as_tree(r)

    def check(ctx: EvalContext) -> Outcome:
        if (out := _leaf_pair(lt, rt, ctx)) is not None:
            return out
        rkeys, rvals, rend = _distinct(rt, ctx)
        if rend != EXHAUSTED:
            return _inconclusive("reduces_to", "right", rend)
        missing = set(rkeys)
        if not missing:
            return _SAT
        enum = enumerate_tree(lt, ctx.strategy)
        observed: list = []
        for k, v in islice(keyed(enum), ctx.value_budget):
            observed.append(v)
            missing.discard(k)
            if not missing:
                return _SAT
        if len(observed) == ctx.value_budget:
            return _inconclusive("reduces_to", "left", LIMIT)
        if enum.exhausted:
            return Outcome(
                FALSIFIED,
                results=_results(observed, EXHAUSTED, rvals, EXHAUSTED),
            )
        return _inconclusive("reduces_to", "left", BUDGET)

    return Prop("reduces_to", check)


def value_count(e: TreeLike, n: int) -> Prop:
    """Satisfied iff the computation has exactly n distinct values."""
    t = as_tree(e)

    def check(ctx: EvalContext) -> Outcome:
        _, vals, end = _distinct(t, ctx, need=n + 1)
        if len(vals) > n:
            return Outcome(
                FALSIFIED,
                results=f"({_render_side(vals, end)} has more than {n} values)",
            )
        if end == EXHAUSTED:
            if len(vals) == n:
                return _SAT
            return Outcome(
                FALSIFIED,
                results=f"({_render_side(vals, end)} has {len(vals)} values, expected {n})",
            )
        return _inconclusive("value_count", "left", end)

    return Prop("value_count", check)


def value_count_less(e: TreeLike, n: int) -> Prop:
    """Satisfied iff the computation has fewer than n distinct values;
    falsified as soon as n distinct values are observed."""
    t = as_tree(e)

    def check(ctx: EvalContext) -> Outcome:
        _, vals, end = _distinct(t, ctx, need=n)
        if len(vals) >= n:
            return Outcome(
                FALSIFIED,
                results=f"({_render_side(vals, end)} reaches {n} values)",
            )
        if end == EXHAUSTED:
            return _SAT
        return _inconclusive("value_count_less", "left", end)

    return Prop("value_count_less", check)


def implies(cond: bool, p: Prop | Callable[[], Prop]) -> Prop:
    """Conditional property: a false guard drops the test case.

    The consequent may be passed as a thunk so that guarded expressions
    (e.g. ones that diverge on bad inputs) are only built when the guard
    holds.
    """

    def check(ctx: EvalContext) -> Outcome:
        if not cond:
            return _DROP
        q = p() if callable(p) and not isinstance(p, Prop) else p
        return q.check(ctx)

    return Prop("implies", check)


def eventually(e: TreeLike) -> Prop:
    """Satisfied iff some value of a boolean computation is True."""
    t = as_tree(e)

    def check(ctx: EvalContext) -> Outcome:
        enum = enumerate_tree(t, ctx.strategy)
        drawn = 0
        for v in enum:
            if v is True:
                return _SAT
            drawn += 1
            if drawn >= ctx.value_budget:
                return _inconclusive("eventually", "left", LIMIT)
        if enum.exhausted:
            return Outcome(FALSIFIED, results="(no True value)")
        return _inconclusive("eventually", "left", BUDGET)

    return Prop("eventually", check)


def always(e: TreeLike) -> Prop:
    """Satisfied iff the computation produces at least one value and every
    value is True; an empty value set counts as falsified."""
    t = as_tree(e)

    def check(ctx: EvalContext) -> Outcome:
        enum = enumerate_tree(t, ctx.strategy)
        drawn = 0
        for v in enum:
            if v is not True:
                return Outcome(FALSIFIED, results=f"({_show(v)})")
            drawn += 1
            if drawn >= ctx.value_budget:
                return _inconclusive("always", "left", LIMIT)
        if enum.exhausted:
            if drawn == 0:
                return Outcome(FALSIFIED, results="(no values)")
            return _SAT
        return _inconclusive("always", "left", BUDGET)

    return Prop("always", check)


def for_all(
    values: Union[Sequence, SearchTree, Generator, Callable[[], Iterable]],
    pf: Callable[[Any], Prop],
) -> Prop:
    """Conjunction of pf(v) over the given test data.

    Accepts a concrete sequence, a search tree or generator (enumerated
    de-duplicated under the context strategy), or a thunk producing an
    iterable.  Consumption is bounded by the context's for_all_limit: no
    element is drawn once that many have been checked, and dropped cases do
    not count toward that bound.  A tree or generator whose node budget runs
    out before that bound is reached is undecided.
    """

    def check(ctx: EvalContext) -> Outcome:
        limit = ctx.for_all_limit
        if limit < 1:
            return _SAT
        enum = None
        if isinstance(values, (Generator, SearchTree)):
            gen = values if isinstance(values, Generator) else Generator(values)
            enum = enumerate_tree(gen.tree, ctx.strategy)
            source: Iterable = enum if gen.distinct else (v for _, v in keyed(enum))
        else:
            source = values() if callable(values) else values
        checked = 0
        labels: list[str] = []
        for v in source:
            out = pf(v).check(ctx)
            labels += out.labels
            if out.status == FALSIFIED:
                return replace(out, arguments=_show(v), labels=tuple(labels))
            if out.status == INCONCLUSIVE:
                return replace(out, detail=f"{out.detail} [element {_show(v)}]")
            if out.status == DROPPED:
                continue
            checked += 1
            if checked == limit:
                break
        if enum is not None and enum.budget_exceeded and checked < limit:
            return _inconclusive("for_all", "left", BUDGET)
        return Outcome(SATISFIED, labels=tuple(labels))

    return Prop("for_all", check)


def returns(action: Callable[[Path], Any], expected: Any) -> Prop:
    """Satisfied iff running the effectful action yields the expected value.

    The action receives a scratch directory (the runner provides a shared
    one so consecutive tests can depend on each other's files; standalone
    evaluation gets a throwaway directory) and runs at most once per test
    run.  Failures inside the action surface as test errors, not verdicts.
    """

    def check(ctx: EvalContext) -> Outcome:
        if ctx.scratch_dir is not None:
            got = action(ctx.scratch_dir)
        else:
            with tempfile.TemporaryDirectory(prefix="ndcheck-io-") as tmp:
                got = action(Path(tmp))
        if same_value(got, expected):
            return _SAT
        return Outcome(FALSIFIED, results=f"({_show(got)},{_show(expected)})")

    return Prop("returns", check)


def classify(cond: bool, label: str, p: Prop) -> Prop:
    """Attach a label to the outcome when the condition holds."""

    def check(ctx: EvalContext) -> Outcome:
        out = p.check(ctx)
        return out.with_label(label) if cond else out

    return Prop("classify", check)


def collect(v: Any, p: Prop) -> Prop:
    """Attach the textual form of a value to the outcome."""

    def check(ctx: EvalContext) -> Outcome:
        return p.check(ctx).with_label(_show(v))

    return Prop("collect", check)
