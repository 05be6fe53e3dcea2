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
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, Union

from .gen import Generator
from .searchtree import SearchTree, Strategy, ValueNode, enumerate_tree, value
from .values import canonical, render, same_value, shown

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

VALUE_BUDGET = 10_000  # values per side, distinct (raw for eventually/always)


@dataclass(frozen=True)
class EvalContext:
    """Evaluation knobs shared by all operators.

    The strategy's node budget caps expansion work.  for_all_limit bounds
    how many elements a for_all sequence is checked on (mirrors the runner's
    test count).
    """

    strategy: Strategy = field(default_factory=Strategy)
    for_all_limit: int = 100
    scratch_dir: Path | None = None


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause automatic cyclic GC for the block and hand the collector back
    as it was found: trees and walks make no reference cycles, so a
    collection would only rescan the memo of the tree being walked."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if gc_was_enabled:
            gc.enable()


@dataclass(slots=True, eq=False)
class Prop:
    """A deferred check; evaluation is repeatable given equal context.

    check maps an EvalContext to an Outcome; its qualified name shows the
    operator that built it.  A property is one small slotted object, built
    per test case, and it compares and hashes by identity.  A case decided
    when it is built gets one property that every such case shares: is_equal,
    same_set or reduces_to on one object twice (plain or in value leaves)
    gets the shared satisfied one, and implies with a false guard the shared
    dropped one.  So never assign to check: dataclasses.replace makes a
    changed copy."""

    check: Callable[[EvalContext], Outcome]

    def evaluate(self, ctx: EvalContext | None = None) -> Outcome:
        """Run the check under gc_paused, as ``run_suite`` does."""
        with gc_paused():
            return self.check(ctx or EvalContext())


def not_a_prop(exc: BaseException, got: Any, what: str) -> BaseException:
    """The error to report for exc, raised while checking got: a TypeError
    that names got's type when got stands where a property belongs but has
    no check at all (a body that returned a bool), else exc itself.  Called
    on the error path only, so a passing case pays nothing for it."""
    if isinstance(exc, AttributeError) and not hasattr(got, "check"):
        return TypeError(f"{what} {type(got).__name__}, not a property")
    return exc


def _inner(p: Prop, ctx: EvalContext, what: str) -> Outcome:
    """The outcome of p, which stands inside another property; what says
    where, for not_a_prop."""
    try:
        return p.check(ctx)
    except AttributeError as exc:
        raise not_a_prop(exc, p, what)


TreeLike = Union[SearchTree, Any]
Decide = Callable[[SearchTree, SearchTree, EvalContext], Outcome]  # an operator's tree check


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
    """(keys, values, end) of at most `need` distinct values, and at most
    one past the value budget; a draw ended by either cap ends with LIMIT.

    Every operator gets its value sets here.  Each side is walked and keyed
    up to the cap, a leaf side in a one-node walk that any node budget
    covers, and the walk's own ``exhausted`` flag tells EXHAUSTED from
    BUDGET.  The value past the budget tells a side of exactly VALUE_BUDGET
    values, which is decided, from a longer one."""
    cap = VALUE_BUDGET + 1 if need is None else min(need, VALUE_BUDGET + 1)
    enum = enumerate_tree(t, ctx.strategy)
    pairs = list(islice(keyed(enum), cap))
    end = LIMIT if len(pairs) == cap else EXHAUSTED if enum.exhausted else BUDGET
    return [k for k, _ in pairs], [v for _, v in pairs], end


def _show(v: Any) -> str:
    return shown("value", render, v)


RENDERED_VALUES = 100  # values a report shows per side; the rest are counted


def _render_side(vals: list, end: str) -> str:
    """One side's values: a lone exhausted value bare, else a set of its
    first RENDERED_VALUES values and a count of the rest (+N more), ending
    in .. if the side did not exhaust."""
    if len(vals) == 1 and end == EXHAUSTED:
        return _show(vals[0])
    parts = [_show(v) for v in vals[:RENDERED_VALUES]]
    if len(vals) > RENDERED_VALUES:
        parts.append(f"+{len(vals) - RENDERED_VALUES} more")
    if end != EXHAUSTED:
        parts.append("..")
    return "{" + ",".join(parts) + "}"


def _results(lvals: list, lend: str, rvals: list, rend: str) -> str:
    return f"({_render_side(lvals, lend)},{_render_side(rvals, rend)})"


def _leaf_pair(a: Any, b: Any, ctx: EvalContext) -> Outcome:
    """The outcome of is_equal, same_set or reduces_to on two single values,
    each plain or a value leaf's payload.  One value is an exhausted value
    set, so each of the three holds iff the two values are the same, and
    reports the same results when they are not."""
    if same_value(a, b):
        return _SAT
    return Outcome(FALSIFIED, results=_results([a], EXHAUSTED, [b], EXHAUSTED))


def _satisfied(ctx: EvalContext) -> Outcome:
    return _SAT


_SAT_PROP = Prop(_satisfied)   # every two-sided case decided when built


def _two_sided(decide: Decide, l: TreeLike, r: TreeLike) -> Prop:
    """The property of tree check decide on l and r.  Two single values, plain
    or in value leaves, are decided by _leaf_pair, and no tree is built for
    them; any other pair by decide(lt, rt, ctx) on both sides as trees.

    Two single values that are one object get the shared _SAT_PROP: an
    object is always the same value as itself, so nothing can change the
    answer before the check.  Any other pair of values is compared when
    checked, as a container may be mutated in between."""
    ltree, rtree = isinstance(l, SearchTree), isinstance(r, SearchTree)
    if (ltree and type(l) is not ValueNode) or (rtree and type(r) is not ValueNode):
        return Prop(partial(decide, as_tree(l), as_tree(r)))
    a, b = l.payload if ltree else l, r.payload if rtree else r
    if a is b:
        return _SAT_PROP
    return Prop(partial(_leaf_pair, a, b))


def _inconclusive(op: str, side: str, end: str) -> Outcome:
    reason = "node budget exceeded" if end == BUDGET else "value budget exceeded"
    return Outcome(INCONCLUSIVE, detail=f"{op}: {side} side undecided ({reason})")


# -- operators -------------------------------------------------------------


def is_equal(l: TreeLike, r: TreeLike) -> Prop:
    """Satisfied iff both sides have exactly one value and the values match."""
    return _two_sided(_is_equal, l, r)


def _is_equal(lt: SearchTree, rt: SearchTree, ctx: EvalContext) -> Outcome:
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


def same_set(l: TreeLike, r: TreeLike) -> Prop:
    """Satisfied iff both sides produce the same set of values (multiplicity
    and order ignored); needs both sides exhausted to decide."""
    return _two_sided(_same_set, l, r)


def _same_set(lt: SearchTree, rt: SearchTree, ctx: EvalContext) -> Outcome:
    lkeys, lvals, lend = _distinct(lt, ctx)
    if lend != EXHAUSTED:
        return _inconclusive("same_set", "left", lend)
    rkeys, rvals, rend = _distinct(rt, ctx)
    if rend != EXHAUSTED:
        return _inconclusive("same_set", "right", rend)
    if set(lkeys) == set(rkeys):
        return _SAT
    return Outcome(FALSIFIED, results=_results(lvals, lend, rvals, rend))


def reduces_to(l: TreeLike, r: TreeLike) -> Prop:
    """Satisfied iff every value of the right side is among the values of the
    left side.  The right side must exhaust; the left side is searched lazily
    and may be left unexplored once all targets are found."""
    return _two_sided(_reduces_to, l, r)


def _reduces_to(lt: SearchTree, rt: SearchTree, ctx: EvalContext) -> Outcome:
    rkeys, rvals, rend = _distinct(rt, ctx)
    if rend != EXHAUSTED:
        return _inconclusive("reduces_to", "right", rend)
    missing = set(rkeys)
    if not missing:
        return _SAT
    enum = enumerate_tree(lt, ctx.strategy)
    observed: list = []
    for k, v in keyed(enum):
        if len(observed) == VALUE_BUDGET:   # a value past the budget decides nothing
            return _inconclusive("reduces_to", "left", LIMIT)
        observed.append(v)
        missing.discard(k)
        if not missing:
            return _SAT
    if enum.exhausted:
        return Outcome(
            FALSIFIED,
            results=_results(observed, EXHAUSTED, rvals, EXHAUSTED),
        )
    return _inconclusive("reduces_to", "left", BUDGET)


def _check_count(op: str, n: int) -> None:
    """Reject a negative count when the property is built."""
    if n < 0:
        raise ValueError(f"{op}: n must be >= 0")


def value_count(e: TreeLike, n: int) -> Prop:
    """Satisfied iff the computation has exactly n distinct values."""
    _check_count("value_count", n)
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

    return Prop(check)


def value_count_less(e: TreeLike, n: int) -> Prop:
    """Satisfied iff the computation has fewer than n distinct values;
    falsified as soon as n distinct values are observed."""
    _check_count("value_count_less", n)
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

    return Prop(check)


def implies(cond: bool, p: Prop | Callable[[], Prop]) -> Prop:
    """Conditional property: a false guard drops the test case.

    The consequent may be passed as a thunk so that guarded expressions
    (e.g. ones that diverge on bad inputs) are only built when the guard
    holds.  A false guard gives one shared property and builds nothing
    else.
    """
    return Prop(partial(_implied, p)) if cond else _DROP_PROP


def _dropped(ctx: EvalContext) -> Outcome:
    return _DROP


_DROP_PROP = Prop(_dropped)   # every case implies drops


def _implied(p: Prop | Callable[[], Prop], ctx: EvalContext) -> Outcome:
    return _inner(p() if callable(p) else p, ctx, "implies got")


def eventually(e: TreeLike) -> Prop:
    """Satisfied iff some value of a boolean computation is True."""
    t = as_tree(e)

    def check(ctx: EvalContext) -> Outcome:
        enum = enumerate_tree(t, ctx.strategy)
        drawn = 0
        for v in enum:
            if drawn == VALUE_BUDGET:
                return _inconclusive("eventually", "left", LIMIT)
            if v is True:
                return _SAT
            drawn += 1
        if enum.exhausted:
            return Outcome(FALSIFIED, results="(no True value)")
        return _inconclusive("eventually", "left", BUDGET)

    return Prop(check)


def always(e: TreeLike) -> Prop:
    """Satisfied iff the computation produces at least one value and every
    value is True; an empty value set counts as falsified."""
    t = as_tree(e)

    def check(ctx: EvalContext) -> Outcome:
        enum = enumerate_tree(t, ctx.strategy)
        drawn = 0
        for v in enum:
            if drawn == VALUE_BUDGET:
                return _inconclusive("always", "left", LIMIT)
            if v is not True:
                return Outcome(FALSIFIED, results=f"({_show(v)})")
            drawn += 1
        if enum.exhausted:
            if drawn == 0:
                return Outcome(FALSIFIED, results="(no values)")
            return _SAT
        return _inconclusive("always", "left", BUDGET)

    return Prop(check)


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
            out = _inner(pf(v), ctx, "for_all body returned")
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

    return Prop(check)


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

    return Prop(check)


def classify(cond: bool, label: str, p: Prop) -> Prop:
    """Attach a label to the outcome when the condition holds."""

    def check(ctx: EvalContext) -> Outcome:
        out = _inner(p, ctx, "classify got")
        return out.with_label(label) if cond else out

    return Prop(check)


def collect(v: Any, p: Prop) -> Prop:
    """Attach the textual form of a value to the outcome."""

    def check(ctx: EvalContext) -> Outcome:
        return _inner(p, ctx, "collect got").with_label(_show(v))

    return Prop(check)
