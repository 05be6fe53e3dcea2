"""The property operator algebra."""

import dataclasses
import gc
import random
from decimal import Decimal
from enum import IntEnum
from itertools import islice
from pathlib import Path

import pytest

from ndcheck.corpus.trees import Leaf, Succ, Zero
from ndcheck.gen import BaseType, Generator, Ordering, builtin, list_of, tuple_of
from ndcheck.prop import (
    DROPPED,
    FALSIFIED,
    INCONCLUSIVE,
    SATISFIED,
    VALUE_BUDGET,
    EvalContext,
    Outcome,
    RENDERED_VALUES,
    Prop,
    _DROP_PROP,
    _SAT_PROP,
    _leaf_pair,
    _satisfied,
    always,
    classify,
    collect,
    eventually,
    for_all,
    implies,
    is_equal,
    keyed,
    reduces_to,
    returns,
    same_set,
    value_count,
    value_count_less,
)
from ndcheck.runner import TestSpec
from ndcheck.searchtree import Strategy, choice, defer, enumerate_tree, fail, one_of, value
from ndcheck.values import canonical

CTX = EvalContext()
STRATEGIES = [Strategy("bfs"), Strategy("level_diag"), Strategy("rand_level_diag", seed=3)]


def status(prop, ctx=CTX):
    return prop.evaluate(ctx).status


def some_dup(xs):
    hits = [xs[i] for i in range(len(xs)) for j in range(i + 1, len(xs)) if xs[i] == xs[j]]
    return one_of(hits) if hits else fail()


def random_tree(rng, depth=0):
    r = rng.random()
    if depth >= 4 or r < 0.4:
        return value(rng.randrange(4))
    if r < 0.55:
        return fail()
    return choice(random_tree(rng, depth + 1), random_tree(rng, depth + 1))


def brute_set(tree):
    return {canonical(v) for v in enumerate_tree(tree, Strategy("bfs"))}


def nat_chain(k=0):
    return choice(value(k), defer(lambda: nat_chain(k + 1)))


class TestIsEqual:
    def test_concatenation_unit_cases(self):
        assert status(is_equal([] + [1, 2], [1, 2])) == SATISFIED
        assert status(is_equal("Cu" + "rry", "Curry")) == SATISFIED

    def test_multi_valued_side_falsifies(self):
        out = is_equal(choice(value(1), value(2)), value(1)).evaluate(CTX)
        assert out.status == FALSIFIED
        assert out.results is not None

    def test_differing_singletons_falsify_with_results(self):
        out = is_equal(value([-1, -3]), value([-3, -1])).evaluate(CTX)
        assert out.status == FALSIFIED
        assert out.results == "([-1,-3],[-3,-1])"

    def test_empty_sides_are_not_single_values(self):
        assert status(is_equal(fail(), fail())) == FALSIFIED

    def test_symmetry_of_status(self):
        rng = random.Random(11)
        for _ in range(100):
            l, r = random_tree(rng), random_tree(rng)
            assert status(is_equal(l, r)) == status(is_equal(r, l))

    def test_undecidable_side_is_inconclusive(self):
        # budget 2 reaches only one value of the chain: singleton-ness undecided
        ctx = EvalContext(strategy=Strategy("level_diag", node_budget=2))
        assert status(is_equal(nat_chain(), value(0)), ctx) == INCONCLUSIVE

    def test_two_values_decide_non_singleton_without_exhaustion(self):
        ctx = EvalContext(strategy=Strategy("level_diag", node_budget=50))
        assert status(is_equal(nat_chain(), value(0)), ctx) == FALSIFIED


class TestSameSet:
    def test_multiset_collapse(self):
        assert status(same_set(some_dup([1, 2, 1, 2, 1]), choice(value(1), value(2)))) == SATISFIED

    def test_single_vs_duplicated(self):
        assert status(same_set(value(1), choice(value(1), value(1)))) == SATISFIED

    def test_set_difference_falsifies(self):
        assert status(same_set(one_of([1, 2]), one_of([1, 3]))) == FALSIFIED

    def test_empty_sets_agree(self):
        assert status(same_set(fail(), fail())) == SATISFIED

    def test_agrees_with_brute_force_on_random_trees(self):
        rng = random.Random(5)
        for _ in range(120):
            l, r = random_tree(rng), random_tree(rng)
            expect = SATISFIED if brute_set(l) == brute_set(r) else FALSIFIED
            assert status(same_set(l, r)) == expect

    def test_unexhaustible_side_is_inconclusive(self):
        ctx = EvalContext(strategy=Strategy("level_diag", node_budget=40))
        assert status(same_set(nat_chain(), value(1)), ctx) == INCONCLUSIVE


class TestReducesTo:
    def test_member_value(self):
        assert status(reduces_to(some_dup([1, 2, 1, 2]), 1)) == SATISFIED

    def test_missing_value_falsifies_after_exhaustion(self):
        assert status(reduces_to(some_dup([1, 2, 1, 2]), 3)) == FALSIFIED

    def test_empty_right_side_is_vacuous(self):
        assert status(reduces_to(value(1), fail())) == SATISFIED
        assert status(reduces_to(nat_chain(), fail())) == SATISFIED

    def test_left_side_searched_lazily(self):
        # target sits at finite depth of an infinite tree
        assert status(reduces_to(nat_chain(), value(30))) == SATISFIED

    def test_infinite_left_without_target_is_inconclusive(self):
        assert status(reduces_to(nat_chain(), value(-1))) == INCONCLUSIVE


class TestCounting:
    def test_exact_count(self):
        assert status(value_count(one_of([1, 2, 1]), 2)) == SATISFIED

    def test_wrong_count_falsifies(self):
        assert status(value_count(one_of([1, 1]), 2)) == FALSIFIED

    def test_empty_has_zero_values(self):
        assert status(value_count(fail(), 0)) == SATISFIED

    def test_overshoot_falsifies_without_exhaustion(self):
        assert status(value_count(nat_chain(), 3)) == FALSIFIED

    def test_exactly_one_count_satisfied(self):
        rng = random.Random(23)
        for _ in range(60):
            t = random_tree(rng)
            hits = [n for n in range(8) if status(value_count(t, n)) == SATISFIED]
            assert hits == [len(brute_set(t))]

    def test_less_than_on_single_valued(self):
        assert status(value_count_less(one_of([False, False, False]), 2)) == SATISFIED

    def test_less_than_falsified_at_threshold(self):
        assert status(value_count_less(choice(value(1), value(2)), 2)) == FALSIFIED

    def test_less_than_on_empty(self):
        assert status(value_count_less(fail(), 1)) == SATISFIED

    def test_less_than_zero_impossible(self):
        assert status(value_count_less(fail(), 0)) == FALSIFIED

    @pytest.mark.parametrize("op", [value_count, value_count_less])
    def test_negative_count_rejected_when_built(self, op):
        with pytest.raises(ValueError, match=op.__name__):
            op(choice(value(1), value(2)), -1)

    @pytest.mark.parametrize("tree, n, results", [
        (value(1), 0, "({..} reaches 0 values)"),
        (fail(), 0, "({..} reaches 0 values)"),
        (value(1), 1, "({1,..} reaches 1 values)"),
    ])
    def test_undecided_side_renders_its_values_then_dots(self, tree, n, results):
        out = value_count_less(tree, n).evaluate(CTX)
        assert (out.status, out.results) == (FALSIFIED, results)


# the first RENDERED_VALUES values of one_of(range(n)) for n >= 154, drawn bfs
BFS_HEAD = (
    "0,1,2,3,4,5,6,9,10,11,14,15,16,19,20,21,24,25,26,29,30,31,34,35,36,39,40,"
    "41,42,43,44,45,48,49,50,53,54,55,58,59,60,63,64,65,68,69,70,73,74,75,78,79,"
    "80,81,82,83,84,87,88,89,92,93,94,97,98,99,102,103,104,107,108,109,112,113,"
    "114,117,118,119,120,121,122,123,126,127,128,131,132,133,136,137,138,141,142,"
    "143,146,147,148,151,152,153"
)


class TestRenderedValues:
    """A report shows at most RENDERED_VALUES values of a side and counts
    the rest, before the .. of a side that did not exhaust."""

    def test_long_sides_are_cut(self):
        assert RENDERED_VALUES == 100 == BFS_HEAD.count(",") + 1
        bfs = EvalContext(strategy=Strategy("bfs"))
        out = same_set(one_of(range(5000)), one_of(range(5001))).evaluate(bfs)
        assert (out.status, out.results) == (
            FALSIFIED, f"({{{BFS_HEAD},+4900 more}},{{{BFS_HEAD},+4901 more}})"
        )
        out = value_count(one_of(range(20_000)), 10_000).evaluate(bfs)
        assert (out.status, out.results) == (
            FALSIFIED, f"({{{BFS_HEAD},+9901 more,..}} has more than 10000 values)"
        )

    def test_a_side_of_exactly_the_limit_is_shown_whole(self):
        out = same_set(one_of(range(RENDERED_VALUES)), fail()).evaluate(CTX)
        assert out.results.count(",") == RENDERED_VALUES and "more" not in out.results


class TestImplication:
    def test_false_guard_drops(self):
        assert status(implies(False, is_equal(1, 2))) == DROPPED

    def test_false_guard_gives_the_shared_dropped_property(self):
        assert implies(False, is_equal(1, 2)) is _DROP_PROP
        assert implies(0, lambda: is_equal(1, 2)) is _DROP_PROP
        assert implies(True, is_equal(1, 1)) is not _DROP_PROP

    def test_true_guard_delegates(self):
        assert status(implies(True, is_equal(1, 1))) == SATISFIED
        assert status(implies(True, is_equal(1, 2))) == FALSIFIED

    def test_lazy_consequent_not_built_when_dropped(self):
        def explode():
            raise AssertionError("consequent built despite false guard")

        assert status(implies(False, explode)) == DROPPED

    def test_guarded_arithmetic(self):
        n = 3
        p = implies(n > 0, lambda: is_equal(sum(range(1, n + 1)), n * (n + 1) // 2))
        assert status(p) == SATISFIED


class TestBoolQuantifiers:
    def test_eventually_finds_true(self):
        assert status(eventually(choice(value(False), value(True)))) == SATISFIED

    def test_eventually_on_empty_falsifies(self):
        assert status(eventually(fail())) == FALSIFIED

    def test_eventually_all_false_falsifies(self):
        assert status(eventually(one_of([False, False]))) == FALSIFIED

    def test_always_on_single_true(self):
        assert status(always(value(True))) == SATISFIED

    def test_always_with_one_false_falsifies(self):
        assert status(always(choice(value(True), value(False)))) == FALSIFIED

    def test_always_on_empty_falsifies(self):
        assert status(always(fail())) == FALSIFIED

    def test_duality_on_random_bool_trees(self):
        rng = random.Random(31)
        for _ in range(100):
            t = random_tree(rng)
            from ndcheck.searchtree import bind, value as mk

            bt = bind(t, lambda n: mk(n % 2 == 0))
            if not brute_set(bt):
                continue
            if status(always(bt)) == SATISFIED:
                assert status(eventually(bt)) == SATISFIED
            if status(eventually(bt)) == FALSIFIED:
                assert status(always(bt)) == FALSIFIED

    def test_order_independence_across_strategies(self):
        from ndcheck.searchtree import bind

        rng = random.Random(47)
        for _ in range(40):
            t = random_tree(rng)
            bt = bind(t, lambda n: value(n > 1))
            props = [
                same_set(t, one_of([0, 1])),
                value_count(t, 2),
                eventually(bt),
                always(bt),
            ]
            for p in props:
                outcomes = {status(p, EvalContext(strategy=s)) for s in STRATEGIES}
                assert len(outcomes) == 1


class TestForAll:
    def test_empty_sequence_satisfied(self):
        assert status(for_all([], lambda v: is_equal(v, v))) == SATISFIED

    def test_all_pass(self):
        assert status(for_all([1, 2, 3], lambda v: is_equal(v, v))) == SATISFIED

    def test_first_falsified_wins_and_is_recorded(self):
        out = for_all([1, 2, 3], lambda n: is_equal(n < 2, True)).evaluate(CTX)
        assert out.status == FALSIFIED
        assert out.arguments == "2"

    def test_dropped_elements_do_not_fail(self):
        p = for_all([1, 2, 0], lambda n: implies(n > 0, lambda: is_equal(n, n)))
        assert status(p) == SATISFIED

    def test_infinite_tree_source_is_bounded(self):
        ctx = EvalContext(for_all_limit=50)
        assert status(for_all(nat_chain(), lambda n: is_equal(n >= 0, True)), ctx) == SATISFIED

    def test_thunk_source(self):
        assert status(for_all(lambda: iter([1, 2]), lambda v: is_equal(v, v))) == SATISFIED

    def test_node_budget_short_of_limit_is_inconclusive(self):
        ctx = EvalContext(strategy=Strategy(node_budget=20), for_all_limit=100)
        out = for_all(list_of(builtin(BaseType.INT)), lambda xs: is_equal(1, 1)).evaluate(ctx)
        assert out.status == INCONCLUSIVE
        assert out.detail == "for_all: left side undecided (node budget exceeded)"

    def test_exhausted_finite_domain_within_budget_is_satisfied(self):
        ctx = EvalContext(strategy=Strategy(node_budget=7), for_all_limit=100)
        assert status(for_all(one_of([1, 2, 3, 4]), lambda v: is_equal(v, v)), ctx) == SATISFIED

    def test_node_budget_after_limit_is_satisfied(self):
        def barren():
            return choice(fail(), defer(barren))

        ctx = EvalContext(strategy=Strategy(node_budget=20), for_all_limit=2)
        tree = choice(value(1), choice(value(2), barren()))
        assert status(for_all(tree, lambda n: is_equal(n, n)), ctx) == SATISFIED


class TestReturns:
    def test_write_then_read_round_trip(self, tmp_path):
        ctx = EvalContext(scratch_dir=tmp_path)

        def action(scratch: Path):
            (scratch / "TEST").write_text("Hello")
            return (scratch / "TEST").read_text()

        assert status(returns(action, "Hello"), ctx) == SATISFIED

    def test_unit_result(self, tmp_path):
        ctx = EvalContext(scratch_dir=tmp_path)

        def write_only(scratch: Path):
            (scratch / "TEST").write_text("Hello")
            return None

        assert status(returns(write_only, None), ctx) == SATISFIED

    def test_wrong_result_falsifies(self, tmp_path):
        ctx = EvalContext(scratch_dir=tmp_path)
        out = returns(lambda _: 1, 2).evaluate(ctx)
        assert out.status == FALSIFIED
        assert out.results == "(1,2)"

    @pytest.mark.parametrize("got,expected,same", [
        ([1, 2], [1, 2], True),
        (float("nan"), float("nan"), True),
        (True, 1, False),
        ([1], (1,), False),
        (Leaf([1]), Leaf([1]), True),
        (Ordering.LT, 0, False),
    ])
    def test_compares_like_keys(self, tmp_path, got, expected, same):
        out = returns(lambda _: got, expected).evaluate(EvalContext(scratch_dir=tmp_path))
        assert out.status == (SATISFIED if same else FALSIFIED)
        assert same is (canonical(got) == canonical(expected))

    def test_standalone_evaluation_uses_throwaway_scratch(self):
        def action(scratch: Path):
            (scratch / "TEST").write_text("x")
            return (scratch / "TEST").read_text()

        out = returns(action, "x").evaluate(EvalContext())
        assert out.status == SATISFIED
        assert not Path("TEST").exists()


class TestLabels:
    def test_classify_attaches_when_condition_holds(self):
        out = classify(True, "short", is_equal(1, 1)).evaluate(CTX)
        assert out.status == SATISFIED and out.labels == ("short",)

    def test_classify_skips_otherwise(self):
        out = classify(False, "short", is_equal(1, 1)).evaluate(CTX)
        assert out.labels == ()

    def test_collect_attaches_rendered_value(self):
        out = collect([1, 2], is_equal(1, 1)).evaluate(CTX)
        assert out.labels == ("[1,2]",)

    def test_labels_aggregate_over_for_all(self):
        xs = [0, 1, 2, 3]
        out = for_all(xs, lambda n: collect(n % 2, is_equal(n, n))).evaluate(CTX)
        assert sorted(out.labels) == ["0", "0", "1", "1"]

    def test_for_all_keeps_every_label_in_order(self):
        n = 20_000
        ctx = EvalContext(for_all_limit=n)
        out = for_all(range(n), lambda i: collect(i, classify(i % 2 == 0, "even", is_equal(i, i)))).evaluate(ctx)
        assert out.status == SATISFIED
        expect = []
        for i in range(n):
            expect += ["even", str(i)] if i % 2 == 0 else [str(i)]
        assert out.labels == tuple(expect)
        falsified = for_all(range(n), lambda i: collect(i, is_equal(i < n - 1, True))).evaluate(ctx)
        assert falsified.status == FALSIFIED
        assert falsified.labels == tuple(str(i) for i in range(n))

    @pytest.mark.parametrize("build,message", [
        (lambda: for_all([1], lambda v: v == v), "for_all body returned bool, not a property"),
        (lambda: classify(True, "x", True), "classify got bool, not a property"),
        (lambda: collect(1, None), "collect got NoneType, not a property"),
    ], ids=["for_all", "classify", "collect"])
    def test_an_inner_value_that_is_not_a_property_is_named(self, build, message):
        with pytest.raises(TypeError) as err:
            build().evaluate(CTX)
        assert str(err.value) == message


class TestEvalContext:
    def test_repeatable_outcomes(self):
        p = same_set(one_of([3, 1, 3]), one_of([1, 3]))
        ctx = EvalContext(strategy=Strategy("rand_level_diag", seed=12))
        assert p.evaluate(ctx) == p.evaluate(ctx)


def ints(n):
    return one_of(range(n))


def in_order(xs):
    """A right spine of choices whose values come out in the order of xs
    under bfs."""
    t = value(xs[-1])
    for x in reversed(xs[:-1]):
        t = choice(value(x), t)
    return t


# (a property over a side of n values, its outcome's status at n =
# VALUE_BUDGET, and its detail at n = VALUE_BUDGET + 1, where that side is
# undecided): each operator that draws a value set, on each side it draws
AT_BUDGET = [
    (lambda n: same_set(ints(n), ints(n)), SATISFIED,
     "same_set: left side undecided (value budget exceeded)"),
    (lambda n: reduces_to(ints(n), value(-1)), FALSIFIED,
     "reduces_to: left side undecided (value budget exceeded)"),
    (lambda n: reduces_to(ints(n), ints(n)), SATISFIED,
     "reduces_to: right side undecided (value budget exceeded)"),
    (lambda n: value_count(ints(n), n), SATISFIED,
     "value_count: left side undecided (value budget exceeded)"),
    (lambda n: value_count_less(ints(n), n + 1), SATISFIED,
     "value_count_less: left side undecided (value budget exceeded)"),
    (lambda n: eventually(one_of([False] * n)), FALSIFIED,
     "eventually: left side undecided (value budget exceeded)"),
    (lambda n: always(one_of([True] * n)), SATISFIED,
     "always: left side undecided (value budget exceeded)"),
]
# (a property whose n-th and last value under bfs would decide it early, its
# detail at n = VALUE_BUDGET + 1): a value past the budget decides nothing
PAST_BUDGET = [
    (lambda n: reduces_to(in_order(range(n)), value(n - 1)),
     "reduces_to: left side undecided (value budget exceeded)"),
    (lambda n: eventually(in_order([False] * (n - 1) + [True])),
     "eventually: left side undecided (value budget exceeded)"),
    (lambda n: always(in_order([True] * (n - 1) + [False])),
     "always: left side undecided (value budget exceeded)"),
]


def budget_id(detail, case):
    """The test id of a value-budget row: its operator, side and case."""
    return detail.split(" side")[0].replace(": ", "-") + "-" + case


class TestValueBudget:
    @pytest.mark.parametrize("build, n, status, detail", [
        (build, VALUE_BUDGET, status, "") for build, status, _ in AT_BUDGET
    ] + [
        (build, VALUE_BUDGET + 1, INCONCLUSIVE, detail) for build, _, detail in AT_BUDGET
    ] + [
        (build, VALUE_BUDGET + 1, INCONCLUSIVE, detail) for build, detail in PAST_BUDGET
    ], ids=[budget_id(d, "at-budget") for _, _, d in AT_BUDGET]
        + [budget_id(d, "over-budget") for _, _, d in AT_BUDGET]
        + [budget_id(d, "last-value-past-budget") for _, d in PAST_BUDGET])
    def test_a_side_of_exactly_the_budget_is_decided(self, build, n, status, detail):
        out = build(n).evaluate(EvalContext(strategy=Strategy("bfs")))
        assert (out.status, out.detail) == (status, detail)


# (kind, a thunk building a property of that kind, its outcome's status):
# every operator, and each two-sided one on plain values and on trees
EVERY_OPERATOR = [
    ("is_equal", lambda: is_equal([1], [1]), SATISFIED),
    ("is_equal", lambda: is_equal(one_of([1, 2]), 1), FALSIFIED),
    ("same_set", lambda: same_set([1], [2]), FALSIFIED),
    ("same_set", lambda: same_set(one_of([1, 2]), one_of([2, 1])), SATISFIED),
    ("reduces_to", lambda: reduces_to(Leaf(1), Leaf(1)), SATISFIED),
    ("reduces_to", lambda: reduces_to(one_of([1, 2]), 2), SATISFIED),
    ("value_count", lambda: value_count(one_of([1, 2]), 2), SATISFIED),
    ("value_count_less", lambda: value_count_less(one_of([1, 2]), 2), FALSIFIED),
    ("implies", lambda: implies(True, lambda: is_equal(1, 1)), SATISFIED),
    ("implies", lambda: implies(False, lambda: is_equal(1, 1)), DROPPED),
    ("eventually", lambda: eventually(one_of([False, True])), SATISFIED),
    ("always", lambda: always(one_of([True, False])), FALSIFIED),
    ("for_all", lambda: for_all([1, 2], lambda v: is_equal(v, v)), SATISFIED),
    ("returns", lambda: returns(lambda _: [1], [1]), SATISFIED),
    ("classify", lambda: classify(True, "small", is_equal(1, 1)), SATISFIED),
    ("collect", lambda: collect(1, is_equal(1, 2)), FALSIFIED),
]


class TestPropContract:
    """What code that wraps a property's check relies on (the benchmark's
    tracer does, for every property it runs): a copy made by
    dataclasses.replace takes the new check, both are hashable, also inside
    a frozen TestSpec, and evaluating the copy gives the original's outcome,
    through the new check."""

    @pytest.mark.parametrize(
        "kind,build,want", EVERY_OPERATOR,
        ids=[f"{kind}-{i}" for i, (kind, _, _) in enumerate(EVERY_OPERATOR)],
    )
    def test_replace_hash_and_evaluate(self, tmp_path, kind, build, want):
        ctx = EvalContext(scratch_dir=tmp_path)
        p = build()
        calls = []

        def wrapped(c):
            calls.append(c)
            return p.check(c)

        q = dataclasses.replace(p, check=wrapped)
        assert q.check is wrapped and p.check is not wrapped
        assert isinstance(hash(p), int) and isinstance(hash(q), int)
        assert hash(TestSpec("t", "M", prop=q)) == hash(TestSpec("t", "M", prop=q))
        assert p == p and q != p  # compared by identity
        out = p.evaluate(ctx)
        assert out.status == want
        assert q.evaluate(ctx) == out == p.evaluate(ctx)
        assert calls == [ctx]


class TestEvaluatePausesGC:
    """Prop.evaluate runs the check with automatic cyclic GC paused and
    leaves GC enabled or disabled as it found it."""

    @pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
    def gc_was_enabled(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    def test_check_runs_paused_and_state_is_restored(self, gc_was_enabled):
        seen = []
        p = Prop(lambda ctx: seen.append(gc.isenabled()) or Outcome(SATISFIED))
        assert p.evaluate(CTX) == Outcome(SATISFIED)
        assert seen == [False]
        assert gc.isenabled() == gc_was_enabled

    def test_state_is_restored_when_the_check_raises(self, gc_was_enabled):
        p = Prop(lambda ctx: 1 // 0)
        with pytest.raises(ZeroDivisionError):
            p.evaluate(CTX)
        assert gc.isenabled() == gc_was_enabled

    def test_outcomes_are_those_of_the_check(self, gc_was_enabled):
        ctx = EvalContext(for_all_limit=300)
        props = [
            for_all(list_of(builtin(BaseType.INT)), lambda xs: is_equal(xs, xs)),
            for_all(list_of(builtin(BaseType.INT)), lambda xs: is_equal(len(xs), 0)),
            same_set(one_of([3, 1, 3]), one_of([1, 3])),
            is_equal(nat_chain(), 0),
        ]
        for p in props:
            assert p.evaluate(ctx) == p.check(ctx)
        assert gc.isenabled() == gc_was_enabled


class SelfUnequal:
    """Hashable, but not == to anything, itself included."""

    def __eq__(self, other):
        return False

    __hash__ = object.__hash__


DECIMAL_NAN = Decimal("NaN")

# values.same_value compares the flat values at each scalar and list step,
# the dataclass value in step and the enum member through its key; an
# object that is not == to itself is still the same value as itself, on a
# leaf as in a walk
LEAVES = [
    value(1), value([2, 1]), value([2, 1]), value([True]), value(True),
    value("ab"), value(b"ab"), value(()), value(float("nan")), value(float("nan")),
    value(Ordering.LT), value(Leaf(1)), value(DECIMAL_NAN), value(DECIMAL_NAN),
    value(SelfUnequal()), fail(),
]
LEAF_CONTEXTS = [
    EvalContext(strategy=Strategy(s.kind, s.seed, node_budget))
    for s in STRATEGIES
    for node_budget in (1, 100_000)
]


def leaf_props(wrap):
    """Every value-set operator over leaf roots, each root passed through wrap."""
    props = []
    for a in LEAVES:
        props += [value_count(wrap(a), n) for n in range(3)]
        props += [value_count_less(wrap(a), n) for n in range(3)]
        for b in LEAVES + [choice(value(1), value(2))]:
            props += [is_equal(wrap(a), wrap(b)), same_set(wrap(a), wrap(b))]
            props += [reduces_to(wrap(a), wrap(b)), reduces_to(wrap(b), wrap(a))]
    return props


class TestLeafFastPath:
    @pytest.mark.parametrize("ctx", LEAF_CONTEXTS)
    def test_leaf_roots_decide_like_a_walked_tree(self, ctx):
        """Two value roots are compared without a walk or keys, and any
        other leaf root is walked as a one-node tree; the same tree behind a
        deferred node is walked and keyed.  Every outcome must agree, node
        budgets of 1 included."""
        fast = leaf_props(lambda t: t)
        walked = leaf_props(lambda t: defer(lambda: t))
        for p, q in zip(fast, walked):
            assert p.evaluate(ctx) == q.evaluate(ctx), p

    def test_plain_values_build_no_enumeration(self, monkeypatch):
        walks = []
        real = enumerate_tree
        monkeypatch.setattr("ndcheck.prop.enumerate_tree", lambda t, s=None: walks.append(t) or real(t, s))
        xs = [3, 1, 2]
        assert is_equal(xs, xs).evaluate().status == SATISFIED
        assert same_set(xs, xs).evaluate().status == SATISFIED
        # two leaves of values that are not flat are compared in step
        assert reduces_to(Leaf(1), Leaf(1)).evaluate().status == SATISFIED
        out = reduces_to(Leaf(1), Leaf(2)).evaluate()
        assert (out.status, out.results) == (FALSIFIED, "(Leaf 1,Leaf 2)")
        assert walks == []
        assert same_set(one_of([1, 2]), one_of([2, 1])).evaluate().status == SATISFIED
        assert len(walks) == 2

    def test_plain_values_build_no_cursor(self, monkeypatch):
        draws = []
        real = keyed

        def counting_keyed(values):
            draws.append(values)
            return real(values)

        monkeypatch.setattr("ndcheck.prop.keyed", counting_keyed)
        xs = [3, 1, 2]
        walked = [is_equal(xs, fail()), value_count(xs, 1), value_count(fail(), 0), value_count_less(xs, 2)]
        assert [p.evaluate().status for p in walked] == [FALSIFIED] + [SATISFIED] * 3
        draws.clear()  # a side that is not one of a pair of plain values is walked
        plain = [is_equal(xs, xs), same_set(xs, [3, 1, 2])]
        assert [p.evaluate().status for p in plain] == [SATISFIED] * 2
        assert draws == []
        assert status(same_set(one_of([1, 2]), one_of([2, 1]))) == SATISFIED
        assert len(draws) == 2

    def test_each_value_is_keyed_once(self, monkeypatch):
        keyed = []
        monkeypatch.setattr("ndcheck.prop.canonical", lambda v: keyed.append(v) or canonical(v))
        assert is_equal([1, 2], [1, 2]).evaluate().status == SATISFIED
        assert len(keyed) == 0  # flat values are compared without keys
        assert is_equal(Leaf([1]), Leaf([1])).evaluate().status == SATISFIED
        assert len(keyed) == 0  # nor are two plain values of any other shape
        bfs = EvalContext(strategy=Strategy("bfs"))
        assert reduces_to(one_of([1, 2]), 2).evaluate(bfs).status == SATISFIED
        assert keyed == [2, 1, 2]  # the right side, then the left side up to its 2
        keyed.clear()
        assert value_count(5, 1).evaluate().status == SATISFIED
        assert keyed == [5]  # a walked leaf side is keyed once
        keyed.clear()
        assert is_equal(one_of([1, 2]), 1).evaluate(bfs).status == FALSIFIED
        assert keyed == [1, 2, 1]  # the left side up to its second value, then the right-hand 1

    def test_reduces_to_keys_both_sides_alike(self):
        assert status(reduces_to(one_of([1, 2]), 11)) == FALSIFIED
        assert status(reduces_to(one_of([1, 11]), 11)) == SATISFIED


def succ_chain(depth):
    n = Zero()
    for _ in range(depth):
        n = Succ(n)
    return n


def nested_list(depth):
    xs: list = []
    for _ in range(depth):
        xs = [xs]
    return xs


class Small(IntEnum):
    ONE = 1


class Other(IntEnum):
    ONE = 1


@dataclasses.dataclass(frozen=True)
class Point:
    x: int


NAN, OTHER_NAN = float("nan"), float("nan")
# plain values that are ==, or the same value, across types and objects
POOL = [
    True, 1, 1.0, NAN, OTHER_NAN, -0.0, 0.0, "a", b"a", [1], (1,), Point(1),
    Small.ONE, Other.ONE, DECIMAL_NAN, DECIMAL_NAN,
]


class TestDecidedWhenBuilt:
    """Two plain values that are one object are decided when the property
    is built and share one satisfied property; any other pair, two equal
    scalars that are distinct objects included, is compared when checked.
    Either way the outcome is _leaf_pair's."""

    @pytest.mark.parametrize("op", [is_equal, same_set, reduces_to])
    @pytest.mark.parametrize("wrap", [lambda v: v, value], ids=["plain", "leaf"])
    def test_law(self, op, wrap):
        assert NAN is not OTHER_NAN and POOL.count(DECIMAL_NAN) == 2
        shared = 0
        for a in POOL:
            for b in POOL:
                p = op(wrap(a), wrap(b))
                assert p.evaluate(CTX) == _leaf_pair(a, b, CTX), (a, b)
                assert (p is _SAT_PROP) == (a is b), (a, b)
                shared += p is _SAT_PROP
        # each object with itself, and the Decimal NaN with its second
        # entry both ways; the two float NaNs, and 0.0 with -0.0, are the
        # same value but not one object
        assert shared == len(POOL) + 2

    def test_a_list_pair_is_compared_when_checked(self):
        xs = [1, 2]
        p = is_equal(xs, [1, 2])
        xs.append(3)
        out = p.evaluate()
        assert (out.status, out.results) == (FALSIFIED, "([1,2,3],[1,2])")

    def test_replace_leaves_the_shared_property_intact(self):
        shared = is_equal(1, 1)
        assert shared is _SAT_PROP and shared.check is _satisfied

        def falsify(ctx):
            return Outcome(FALSIFIED)

        q = dataclasses.replace(shared, check=falsify)
        assert q.check is falsify and q.evaluate().status == FALSIFIED
        assert shared.check is _satisfied and is_equal(2, 2).evaluate().status == SATISFIED


class TestDeepValues:
    """Two plain values are compared without recursion, however deep."""

    @pytest.mark.parametrize("build", [succ_chain, nested_list])
    def test_equal_deep_values_are_satisfied(self, build):
        a, b = build(3000), build(3000)
        assert a is not b
        assert status(is_equal(a, b)) == SATISFIED
        assert status(returns(lambda _: a, b)) == SATISFIED


class TestSelfUnequal:
    """A value that is not == to itself is the same value as itself, as it
    is inside a container and in a walked value set."""

    @pytest.mark.parametrize("d", [DECIMAL_NAN, SelfUnequal()], ids=["decimal_nan", "self_unequal"])
    def test_leaf_walked_and_nested_agree(self, d):
        assert d != d
        for p in (
            is_equal(d, d), same_set(d, d), reduces_to(d, d), returns(lambda _: d, d),
            is_equal(d, defer(lambda: value(d))), is_equal([d], [d]),
        ):
            assert status(p) == SATISFIED, p
        assert status(is_equal(d, Decimal("NaN"))) == FALSIFIED


class TestDistinctFlag:
    """A tree marked distinct is drawn straight from its Enumeration; a walk
    drawn through ``keyed`` must yield the same values and end the same."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("cap", [None, 0, 1, 3, 50])
    @pytest.mark.parametrize("budget", [1, 7, 50, 2000])
    def test_same_values_and_end_as_keyed(self, strategy, cap, budget):
        strategy = Strategy(strategy.kind, strategy.seed, budget)
        for tree in (
            value(5),
            fail(),
            one_of([1, 2, 3]),
            builtin(BaseType.INT).tree,
            tuple_of(builtin(BaseType.BOOL), list_of(builtin(BaseType.ORDERING))).tree,
        ):
            direct = enumerate_tree(tree, strategy)
            values = list(islice(direct, cap))
            through_keyed = enumerate_tree(tree, strategy)
            pairs = list(islice(keyed(through_keyed), cap))
            assert [v for _, v in pairs] == values
            assert [k for k, _ in pairs] == [canonical(v) for v in values]
            assert direct.exhausted == through_keyed.exhausted
            assert direct.budget_exceeded == through_keyed.budget_exceeded

    def test_for_all_skips_keys_only_for_a_marked_generator(self, monkeypatch):
        keyed = []
        monkeypatch.setattr("ndcheck.prop.canonical", lambda v: keyed.append(v) or canonical(v))
        ctx = EvalContext(for_all_limit=10)
        sat = Prop(lambda _ctx: Outcome(SATISFIED))  # keys nothing itself
        ints = builtin(BaseType.INT)
        assert status(for_all(ints, lambda n: sat), ctx) == SATISFIED
        assert keyed == []
        for source in (Generator(ints.tree), ints.tree):
            assert status(for_all(source, lambda n: sat), ctx) == SATISFIED
            assert len(keyed) == 10
            keyed.clear()
        pulled = []

        def naturals():   # a thunk source: no element is drawn past the limit
            n = 0
            while True:
                pulled.append(n)
                yield n
                n += 1

        assert status(for_all(naturals, lambda n: sat), ctx) == SATISFIED
        assert pulled == list(range(10))
        pulled.clear()
        assert status(for_all(naturals, lambda n: sat), EvalContext(for_all_limit=0)) == SATISFIED
        assert pulled == []
