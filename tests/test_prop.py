"""The property operator algebra."""

import gc
import random
from itertools import islice
from pathlib import Path

import pytest

from ndcheck.corpus.trees import Leaf
from ndcheck.gen import BaseType, Generator, Ordering, builtin, list_of, pair_of
from ndcheck.prop import (
    DROPPED,
    FALSIFIED,
    INCONCLUSIVE,
    SATISFIED,
    EvalContext,
    Outcome,
    Prop,
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
from ndcheck.searchtree import Strategy, choice, defer, enumerate_tree, fail, one_of, value
from ndcheck.values import canonical

CTX = EvalContext()
STRATEGIES = [Strategy.bfs(), Strategy.level_diag(), Strategy.rand_level_diag(seed=3)]


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
    return {canonical(v) for v in enumerate_tree(tree, Strategy.bfs()).values()}


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
        ctx = EvalContext(strategy=Strategy.level_diag(node_budget=2))
        assert status(is_equal(nat_chain(), value(0)), ctx) == INCONCLUSIVE

    def test_two_values_decide_non_singleton_without_exhaustion(self):
        ctx = EvalContext(strategy=Strategy.level_diag(node_budget=50))
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
        ctx = EvalContext(strategy=Strategy.level_diag(node_budget=40))
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


class TestImplication:
    def test_false_guard_drops(self):
        assert status(implies(False, is_equal(1, 2))) == DROPPED

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


class TestEvalContext:
    def test_value_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            EvalContext(value_budget=0)

    def test_repeatable_outcomes(self):
        p = same_set(one_of([3, 1, 3]), one_of([1, 3]))
        ctx = EvalContext(strategy=Strategy.rand_level_diag(seed=12))
        assert p.evaluate(ctx) == p.evaluate(ctx)


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
        p = Prop("probe", lambda ctx: seen.append(gc.isenabled()) or Outcome(SATISFIED))
        assert p.evaluate(CTX) == Outcome(SATISFIED)
        assert seen == [False]
        assert gc.isenabled() == gc_was_enabled

    def test_state_is_restored_when_the_check_raises(self, gc_was_enabled):
        p = Prop("boom", lambda ctx: 1 // 0)
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


# flat values reach each branch of values.flat_equal; the enum member and
# the dataclass value are compared through their keys
LEAVES = [
    value(1), value([2, 1]), value([2, 1]), value([True]), value(True),
    value("ab"), value(b"ab"), value(()), value(float("nan")), value(float("nan")),
    value(Ordering.LT), value(Leaf(1)), fail(),
]
LEAF_CONTEXTS = [
    EvalContext(strategy=Strategy(s.kind, s.seed, node_budget), value_budget=value_budget)
    for s in STRATEGIES
    for node_budget in (1, 100_000)
    for value_budget in (1, 10_000)
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
        """A value or fail root skips the Enumeration, and two value roots
        of flat values are compared without keys; the same tree behind a
        deferred node is walked and keyed.  Every outcome must agree,
        budgets of 1 included."""
        fast = leaf_props(lambda t: t)
        walked = leaf_props(lambda t: defer(lambda: t))
        for p, q in zip(fast, walked):
            assert p.evaluate(ctx) == q.evaluate(ctx), p.kind

    def test_plain_values_build_no_enumeration(self, monkeypatch):
        walks = []
        real = enumerate_tree
        monkeypatch.setattr("ndcheck.prop.enumerate_tree", lambda t, s=None: walks.append(t) or real(t, s))
        xs = [3, 1, 2]
        assert is_equal(xs, xs).evaluate().status == SATISFIED
        assert same_set(xs, xs).evaluate().status == SATISFIED
        # two leaves of values that are not flat are decided by their keys
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
        plain = [
            is_equal(xs, xs), is_equal(xs, fail()), same_set(xs, [3, 1, 2]),
            value_count(xs, 1), value_count(fail(), 0), value_count_less(xs, 2),
        ]
        assert [p.evaluate().status for p in plain] == [SATISFIED, FALSIFIED] + [SATISFIED] * 4
        assert draws == []
        assert status(same_set(one_of([1, 2]), one_of([2, 1]))) == SATISFIED
        assert len(draws) == 2

    def test_each_value_is_keyed_once(self, monkeypatch):
        keyed = []
        monkeypatch.setattr("ndcheck.prop.canonical", lambda v: keyed.append(v) or canonical(v))
        assert is_equal([1, 2], [1, 2]).evaluate().status == SATISFIED
        assert len(keyed) == 0  # flat values are compared without keys
        assert is_equal(Leaf([1]), Leaf([1])).evaluate().status == SATISFIED
        assert keyed == [Leaf([1]), Leaf([1])]
        keyed.clear()
        bfs = EvalContext(strategy=Strategy.bfs())
        assert reduces_to(one_of([1, 2]), 2).evaluate(bfs).status == SATISFIED
        assert keyed == [2, 1, 2]  # the right side, then the left side up to its 2

    def test_reduces_to_keys_both_sides_alike(self):
        assert status(reduces_to(one_of([1, 2]), 11)) == FALSIFIED
        assert status(reduces_to(one_of([1, 11]), 11)) == SATISFIED


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
            pair_of(builtin(BaseType.BOOL), list_of(builtin(BaseType.ORDERING))).tree,
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
        sat = Prop("sat", lambda _ctx: Outcome(SATISFIED))  # keys nothing itself
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
