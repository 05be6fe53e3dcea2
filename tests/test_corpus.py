"""The bundled example suites: operations against brute-force oracles."""

import itertools
import math

import pytest

from ndcheck.corpus.concdup import some_dup
from ndcheck.corpus.isset import is_set
from ndcheck.corpus.perm import all_different, perm, sorted_ascending
from ndcheck.corpus.rev import rev
from ndcheck.corpus.sort import quicksort, sort_post, sort_spec
from ndcheck.corpus.sumup import gen_pos, sum_up
from ndcheck.corpus.trees import (
    Leaf,
    Node,
    Succ,
    Zero,
    gen_nat,
    gen_tree,
    leaves,
    mirror,
)
from ndcheck.gen import BaseType, builtin
from ndcheck.searchtree import Strategy, enumerate_tree, take_values
from ndcheck.values import canonical

DIAG = Strategy("level_diag")


def value_set(tree):
    e = enumerate_tree(tree, DIAG)
    vals = list(e)
    assert e.exhausted
    return {canonical(v) for v in vals}


class TestPerm:
    def test_empty_list_has_one_permutation(self):
        assert value_set(perm([])) == {canonical([])}

    def test_two_elements(self):
        assert value_set(perm([1, 2])) == {canonical([1, 2]), canonical([2, 1])}

    def test_distinct_count_is_factorial(self):
        e = enumerate_tree(perm([1, 2, 3]), DIAG)
        distinct = {canonical(v) for v in e}
        assert len(distinct) == math.factorial(3)

    def test_matches_brute_force_up_to_five_elements(self):
        cases = [
            [], [1], [1, 1], [1, 2], [2, 1, 2], [1, 2, 3],
            [1, 1, 2, 2], [4, 3, 2, 1], [1, 2, 3, 4, 5], [1, 1, 1, 2, 3],
        ]
        for xs in cases:
            expect = {canonical(list(p)) for p in itertools.permutations(xs)}
            assert value_set(perm(xs)) == expect, xs

    def test_helpers(self):
        assert sorted_ascending([]) and sorted_ascending([1, 1, 2])
        assert not sorted_ascending([2, 1])
        assert all_different([1, 2, 3]) and all_different([])
        assert not all_different([1, 2, 1])


class TestSomeDup:
    def test_values_are_the_duplicated_elements(self):
        assert value_set(some_dup([1, 2, 2, 1])) == {canonical(1), canonical(2)}

    def test_no_duplicates_means_no_values(self):
        e = enumerate_tree(some_dup([1, 2, 3]), DIAG)
        assert list(e) == [] and e.exhausted

    def test_triple_occurrence_still_one_value(self):
        assert value_set(some_dup([1, 2, 1, 2, 1])) == {canonical(1), canonical(2)}

    def test_matches_brute_force_up_to_six_elements(self):
        pool = [0, 1, 2]
        for n in range(7):
            for xs in itertools.product(pool, repeat=n):
                xs = list(xs)
                expect = {canonical(x) for x in xs if xs.count(x) >= 2}
                assert value_set(some_dup(xs)) == expect, xs


class TestSortSuite:
    def test_quicksort_on_distinct_elements(self):
        assert quicksort([3, 1, 2]) == [1, 2, 3]

    def test_quicksort_drops_duplicates(self):
        assert quicksort([1, 1]) == [1]
        assert quicksort([2, 1, 2, 3, 2]) == [1, 2, 3]

    def test_quicksort_empty(self):
        assert quicksort([]) == []

    def test_spec_is_the_sorted_rearrangement(self):
        assert value_set(sort_spec([2, 1])) == {canonical([1, 2])}
        assert value_set(sort_spec([1, 1])) == {canonical([1, 1])}
        assert value_set(sort_spec([])) == {canonical([])}

    def test_post_compares_lengths(self):
        assert sort_post([1, 2], [2, 1])
        assert not sort_post([1, 1], [1])


class TestRevAndSumUp:
    def test_rev_basics(self):
        assert rev([]) == []
        assert rev([1, 2, 3]) == [3, 2, 1]
        assert rev(rev([1, 2, 3, 4])) == [1, 2, 3, 4]

    def test_sum_up_closed_form(self):
        for n in range(1, 50):
            assert sum_up(n) == n * (n + 1) // 2

    def test_gen_pos_counts_upward(self):
        assert take_values(gen_pos().tree, DIAG, 5) == [1, 2, 3, 4, 5]


class TestTrees:
    def test_leaves_and_mirror_by_hand(self):
        t = Node((Leaf(1), Node((Leaf(2), Leaf(3))), Leaf(4)))
        assert leaves(t) == [1, 2, 3, 4]
        assert leaves(mirror(t)) == [4, 3, 2, 1]
        assert mirror(mirror(t)) == t

    def test_mirror_laws_on_generated_trees(self):
        for bt in (BaseType.ORDERING, BaseType.BOOL):
            for t in take_values(gen_tree(builtin(bt)).tree, DIAG, 120):
                assert mirror(mirror(t)) == t
                assert leaves(t) == list(reversed(leaves(mirror(t))))

    def test_nat_generator_prefix(self):
        vs = take_values(gen_nat().tree, DIAG, 3)
        assert vs == [Zero(), Succ(Zero()), Succ(Succ(Zero()))]

    def test_nat_rendering(self):
        assert str(Zero()) == "Z"
        assert str(Succ(Zero())) == "S Z"
        assert str(Succ(Succ(Zero()))) == "S (S Z)"

    def test_tree_rendering(self):
        assert str(Leaf(1)) == "Leaf 1"
        assert str(Node((Leaf(1), Leaf(2)))) == "Node [Leaf 1,Leaf 2]"


class TestPermCountingEdge:
    def test_duplicate_pair_has_one_permutation_value(self):
        from ndcheck.prop import FALSIFIED, SATISFIED, value_count

        assert value_count(perm([1, 1]), 2).evaluate().status == FALSIFIED
        assert value_count(perm([1, 1]), 1).evaluate().status == SATISFIED


@pytest.fixture(scope="module")
def full_report():
    from ndcheck import registry
    from ndcheck.runner import RunConfig, run_suite

    return run_suite(registry.specs_for(), RunConfig())


class TestSuiteVerdicts:
    """Whole-corpus regression: every bundled test lands on its known verdict."""

    EXPECTED = {
        "concNull12": ("Passed", 1),
        "concCurry": ("Passed", 1),
        "concIsAssociative_ON_BASETYPE": ("Passed", 100),
        "concIsCommutative": ("Falsified", None),
        "concAddLengths": ("Passed", 100),
        "concLength": ("Passed", 100),
        "someDup1": ("Passed", 1),
        "someDup12": ("Passed", 1),
        "permLength_ON_BASETYPE": ("Passed", 100),
        "permCount": ("Passed", 100),
        "permIsEventuallySorted": ("Passed", 100),
        "revLength_ON_BASETYPE": ("Passed", 100),
        "revRevIsId_ON_BASETYPE": ("Passed", 100),
        "revRevIsIdLong": ("Exhausted", 0),
        "negOr": ("PassedExhaustive", 4),
        "sumUpIsCorrect": ("Passed", 100),
        "sumUpIsCorrectForAll": ("Passed", 1),
        "doubleMirrorIsId_ON_BASETYPE": ("Passed", 100),
        "leavesOfMirrorAreReversed_ON_BASETYPE": ("Passed", 100),
        "sortSatisfiesSpecification": ("Falsified", None),
        "sortSatisfiesPostCondition": ("Falsified", None),
        "sortlength": ("Falsified", None),
        "isSetIsDeterministic": ("Passed", 100),
        "writeTestFile": ("Passed", 1),
        "readTestFile": ("Passed", 1),
        "writeReadFile": ("Passed", 1),
    }

    def test_every_registered_test_matches_expected_verdict(self, full_report):
        assert len(full_report.entries) == len(self.EXPECTED)
        for entry in full_report.entries:
            kind, executed = self.EXPECTED[entry.name]
            assert entry.verdict.kind == kind, entry
            if executed is not None:
                assert entry.verdict.tests_executed == executed, entry

    def test_every_falsified_counterexample_revalidates(self, full_report):
        from ndcheck import registry
        from ndcheck.prop import FALSIFIED, EvalContext
        from ndcheck.runner import RunConfig

        cfg = RunConfig()
        ctx = EvalContext(strategy=cfg.strategy)
        bodies = {s.name: s for s in registry.specs_for() if s.kind == "param"}
        checked = 0
        for entry in full_report.entries:
            if entry.verdict.kind != "Falsified" or entry.name not in bodies:
                continue
            spec = bodies[entry.name]
            x = entry.verdict.counterexample
            prop = spec.body(*x) if spec.arity > 1 else spec.body(x)
            assert prop.evaluate(ctx).status == FALSIFIED, entry.name
            checked += 1
        assert checked >= 4  # concIsCommutative + the three Sort failures


class TestIsSet:
    def test_repeated_elements_yield_single_false(self):
        e = enumerate_tree(is_set([1, 3, 1, 3, 1]), DIAG)
        vals = list(e)
        assert e.exhausted
        assert len(vals) > 1  # one False per duplicated index pair
        assert set(vals) == {False}

    def test_all_distinct_yields_true(self):
        e = enumerate_tree(is_set([1, 2, 3]), DIAG)
        assert list(e) == [True]

    def test_empty_list_is_a_set(self):
        assert list(enumerate_tree(is_set([]), DIAG)) == [True]
