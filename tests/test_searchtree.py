"""Search tree construction and enumeration."""

import gc
import itertools
import random
import tracemalloc
import types
from collections import Counter
from heapq import heappop, heappush

import pytest

from ndcheck.corpus.trees import gen_nat, gen_tree
from ndcheck.gen import BaseType, builtin, list_of, tuple_of
from ndcheck.searchtree import (
    BFS,
    DEFAULT_NODE_BUDGET,
    RAND_LEVEL_DIAG,
    BindNode,
    Enumeration,
    FailNode,
    OrNode,
    Strategy,
    ValueNode,
    bind,
    choice,
    defer,
    enumerate_tree,
    fail,
    one_of,
    take_values,
    value,
)
from ndcheck.values import canonical

ALL_STRATEGIES = [Strategy("bfs"), Strategy("level_diag"), Strategy("rand_level_diag", seed=13)]


def leaf_multiset(tree):
    """Oracle: depth-first walk straight over the node structure."""
    out = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        while isinstance(node, BindNode):
            node = node.normalized
        if isinstance(node, ValueNode):
            out[canonical(node.payload)] += 1
        elif isinstance(node, OrNode):
            stack.append(node.left)
            stack.append(node.right)
    return out


def random_tree(rng, depth=0):
    r = rng.random()
    if depth >= 5 or r < 0.4:
        return value(rng.randrange(5))
    if r < 0.55:
        return fail()
    return choice(random_tree(rng, depth + 1), random_tree(rng, depth + 1))


def nat_chain(k=0):
    return choice(value(k), defer(lambda: nat_chain(k + 1)))


class TestBasicShapes:
    def test_value_enumerates_to_single_element(self):
        e = enumerate_tree(value(0))
        assert list(e) == [0]
        assert e.exhausted and not e.budget_exceeded

    def test_value_true_exhausts(self):
        e = enumerate_tree(value(True))
        assert list(e) == [True]
        assert e.exhausted

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_value_under_any_strategy(self, strategy):
        assert list(enumerate_tree(value(7), strategy)) == [7]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_fail_is_empty_and_exhausted(self, strategy):
        e = enumerate_tree(fail(), strategy)
        assert list(e) == []
        assert e.exhausted and not e.budget_exceeded

    def test_choice_of_fail_and_value(self):
        assert list(enumerate_tree(choice(fail(), value(1)))) == [1]

    def test_bind_over_fail_is_empty(self):
        assert list(enumerate_tree(bind(fail(), lambda a: value(a)))) == []

    def test_choice_enumerates_both(self):
        vs = list(enumerate_tree(choice(value(0), value(1)), Strategy("level_diag")))
        assert sorted(vs) == [0, 1]

    def test_bfs_emits_left_to_right(self):
        bool_tree = choice(value(False), value(True))
        e = enumerate_tree(bool_tree, Strategy("bfs"))
        assert list(e) == [False, True]
        assert e.exhausted

    def test_choice_with_fail_keeps_value_set(self):
        t = choice(value(3), choice(value(4), value(3)))
        with_fail = choice(t, fail())
        assert sorted(enumerate_tree(with_fail)) == sorted(enumerate_tree(t))

    def test_duplicate_leaves_preserved(self):
        assert list(enumerate_tree(choice(value(1), value(1)))) == [1, 1]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_value_free_trees_enumerate_empty(self, strategy):
        all_fail = choice(choice(fail(), fail()), fail())
        e = enumerate_tree(all_fail, strategy)
        assert list(e) == []
        assert e.exhausted


class TestBind:
    def test_bind_replaces_value_leaf_directly(self):
        node = bind(value(3), lambda a: value(a + 1))
        assert isinstance(node, ValueNode) and node.payload == 4

    def test_bind_keeps_fail(self):
        assert isinstance(bind(fail(), lambda a: value(a)), FailNode)

    def test_bind_expands_each_leaf(self):
        t = bind(
            choice(value(0), value(1)),
            lambda a: choice(value(a), value(a + 10)),
        )
        # hand expansion of the four leaves
        assert sorted(enumerate_tree(t)) == [0, 1, 10, 11]

    @pytest.mark.parametrize("a", [0, 3, -2])
    def test_bind_left_unit(self, a):
        f = lambda n: choice(value(n * 2), value(n - 1))
        via_bind = sorted(enumerate_tree(bind(value(a), f)))
        direct = sorted(enumerate_tree(f(a)))
        assert via_bind == direct

    def test_bind_over_infinite_tree_stays_lazy(self):
        t = bind(nat_chain(), lambda n: value(n * n))
        assert take_values(t, Strategy("level_diag"), 4) == [0, 1, 4, 9]


class TestEnumerationContracts:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_completeness_on_random_finite_trees(self, strategy):
        rng = random.Random(2024)
        for _ in range(150):
            t = random_tree(rng)
            e = enumerate_tree(t, strategy)
            got = Counter(canonical(v) for v in e)
            assert e.exhausted
            assert got == leaf_multiset(t)

    def test_strategy_agreement_on_value_multisets(self):
        rng = random.Random(7)
        for _ in range(80):
            t = random_tree(rng)
            sets = [
                Counter(canonical(v) for v in enumerate_tree(t, s))
                for s in ALL_STRATEGIES
            ]
            assert sets[0] == sets[1] == sets[2]

    def test_enumeration_is_deterministic(self):
        t = one_of(range(50))
        for s in ALL_STRATEGIES:
            assert list(enumerate_tree(t, s)) == list(enumerate_tree(t, s))

    def test_seed_changes_order_not_set(self):
        t = one_of(range(32))
        a = list(enumerate_tree(t, Strategy("rand_level_diag", seed=1)))
        b = list(enumerate_tree(t, Strategy("rand_level_diag", seed=2)))
        assert sorted(a) == sorted(b) == list(range(32))
        assert a != b  # 32 values make a seed collision absurdly unlikely

    def test_budget_exceeded_on_infinite_tree(self):
        e = enumerate_tree(nat_chain(), Strategy("level_diag", node_budget=50))
        vs = list(e)
        assert e.budget_exceeded and not e.exhausted
        assert 0 in vs and 1 in vs

    def test_flags_mutually_exclusive_after_full_drain(self):
        finite = enumerate_tree(one_of(range(5)))
        list(finite)
        assert finite.exhausted != finite.budget_exceeded
        infinite = enumerate_tree(nat_chain(), Strategy("level_diag", node_budget=30))
        list(infinite)
        assert infinite.exhausted != infinite.budget_exceeded

    def test_lazy_consumption_bounds_expansion(self):
        e = enumerate_tree(nat_chain(), Strategy("level_diag"))
        first = list(itertools.islice(iter(e), 5))
        assert first == [0, 1, 2, 3, 4]
        assert e.expansions <= 50  # nowhere near the 100k budget

    def test_early_stop_leaves_flags_unset(self):
        e = enumerate_tree(nat_chain(), Strategy("level_diag"))
        next(iter(e))
        assert not e.exhausted and not e.budget_exceeded


class TestTakeValues:
    def test_take_zero(self):
        assert take_values(nat_chain(), Strategy("bfs"), 0) == []

    def test_take_more_than_available(self):
        assert take_values(value(5), Strategy("bfs"), 10) == [5]

    def test_take_is_prefix_of_full_enumeration(self):
        t = one_of(range(30))
        s = Strategy("level_diag")
        full = list(enumerate_tree(t, s))
        assert take_values(t, s, 3) == full[:3]

    def test_negative_take_rejected(self):
        with pytest.raises(ValueError):
            take_values(value(1), Strategy("bfs"), -1)


class TestStrategyValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Strategy("dfs")

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Strategy(BFS, 0, 0)

    def test_fixed_seed_reproducible_across_instances(self):
        t = one_of(range(20))
        runs = [
            list(Enumeration(t, Strategy("rand_level_diag", seed=99)))
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]


# -- the walks as first written ---------------------------------------------


class _BudgetStop(Exception):
    pass


def forced_children(node):
    """A choice node's two children, left then right, each thunk forced once
    and stored back in its slot."""
    if callable(node._left):
        node._left = node._left()
    if callable(node._right):
        node._right = node._right()
    return node._left, node._right


class LevelWalkEnumeration:
    """Enumeration as first written: one ``_visit`` call per node, a
    ``_LevelWalk`` of ``_Level`` cursors and a heap of (diagonal, level)
    entries.  The reference for the one-loop walk of ``Enumeration``.

    It resolves bind nodes itself, reading only the tree a bind node was
    built over and its chain, never ``BindNode.normalized`` or the module's
    ``_resolve``, so a fault there shows as a difference.  A visited node is
    kept with the chain of functions still to apply to its value leaves;
    only a choice node keeps a non-empty one, a split, whose two thunks are
    forced, left then right, when it is reached.
    """

    def __init__(self, tree, strategy):
        self.strategy = strategy
        self.exhausted = False
        self.budget_exceeded = False
        self.expansions = 0
        if strategy.kind == BFS:
            self._iter = self._walk_bfs(tree)
        else:
            rng = random.Random(strategy.seed) if strategy.kind == RAND_LEVEL_DIAG else None
            self._iter = self._walk_level_diag(tree, rng)

    def __iter__(self):
        return self._iter

    def _visit(self, node, chain):
        """The node, with chain pending, resolved: a value or fail leaf, or a
        choice node, each paired with the functions still pending on it.
        A chain is linked (f, rest) pairs ending in None, f applied first."""
        if self.expansions >= self.strategy.node_budget:
            self.budget_exceeded = True
            raise _BudgetStop
        self.expansions += 1
        while True:
            if isinstance(node, BindNode):
                if callable(node._tree):
                    node._tree = node._tree()
                fns, inner = [], node._cont
                while inner is not None:
                    fns.append(inner[0])
                    inner = inner[1]
                for f in reversed(fns):
                    chain = (f, chain)
                node = node._tree
            elif isinstance(node, ValueNode) and chain is not None:
                f, chain = chain
                node = f(node.payload)
            else:
                if isinstance(node, OrNode) and chain is not None:
                    forced_children(node)
                return node, chain

    def _walk_bfs(self, root):
        # The levels of the level walk, in order: breadth-first search as
        # EasyCheck defines it over the same levels as diagonalization.
        try:
            walk = _LevelWalk(self, root, None)
            lev = 0
            while (node := walk.node_at(lev, 0)) is not None:
                pos = 0
                while node is not None:
                    if isinstance(node, ValueNode):
                        yield node.payload
                    pos += 1
                    node = walk.node_at(lev, pos)
                lev += 1
        except _BudgetStop:
            return
        self.exhausted = True

    def _walk_level_diag(self, root, rng):
        try:
            walk = _LevelWalk(self, root, rng)
        except _BudgetStop:
            return
        # One cursor per level; a heap keyed by (level + position, level)
        # realizes the diagonal order while probing each position once.
        pending = [(0, 0)]
        try:
            while pending:
                diag, lev = heappop(pending)
                pos = diag - lev
                node = walk.node_at(lev, pos)
                if pos == 0 and node is not None:
                    heappush(pending, (lev + 1, lev + 1))
                if node is None:
                    continue
                heappush(pending, (diag + 1, lev))
                if isinstance(node, ValueNode):
                    yield node.payload
        except _BudgetStop:
            return
        self.exhausted = True


class _Level:
    """One tree level, materialized on demand from the level above."""

    __slots__ = ("nodes", "feed_pos", "done")

    def __init__(self):
        self.nodes = []     # (resolved node, pending chain) pairs, left to right
        self.feed_pos = 0   # next parent node index to consume
        self.done = False   # no further nodes can ever appear


class _LevelWalk:
    """Demand-driven level decomposition for the diagonalizing strategies."""

    def __init__(self, enum, root, rng):
        self._enum = enum
        self._rng = rng
        lvl0 = _Level()
        lvl0.done = True
        self.levels = [lvl0]
        self._append(lvl0, root)

    def _append(self, level, node, chain=None):
        level.nodes.append(self._enum._visit(node, chain))

    def node_at(self, lev, pos):
        """Node at position pos of level lev, or None if the level is shorter."""
        levels = self.levels
        while lev >= len(levels):
            levels.append(_Level())
        level = levels[lev]
        while len(level.nodes) <= pos and not level.done:
            if not self._grow(lev):
                break
        return level.nodes[pos][0] if pos < len(level.nodes) else None

    def _grow(self, lev):
        """Append nodes to level lev; False once the level is complete."""
        li = lev
        while True:
            level = self.levels[li]
            if level.done:
                if li == lev:
                    return False
                li += 1
                continue
            parent = self.levels[li - 1]
            if level.feed_pos < len(parent.nodes):
                node, chain = parent.nodes[level.feed_pos]
                level.feed_pos += 1
                if isinstance(node, OrNode):
                    left, right = forced_children(node)
                    if self._rng is not None and self._rng.getrandbits(1):
                        left, right = right, left
                    self._append(level, left, chain)
                    self._append(level, right, chain)
                    if li == lev:
                        return True
                    li += 1
                continue
            if parent.done:
                level.done = True
                if li == lev:
                    return False
                li += 1
                continue
            li -= 1


def bfs(budget):
    return Strategy("bfs", 0, budget)


def level_diag(budget):
    return Strategy("level_diag", 0, budget)


# a maker's name is its test id
WALK_STRATEGY_MAKERS = [bfs, level_diag] + [
    lambda budget, seed=seed: Strategy("rand_level_diag", seed, budget) for seed in (0, 1, 7, 42)
]
WALK_BUDGETS = (1, 2, 3, 7, 50, 2000)


def walk_record(enum, forced):
    """Each value with the node count read right after it, the end state,
    and the order in which the tree's thunks were forced."""
    steps = [(v, enum.expansions) for v in enum]
    return steps, enum.expansions, enum.exhausted, enum.budget_exceeded, list(forced)


def assert_same_as_level_walk(build, budgets=WALK_BUDGETS):
    """A tree freshly built by build(log) walks the same under Enumeration
    as under the reference, for every strategy, seed and budget; log is a
    list the tree's thunks may append to as they are forced."""
    for make in WALK_STRATEGY_MAKERS:
        for budget in budgets:
            strategy = make(budget)
            new_log, old_log = [], []
            new = walk_record(Enumeration(build(new_log), strategy), new_log)
            old = walk_record(LevelWalkEnumeration(build(old_log), strategy), old_log)
            assert new == old, strategy


def logged(label, tree, log):
    """Thunk for tree that records label in log when forced."""

    def thunk():
        log.append(label)
        return tree

    return thunk


def random_lazy_tree(rng, log, depth=0):
    """Random finite tree with value, fail, choice, defer and bind nodes;
    thunks record their label in log when forced."""
    r = rng.random()
    if depth >= 6 or r < 0.3:
        return value(rng.randrange(5))
    if r < 0.4:
        return fail()
    if r < 0.55:
        return defer(logged(rng.random(), random_lazy_tree(rng, log, depth + 1), log))
    if r < 0.7:
        offset = rng.randrange(3)
        right = random_lazy_tree(rng, log, depth + 1)
        return bind(
            random_lazy_tree(rng, log, depth + 1),
            lambda a: choice(value(a + offset), right) if a % 2 else value(a * 10 + offset),
        )
    if r < 0.8:
        return OrNode(*[logged(rng.random(), random_lazy_tree(rng, log, depth + 1), log)
                        for _ in range(2)])
    return choice(random_lazy_tree(rng, log, depth + 1), random_lazy_tree(rng, log, depth + 1))


def deep_spine(depth, log):
    """A tree depth levels deep with one choice node per level: a fail leaf
    beside the rest of the spine, which ends in one value."""

    def level(k):
        if k == depth:
            return value(depth)
        log.append(k)
        return choice(fail(), bind(defer(lambda: level(k + 1)), value))

    return defer(lambda: level(0))


class TestSameWalkAsLevelWalk:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_lazy_trees(self, seed):
        for i in range(5):
            assert_same_as_level_walk(
                lambda log: random_lazy_tree(random.Random(seed * 100 + i), log)
            )

    def test_infinite_tree(self):
        assert_same_as_level_walk(
            lambda log: bind(nat_chain(), lambda n: choice(value(n), defer(lambda: nat_chain(n))))
        )

    def test_int_lists(self):
        assert_same_as_level_walk(lambda log: list_of(builtin(BaseType.INT)).tree)

    def test_rose_trees(self):
        assert_same_as_level_walk(lambda log: gen_tree(builtin(BaseType.ORDERING)).tree)

    def test_deep_narrow_tree(self):
        assert_same_as_level_walk(
            lambda log: deep_spine(10_000, log), budgets=WALK_BUDGETS + (25_000,)
        )


@pytest.mark.parametrize("make", WALK_STRATEGY_MAKERS)
def test_budget_of_exactly_the_expansions_suffices(make):
    """Budget law (b): a walk whose node budget equals the expansions E of
    an unbounded drain exhausts with the same values and E expansions; one
    node less sets budget_exceeded."""
    for seed in range(300):
        def fresh():
            return random_lazy_tree(random.Random(seed), [])

        drain = Enumeration(fresh(), make(DEFAULT_NODE_BUDGET))
        want = Counter(drain)
        assert drain.exhausted
        budget = drain.expansions
        exact = Enumeration(fresh(), make(budget))
        assert Counter(exact) == want
        assert exact.exhausted and exact.expansions == budget
        if budget > 1:
            short = Enumeration(fresh(), make(budget - 1))
            list(short)
            assert short.budget_exceeded and not short.exhausted
            assert short.expansions == budget - 1


LAW_A_STRATEGIES = [Strategy("bfs"), Strategy("level_diag")] + [
    Strategy("rand_level_diag", seed) for seed in (0, 1, 7)
]


def test_strategies_agree_on_finite_trees():
    """Strategy law (a): on a finite tree every strategy yields the same
    value multiset, exhausts, and visits every node once.  Each tree object
    is walked under every strategy in turn, starting at a different one per
    tree, so later walks see the normal forms earlier ones wrote back; each
    walk yields the same sequence and expansions as a walk of a fresh copy."""
    n = len(LAW_A_STRATEGIES)
    for seed in range(200):
        tree = random_lazy_tree(random.Random(seed), [])
        results = []
        for i in range(n):
            strategy = LAW_A_STRATEGIES[(seed + i) % n]
            reused = Enumeration(tree, strategy)
            got = list(reused)
            assert reused.exhausted
            fresh = Enumeration(random_lazy_tree(random.Random(seed), []), strategy)
            assert list(fresh) == got and fresh.expansions == reused.expansions
            results.append((Counter(got), reused.expansions))
        assert all(r == results[0] for r in results)


# -- the memo keeps normal forms ---------------------------------------------


def resolved_wrappers(root):
    """Choice-node slots of a walked tree that still hold a resolved bind
    node, found by following what walks have built: slots no longer holding
    a thunk, and the normal form of each resolved bind node."""
    found, seen, stack = 0, set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if type(node) is BindNode:
            if node._norm is not None:
                stack.append(node._norm)
        elif type(node) is OrNode:
            for kid in (node._left, node._right):
                if type(kid) is BindNode and kid._norm is not None:
                    found += 1
                if not callable(kid):
                    stack.append(kid)
    return found


def memo_trees():
    """Fresh trees to walk: finite random shapes, a deep spine, and the
    infinite trees of [Int] and of the Trees suite's rose trees."""
    for seed in range(30):
        yield random_lazy_tree(random.Random(seed), [])
    yield deep_spine(500, [])
    yield list_of(builtin(BaseType.INT)).tree
    yield gen_tree(builtin(BaseType.ORDERING)).tree


@pytest.mark.parametrize("make", WALK_STRATEGY_MAKERS)
@pytest.mark.parametrize("stop", ["walk", "budget", "consumer"])
def test_walks_write_normal_forms_into_choice_slots(make, stop):
    """A walk stores each bind node it resolves as its normal form in the
    parent's slot, so no choice node keeps pointing at a resolved wrapper,
    whether the walk ends on its own (exhausting or at a node budget of
    2000), at a budget of 7, or because the consumer stops after 2 values."""
    for tree in memo_trees():
        e = Enumeration(tree, make(7 if stop == "budget" else 2_000))
        if stop == "consumer":
            list(itertools.islice(e, 2))
        else:
            list(e)
            assert e.exhausted or e.budget_exceeded
        assert resolved_wrappers(tree) == 0


# Live bind nodes after the first 10,001 values of list_of(builtin(INT)) at
# seed 0 were the walk's unvisited frontier: 40,202 / 39,544 / 59,522.  With
# resolved wrappers kept in their parents' slots there were 110,392 /
# 108,860 / 148,566.  Now that a split allocates no bind node, 1 / 0 / 0 are
# live (rand_level_diag / level_diag / bfs), so a bound of 100 fails any
# layout that keeps a bind node per frontier node.
LIVE_BIND_NODE_BOUNDS = {"rand_level_diag": 100, "level_diag": 100, "bfs": 100}


@pytest.mark.parametrize("kind", sorted(LIVE_BIND_NODE_BOUNDS))
def test_int_list_walk_keeps_few_bind_nodes(kind):
    def live():
        gc.collect()
        return sum(1 for o in gc.get_objects() if type(o) is BindNode)

    before = live()
    tree = list_of(builtin(BaseType.INT)).tree
    e = enumerate_tree(tree, Strategy(kind, 0))
    assert sum(1 for _ in itertools.islice(e, 10_001)) == 10_001
    assert live() - before < LIVE_BIND_NODE_BOUNDS[kind]


# The memo of list_of(builtin(INT)) after its first 10,001 values at seed 0,
# once the walk is dropped: (live bind nodes, GC-tracked objects at most).
# A split is one pending choice node, and every strategy forces a choice
# node's thunks when it expands the node, so no bind node is kept.  Tracked
# objects are 163,710 / 157,245 / 196,700 now that a list node keeps its
# state in one cell; with a nil thunk, a cons thunk and a continuation per
# list node there were 179,798 / 172,665 / 210,817, and with a choice node
# and two bind nodes per split 229,489 / 215,682 / 311,177 (40,201 / 39,543
# / 59,522 bind nodes).
LEAN_MEMO = {"rand_level_diag": (0, 177_000), "level_diag": (0, 170_000),
             "bfs": (0, 212_000)}


@pytest.mark.parametrize("kind", sorted(LEAN_MEMO))
def test_int_list_memo_holds_no_split_wrappers(kind):
    def census():
        gc.collect()
        objects = gc.get_objects()
        return sum(1 for o in objects if type(o) is BindNode), len(objects)

    binds_before, tracked_before = census()
    tree = list_of(builtin(BaseType.INT)).tree
    e = enumerate_tree(tree, Strategy(kind, 0))
    assert sum(1 for _ in itertools.islice(e, 10_001)) == 10_001
    del e
    binds, tracked = census()
    want_binds, max_tracked = LEAN_MEMO[kind]
    assert binds - binds_before == want_binds
    assert tracked - tracked_before < max_tracked


# Function objects left live by the memo of list_of(builtin(INT)) after its
# first 10,001 values at seed 0: 872 / 64 / 1,024 (rand_level_diag /
# level_diag / bfs), all of them thunks of Int's shared _positive_tree.  When
# a list node kept its state in a nil thunk, a cons thunk and one
# continuation per drawn head there were 30,865 / 29,841 / 50,073.
MAX_LIVE_FUNCTIONS = 2_000


@pytest.mark.parametrize("kind", sorted(LEAN_MEMO))
def test_int_list_memo_holds_no_function_per_list_node(kind):
    def functions():
        gc.collect()
        return sum(1 for o in gc.get_objects() if type(o) is types.FunctionType)

    before = functions()
    tree = list_of(builtin(BaseType.INT)).tree
    e = enumerate_tree(tree, Strategy(kind, 0))
    assert sum(1 for _ in itertools.islice(e, 10_001)) == 10_001
    del e
    assert functions() - before < MAX_LIVE_FUNCTIONS


# -- a walk that ends between a choice node's two children ---------------------


INTERRUPT_STRATEGIES = [Strategy("bfs"), Strategy("level_diag")] + [
    Strategy("rand_level_diag", seed) for seed in (0, 1, 7)
]


class _Once(Exception):
    pass


def split_tree(calls, raise_on=None):
    """bind(bind(inner, f), g) over the leaves 1..4 of inner.  f splits an
    odd leaf x into 10x and 10x+5 and maps an even one to 10x; g adds 1000.
    Each call that returns is counted in calls; the first call of f or g on
    the value raise_on raises _Once instead.  The tests make g raise only on
    values that f split off, so a raise never discards a call that
    returned."""
    raised = []

    def once(name, x):
        if x == raise_on and not raised:
            raised.append(x)
            raise _Once(name, x)
        calls[name, x] += 1

    def f(x):
        once("f", x)
        return choice(value(10 * x), value(10 * x + 5)) if x % 2 else value(10 * x)

    def g(y):
        once("g", y)
        return value(y + 1000)

    inner = choice(choice(value(1), value(2)),
                   choice(value(3), defer(lambda: choice(value(4), fail()))))
    return bind(bind(inner, f), g)


SPLIT_CALLS = {("f", x): 1 for x in (1, 2, 3, 4)} | {
    ("g", y): 1 for y in (10, 15, 20, 30, 35, 40)
}


def walk_of(tree, strategy):
    e = Enumeration(tree, strategy)
    return list(e), e.expansions, e.exhausted, e.budget_exceeded


def with_budget(strategy, budget):
    return Strategy(strategy.kind, strategy.seed, budget)


@pytest.mark.parametrize("strategy", INTERRUPT_STRATEGIES)
class TestInterruptedSplit:
    """A walk of a memoised tree can end between the two children of a choice
    node that a bind split: a continuation raises, the node budget ends, or
    the consumer stops after the first child's value.  Walking the same tree
    again then gives what a fresh tree gives, and each continuation has run
    once per leaf."""

    def test_continuation_raising_on_either_child(self, strategy):
        want = walk_of(split_tree(Counter()), strategy)
        for raise_on in (1, 2, 3, 4, 10, 15, 30, 35):
            calls = Counter()
            t = split_tree(calls, raise_on)
            with pytest.raises(_Once):
                list(Enumeration(t, strategy))
            assert walk_of(t, strategy) == want, raise_on
            assert calls == SPLIT_CALLS, raise_on

    def test_budget_ending_between_children(self, strategy):
        want = walk_of(split_tree(Counter()), strategy)
        for budget in range(1, want[1]):
            calls = Counter()
            t = split_tree(calls)
            cut = walk_of(t, with_budget(strategy, budget))
            assert cut[3] and cut[0] == want[0][:len(cut[0])], budget
            assert walk_of(t, strategy) == want, budget
            assert calls == SPLIT_CALLS, budget

    def test_consumer_stopping_after_a_value(self, strategy):
        """The stopped walk stays suspended while the tree is walked again,
        and then goes on with the values a fresh walk gives after the stop."""
        want = walk_of(split_tree(Counter()), strategy)
        for n in range(1, len(want[0])):
            calls = Counter()
            t = split_tree(calls)
            stopped = iter(Enumeration(t, strategy))
            assert list(itertools.islice(stopped, n)) == want[0][:n]
            assert walk_of(t, strategy) == want, n
            assert list(stopped) == want[0][n:], n
            assert calls == SPLIT_CALLS, n

    def test_tuple_chains_on_an_infinite_tree(self, strategy):
        """tuple_of nests a bind per part, so each split node carries a chain
        of several functions; a cut walk must not apply any of them twice."""
        def fresh():
            return tuple_of(builtin(BaseType.BOOL), builtin(BaseType.BOOL),
                            list_of(builtin(BaseType.BOOL))).tree

        bounded = with_budget(strategy, 400)
        want = walk_of(fresh(), bounded)
        for cut in range(1, 60):
            t = fresh()
            stopped = iter(Enumeration(t, strategy))
            assert list(itertools.islice(stopped, cut)) == want[0][:cut]
            assert walk_of(t, bounded) == want, cut
            assert list(itertools.islice(stopped, 20)) == want[0][cut:cut + 20], cut
            t = fresh()
            walk_of(t, with_budget(strategy, cut))
            assert walk_of(t, bounded) == want, cut


class TestDefer:
    def test_shared_thunk_runs_once(self):
        """A defer node shared by two binds forces its thunk once, whichever
        bind joins through it first and however often it is walked."""
        runs = []

        def thunk():
            runs.append(1)
            return choice(value(1), choice(value(2), fail()))

        shared = defer(thunk)
        for strategy in (Strategy("bfs"), Strategy("level_diag"), Strategy("rand_level_diag", 7)):
            t = choice(bind(shared, lambda x: value(x + 10)),
                       bind(shared, lambda x: choice(value(x), value(-x))))
            assert Counter(enumerate_tree(t, strategy)) == Counter([11, 12, 1, -1, 2, -2])
        assert sorted(enumerate_tree(shared)) == [1, 2]
        assert runs == [1]

    def test_thunk_is_not_rerun_after_a_failed_normalisation(self):
        runs, calls = [], []

        def flaky(x):
            calls.append(x)
            if len(calls) == 1:
                raise ValueError("first call")
            return value(x)

        def thunk():
            runs.append(1)
            return bind(defer(lambda: value(1)), flaky)

        t = defer(thunk)
        with pytest.raises(ValueError):
            take_values(t)
        assert take_values(t) == [1]
        assert runs == [1]

    def test_thunk_returning_a_non_tree_raises(self):
        with pytest.raises(TypeError, match="not a search tree: 5"):
            take_values(defer(lambda: 5))
        with pytest.raises(TypeError, match="not a search tree: 5"):
            take_values(bind(choice(value(1), value(2)), lambda x: 5))

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_choice_child_that_is_not_a_tree_is_a_dead_leaf(self, strategy):
        assert take_values(OrNode(lambda: 5, value(1)), strategy) == [1]
        assert take_values(choice(value(1), 5), strategy) == [1]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_split_forces_left_thunk_before_right(self, strategy):
        """A choice node reached under a chain forces its left thunk before
        its right one, as a walk expanding a choice node does."""
        log = []
        t = bind(OrNode(logged("l", value(1), log), logged("r", value(2), log)), value)
        assert sorted(enumerate_tree(t, strategy)) == [1, 2]
        assert log == ["l", "r"]


# expansions after the first 10,001 values of list_of(builtin(INT)) at seed 0,
# recorded with the walk as first written (bfs: with its level-order
# reference, which hands out a left value after visiting its right sibling)
PINNED_NODE_COUNTS = {"rand_level_diag": 80233, "level_diag": 79319, "bfs": 99047}


@pytest.mark.parametrize("kind", sorted(PINNED_NODE_COUNTS))
def test_int_list_node_counts_pinned(kind):
    e = enumerate_tree(list_of(builtin(BaseType.INT)).tree, Strategy(kind, 0))
    assert sum(1 for _ in itertools.islice(e, 10_001)) == 10_001
    assert e.expansions == PINNED_NODE_COUNTS[kind]


def test_bind_over_deeply_joined_tree():
    """Binding over a tree normalised under thousands of nested binds joins
    their continuations without one Python frame per continuation."""
    t = choice(value(0), value(1))
    for _ in range(3_000):
        t = bind(t, lambda x: value(x + 1))
    root = t.normalized
    for strategy in ALL_STRATEGIES:
        e = enumerate_tree(bind(root, lambda x: value(-x)), strategy)
        assert sorted(e) == [-3_001, -3_000]
        assert e.exhausted



def spine_peak_bytes(depth, strategy):
    tracemalloc.start()
    try:
        e = enumerate_tree(deep_spine(depth, []), strategy)
        assert list(e) == [depth] and e.exhausted
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_deep_spine_memory_is_linear(strategy):
    """Each level of a bind/defer spine joins one function in front of the
    pending ones and shares their tail, so peak memory doubles, not
    quadruples, when the depth doubles."""
    small = spine_peak_bytes(1_000, strategy)
    assert spine_peak_bytes(2_000, strategy) < 3 * small

# -- bind laws on random finite trees ------------------------------------
#
# A tree is built from a small spec, and its values are computed straight
# from the spec as well, so both sides of each law are also checked against
# an oracle that never touches the bind kernel.  Left identity is
# TestBind.test_bind_left_unit.

LAW_STRATEGIES = [Strategy("bfs"), Strategy("level_diag")] + [
    Strategy("rand_level_diag", seed=s) for s in (0, 1, 7)
]


def random_spec(rng, depth=0):
    """("val", n) | ("fail",) | ("or", l, r) | ("defer", t) | ("bind", t, k)."""
    r = rng.random()
    if depth >= 4 or r < 0.3:
        return ("val", rng.randrange(6))
    if r < 0.4:
        return ("fail",)
    if r < 0.5:
        return ("defer", random_spec(rng, depth + 1))
    if r < 0.75:
        return ("bind", random_spec(rng, depth + 1), random_cont(rng, depth + 1))
    return ("or", random_spec(rng, depth + 1), random_spec(rng, depth + 1))


def random_cont(rng, depth):
    """("add", c) | ("branch", c) | ("drop", m) | ("sub", t): the continuation
    adds c, branches into x and x+c, fails on multiples of m, or binds t and
    adds its values to x."""
    r = rng.random()
    if r < 0.25:
        return ("add", rng.randrange(1, 4))
    if r < 0.55:
        return ("branch", rng.randrange(1, 4))
    if r < 0.75:
        return ("drop", rng.randrange(2, 4))
    return ("sub", random_spec(rng, depth + 1))


def tree_of(spec):
    tag = spec[0]
    if tag == "val":
        return value(spec[1])
    if tag == "fail":
        return fail()
    if tag == "or":
        return choice(tree_of(spec[1]), tree_of(spec[2]))
    if tag == "defer":
        return defer(lambda: tree_of(spec[1]))
    return bind(tree_of(spec[1]), cont_of(spec[2]))


def cont_of(k):
    tag, arg = k
    if tag == "add":
        return lambda x: value(x + arg)
    if tag == "branch":
        return lambda x: choice(value(x), value(x + arg))
    if tag == "drop":
        return lambda x: fail() if x % arg == 0 else value(x)
    return lambda x: bind(tree_of(arg), lambda y: value(x + y))


def denote(spec):
    """The spec's values as a list, computed without search trees."""
    tag = spec[0]
    if tag == "val":
        return [spec[1]]
    if tag == "fail":
        return []
    if tag == "or":
        return denote(spec[1]) + denote(spec[2])
    if tag == "defer":
        return denote(spec[1])
    return [y for x in denote(spec[1]) for y in denote_cont(spec[2], x)]


def denote_cont(k, x):
    tag, arg = k
    if tag == "add":
        return [x + arg]
    if tag == "branch":
        return [x, x + arg]
    if tag == "drop":
        return [] if x % arg == 0 else [x]
    return [x + y for y in denote(arg)]


def walk_multiset(tree, strategy):
    e = enumerate_tree(tree, strategy)
    out = Counter(e)
    assert e.exhausted, strategy
    return out


@pytest.mark.parametrize("strategy", LAW_STRATEGIES)
class TestBindLaws:
    SPECS = 60

    def cases(self, seed):
        rng = random.Random(seed)
        return [(random_spec(rng), random_cont(rng, 1), random_cont(rng, 1))
                for _ in range(self.SPECS)]

    def test_right_identity(self, strategy):
        for spec, _, _ in self.cases(2):
            want = Counter(denote(spec))
            assert walk_multiset(bind(tree_of(spec), value), strategy) == want
            assert walk_multiset(tree_of(spec), strategy) == want

    def test_associativity(self, strategy):
        for spec, f, g in self.cases(3):
            want = Counter(y for x in denote(spec) for z in denote_cont(f, x)
                           for y in denote_cont(g, z))
            kf, kg = cont_of(f), cont_of(g)
            nested_left = bind(bind(tree_of(spec), kf), kg)
            nested_right = bind(tree_of(spec), lambda x: bind(kf(x), kg))
            assert walk_multiset(nested_left, strategy) == want
            assert walk_multiset(nested_right, strategy) == want


# -- a walk is recorded on its root and replayed --------------------------------


REPLAY_STRATEGIES = [Strategy("bfs"), Strategy("level_diag"), Strategy("rand_level_diag", 7)]

# name -> a fresh tree: split_tree is finite, the others are infinite
REPLAY_TREES = {
    "split_tree": lambda: split_tree(Counter()),
    "int_lists": lambda: list_of(builtin(BaseType.INT)).tree,
    "gen_tree": lambda: gen_tree(builtin(BaseType.ORDERING)).tree,
    "gen_nat": lambda: gen_nat().tree,
}
REPLAY_TAKE = 150   # values taken from an infinite tree before its consumer stops


def stepped(enum, n=None):
    """Up to n values of enum (all if n is None), each with the node count
    read right after it, then the end flags and the final node count."""
    steps = [(v, enum.expansions) for v in itertools.islice(iter(enum), n)]
    return steps, enum.exhausted, enum.budget_exceeded, enum.expansions


def is_replay(enum):
    return enum._iter.gi_code.co_name == "_replay"


def bypass(strategy):
    """A strategy that walks as strategy does wherever its budget is not
    reached, but finds no record of strategy's walks."""
    return with_budget(strategy, strategy.node_budget + 1)


@pytest.mark.parametrize("strategy", REPLAY_STRATEGIES)
@pytest.mark.parametrize("name", list(REPLAY_TREES))
class TestReplay:
    """A walk's replay, a re-walk of its memo that bypasses the record, and
    a walk of a freshly built tree hand out the same values, with the same
    node count after each, and end with the same flags and count, however
    the first walk stopped."""

    def test_consumer_stop_and_drain(self, name, strategy):
        make = REPLAY_TREES[name]
        n = None if name == "split_tree" else REPLAY_TAKE
        t = make()
        first = stepped(Enumeration(t, strategy), n)
        replay = Enumeration(t, strategy)
        assert is_replay(replay)
        assert stepped(replay, n) == first
        assert stepped(Enumeration(t, bypass(strategy)), n) == first
        assert stepped(Enumeration(make(), strategy), n) == first
        if n is not None:
            # The record is open: a replay goes on past it, and extends it
            # once the stopped first walk, suspended in a reference cycle
            # with its enumeration and still marked as the record's writer,
            # has been collected.
            gc.collect()
            more = stepped(Enumeration(t, strategy), 2 * n)
            assert more == stepped(Enumeration(make(), strategy), 2 * n)
            assert stepped(Enumeration(t, bypass(strategy)), 2 * n) == more
            assert stepped(Enumeration(t, strategy), 2 * n) == more
            assert len(t._walks[strategy].values) == 2 * n

    def test_budget_end(self, name, strategy):
        make = REPLAY_TREES[name]
        full = stepped(Enumeration(make(), strategy), REPLAY_TAKE)[3]
        for budget in sorted({1, 2, 5, full // 3, full - 1}):
            bounded = with_budget(strategy, budget)
            t = make()
            first = stepped(Enumeration(t, bounded))
            assert first[2] and first[3] == budget, budget
            replay = Enumeration(t, bounded)
            assert is_replay(replay)
            assert stepped(replay) == first, budget
            assert stepped(Enumeration(make(), bounded)) == first, budget
            rewalk = stepped(Enumeration(t, bypass(bounded)))
            assert [s for s in rewalk[0] if s[1] <= budget] == first[0], budget

    def test_interleaved_enumerations(self, name, strategy):
        """Two enumerations of one root made before either is iterated, and
        a third made once the first has written a third of the values,
        advance in turn; each hands out what a walk of a fresh tree does,
        and the record they leave replays the same."""
        make = REPLAY_TREES[name]
        n = None if name == "split_tree" else REPLAY_TAKE
        want = stepped(Enumeration(make(), strategy), n)
        size = len(want[0])
        t = make()
        enums = [Enumeration(t, strategy), Enumeration(t, strategy)]
        iters = [iter(e) for e in enums]
        got = [[], [], []]
        for k in range(size + size // 3):
            if k == size // 3:
                enums.append(Enumeration(t, strategy))
                assert is_replay(enums[2])
                iters.append(iter(enums[2]))
            for e, it, steps in zip(enums, iters, got):
                if len(steps) < size:
                    steps.append((next(it), e.expansions))
        assert got == [want[0]] * 3
        if n is None:
            assert [next(it, None) for it in iters] == [None] * 3
            assert [(e.exhausted, e.budget_exceeded, e.expansions) for e in enums] == [want[1:]] * 3
        assert stepped(Enumeration(t, strategy), n) == want

    def test_replay_overtaking_a_suspended_walk(self, name, strategy):
        """A replay that reaches the end of a record while the walk writing
        it is suspended walks on without writing to it; the writer then goes
        on, and the record it leaves replays as a fresh tree walks."""
        make = REPLAY_TREES[name]
        n = None if name == "split_tree" else REPLAY_TAKE
        want = stepped(Enumeration(make(), strategy), n)
        cut = len(want[0]) // 3
        t = make()
        writer = Enumeration(t, strategy)
        it = iter(writer)
        head = [(next(it), writer.expansions) for _ in range(cut)]
        assert stepped(Enumeration(t, strategy), n) == want
        rest = [(v, writer.expansions) for v in itertools.islice(it, None if n is None else n - cut)]
        assert (head + rest, writer.exhausted, writer.budget_exceeded, writer.expansions) == want
        assert stepped(Enumeration(t, strategy), n) == want


@pytest.mark.parametrize("strategy", REPLAY_STRATEGIES)
def test_replay_after_a_continuation_raised(strategy):
    """A walk that a continuation cut leaves an open record of the values it
    yielded; a replay hands them out and walks on past them, as a re-walk of
    the memo and a walk of a fresh tree do."""
    want = stepped(Enumeration(split_tree(Counter()), strategy))
    for raise_on in (1, 2, 3, 4, 10, 15, 30, 35):
        calls = Counter()
        t = split_tree(calls, raise_on)
        cut = Enumeration(t, strategy)
        before = []
        with pytest.raises(_Once):
            for v in cut:
                before.append((v, cut.expansions))
        assert before == want[0][:len(before)], raise_on
        replay = Enumeration(t, strategy)
        assert is_replay(replay) == bool(before), raise_on
        assert stepped(replay) == want, raise_on
        assert stepped(Enumeration(t, bypass(strategy))) == want, raise_on
        assert stepped(Enumeration(t, strategy)) == want, raise_on
        assert calls == SPLIT_CALLS, raise_on


@pytest.mark.parametrize("strategy", REPLAY_STRATEGIES)
def test_enumeration_is_deterministic_on_fresh_trees(strategy):
    """Two walks of two equal, freshly built trees, neither a replay."""
    assert stepped(enumerate_tree(one_of(range(50)), strategy)) == stepped(
        enumerate_tree(one_of(range(50)), strategy))
