"""Search trees: the results of a computation with zero, one, or many values.

A computation that may branch is represented as a binary tree with three
node kinds: a value leaf, a failure leaf (no value), and a choice node with
two subtrees.  Subtrees may be given as thunks so that infinite trees (e.g.
"all lists of integers") are representable; a thunk is forced at most once.
A bind node, built by ``bind`` and ``defer``, is the one lazy node: it
resolves to one of the three kinds once, on its first visit.

Enumeration strategies linearize a tree into a lazy value sequence under a
node budget.  All strategies are complete: every value at finite depth
appears in the output if the budget permits reaching it.  Duplicate leaves
are preserved here; de-duplication is a concern of the property layer.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Generic, Iterator, TypeVar, Union

A = TypeVar("A")
B = TypeVar("B")

DEFAULT_NODE_BUDGET = 100_000


class SearchTree(Generic[A]):
    """Base class; concrete nodes are ValueNode, FailNode, OrNode, BindNode."""

    __slots__ = ()


class ValueNode(SearchTree[A]):
    __slots__ = ("payload",)

    def __init__(self, payload: A):
        self.payload = payload

    def __repr__(self) -> str:
        return f"ValueNode({self.payload!r})"


class FailNode(SearchTree[Any]):
    __slots__ = ()

    def __repr__(self) -> str:
        return "FailNode"


_FAIL = FailNode()

_Child = Union[SearchTree, Callable[[], SearchTree]]


class OrNode(SearchTree[A]):
    """Choice between two subtrees; children may be thunks, forced on access."""

    __slots__ = ("_left", "_right")

    def __init__(self, left: _Child, right: _Child):
        self._left = left
        self._right = right

    @property
    def left(self) -> SearchTree[A]:
        if callable(self._left):
            self._left = self._left()
        return self._left

    @property
    def right(self) -> SearchTree[A]:
        if callable(self._right):
            self._right = self._right()
        return self._right

    def __repr__(self) -> str:
        return "OrNode(..)"


class BindNode(SearchTree[A]):
    """Tree under a chain of pending value-leaf substitutions, applied in order.

    The chain is made of pairs ``(f, rest)`` ending in ``None``.  The tree
    slot may hold a thunk instead (``defer``), forced at most once and
    stored back.  Normalization peels one constructor at a time: a choice
    node splits into two bind nodes sharing the chain, a value leaf runs the
    next function.  A nested bind copies its own chain in front of the outer
    one in a loop, sharing the outer tail, so a join costs the inner chain's
    length and walking a deeply composed tree costs O(1) Python frames per
    node.

    The normal form is computed once and kept in ``_norm``; the tree and
    chain it came from are then dropped.  A walk that resolves a bind node
    in a choice node's slot stores the normal form in that slot, so the
    wrapper lives on only where something else refers to it, such as a
    generator's root or a shared ``defer``.
    """

    __slots__ = ("_tree", "_cont", "_norm")

    def __init__(self, tree: _Child, cont: tuple | None):
        self._tree = tree
        self._cont = cont
        self._norm: SearchTree | None = None

    @property
    def normalized(self) -> SearchTree:
        """Equivalent ValueNode, FailNode, or OrNode; computed once."""
        if self._norm is not None:
            return self._norm
        t, k = self._tree, self._cont
        if callable(t):
            t = self._tree = t()
        while True:
            c = type(t)
            if c is BindNode:
                if t._norm is not None:
                    t = t._norm
                else:
                    fns, j = [], t._cont
                    while j is not None:
                        fns.append(j[0])
                        j = j[1]
                    for f in reversed(fns):
                        k = (f, k)
                    inner = t._tree
                    if callable(inner):
                        inner = t._tree = inner()
                    t = inner
            elif c is ValueNode:
                if k is None:
                    break
                f, k = k
                t = f(t.payload)
            elif c is OrNode:
                if k is not None:
                    t = OrNode(BindNode(t.left, k), BindNode(t.right, k))
                break
            elif c is FailNode:
                break
            else:
                raise TypeError(f"not a search tree: {t!r}")
        self._norm = t
        self._tree = self._cont = None
        return t

    def __repr__(self) -> str:
        return "BindNode(..)"


def value(a: A) -> SearchTree[A]:
    """Tree with the single result a."""
    return ValueNode(a)


def fail() -> SearchTree[Any]:
    """Tree with no result."""
    return _FAIL


def choice(left: SearchTree[A], right: SearchTree[A]) -> SearchTree[A]:
    """Non-deterministic choice between two trees."""
    return OrNode(left, right)


def defer(thunk: Callable[[], SearchTree[A]]) -> SearchTree[A]:
    """Delay tree construction; required for recursively defined trees.

    A bind node with no pending functions over the tree not built yet: the
    thunk runs at most once, when the node is first visited.
    """
    return BindNode(thunk, None)


def bind(t: SearchTree[A], f: Callable[[A], SearchTree[B]]) -> SearchTree[B]:
    """Replace every value leaf a by the tree f(a), keeping the choice structure.

    Lazy: the substitution is recorded and peeled off node by node during
    enumeration, so binding over an infinite tree is fine.
    """
    if isinstance(t, ValueNode):
        return f(t.payload)
    if isinstance(t, FailNode):
        return t
    return BindNode(t, (f, None))


def one_of(values: Any) -> SearchTree[Any]:
    """Balanced choice tree over the given values; empty input yields fail()."""
    return balanced([ValueNode(v) for v in values])


def balanced(trees: list[SearchTree[A]]) -> SearchTree[A]:
    """Balanced choice tree over a list of subtrees."""
    if not trees:
        return _FAIL
    if len(trees) == 1:
        return trees[0]
    mid = len(trees) // 2
    return OrNode(balanced(trees[:mid]), balanced(trees[mid:]))


# -- strategies ----------------------------------------------------------

BFS = "bfs"
LEVEL_DIAG = "level_diag"
RAND_LEVEL_DIAG = "rand_level_diag"

_KINDS = (BFS, LEVEL_DIAG, RAND_LEVEL_DIAG)


@dataclass(frozen=True)
class Strategy:
    """Enumeration policy: traversal kind, PRNG seed, and node budget.

    The seed only affects the randomized kind; a fixed seed makes it fully
    deterministic.  The budget caps tree-node visits per enumeration.
    """

    kind: str = RAND_LEVEL_DIAG
    seed: int = 0
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown strategy kind: {self.kind!r}")
        if self.node_budget < 1:
            raise ValueError("node budget must be positive")

    @staticmethod
    def bfs(node_budget: int = DEFAULT_NODE_BUDGET) -> "Strategy":
        return Strategy(BFS, 0, node_budget)

    @staticmethod
    def level_diag(node_budget: int = DEFAULT_NODE_BUDGET) -> "Strategy":
        return Strategy(LEVEL_DIAG, 0, node_budget)

    @staticmethod
    def rand_level_diag(seed: int = 0, node_budget: int = DEFAULT_NODE_BUDGET) -> "Strategy":
        return Strategy(RAND_LEVEL_DIAG, seed, node_budget)


class Enumeration(Generic[A]):
    """Single-consumer cursor over a tree's values under one strategy.

    Iterate to pull values lazily.  Once iteration stops on its own, exactly
    one of ``exhausted`` (whole tree expanded) or ``budget_exceeded`` is set;
    if the consumer stopped early, both stay False.  ``expansions`` counts
    visited tree nodes; it is current whenever a value is handed out and
    once the walk stops.
    """

    def __init__(self, tree: SearchTree[A], strategy: Strategy):
        self.strategy = strategy
        self.exhausted = False
        self.budget_exceeded = False
        self.expansions = 0
        if strategy.kind == BFS:
            self._iter: Iterator[A] = self._walk_bfs(tree)
        else:
            rng = Random(strategy.seed) if strategy.kind == RAND_LEVEL_DIAG else None
            self._iter = self._walk_level_diag(tree, rng)

    def __iter__(self) -> Iterator[A]:
        return self._iter

    def values(self) -> list[A]:
        """Drain the remaining values into a list."""
        return list(self._iter)

    # Budget accounting: one unit per node visited (value and fail leaves
    # included); a bind node, deferred trees and nested binds included,
    # resolves within a single visit, to its normal form, which is never a
    # bind node.  Each walk visits a choice node's two children where it
    # holds the choice node: it checks the budget, reads a bind child's memo
    # or computes it, and stores the normal form in the child's slot, so a
    # memoised tree keeps normal forms, not their wrappers.  An OrNode child
    # that is not a search tree is a dead leaf.

    def _walk_bfs(self, root: SearchTree[A]) -> Iterator[A]:
        """Level order over a FIFO of visited choice nodes.

        A choice node's thunk children are forced, left then right, when the
        node is visited; the children themselves are visited, left then
        right, when the node is popped.
        """
        budget = self.strategy.node_budget
        expansions = 1   # the root's visit: a node budget is at least 1
        queue: deque[OrNode] = deque()
        try:
            if type(root) is BindNode:
                root = root.normalized
            t = type(root)
            if t is ValueNode:
                self.expansions = expansions
                yield root.payload
            elif t is OrNode:
                c = root._left
                if callable(c):
                    root._left = c()
                c = root._right
                if callable(c):
                    root._right = c()
                queue.append(root)
            while queue:
                node = queue.popleft()
                if expansions >= budget:
                    self.budget_exceeded = True
                    return
                expansions += 1
                kid = node._left
                t = type(kid)
                if t is BindNode:
                    kid = node._left = kid._norm or kid.normalized
                    t = type(kid)
                if t is ValueNode:
                    self.expansions = expansions
                    yield kid.payload
                elif t is OrNode:
                    c = kid._left
                    if callable(c):
                        kid._left = c()
                    c = kid._right
                    if callable(c):
                        kid._right = c()
                    queue.append(kid)
                if expansions >= budget:
                    self.budget_exceeded = True
                    return
                expansions += 1
                kid = node._right
                t = type(kid)
                if t is BindNode:
                    kid = node._right = kid._norm or kid.normalized
                    t = type(kid)
                if t is ValueNode:
                    self.expansions = expansions
                    yield kid.payload
                elif t is OrNode:
                    c = kid._left
                    if callable(c):
                        kid._left = c()
                    c = kid._right
                    if callable(c):
                        kid._right = c()
                    queue.append(kid)
            self.exhausted = True
        finally:
            self.expansions = expansions

    def _walk_level_diag(self, root: SearchTree[A], rng: Random | None) -> Iterator[A]:
        """Cantor diagonalization over (level, position in level).

        A node's level is its number of choice edges from the root; the
        value leaf at position p of level l comes out on diagonal l+p.  Each
        level is materialized left to right only as far as probed, so work
        stays proportional to the emitted prefix, and levels of a binary
        tree are finite, so every finite-depth value appears after finitely
        many diagonals.  Growing a level whose feed is starved steps down to
        grow the level above it and climbs back, without recursion, so deep,
        narrow trees cannot blow the interpreter recursion limit.
        """
        budget = self.strategy.node_budget
        flip = rng.getrandbits if rng is not None else None
        expansions = 1   # the root's visit: a node budget is at least 1
        try:
            if type(root) is BindNode:
                root = root.normalized
            # Per level: its nodes so far, left to right; the index of the
            # next node of the level above to expand into it; whether it is
            # complete.  Level 0 is the root alone.
            nodes: list[list] = [[root]]
            fed = [0]
            done = [True]
            active = [0]   # levels still probed, ascending
            diag = 0
            while active:
                still = []
                for lev in active:
                    pos = diag - lev
                    row = nodes[lev]
                    li = lev
                    while len(row) <= pos:   # grow level lev up to pos
                        if done[li]:
                            if li == lev:
                                break
                            li += 1
                            continue
                        above = nodes[li - 1]
                        f = fed[li]
                        if f < len(above):
                            fed[li] = f + 1
                            node = above[f]
                            if type(node) is not OrNode:
                                continue   # a leaf has no children
                            left = node._left   # force left, then right
                            if callable(left):
                                left = node._left = left()
                            right = node._right
                            if callable(right):
                                right = node._right = right()
                            below = nodes[li]
                            swap = flip is not None and flip(1)
                            if expansions >= budget:
                                self.budget_exceeded = True
                                return
                            expansions += 1
                            kid = right if swap else left
                            if type(kid) is BindNode:
                                kid = kid._norm or kid.normalized
                                if swap:
                                    node._right = kid
                                else:
                                    node._left = kid
                            below.append(kid)
                            if expansions >= budget:
                                self.budget_exceeded = True
                                return
                            expansions += 1
                            kid = left if swap else right
                            if type(kid) is BindNode:
                                kid = kid._norm or kid.normalized
                                if swap:
                                    node._left = kid
                                else:
                                    node._right = kid
                            below.append(kid)
                            if li < lev:
                                li += 1
                        elif done[li - 1]:
                            done[li] = True
                            if li < lev:
                                li += 1
                        else:
                            li -= 1
                    if pos >= len(row):
                        continue   # level lev is shorter: it drops out
                    still.append(lev)
                    if pos == 0:   # the level below joins on the next diagonal
                        still.append(lev + 1)
                        nodes.append([])
                        fed.append(0)
                        done.append(False)
                    node = row[pos]
                    if type(node) is ValueNode:
                        self.expansions = expansions
                        yield node.payload
                active = still
                diag += 1
            self.exhausted = True
        finally:
            self.expansions = expansions


def enumerate_tree(t: SearchTree[A], strategy: Strategy | None = None) -> Enumeration[A]:
    """Enumerate a tree's values (default strategy: seeded randomized level
    diagonalization with the default node budget)."""
    return Enumeration(t, strategy or Strategy())


def take_values(t: SearchTree[A], strategy: Strategy | None = None, n: int = 20) -> list[A]:
    """First min(n, available) values of the enumeration."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return list(itertools.islice(enumerate_tree(t, strategy), n))
