"""Search trees: the results of a computation with zero, one, or many values.

A computation that may branch is represented as a binary tree with three
node kinds: a value leaf, a failure leaf (no value), and a choice node with
two subtrees.  Subtrees may be given as thunks so that infinite trees (e.g.
"all lists of integers") are representable; a thunk is forced at most once.
A bind node, built by ``bind`` and ``defer``, is the one lazy node: it
resolves to one of the three kinds once, on its first visit.  Pending
functions form a chain: None, one function, or a pair ``(f, rest)`` whose
``rest`` is a chain, ``f`` applied first.  A choice node reached under a
chain resolves to one choice node that keeps the chain, its own pending
functions first, over the source's two children, unresolved; a walk
resolves those children when it visits them, so a split allocates one node,
not a choice node and two bind nodes, and leaves its source as it was.

Enumeration strategies linearize a tree into a lazy value sequence under a
node budget.  They share one walk over the tree's levels and differ only in
the order of its probes: bfs yields the levels in order (breadth-first
search), and level diagonalization, plain or randomized, yields their
diagonals.  All strategies are complete: every value at finite depth
appears in the output if the budget permits reaching it.  Duplicate leaves
are preserved here; de-duplication is a concern of the property layer.
A walk whose root's normal form is a choice node records what it hands out
on that node, per strategy, and a later walk of the same node under an equal
strategy replays the record instead of walking the tree again.
"""

from __future__ import annotations

import itertools
from array import array
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
# None, one function, or a pair (f, rest) whose rest is a chain
_Chain = Union[Callable[[Any], SearchTree], tuple, None]


class OrNode(SearchTree[A]):
    """Choice between two subtrees; children may be thunks, forced on access.

    A choice node that a bind split is pending: ``_cont`` holds the chain of
    functions still to apply to both children, which are raw trees.  A walk
    resolves the two children where it visits them, writes their normal
    forms back and clears ``_cont``.  ``_resolve`` splits a choice node by
    reading its slots, so a pending node it splits stays pending.  Outside a
    walk's step a node is wholly pending or wholly resolved.  ``_walks``,
    set only on a node that was the normal form of a walk's root, maps each
    strategy to the record of its walks, a ``_Walk``.
    """

    __slots__ = ("_left", "_right", "_cont", "_walks")

    def __init__(self, left: _Child, right: _Child, cont: _Chain = None):
        self._left = left
        self._right = right
        self._cont = cont

    def __repr__(self) -> str:
        return "OrNode(..)"


class BindNode(SearchTree[A]):
    """Tree under a chain of pending value-leaf substitutions, applied in order.

    The chain is None for ``defer`` and the function itself for ``bind``;
    one made over a pending node's child (``_settle``)
    keeps that node's chain.  The tree slot may hold a thunk instead
    (``defer``), forced at most once and stored back.  The normal form,
    computed by ``_resolve``, is computed once and kept in ``_norm``; the
    tree and chain it came from are then dropped.  A walk meets bind nodes
    that ``bind`` and ``defer`` built, and resolves each in its parent's
    slot, storing the normal form there, so the wrapper lives on only where
    something else refers to it, such as a generator's root or a shared
    ``defer``.  A split under a chain makes no bind node, also where the
    node split is pending: it is one pending choice node.
    """

    __slots__ = ("_tree", "_cont", "_norm")

    def __init__(self, tree: _Child, cont: _Chain):
        self._tree = tree
        self._cont = cont
        self._norm: SearchTree | None = None

    @property
    def normalized(self) -> SearchTree:
        """Equivalent ValueNode, FailNode, or OrNode; computed once."""
        if self._norm is not None:
            return self._norm
        t = self._tree
        if callable(t):
            t = self._tree = t()
        t = self._norm = _resolve(t, self._cont)
        self._tree = self._cont = None
        return t

    def __repr__(self) -> str:
        return "BindNode(..)"


def _join(j: _Chain, k: _Chain) -> _Chain:
    """The chain j, then the chain k: j's functions copied in front of k,
    which is shared as the tail."""
    if j is None:
        return k
    if k is None:
        return j
    fns = []
    while type(j) is tuple:
        fns.append(j[0])
        j = j[1]
    k = (j, k)
    for f in reversed(fns):
        k = (f, k)
    return k


def _resolve(t: SearchTree, k: _Chain) -> SearchTree:
    """Normal form of tree t under chain k: a ValueNode, FailNode or OrNode.

    Peels one constructor at a time: a value leaf runs the next function, a
    choice node under a non-empty chain becomes one pending choice node over
    its two children, forced, under its own chain joined in front of k.  A
    nested bind joins its own chain in front of k in a loop, sharing k as
    the tail, so a join costs the inner chain's length and resolving a
    deeply composed tree costs O(1) Python frames per node.
    """
    while True:
        c = type(t)
        if c is BindNode:
            if t._norm is not None:
                t = t._norm
            else:
                k = _join(t._cont, k)
                inner = t._tree
                if callable(inner):
                    inner = t._tree = inner()
                t = inner
        elif c is ValueNode:
            if k is None:
                return t
            if type(k) is tuple:
                f, k = k
            else:
                f, k = k, None
            t = f(t.payload)
        elif c is OrNode:
            if k is None:
                return t
            left = t._left
            if callable(left):
                left = t._left = left()
            right = t._right
            if callable(right):
                right = t._right = right()
            return OrNode(left, right, _join(t._cont, k))
        elif c is FailNode:
            return t
        else:
            raise TypeError(f"not a search tree: {t!r}")


def _settle(node: OrNode, raw_left: bool) -> None:
    """Leave a pending choice node whose other child a walk has resolved and
    written back wholly resolved: wrap its raw child in a bind node under the
    node's chain."""
    if raw_left:
        node._left = BindNode(node._left, node._cont)
    else:
        node._right = BindNode(node._right, node._cont)
    node._cont = None


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
    return BindNode(t, f)


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


class _Walk:
    """What the walks of one choice root under one strategy have handed out:
    each value, the node count at it (``counts``, 8 bytes per value), and,
    once a walk ended on its own, ``end``: its ``exhausted`` and
    ``budget_exceeded`` flags and final node count.  ``end`` is None while
    the record is open: no walk has ended yet, as its consumer stopped or a
    thunk or continuation raised.  A walk appends the value at position i
    only while the record holds exactly i values, so whichever walk is at
    the record's end extends it."""

    __slots__ = ("values", "counts", "end")

    def __init__(self):
        self.values: list = []
        self.counts = array("q")
        self.end: tuple[bool, bool, int] | None = None


class Enumeration(Generic[A]):
    """Single-consumer cursor over a tree's values under one strategy.

    Iterate once to pull values lazily; ``iter`` hands the walk to the
    consumer, and a second ``iter`` raises TypeError.  Once iteration stops
    on its own, exactly one of ``exhausted`` (whole tree expanded) or
    ``budget_exceeded`` is set; if the consumer stopped early, both stay
    False.  These two flags are the end of a draw that the runner,
    ``for_all`` and every operator read.  ``expansions`` counts visited tree
    nodes; it is current whenever a value is handed out and once the walk
    stops.

    A walk whose root's normal form is a choice node records on that node,
    keyed by the strategy, each value it yields with ``expansions`` at it,
    and how it ended.  A walk of the same node under an equal strategy first
    replays that record: it hands out the recorded values, setting
    ``expansions`` before each, and then sets the recorded flags and final
    count or, on an open record, walks on past the recorded values without
    yielding them.  A walk, a replay and a re-walk of the memo yield the same
    values with the same counts and flags.
    """

    def __init__(self, tree: SearchTree[A], strategy: Strategy):
        self.strategy = strategy
        self.exhausted = False
        self.budget_exceeded = False
        self.expansions = 0
        self._root: list[SearchTree[A]] = [tree]   # emptied when iter hands out the walk

    def __iter__(self) -> Iterator[A]:
        if not self._root:
            raise TypeError("an Enumeration is iterated only once")
        return self._walk_levels(self._root.pop())

    # Budget accounting: one unit per node visited (value and fail leaves
    # included); a bind node, deferred trees and nested binds included,
    # resolves within a single visit, to its normal form, which is never a
    # bind node.  The walk visits a choice node's two children when it grows
    # the level below into it, each through one child step: it checks the
    # budget, resolves the child under the node's chain if the node is
    # pending, or else reads a bind child's memo or computes it, and always
    # writes the child back to its slot, so a memoised tree keeps normal
    # forms, not their wrappers.  The node's chain is cleared once its
    # second child is resolved; a walk that stops in between (the budget
    # ends, or a continuation or thunk raises) first wraps the raw child in
    # a bind node (``_settle``).  An OrNode child that is not a search tree
    # is a dead leaf.

    def _walk_levels(self, root: SearchTree[A]) -> Iterator[A]:
        """The tree's levels, probed position by position in one of two orders.

        A node's level is its number of choice edges from the root.  Under
        bfs a level is probed to its end before the level below joins, so
        the levels come out in order.  Otherwise the value leaf at position
        p of level l comes out on diagonal l+p (Cantor diagonalization, with
        each choice node's children swapped, under rand_level_diag, by a
        coin of a PRNG seeded with the strategy's seed), and
        level l+1 joins right after position 0 of level l.  Each level is
        materialized left to right only as far as probed, so work stays
        proportional to the emitted prefix, and levels of a binary tree are
        finite, so every finite-depth value appears after finitely many
        rounds.  Growing a level whose feed is starved steps down to grow the
        level above it and climbs back, without recursion, so deep, narrow
        trees cannot blow the interpreter recursion limit.

        A choice root's record comes first: its values are handed out, then
        its end, or the walk passes over them and goes on.  All walks of one
        root under one strategy yield the same values in the same order, so
        a walk appends the value at position i only while the record holds
        exactly i values, and records its end when it ends on its own.
        """
        strategy = self.strategy
        expansions = 1   # the root's visit: a node budget is at least 1
        half = None   # a pending node with one child resolved, the other (left if swap) raw
        swap = False
        rec = None
        skip = 0   # recorded values the walk passes over
        try:
            if type(root) is BindNode:
                root = root.normalized
            if type(root) is OrNode:
                walks = getattr(root, "_walks", None)
                if walks is None:
                    walks = root._walks = {}
                rec = walks.setdefault(strategy, _Walk())
                values, counts = rec.values, rec.counts
                record_value, record_count = values.append, counts.append
                while skip < len(values):   # as far as the record grows meanwhile
                    self.expansions = expansions = counts[skip]
                    yield values[skip]
                    skip += 1
                if rec.end is not None:
                    self.exhausted, self.budget_exceeded, expansions = rec.end
                    return
                at, expansions = skip, 1   # at: the position of the walk's next value
            budget = strategy.node_budget
            bfs = strategy.kind == BFS
            flip = Random(strategy.seed).getrandbits if strategy.kind == RAND_LEVEL_DIAG else None
            # Per level: its nodes so far, left to right; the index of the
            # next node of the level above to expand into it; whether it is
            # complete.  Level 0 is the root alone.
            nodes: list[list] = [[root]]
            fed = [0]
            done = [True]
            active = [0]   # levels still probed, ascending
            diag = 0
            while active:   # a round: one diagonal, or under bfs one whole level
                still = []
                for lev in active:
                    pos = diag - lev   # 0 under bfs
                    row = nodes[lev]
                    while True:
                        li = lev
                        while len(row) <= pos:   # grow level lev up to pos
                            if done[li]:   # only lev can be: the walk steps down
                                break      # only into an unfinished level
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
                                k = node._cont
                                kid = right if swap else left
                                if k is not None:
                                    kid = _resolve(kid, k)
                                    half = node
                                elif type(kid) is BindNode:
                                    kid = kid.normalized
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
                                if k is not None:
                                    kid = _resolve(kid, k)
                                elif type(kid) is BindNode:
                                    kid = kid.normalized
                                if swap:
                                    node._left = kid
                                else:
                                    node._right = kid
                                below.append(kid)
                                node._cont = half = None
                                if li < lev:
                                    li += 1
                            elif done[li - 1]:
                                done[li] = True
                                if li < lev:
                                    li += 1
                            else:
                                li -= 1
                        if pos >= len(row):
                            break   # level lev ends here: it drops out
                        if not bfs:
                            still.append(lev)   # probed again on the next diagonal
                        if pos == 0:   # the level below joins on the next round
                            still.append(lev + 1)
                            nodes.append([])
                            fed.append(0)
                            done.append(False)
                        node = row[pos]
                        if type(node) is ValueNode:
                            if skip:
                                skip -= 1
                            else:
                                self.expansions = expansions
                                if rec is not None:
                                    if len(values) == at:
                                        record_value(node.payload)
                                        record_count(expansions)
                                    at += 1
                                yield node.payload
                        if not bfs:
                            break
                        pos += 1
                active = still
                diag += 1
            self.exhausted = True
        finally:
            if half is not None:
                _settle(half, swap)
            self.expansions = expansions
            if rec is not None and (self.exhausted or self.budget_exceeded):
                rec.end = (self.exhausted, self.budget_exceeded, expansions)


def enumerate_tree(t: SearchTree[A], strategy: Strategy | None = None) -> Enumeration[A]:
    """Enumerate a tree's values (default strategy: seeded randomized level
    diagonalization with the default node budget)."""
    return Enumeration(t, strategy or Strategy())


def take_values(t: SearchTree[A], strategy: Strategy | None = None, n: int = 20) -> list[A]:
    """First min(n, available) values of the enumeration."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return list(itertools.islice(enumerate_tree(t, strategy), n))
