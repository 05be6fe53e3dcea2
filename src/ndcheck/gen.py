"""Generator combinators: search trees of test data for base and user types.

A generator is a (possibly infinite) search tree of candidate values plus
three facts that its construction proves: whether its values key apart
(``distinct``), which types they can have (``types``), and a structural
``key``.  Only the combinators set them, and only where construction proves
them; a hand-built ``Generator(tree)`` has none.  Built-in generators
enumerate every value of their type exactly once; generators for finite
types are fully exhaustible.  The runner draws the inputs of a distinct
generator without keying them, and hands the specs of one run whose
generators have equal keys one tree.  ``gen_cons`` applies a constructor of
any arity, so no combinator is numbered by arity.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, TypeVar

from .searchtree import OrNode, SearchTree, ValueNode, bind, choice, defer, one_of, value

A = TypeVar("A")


class Ordering(enum.Enum):
    """Three-valued comparison result; the default domain for polymorphic tests."""

    LT = 0
    EQ = 1
    GT = 2

    def __str__(self) -> str:
        return self.name


class BaseType(enum.Enum):
    ORDERING = "ordering"
    BOOL = "bool"
    INT = "int"
    CHAR = "char"


@dataclass(frozen=True)
class Generator(Generic[A]):
    tree: SearchTree[A]
    # The facts below are no constructor arguments: the combinators set them
    # through _derived, where construction proves them.
    distinct: bool = field(default=False, init=False)  # no two values key alike
    # The exact types the values can have, or None if unknown.  canonical keys
    # values of two such types apart, except a set and a frozenset: a set is
    # recorded as frozenset.
    types: frozenset[type] | None = field(default=None, init=False)
    # Set only where every value is immutable by construction: generators
    # with equal keys yield the same values, node counts and end flags under
    # every strategy.
    key: Any = field(default=None, init=False, repr=False, compare=False)


def _derived(tree: SearchTree[A], distinct: bool, types: frozenset[type] | None,
             key: Any = None) -> Generator[A]:
    """The generator of tree with the facts a combinator derived for it."""
    g = Generator(tree)
    object.__setattr__(g, "distinct", distinct)
    object.__setattr__(g, "types", types)
    object.__setattr__(g, "key", key)
    return g


def _key_of(tag: Any, gens: tuple[Generator, ...], *head: Any) -> Any:
    """The key (tag, *head, part keys...), or None if some part has none."""
    keys = tuple(g.key for g in gens)
    return None if None in keys else (tag, *head, *keys)


# the exact types of the values gen_cons0 keys, besides enum members
_SCALARS = frozenset((type(None), bool, int, str, bytes))


def gen_cons0(v: A) -> Generator[A]:
    """Generator with the single value v; keyed for None, a bool, int, str or
    bytes, and an enum member."""
    t = frozenset if type(v) is set else type(v)
    key = ((gen_cons0, t, v) if t in _SCALARS
           else (gen_cons0, t, v.name) if isinstance(v, enum.Enum) else None)
    return _derived(value(v), True, frozenset((t,)), key)


# Generator trees are built by module-level functions (_nested, recursive,
# _positive_tree, _list_node): a local closure that names itself would be a
# reference cycle.  The thunks and continuations of _nested, recursive and
# _positive_tree take their state as default arguments, so no closure cell
# stays alive per node of a memoised tree.  A list node, the most numerous
# node of the memo, is one pending choice node over two children that every
# node shares, and keeps its state in one slotted _ListCell, which is the
# node's whole chain: no function object, defaults tuple, chain tuple or bind
# node per node.


def _nested(c: Callable[..., A], gens: tuple[Generator, ...], args: tuple = ()) -> SearchTree[A]:
    if len(args) == len(gens):
        return value(c(*args))
    return bind(gens[len(args)].tree, lambda a, c=c, gens=gens, args=args: _nested(c, gens, args + (a,)))


# per class: whether it is a free constructor; probed once per class
_FREE: dict[type, bool] = {}


def _generated(c: type, name: str) -> bool:
    """Whether c's own method `name` is one the dataclass decorator wrote."""
    code = getattr(c.__dict__.get(name), "__code__", None)
    return code is not None and code.co_filename == "<string>"


def _free(c: Any) -> bool:
    """Whether c is a free constructor: calling it builds an instance of
    exactly class c whose fields hold the arguments unchanged, so canonical,
    which keys a dataclass by its type and compared fields, keys the values
    built from two distinct argument tuples apart.

    That holds for a frozen dataclass with the generated __init__ and
    __eq__, no __post_init__, and no InitVar, init=False or compare=False
    field, built by the plain type call (no own __new__ or metaclass).
    """
    if not isinstance(c, type):
        return False
    try:
        return _FREE[c]
    except KeyError:
        params = c.__dict__.get("__dataclass_params__")
        fields = dataclasses.fields(c) if params is not None else ()
        free = _FREE[c] = (
            params is not None and params.frozen
            and _generated(c, "__init__") and _generated(c, "__eq__")
            and not hasattr(c, "__post_init__")
            # InitVar (and ClassVar) pseudo-fields are left out of fields()
            and len(fields) == len(c.__dataclass_fields__)
            and all(f.init and f.compare for f in fields)
            and type(c) is type and c.__new__ is object.__new__
        )
        return free


def gen_cons(c: Callable[..., A], *gens: Generator) -> Generator[A]:
    """Apply an n-ary constructor to every combination of generated arguments.

    Realized by nested binds over the argument generators, so the result
    covers the full cross product, at any arity.  Marked distinct when
    every part is and c is a free constructor (a frozen dataclass with the
    generated __init__ and __eq__, no __post_init__, and no InitVar,
    init=False or compare=False field): each argument tuple comes once, and
    c maps distinct tuples to values that key apart.
    Any other callable may map two argument tuples to equal values.  Keyed
    when every part is and c is free: its values are frozen and hold the
    parts' values unchanged.
    """
    free = _free(c)
    return _derived(_nested(c, gens), free and all(g.distinct for g in gens),
                    frozenset((c,)) if free else None, _key_of(gen_cons, gens, c) if free else None)


def alt(g1: Generator[A], g2: Generator[A]) -> Generator[A]:
    """Choice between two generators.

    Marked distinct when both parts are and their type sets are known and
    disjoint, since values of different types key apart; otherwise both
    parts may hold the same value.
    """
    t1, t2 = g1.types, g2.types
    known = t1 is not None and t2 is not None
    return _derived(choice(g1.tree, g2.tree),
                    g1.distinct and g2.distinct and known and t1.isdisjoint(t2),
                    t1 | t2 if known else None, _key_of(alt, (g1, g2)))


def recursive(body: Callable[[Generator[A]], Generator[A]]) -> Generator[A]:
    """The generator defined by body in terms of itself: body(self), where
    the tree of the self-reference `self` unfolds body afresh when a walk
    first visits it.

    The mark is checked coinductively: body gets a self-reference assumed
    distinct, of unknown types, and the result is distinct only if body
    derives the mark from that assumption.  Values are finite, and with
    unknown types alt marks no branch that yields the self-reference's
    values unchanged, so each marked combinator over it builds larger
    values injectively: two equal values would need two equal, smaller
    values of the self-reference.  The key is checked the same way, with a
    self-reference keyed (_SELF, level), where level counts the recursive
    calls whose body is running: the key body derives from it then records
    every part body read, from its closure, its defaults or a module global,
    and where each self-reference goes, nested ones too.  The generator's
    key is that key with the level it binds, so a keyed generator built at
    one level and used in a body at another keeps its own self-references
    apart from the body's.  This assumes that body builds the same
    generator every time it is called, as the unfolding itself does, and
    that no generator built from the self-reference is used outside body.
    Each unfolding's thunk takes body as a default argument and no closure
    names itself, so the generator makes no reference cycle.
    """
    global _level
    level, _level = _level, _level + 1
    try:
        g = body(_derived(defer(lambda body=body: _unfold(body)), True, None, (_SELF, level)))
    finally:
        _level = level
    return _derived(g.tree, g.distinct, g.types, None if g.key is None else (recursive, level, g.key))


def _unfold(body: Callable[[Generator[A]], Generator[A]]) -> SearchTree[A]:
    """The tree of recursive(body), one level down: only the tree is used,
    so the self-reference gets no key."""
    return body(_derived(defer(lambda body=body: _unfold(body)), True, None)).tree


_SELF = object()   # the key part that names a self-reference, with its level
_level = 0         # the recursive calls whose body is running; built on one thread


# -- built-in generators -------------------------------------------------


def _positive_tree(leaf: Callable[[int], SearchTree] = value, low: int = 0,
                   bit: int = 1) -> SearchTree:
    # 1, then n -> 2n and n -> 2n+1: every integer >= 1 exactly once, with
    # magnitudes growing by tree level; each node holds leaf(n).  Built top
    # down, lowest bit first: a node carries the low bits chosen above it, so
    # a value at depth d is built in O(1), not through d nested 2n / 2n+1 maps.
    return choice(
        leaf(low | bit),
        OrNode(lambda leaf=leaf, low=low, bit=bit: _positive_tree(leaf, low, bit << 1),
               lambda leaf=leaf, low=low, bit=bit: _positive_tree(leaf, low | bit, bit << 1)),
    )


def positive_ints() -> Generator[int]:
    """Every integer >= 1, exactly once, small magnitudes first."""
    return _derived(_positive_tree(), True, frozenset((int,)))


def _signed(n: int) -> SearchTree[int]:
    return choice(value(-n), value(n))


def _int_tree() -> SearchTree[int]:
    # Each magnitude contributes its negative and positive side by side, so
    # small values of both signs surface early under every strategy.  The
    # pair is a node's leaf, so the tree is built top down with no bind.
    return choice(value(0), _positive_tree(_signed))


_BUILTIN_TREES: dict[BaseType, tuple[type, Callable[[], SearchTree]]] = {
    BaseType.BOOL: (bool, lambda: one_of([False, True])),
    BaseType.ORDERING: (Ordering, lambda: one_of(list(Ordering))),
    BaseType.INT: (int, _int_tree),
    BaseType.CHAR: (str, lambda: one_of([chr(c) for c in range(0x20, 0x7F)])),
}


def builtin(t: BaseType) -> Generator:
    """The built-in generator for a base type, marked distinct and keyed.

    Bool and Ordering exhaust at 2 and 3 values; Int covers every integer
    exactly once; Char covers printable ASCII (0x20..0x7e) exactly once.
    """
    typ, tree = _BUILTIN_TREES[t]
    return _derived(tree(), True, frozenset((typ,)), (builtin, t))


def list_of(g: Generator[A], seq: type = list) -> Generator:
    """Lists over a generator: nil, plus cons of an element and a generated tail.

    A list node is one choice node, pending under its cell, over two
    children that every node shares: the nil leaf and the element tree.  The
    cell maps the nil mark to the list drawn down to the node, and a head h
    to the node below, whose cell keeps h and points up to this one; a list
    is built once, at its nil leaf, so drawing a list of length L costs
    O(L).  A list's elements name the one path to its leaf, so the lists key
    apart whenever the elements do.  With seq=tuple each list is built as a
    tuple of the same elements in the same order, over the same tree; list
    to tuple is injective, so the tuples key apart too.  A cell refers to
    the shared element tree and to the cells above it, never to a node, so
    the tree makes no reference cycle.  Keyed with seq=tuple over a keyed
    g; a list is never keyed, as a body may mutate it.
    """
    if seq is not list and seq is not tuple:
        raise ValueError("list_of builds a list or a tuple")
    return _derived(_list_node(_ListCell(None, None, g.tree, seq)), g.distinct, frozenset((seq,)),
                    _key_of(list_of, (g,)) if seq is tuple else None)


_NIL = object()   # the value at the end of a list: the cell maps it to the list drawn
_NIL_LEAF = ValueNode(_NIL)


class _ListCell:
    """The state of one list node: the head drawn at the node, the cell of the
    node above (None at the root), the element tree and the sequence type.
    The cell is the node's chain, a one-function chain: it maps the nil mark
    to the leaf of the list drawn, and a head h to the node below."""

    __slots__ = ("head", "up", "elem", "seq")

    def __init__(self, head: Any, up: _ListCell | None, elem: SearchTree, seq: type):
        self.head = head
        self.up = up
        self.elem = elem
        self.seq = seq

    def __call__(self, h: Any) -> SearchTree:
        if h is _NIL:
            return ValueNode(_unlink(self))
        return _list_node(_ListCell(h, self, self.elem, self.seq))


def _list_node(cell: _ListCell) -> OrNode:
    return OrNode(_NIL_LEAF, cell.elem, cell)


def _unlink(cell: _ListCell) -> list | tuple:
    """The heads drawn down to cell's node, oldest first, as a list of exact
    size, or as a tuple if the cell's seq is tuple."""
    out = []
    while cell.up is not None:
        out.append(cell.head)
        cell = cell.up
    return out[::-1] if cell.seq is list else tuple(reversed(out))


def tuple_of(*gens: Generator) -> Generator[tuple]:
    """All tuples across the given generators, by nested binds.

    Used to feed multi-parameter properties from a single input stream.
    Distinct if every part is, and keyed if every part is.
    """
    if not gens:
        raise ValueError("tuple_of needs at least one generator")
    return _derived(_nested(lambda *args: args, gens), all(g.distinct for g in gens),
                    frozenset((tuple,)), _key_of(tuple_of, gens))
