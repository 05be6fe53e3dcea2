"""Generator combinators: search trees of test data for base and user types.

A generator is a (possibly infinite) search tree of candidate values plus a
name for reports.  Built-in generators enumerate every value of their type
exactly once; generators for finite types are fully exhaustible.  A
generator marked ``distinct`` promises that no two values of its tree have
equal ``canonical`` keys, so the runner draws its inputs without keying them;
combinators set the mark only where construction proves it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Generic, TypeVar

from .searchtree import OrNode, SearchTree, bind, choice, one_of, value

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

    @staticmethod
    def from_token(token: str) -> "BaseType":
        return BaseType(token.lower())


@dataclass(frozen=True)
class Generator(Generic[A]):
    tree: SearchTree[A]
    name: str = "gen"
    distinct: bool = field(default=False, kw_only=True)  # no two values key alike


def gen_cons0(v: A, name: str | None = None) -> Generator[A]:
    """Generator with the single value v."""
    return Generator(value(v), name if name is not None else repr(v), distinct=True)


# Generator trees are built by module-level functions (_nested, _positive_tree,
# _lists): a local closure that names itself would be a reference cycle.  Their
# thunks and continuations take their state as default arguments, so no
# closure cell stays alive per node of a memoised tree.


def _nested(c: Callable[..., A], gens: tuple[Generator, ...], args: tuple = ()) -> SearchTree[A]:
    if len(args) == len(gens):
        return value(c(*args))
    return bind(gens[len(args)].tree, lambda a, c=c, gens=gens, args=args: _nested(c, gens, args + (a,)))


def gen_cons(c: Callable[..., A], *gens: Generator, name: str | None = None) -> Generator[A]:
    """Apply an n-ary constructor to every combination of generated arguments.

    Realized by nested binds over the argument generators, so the result
    covers the full cross product (n up to 5; wider constructors compose
    from pairs).  Not marked distinct: the constructor may map two argument
    tuples to equal values.
    """
    if len(gens) > 5:
        raise ValueError("constructor arity above 5; compose from pairs instead")
    label = name if name is not None else getattr(c, "__name__", "cons")
    return Generator(_nested(c, gens), label)


def gen_cons1(c, g1, name=None):
    return gen_cons(c, g1, name=name)


def gen_cons2(c, g1, g2, name=None):
    return gen_cons(c, g1, g2, name=name)


def gen_cons3(c, g1, g2, g3, name=None):
    return gen_cons(c, g1, g2, g3, name=name)


def gen_cons4(c, g1, g2, g3, g4, name=None):
    return gen_cons(c, g1, g2, g3, g4, name=name)


def gen_cons5(c, g1, g2, g3, g4, g5, name=None):
    return gen_cons(c, g1, g2, g3, g4, g5, name=name)


def alt(g1: Generator[A], g2: Generator[A]) -> Generator[A]:
    """Choice between two generators; not marked distinct, as both may hold
    the same value."""
    return Generator(choice(g1.tree, g2.tree), f"{g1.name}|{g2.name}")


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


def positive_ints(name: str = "PosInt") -> Generator[int]:
    """Every integer >= 1, exactly once, small magnitudes first."""
    return Generator(_positive_tree(), name, distinct=True)


def _signed(n: int) -> SearchTree[int]:
    return choice(value(-n), value(n))


def _int_tree() -> SearchTree[int]:
    # Each magnitude contributes its negative and positive side by side, so
    # small values of both signs surface early under every strategy.  The
    # pair is a node's leaf, so the tree is built top down with no bind.
    return choice(value(0), _positive_tree(_signed))


_BUILTIN_TREES: dict[BaseType, tuple[str, Callable[[], SearchTree]]] = {
    BaseType.BOOL: ("Bool", lambda: one_of([False, True])),
    BaseType.ORDERING: ("Ordering", lambda: one_of(list(Ordering))),
    BaseType.INT: ("Int", _int_tree),
    BaseType.CHAR: ("Char", lambda: one_of([chr(c) for c in range(0x20, 0x7F)])),
}


def builtin(t: BaseType) -> Generator:
    """The built-in generator for a base type, marked distinct.

    Bool and Ordering exhaust at 2 and 3 values; Int covers every integer
    exactly once; Char covers printable ASCII (0x20..0x7e) exactly once.
    """
    name, tree = _BUILTIN_TREES[t]
    return Generator(tree(), name, distinct=True)


def _unlink(drawn: tuple | None) -> list:
    """The list of a linked (head, rest) chain, oldest head first."""
    out = []
    while drawn is not None:
        h, drawn = drawn
        out.append(h)
    out.reverse()
    return out


def list_of(g: Generator[A]) -> Generator[list[A]]:
    """Lists over a generator: nil, plus cons of an element and a generated tail.

    Each node carries the elements drawn above it as linked (head, rest)
    pairs, and a list is built once, at its nil leaf, so drawing a list of
    length L costs O(L).  A list's elements name the one path to its leaf,
    so the lists key apart whenever the elements do.
    """
    return Generator(_lists(g.tree, None), f"[{g.name}]", distinct=g.distinct)


def _lists(elem: SearchTree[A], drawn: tuple | None) -> SearchTree[list[A]]:
    return OrNode(
        lambda drawn=drawn: value(_unlink(drawn)),
        lambda elem=elem, drawn=drawn: bind(
            elem, lambda h, elem=elem, drawn=drawn: _lists(elem, (h, drawn))),
    )


def pair_of(g1: Generator, g2: Generator) -> Generator[tuple]:
    """All pairs of two generators' values; distinct if both parts are."""
    return tuple_of(g1, g2)


def tuple_of(*gens: Generator) -> Generator[tuple]:
    """All tuples across the given generators, by nested binds.

    Used to feed multi-parameter properties from a single input stream.
    Distinct if every part is.
    """
    if not gens:
        raise ValueError("tuple_of needs at least one generator")
    names = ",".join(g.name for g in gens)
    label = f"({names},)" if len(gens) == 1 else f"({names})"
    return Generator(_nested(lambda *args: args, gens), label,
                     distinct=all(g.distinct for g in gens))
