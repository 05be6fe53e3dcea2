"""Generator combinators: search trees of test data for base and user types.

A generator is a (possibly infinite) search tree of candidate values plus a
name for reports.  Built-in generators enumerate every value of their type
exactly once; generators for finite types are fully exhaustible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

from .searchtree import OrNode, SearchTree, bind, choice, defer, one_of, value

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


def gen_cons0(v: A, name: str | None = None) -> Generator[A]:
    """Generator with the single value v."""
    return Generator(value(v), name if name is not None else repr(v))


def _nested(c: Callable[..., A], gens: tuple[Generator, ...]) -> SearchTree[A]:
    def build(args: tuple, rest: tuple[Generator, ...]) -> SearchTree[A]:
        if not rest:
            return value(c(*args))
        head = rest[0]
        return bind(head.tree, lambda a: build(args + (a,), rest[1:]))

    return build((), gens)


def gen_cons(c: Callable[..., A], *gens: Generator, name: str | None = None) -> Generator[A]:
    """Apply an n-ary constructor to every combination of generated arguments.

    Realized by nested binds over the argument generators, so the result
    covers the full cross product (n up to 5; wider constructors compose
    from pairs).
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
    """Choice between two generators."""
    return Generator(choice(g1.tree, g2.tree), f"{g1.name}|{g2.name}")


# -- built-in generators -------------------------------------------------


def _positive_tree() -> SearchTree[int]:
    # 1, then n -> 2n and n -> 2n+1: every integer >= 1 exactly once, with
    # magnitudes growing by tree level.
    def rec() -> SearchTree[int]:
        return choice(
            value(1),
            choice(
                bind(defer(rec), lambda n: value(2 * n)),
                bind(defer(rec), lambda n: value(2 * n + 1)),
            ),
        )

    return defer(rec)


def positive_ints(name: str = "PosInt") -> Generator[int]:
    """Every integer >= 1, exactly once, small magnitudes first."""
    return Generator(_positive_tree(), name)


def _int_tree() -> SearchTree[int]:
    # Each magnitude contributes its negative and positive side by side, so
    # small values of both signs surface early under every strategy.
    signed = bind(_positive_tree(), lambda n: choice(value(-n), value(n)))
    return choice(value(0), signed)


_BUILTIN_FACTORIES: dict[BaseType, Callable[[], Generator]] = {
    BaseType.BOOL: lambda: Generator(one_of([False, True]), "Bool"),
    BaseType.ORDERING: lambda: Generator(one_of(list(Ordering)), "Ordering"),
    BaseType.INT: lambda: Generator(_int_tree(), "Int"),
    BaseType.CHAR: lambda: Generator(one_of([chr(c) for c in range(0x20, 0x7F)]), "Char"),
}


def builtin(t: BaseType) -> Generator:
    """The built-in generator for a base type.

    Bool and Ordering exhaust at 2 and 3 values; Int covers every integer
    exactly once; Char covers printable ASCII (0x20..0x7e) exactly once.
    """
    return _BUILTIN_FACTORIES[t]()


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
    length L costs O(L).
    """

    def rec(drawn: tuple | None) -> SearchTree[list[A]]:
        return OrNode(
            lambda: value(_unlink(drawn)),
            lambda: bind(g.tree, lambda h: rec((h, drawn))),
        )

    return Generator(rec(None), f"[{g.name}]")


def pair_of(g1: Generator, g2: Generator) -> Generator[tuple]:
    """All pairs of two generators' values."""
    return Generator(_nested(lambda a, b: (a, b), (g1, g2)), f"({g1.name},{g2.name})")


def tuple_of(*gens: Generator) -> Generator[tuple]:
    """All tuples across the given generators, by nested binds.

    Used to feed multi-parameter properties from a single input stream.
    """
    if not gens:
        raise ValueError("tuple_of needs at least one generator")
    names = ",".join(g.name for g in gens)
    label = f"({names},)" if len(gens) == 1 else f"({names})"
    return Generator(_nested(lambda *args: args, gens), label)
