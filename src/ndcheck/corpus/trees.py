"""Suite Trees: user-defined rose trees and Peano numbers with their
generators; mirror laws are checked on generated trees of any base type."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..gen import Generator, alt, builtin, gen_cons, gen_cons0, list_of, recursive
from ..prop import is_equal
from ..registry import poly_test

MODULE = "Trees"


@dataclass(frozen=True)
class Leaf:
    payload: Any

    def __str__(self) -> str:
        return f"Leaf {self.payload}"


@dataclass(frozen=True)
class Node:
    children: tuple

    def __str__(self) -> str:
        return "Node [" + ",".join(str(c) for c in self.children) + "]"


def leaves(t) -> list:
    if isinstance(t, Leaf):
        return [t.payload]
    out: list = []
    for c in t.children:
        out.extend(leaves(c))
    return out


def mirror(t):
    if isinstance(t, Leaf):
        return t
    return Node(tuple(mirror(c) for c in reversed(t.children)))


def gen_tree(ga: Generator) -> Generator:
    """Trees over an element generator: a leaf, or a node of generated
    subtree lists, built as tuples.  Distinct if the element generator is."""
    return recursive(
        lambda tree: alt(gen_cons(Leaf, ga), gen_cons(Node, list_of(tree, seq=tuple))))


@dataclass(frozen=True)
class Zero:
    def __str__(self) -> str:
        return "Z"


@dataclass(frozen=True)
class Succ:
    pred: Any

    def __str__(self) -> str:
        inner = str(self.pred)
        return f"S {inner}" if isinstance(self.pred, Zero) else f"S ({inner})"


def gen_nat() -> Generator:
    """Peano numbers: zero, or the successor of a generated number; distinct."""
    return recursive(lambda nat: alt(gen_cons0(Zero()), gen_cons(Succ, nat)))


poly_test(
    MODULE,
    "doubleMirrorIsId",
    gen_for=lambda bt: gen_tree(builtin(bt)),
    body=lambda t: is_equal(mirror(mirror(t)), t),
    line=14,
)

poly_test(
    MODULE,
    "leavesOfMirrorAreReversed",
    gen_for=lambda bt: gen_tree(builtin(bt)),
    body=lambda t: is_equal(leaves(t), list(reversed(leaves(mirror(t))))),
    line=16,
)
