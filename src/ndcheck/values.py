"""Ground-value helpers: structural equality keys, key-free comparison and
report rendering.

Test data and results are ordinary Python values (ints, bools, strings,
lists, frozen dataclasses, ...).  Two of them are the same value when they
have the same type and are ==, recursively, except that a dataclass is
compared by its type and the fields it compares, whatever its own == says
(one that defines __eq__, or has eq=False).  De-duplication needs a
hashable key that says so (canonical), the operators compare two plain
values without keys (same_value, the one key-free comparison), and failure
reports need a stable textual form.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import Counter, OrderedDict
from itertools import chain
from typing import Any, Callable

# the kinds of value the type table tells apart: the kinds from FIELDS on
# have parts, and the fold opens the kinds from a given one on
SCALAR, SAME, OTHER, FIELDS, SEQUENCE, ITEMS, ORDERED, SET = range(8)

# the row of a dict type by its ==, its parts a flat iterator of the keys and
# values of the items that make its value, in turn: all of them for dict's
# (defaultdict), in their order for OrderedDict's, which compares them so,
# and those of nonzero count for Counter's, which counts a missing element
# as zero
_DICT_ROWS: dict[Any, tuple[int, Callable]] = {
    dict.__eq__: (ITEMS, lambda v: chain.from_iterable(v.items())),
    OrderedDict.__eq__: (ORDERED, lambda v: chain.from_iterable(v.items())),
    Counter.__eq__: (ITEMS, lambda v: chain.from_iterable((k, x) for k, x in v.items() if x != 0)),
}

# per type: its kind, and for a kind with parts how to read them: the parts
# of a list, tuple or set are its elements (read by iter), of a dataclass the
# fields it compares (their names), of a dict the keys and values of its
# items in turn.  Built-in types come first; the others are added as met.
_TYPES: dict[type, tuple[int, Any]] = dict.fromkeys((bool, int, float, str, bytes), (SCALAR, None))
_TYPES.update({list: (SEQUENCE, iter), tuple: (SEQUENCE, iter), set: (SET, iter), frozenset: (SET, iter)})
_TYPES[type(None)] = (SAME, None)   # None is its own key, though NoneType has its own == from 3.12 on


def _row(t: type) -> tuple[int, Any]:
    """Type t's row in the type table, probed on its first value: a
    dataclass by the fields it compares (compare=True), a dict by its items
    if _DICT_ROWS holds its ==; any other type has no parts, and its == is
    object identity (a plain enum) or its own."""
    if dataclasses.is_dataclass(t):
        return _TYPES.setdefault(t, (FIELDS, tuple(f.name for f in dataclasses.fields(t) if f.compare)))
    if issubclass(t, dict) and t.__eq__ in _DICT_ROWS:
        return _TYPES.setdefault(t, _DICT_ROWS[t.__eq__])
    return _TYPES.setdefault(t, (SAME if t.__eq__ is object.__eq__ else OTHER, None))


def _fold(v: Any, leaf: Callable, node: Callable, first: int) -> Any:
    """Fold v bottom-up on an explicit stack, at any depth: a value x whose
    kind is first or later is opened, and its result is node(x, type, kind,
    results), given the results for its parts in order; any other value's
    is leaf(x, type, kind)."""
    t = type(v)
    kind, how = _TYPES.get(t) or _row(t)
    if kind < first:   # most keys are of a scalar or an enum member
        return leaf(v, t, kind)
    stack: list = []   # per open value: it, its type and kind, its parent's results and rest
    done, rest = [], iter((v,))
    while True:
        for x in rest:
            t = type(x)
            kind, how = _TYPES.get(t) or _row(t)
            if kind >= first:
                stack.append((x, t, kind, done, rest))
                done, rest = [], iter([getattr(x, n) for n in how]) if kind == FIELDS else how(x)
                break
            done.append(leaf(x, t, kind))
        else:
            if not stack:
                return done[0]
            x, t, kind, up, rest = stack.pop()
            up.append(node(x, t, kind, done))
            done = up


def _key_leaf(v: Any, t: type, kind: int) -> Any:
    """canonical's key for a value without parts."""
    if kind == SCALAR:
        return (float, "nan") if v != v else (t, v)
    try:
        hash(v)
    except TypeError:
        return (t, "repr", repr(v))
    return v if kind == SAME else (t, v)


def _key_node(v: Any, t: type, kind: int, keys: list) -> Any:
    """canonical's key for a value with parts, given their keys."""
    if kind == SEQUENCE:
        return (t, tuple(keys))
    if kind == FIELDS:
        return (t, *keys)
    if kind == ITEMS:
        return (t, frozenset(zip(keys[::2], keys[1::2])))
    if kind == ORDERED:
        return (t, tuple(zip(keys[::2], keys[1::2])))
    return (frozenset, frozenset(keys))


def canonical(v: Any) -> Any:
    """Hashable key such that canonical(a) == canonical(b) iff a and b have
    the same type and are ==, recursively, a dataclass compared by its
    fields.

    True and 1 key apart, as do 1 and 1.0; every float NaN keys alike.
    Containers are frozen recursively (set and frozenset alike; a dict
    subclass that keeps dict's ==, such as defaultdict, by its type and
    items, an OrderedDict by its type and items in their order, and a
    Counter by its type and its items of nonzero count, as their == compare
    them), dataclasses keyed by type and the fields they compare (a field
    declared compare=False takes no part), whatever their own == says: one that
    defines __eq__ or has eq=False is still keyed by its fields, so values
    == by their own __eq__ may key apart, and values that are not == may
    key alike.  Other hashable values are keyed by type and value, or are
    their own key when their type compares by identity (a plain enum
    member, None), and unhashable ones by type and repr.  Keys are
    compared as sets and lists compare their members, identity first, so a
    value that is not == to itself (a Decimal NaN) still keys alike with
    itself.  The key is folded from the type table on an explicit stack, so
    nesting depth is unbounded; same_value compares two values as their
    keys would, without building them.
    """
    return _fold(v, _key_leaf, _key_node, FIELDS)


def _by_key(v: dict, how: Callable) -> dict | None:
    """The values of dict v's items (as its row reads them) by the keys of
    their keys, or None if two of its keys key alike (two NaN keys)."""
    parts = how(v)
    items = [(canonical(k), x) for k, x in zip(parts, parts)]
    by_key = dict(items)
    return by_key if len(by_key) == len(items) else None


def same_value(a: Any, b: Any) -> bool:
    """[canonical(a)] == [canonical(b)], decided by walking a and b in step
    on an explicit stack, without building their keys.

    The list compares the keys as sets and key lists do, identity first, so
    an object is the same value as itself even when it is not == to itself
    (a Decimal NaN).  Identical objects match first, before the stack is
    built and at each step, so is_equal(xs, xs) is decided at once, at any
    length.  Otherwise values of two types never match (their keys differ),
    but for a set and a frozenset; two scalars (bool, int, float, str,
    bytes) of one type match when they are == or both NaN, two lists or two
    tuples of equal length match elementwise, two instances of one
    dataclass match on the fields they compare, and two dicts of one type
    keyed by their items match when their keys key alike and the values
    under each match (unless two keys of one dict key alike, as two NaN
    keys do); any other pair (sets, enum members, an OrderedDict) is decided
    by its two keys.  No recursion: nesting depth is unbounded, and a deep
    value is never compared through its key, as == on a deep key recurses.
    """
    if a is b:
        return True
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        t = type(x)
        kind, how = _TYPES.get(t) or _row(t)
        if t is not type(y) and kind != SET:   # keys of two types differ, but for set and frozenset
            return False
        if kind == SCALAR:
            if not (x == y or t is float and x != x and y != y):
                return False
        elif kind == SEQUENCE:
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif kind == FIELDS:
            stack.extend([(getattr(x, n), getattr(y, n)) for n in how])
        elif kind == ITEMS and None not in (bx := _by_key(x, how), by := _by_key(y, how)):
            if bx.keys() != by.keys():
                return False
            stack.extend([(bx[k], by[k]) for k in bx])
        elif [canonical(x)] != [canonical(y)]:
            return False
    return True


def _text_leaf(v: Any, t: type, kind: int) -> str:
    """render's text for a value it does not look into."""
    if v is None:
        return "()"
    if isinstance(v, str):
        return '"%s"' % v
    return v.name if isinstance(v, enum.Enum) else str(v)


def _text_node(v: Any, t: type, kind: int, texts: list) -> str:
    """render's text for a list, tuple, set or dict, given its parts' texts."""
    if kind == SEQUENCE:
        return ("[%s]" if t is list else "(%s)") % ",".join(texts)
    if kind == SET:
        return "set{" + ",".join(sorted(texts)) + "}"
    items = [k + ":" + x for k, x in zip(texts[::2], texts[1::2])]
    return t.__name__ + "{" + ",".join(items if kind == ORDERED else sorted(items)) + "}"


def render(v: Any) -> str:
    """Render a value the way it appears in reports, at any depth: [1,2],
    "text", (a,b), set{a,b}, dict{k:v}.  A set's elements and a dict's
    entries are sorted by their rendered text, so a report does not depend
    on hash or insertion order, as canonical keys them; the prefix tells a
    set value from a property's value set, which reports write {a,b}.  A
    dict subclass that canonical keys by its items is written the same way
    under its type's name, an OrderedDict with its entries in their order,
    a Counter without its zero counts (Counter{k:n}).  An enum member is
    written by its name, None as (), and any other value, a dataclass or a
    subclass of list, tuple or set included, by its own str: render does not
    look into a value it writes so."""
    return _fold(v, _text_leaf, _text_node, SEQUENCE)


def render_args(args: Any, arity: int) -> str:
    """Space-separated rendering of a test input, one field per parameter."""
    if arity <= 1:
        return render(args)
    return " ".join(render(x) for x in args)


def shown(what: str, show: Callable[..., str], *args: Any) -> str:
    """show(*args), or a placeholder naming what could not be shown: a value
    whose own __str__ or __repr__ raises (a RecursionError or a sys.exit()
    included, as the runner takes it from any user code), named by the
    exception's type alone.  A report renders a verdict already decided, so
    the verdict stands either way."""
    try:
        return show(*args)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - user code that renders a value
        return f"<{what} not renderable: {type(exc).__name__}>"
