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
from collections import Counter
from typing import Any, Callable

_SCALARS = frozenset((bool, int, float, str, bytes))

# per type: its compared dataclass field names, or None; probed once per type
_FIELDS: dict[type, tuple[str, ...] | None] = {}


def _field_names(t: type) -> tuple[str, ...] | None:
    """The names of the dataclass fields of type t that take part in ==
    (compare=True), or None if it is no dataclass."""
    try:
        return _FIELDS[t]
    except KeyError:
        dc = dataclasses.is_dataclass(t)
        names = _FIELDS[t] = tuple(f.name for f in dataclasses.fields(t) if f.compare) if dc else None
        return names


def _dict_items(v: dict) -> Any:
    """The items that make dict v's value: all of them for a dict or a
    subclass that keeps dict's == (defaultdict), those of nonzero count for
    a Counter, whose == counts a missing element as zero; None for a
    subclass with another ==."""
    eq = type(v).__eq__
    if eq is dict.__eq__:
        return v.items()
    if eq is Counter.__eq__:
        return [(k, x) for k, x in v.items() if x != 0]
    return None


# per type: whether its == is object identity; probed once per type
_IDENTITY_EQ: dict[type, bool] = {}


def canonical(v: Any) -> Any:
    """Hashable key such that canonical(a) == canonical(b) iff a and b have
    the same type and are ==, recursively, a dataclass compared by its
    fields.

    True and 1 key apart, as do 1 and 1.0; every float NaN keys alike.
    Containers are frozen recursively (set and frozenset alike; a dict
    subclass that keeps dict's ==, such as defaultdict, by its type and
    items, and a Counter by its type and its items of nonzero count, as
    Counter's == compares), dataclasses
    keyed by type and the fields they compare (a field declared
    compare=False takes no part), whatever their own == says: one that
    defines __eq__ or has eq=False is still keyed by its fields, so values
    == by their own __eq__ may key apart, and values that are not == may
    key alike.  Other hashable values are keyed by type and value, or are
    their own key when their type compares by identity (a plain enum
    member), and unhashable ones by type and repr.  Keys are
    compared as sets and lists compare their members, identity first, so a
    value that is not == to itself (a Decimal NaN) still keys alike with
    itself.  Two Python frames per nesting level keep ~490 levels within
    the default recursion limit; same_value compares two values as their
    keys would, at any depth, without building them.
    """
    t = type(v)
    if t in _SCALARS:
        if t is float and v != v:
            return (float, "nan")
        return (t, v)
    if t is list or t is tuple:
        return (t, tuple([canonical(x) for x in v]))
    names = _field_names(t)
    if names is not None:
        return (t, *[canonical(getattr(v, n)) for n in names])
    if isinstance(v, dict):
        items = _dict_items(v)
        if items is not None:
            return (t, frozenset([(canonical(k), canonical(x)) for k, x in items]))
    if t is set or t is frozenset:
        return (frozenset, frozenset([canonical(x) for x in v]))
    try:
        hash(v)
    except TypeError:
        return (t, "repr", repr(v))
    try:
        own = _IDENTITY_EQ[t]
    except KeyError:
        own = _IDENTITY_EQ[t] = t.__eq__ is object.__eq__
    return v if own else (t, v)


def same_value(a: Any, b: Any) -> bool:
    """[canonical(a)] == [canonical(b)], decided by walking a and b in step
    on an explicit stack, without building their keys.

    The list compares the keys as sets and key lists do, identity first, so
    an object is the same value as itself even when it is not == to itself
    (a Decimal NaN).  Identical objects match first, before the stack is
    built and at each step, so is_equal(xs, xs) is decided at once, at any
    length.  Otherwise two scalars (bool, int, float, str, bytes) match when
    their exact types are one and they are == or both NaN, two lists or two
    tuples of equal length match elementwise, and two instances of one
    dataclass match on the fields they compare; any other pair (dicts, sets,
    enum members, mixed kinds) is decided by its two keys.  No recursion: nesting depth is
    unbounded.
    """
    if a is b:
        return True
    stack = [(a, b)]
    pop, push = stack.pop, stack.extend
    while stack:
        x, y = pop()
        if x is y:
            continue
        t = type(x)
        if t is type(y):
            if t in _SCALARS:
                if x == y or (t is float and x != x and y != y):
                    continue
                return False
            if t is list or t is tuple:
                if len(x) != len(y):
                    return False
                push(zip(x, y))
                continue
            names = _field_names(t)
            if names is not None:
                push([(getattr(x, n), getattr(y, n)) for n in names])
                continue
        elif t in _SCALARS and type(y) in _SCALARS:
            return False
        kx, ky = canonical(x), canonical(y)
        if not (kx is ky or kx == ky):
            return False
    return True


def render(v: Any) -> str:
    """Render a value the way it appears in reports: [1,2], "text", (a,b),
    set{a,b}, dict{k:v}.  A set's elements and a dict's entries are sorted
    by their rendered text, so a report does not depend on hash or insertion
    order, as canonical keys them; the prefix tells a set value from a
    property's value set, which reports write {a,b}.  A dict subclass that
    canonical keys by its items is written the same way under its type's
    name, a Counter without its zero counts (Counter{k:n}); any other is
    written by str."""
    if v is None:
        return "()"
    if isinstance(v, str):
        return '"%s"' % v
    if isinstance(v, list):
        return "[" + ",".join(render(x) for x in v) + "]"
    if isinstance(v, tuple):
        return "(" + ",".join(render(x) for x in v) + ")"
    if isinstance(v, (set, frozenset)):
        return "set{" + ",".join(sorted(render(x) for x in v)) + "}"
    if isinstance(v, dict):
        items = _dict_items(v)
        if items is not None:
            return type(v).__name__ + "{" + ",".join(sorted(render(k) + ":" + render(x) for k, x in items)) + "}"
    if isinstance(v, enum.Enum):
        return v.name
    return str(v)


def render_args(args: Any, arity: int) -> str:
    """Space-separated rendering of a test input, one field per parameter."""
    if arity <= 1:
        return render(args)
    return " ".join(render(x) for x in args)


def shown(what: str, show: Callable[..., str], *args: Any) -> str:
    """show(*args), or a placeholder naming what could not be shown: a value
    too deep to render, or one whose own __str__ or __repr__ raises (a
    sys.exit() included, as the runner takes it from any user code), named
    then by the exception's type alone.  A report renders a verdict already
    decided, so the verdict stands either way."""
    try:
        return show(*args)
    except RecursionError:
        return f"<{what} too deep to render>"
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - user code that renders a value
        return f"<{what} not renderable: {type(exc).__name__}>"
