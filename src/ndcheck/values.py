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
from typing import Any

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


# per type: whether its == is object identity; probed once per type
_IDENTITY_EQ: dict[type, bool] = {}


def canonical(v: Any) -> Any:
    """Hashable key such that canonical(a) == canonical(b) iff a and b have
    the same type and are ==, recursively, a dataclass compared by its
    fields.

    True and 1 key apart, as do 1 and 1.0; every float NaN keys alike.
    Containers are frozen recursively (set and frozenset alike), dataclasses
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
    if t is dict:
        return (dict, frozenset([(canonical(k), canonical(x)) for k, x in v.items()]))
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
    (a Decimal NaN).  Each step matches identical objects first, so
    is_equal(xs, xs) is decided at once, at any length.  Otherwise two
    scalars (bool, int, float, str, bytes) match when their exact types are
    one and they are == or both NaN, two lists or two tuples of equal length
    match elementwise, and two instances of one dataclass match on the
    fields they compare; any other pair (dicts, sets, enum members, mixed
    kinds) is decided by its two keys.  No recursion: nesting depth is
    unbounded.
    """
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
    """Render a value the way it appears in reports: [1,2], "text", (a,b)."""
    if v is None:
        return "()"
    if isinstance(v, str):
        return '"%s"' % v
    if isinstance(v, list):
        return "[" + ",".join(render(x) for x in v) + "]"
    if isinstance(v, tuple):
        return "(" + ",".join(render(x) for x in v) + ")"
    if isinstance(v, enum.Enum):
        return v.name
    return str(v)


def render_args(args: Any, arity: int) -> str:
    """Space-separated rendering of a test input, one field per parameter."""
    if arity <= 1:
        return render(args)
    return " ".join(render(x) for x in args)
