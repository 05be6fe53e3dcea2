"""Ground-value helpers: structural equality keys, key-free comparison and
report rendering.

Test data and results are ordinary Python values (ints, bools, strings,
lists, frozen dataclasses, ...).  De-duplication needs a hashable key whose
equality mirrors ``==`` on fully evaluated values, and failure reports need
a stable textual form.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any

_SCALARS = frozenset((bool, int, float, str, bytes))

# per type: its dataclass field names, or None; probed once per type
_FIELDS: dict[type, tuple[str, ...] | None] = {}


def _field_names(t: type) -> tuple[str, ...] | None:
    """The dataclass field names of type t, or None if it is no dataclass."""
    try:
        return _FIELDS[t]
    except KeyError:
        dc = dataclasses.is_dataclass(t)
        names = _FIELDS[t] = tuple(f.name for f in dataclasses.fields(t)) if dc else None
        return names


def canonical(v: Any) -> Any:
    """Hashable key such that canonical(a) == canonical(b) iff a and b have
    the same type and are ==, recursively.

    True and 1 key apart, as do 1 and 1.0; every float NaN keys alike.
    Containers are frozen recursively (set and frozenset alike), dataclasses
    keyed by type and fields; other hashable values (enum members) are their
    own key, unhashable ones are keyed by type and repr.  Keys are compared
    as sets and lists compare their members, identity first, so a value
    that is not == to itself (a Decimal NaN) still keys alike with itself.
    Scalar elements of a list or tuple are keyed inline, without a call of
    their own.  Two Python frames per nesting level keep ~490 levels within
    the default recursion limit; same_value compares two values as their
    keys would, at any depth, without building them.
    """
    t = type(v)
    if t in _SCALARS:
        if t is float and v != v:
            return (float, "nan")
        return (t, v)
    if t is list or t is tuple:
        return (t, tuple([(tx, x) if (tx := type(x)) in _SCALARS and x == x else canonical(x)
                          for x in v]))
    names = _field_names(t)
    if names is not None:
        return (t, *[canonical(getattr(v, n)) for n in names])
    if t is dict:
        return (dict, frozenset([(canonical(k), canonical(x)) for k, x in v.items()]))
    if t is set or t is frozenset:
        return (frozenset, frozenset([canonical(x) for x in v]))
    try:
        hash(v)
        return v
    except TypeError:
        return (t, "repr", repr(v))


def flat_equal(a: Any, b: Any) -> bool | None:
    """canonical(a) == canonical(b), decided without building the keys when
    both values are flat; None for any other pair.  same_value's first step.

    Flat means two values of exact types bool, int, float, str or bytes, or
    two lists (or two tuples) of such elements.  Lists match iff their
    elements have the same exact type at each position and are == there;
    as in the keys, floats match when == or both NaN.  No recursion: a
    nested, dataclass, enum, dict or set value always gives None.
    """
    t = type(a)
    if t in _SCALARS:
        u = type(b)
        if u not in _SCALARS:
            return None
        if t is not u:
            return False
        return a == b or (t is float and a != a and b != b)
    if (t is list or t is tuple) and type(b) is t:
        ta = list(map(type, a))
        if not _SCALARS.issuperset(ta):
            return None
        tb = list(map(type, b))
        if not _SCALARS.issuperset(tb):
            return None
        if ta != tb:
            return False
        if a == b:   # element identity or ==: keys alike, NaNs included
            return True
        # unequal: the keys differ, unless a position holds two distinct NaN objects
        return float in ta and all(x == y or (x != x and y != y) for x, y in zip(a, b))
    return None


def same_value(a: Any, b: Any) -> bool:
    """[canonical(a)] == [canonical(b)], decided by walking a and b in step
    on an explicit stack, without building their keys.

    The list compares the keys as sets and key lists do, identity first, so
    an object is the same value as itself even when it is not == to itself
    (a Decimal NaN).  A flat pair goes to flat_equal.  Otherwise identical
    objects match, two scalars follow the flat rule, two lists or two tuples
    of equal length match elementwise, and two instances of one dataclass
    match fieldwise; any other pair (dicts, sets, enum members, mixed kinds)
    is decided by its two keys.  No recursion: nesting depth is unbounded.
    """
    same = flat_equal(a, b)
    if same is not None:
        return same
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
