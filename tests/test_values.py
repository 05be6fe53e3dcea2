"""The keying contract of values.canonical: same type and ==, recursively."""

import dataclasses
import enum
import math
import random
import sys
import threading

import pytest

from ndcheck.corpus.trees import Leaf, Node, Succ, Zero
from ndcheck.gen import Ordering
from ndcheck.prop import SATISFIED, same_set, value_count
from ndcheck.searchtree import one_of
from ndcheck.values import canonical, flat_equal


class Color(enum.IntEnum):
    RED = 1
    BLUE = 2


class Tagged(list):
    """A list subclass: not keyed as a plain list."""


class Unhashable:
    __hash__ = None

    def __init__(self, x):
        self.x = x

    def __eq__(self, other):
        return isinstance(other, Unhashable) and self.x == other.x

    def __repr__(self):
        return f"Unhashable({self.x!r})"


def tree(*ords):
    return Node(tuple(Leaf(o) for o in ords))


# (a, b, whether a and b must key alike)
CONTRACT = [
    (True, 1, False),
    (False, 0, False),
    (1, 1.0, False),
    (0.0, -0.0, True),
    (1, 1, True),
    ("1", 1, False),
    (b"a", "a", False),
    (None, None, True),
    (None, (), False),
    (Color.RED, 1, False),
    (Color.RED, Color.RED, True),
    (Color.RED, Color.BLUE, False),
    (Ordering.LT, Ordering.LT, True),
    (Ordering.LT, Ordering.GT, False),
    (Ordering.EQ, 1, False),
    (Zero(), Zero(), True),
    (Zero(), Succ(Zero()), False),
    (Succ(Succ(Zero())), Succ(Succ(Zero())), True),
    ([tree(Ordering.LT), Leaf(Ordering.EQ)], [tree(Ordering.LT), Leaf(Ordering.EQ)], True),
    ([tree(Ordering.LT), Leaf(Ordering.EQ)], [tree(Ordering.GT), Leaf(Ordering.EQ)], False),
    ([Leaf([1, 2])], [Leaf([1, 2])], True),
    ([1, 2], (1, 2), False),
    ([1, 2], [2, 1], False),
    ([[1], []], [[1], []], True),
    ({1: "a", 2: "b"}, {2: "b", 1: "a"}, True),
    ({1: "a"}, {1: "b"}, False),
    ({1: [1]}, {1: [1]}, True),
    ({1, 2, 3}, {3, 1, 2}, True),
    ({1, 2}, frozenset({2, 1}), True),
    ({1, 2}, [1, 2], False),
    (Tagged([1, 2]), Tagged([1, 2]), True),
    (Tagged([1, 2]), Tagged([2, 1]), False),
    (Tagged([1, 2]), [1, 2], False),
    (Unhashable(1), Unhashable(1), True),
    (Unhashable(1), Unhashable(2), False),
    (bytearray(b"ab"), bytearray(b"ab"), True),
    (bytearray(b"ab"), b"ab", False),
]


@pytest.mark.parametrize("a,b,same", CONTRACT, ids=[f"{a!r}-{b!r}" for a, b, _ in CONTRACT])
def test_contract_table(a, b, same):
    ka, kb = canonical(a), canonical(b)
    hash(ka), hash(kb)
    assert (ka == kb) is same


def test_keys_are_stable_across_calls():
    v = [tree(Ordering.GT, Ordering.LT), {1: {2}}, Unhashable([1])]
    assert canonical(v) == canonical(v)


class TestNaN:
    def test_distinct_nan_objects_key_alike(self):
        a, b = float("nan"), math.nan
        assert a is not b
        assert canonical(a) == canonical(b)
        assert canonical([a, 1]) == canonical([b, 1])
        assert canonical(a) != canonical(math.inf)

    def test_value_set_holds_one_nan(self):
        nans = one_of([float("nan"), float("nan"), float("nan")])
        assert value_count(nans, 1).evaluate().status == SATISFIED
        assert same_set(nans, float("nan")).evaluate().status == SATISFIED


def succ_chain(depth):
    n = Zero()
    for _ in range(depth):
        n = Succ(n)
    return n


def nested_list(depth):
    xs: list = []
    for _ in range(depth):
        xs = [xs]
    return xs


@pytest.mark.parametrize("build", [succ_chain, nested_list])
def test_490_levels_key_under_the_default_recursion_limit(build):
    """Keying must stay at two Python frames per nesting level.

    Runs on a fresh thread, whose stack starts empty, so the depth of the
    test runner's own stack does not count.
    """
    assert sys.getrecursionlimit() == 1000
    value = build(490)
    result: list = []

    def key():
        try:
            result.append(canonical(value) == canonical(build(490)))
        except RecursionError as exc:
            result.append(exc)

    worker = threading.Thread(target=key)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert result == [True]


_PARENT_FIELDS: dict = {}


def recursive_canonical(v):
    """canonical as first written: one recursive call per list or tuple
    element.  The reference for keying scalar elements inline."""
    t = type(v)
    if t in (bool, int, float, str, bytes):
        if t is float and v != v:
            return (float, "nan")
        return (t, v)
    if t is list or t is tuple:
        return (t, tuple([recursive_canonical(x) for x in v]))
    try:
        names = _PARENT_FIELDS[t]
    except KeyError:
        dc = dataclasses.is_dataclass(t)
        names = _PARENT_FIELDS[t] = tuple(f.name for f in dataclasses.fields(t)) if dc else None
    if names is not None:
        return (t, *[recursive_canonical(getattr(v, n)) for n in names])
    if t is dict:
        return (dict, frozenset([(recursive_canonical(k), recursive_canonical(x)) for k, x in v.items()]))
    if t is set or t is frozenset:
        return (frozenset, frozenset([recursive_canonical(x) for x in v]))
    try:
        hash(v)
        return v
    except TypeError:
        return (t, "repr", repr(v))


class TestInlineScalarElements:
    @pytest.mark.parametrize("a,b", [
        ([True, 1], [1, 1]),
        ((True, 1), (1, 1)),
        ([False], [0]),
        ([1.0], [1]),
        ((1.0,), (1,)),
        (["a"], [b"a"]),
        (("a",), (b"a",)),
        ([1], [[1]]),
        ([(1,)], [[1]]),
        ([1, [2]], [1, (2,)]),
        ([Color.RED], [1]),
    ])
    def test_key_apart(self, a, b):
        assert canonical(a) != canonical(b)

    @pytest.mark.parametrize("wrap", [list, tuple])
    def test_distinct_nan_objects_key_alike_as_elements(self, wrap):
        a, b = float("nan"), float("nan")
        assert a is not b
        assert canonical(wrap([a, 1, a])) == canonical(wrap([b, 1, b]))
        assert canonical(wrap([a])) == (wrap, ((float, "nan"),))
        assert canonical(wrap([a])) != canonical(wrap([math.inf]))

    @pytest.mark.parametrize("v", [
        [1, "x", b"y", 2.5, True, None],
        (1, [2, (3, "x")], Leaf(1), Ordering.GT),
        [[], (), [[0.0, -0.0]], {1: [True]}, {(1, 2)}],
        [Succ(Zero()), tree(Ordering.LT, Ordering.EQ), Unhashable([1])],
        [Tagged([1, 2]), Color.BLUE, bytearray(b"z")],
    ])
    def test_mixed_nesting_keys_as_before(self, v):
        assert canonical(v) == recursive_canonical(v)

    def test_random_nested_values_key_as_before(self):
        rng = random.Random(5)

        def scalar():
            return rng.choice([
                rng.randrange(-3, 4), rng.random() < 0.5, rng.choice([0.0, -0.0, 1.0, 2.5]),
                float("nan"), rng.choice(["", "a", "1"]), rng.choice([b"", b"a"]), None,
                rng.choice(list(Ordering)), rng.choice(list(Color)),
            ])

        def nested(depth):
            r = rng.random()
            if depth >= 4 or r < 0.35:
                return scalar()
            items = [nested(depth + 1) for _ in range(rng.randrange(4))]
            if r < 0.6:
                return items
            if r < 0.8:
                return tuple(items)
            if r < 0.87:
                return Leaf(items[0] if items else scalar())
            if r < 0.94:
                return Tagged(items)
            return {i: x for i, x in enumerate(items)}

        values = [nested(0) for _ in range(400)]
        keys = [canonical(v) for v in values]
        assert keys == [recursive_canonical(v) for v in values]
        assert len(set(keys)) > 200


FLAT_SCALARS = (bool, int, float, str, bytes)


def is_flat(v):
    if type(v) in (list, tuple):
        return all(type(x) in FLAT_SCALARS for x in v)
    return type(v) in FLAT_SCALARS


def flat_pair_agrees(a, b):
    """flat_equal answers exactly, as the keys do, for two scalars and for
    two lists (or two tuples) of scalars, and leaves every other pair to
    the keys."""
    got = flat_equal(a, b)
    if type(a) in FLAT_SCALARS and type(b) in FLAT_SCALARS:
        flat_pair = True
    else:
        flat_pair = type(a) is type(b) and type(a) in (list, tuple) and is_flat(a) and is_flat(b)
    if not flat_pair:
        return got is None
    return got is (canonical(a) == canonical(b))


class TestFlatEqual:
    @pytest.mark.parametrize("a,b,same", CONTRACT, ids=[f"{a!r}-{b!r}" for a, b, _ in CONTRACT])
    def test_contract_table(self, a, b, same):
        assert flat_pair_agrees(a, b)
        assert flat_pair_agrees(b, a)
        assert flat_equal(a, b) in (None, same)

    @pytest.mark.parametrize("a,b,same", [
        (True, 1, False),
        ([True, 2], [1, 2], False),
        ((True, 2), (1, 2), False),
        (1, 1.0, False),
        (0.0, -0.0, True),
        ([0.0], [-0.0], True),
        (float("nan"), float("nan"), True),
        ([float("nan"), 1], [float("nan"), 1], True),
        ((1, float("nan")), (1, float("nan")), True),
        ([float("nan")], [math.inf], False),
        ("ab", b"ab", False),
        (["ab"], [b"ab"], False),
        ([1, 2], [1, 2, 3], False),
        ([], [], True),
        ([], (), None),
        (1, [1], None),
        (Color.RED, 1, None),
        ([Color.RED], [1], None),
        (Leaf(1), Leaf(1), None),
        ([Leaf(1)], [Leaf(1)], None),
        ([[1]], [[1]], None),
    ])
    def test_edge_cases(self, a, b, same):
        assert a is not b
        assert flat_equal(a, b) is same
        assert flat_equal(b, a) is same
        if same is not None:
            assert same is (canonical(a) == canonical(b))

    def test_random_values_agree_with_keys(self):
        rng = random.Random(17)

        def scalar():
            return rng.choice([
                rng.randrange(-2, 3), rng.random() < 0.5, rng.choice([0.0, -0.0, 1.0]),
                float("nan"), rng.choice(["", "a"]), rng.choice([b"", b"a"]),
            ])

        def flat():
            if rng.random() < 0.3:
                return scalar()
            items = [scalar() for _ in range(rng.randrange(4))]
            return items if rng.random() < 0.6 else tuple(items)

        def nested():
            r = rng.random()
            if r < 0.3:
                return [flat(), scalar()]
            if r < 0.5:
                return Leaf(flat())
            if r < 0.7:
                return rng.choice([Color.RED, Ordering.GT, None, {1, 2}])
            return (scalar(), [scalar()])

        def relative(v):
            """A value like v: a copy with at most one element swapped for
            one that may or may not key alike."""
            swaps = {True: 1, 1: True, 0.0: -0.0, "a": b"a", b"a": "a"}
            if type(v) in (list, tuple):
                items = list(v)
                if items and rng.random() < 0.5:
                    i = rng.randrange(len(items))
                    x = items[i]
                    items[i] = float("nan") if x != x else swaps.get(x, x) if rng.random() < 0.5 else scalar()
                return type(v)(items)
            return float("nan") if v != v else swaps.get(v, v) if rng.random() < 0.5 else scalar()

        pairs = []
        for _ in range(3000):
            a = flat() if rng.random() < 0.8 else nested()
            r = rng.random()
            b = relative(a) if r < 0.5 and is_flat(a) else flat() if r < 0.8 else nested()
            pairs.append((a, b))
        answered = [flat_equal(a, b) for a, b in pairs]
        assert all(flat_pair_agrees(a, b) for a, b in pairs)
        assert answered.count(True) > 300 and answered.count(False) > 300
        assert answered.count(None) > 300
