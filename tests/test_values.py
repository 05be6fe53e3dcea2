"""The keying contract of values.canonical: same type and ==, recursively,
a dataclass by its type and compared fields; and same_value, which decides
key equality without keys."""

import dataclasses
import enum
import math
import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from typing import Any

import pytest

from ndcheck.corpus.trees import Leaf, Node, Succ, Zero
from ndcheck.gen import Ordering
from ndcheck.prop import FALSIFIED, SATISFIED, is_equal, same_set, value_count
from ndcheck.searchtree import one_of
from ndcheck.values import canonical, same_value


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


@dataclasses.dataclass(frozen=True)
class Noted:
    """A dataclass with a field that takes no part in ==."""

    n: int
    note: str = dataclasses.field(compare=False, default="")


@dataclasses.dataclass(eq=False)
class Unequated:
    """A dataclass without a generated ==, so compared by identity; still
    keyed by its fields."""

    n: int


@dataclasses.dataclass(frozen=True)
class AbsEq:
    """A dataclass with its own ==, which ignores the sign; still keyed by
    its fields."""

    n: int

    def __eq__(self, other):
        return isinstance(other, AbsEq) and abs(self.n) == abs(other.n)

    def __hash__(self):
        return hash(abs(self.n))


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
    (Noted(1, "a"), Noted(1, "b"), True),
    (Noted(1, "a"), Noted(2, "a"), False),
    (Unequated(1), Unequated(1), True),
    (Unequated(1), Unequated(2), False),
    (AbsEq(1), AbsEq(-1), False),
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
    except TypeError:
        return (t, "repr", repr(v))
    return v if t.__eq__ is object.__eq__ else (t, v)


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


class Shade(enum.IntEnum):
    """Members == to Color's, of another class."""

    RED = 1
    BLUE = 2


@dataclasses.dataclass(frozen=True)
class Box:
    """A dataclass with Leaf's field name, of another type."""

    payload: Any


class SelfUnequal:
    """Hashable, but not == to anything, itself included."""

    def __eq__(self, other):
        return False

    __hash__ = object.__hash__

    def __repr__(self):
        return "SelfUnequal()"


class TestTypedFallbackKeys:
    """A hashable value whose type defines its own == keys as (type, value),
    so == values of two types key apart; a value whose type compares by
    identity (a plain enum member) is still its own key."""

    def test_equal_members_of_two_int_enums_key_apart(self):
        assert canonical(Color.RED) != canonical(Shade.RED)
        assert canonical([Color.RED]) != canonical([Shade.RED])
        assert canonical(Color.RED) == canonical(Color.RED)
        assert same_value(Color.RED, Shade.RED) is False

    def test_operators_tell_equal_members_of_two_int_enums_apart(self):
        assert is_equal(Color.RED, Shade.RED).evaluate().status == FALSIFIED
        assert same_set(one_of([Color.RED, Color.BLUE]),
                        one_of([Shade.BLUE, Shade.RED])).evaluate().status == FALSIFIED
        assert same_set(one_of([Color.RED, Color.BLUE]),
                        one_of([Color.BLUE, Color.RED])).evaluate().status == SATISFIED

    def test_equal_values_of_two_types_key_apart(self):
        assert canonical(Decimal(1)) != canonical(Fraction(1))
        assert canonical(Decimal(1)) == canonical(Decimal("1.0"))

    def test_identity_compared_values_are_their_own_key(self):
        for v in (Ordering.LT, None, object()):
            assert canonical(v) is v
        assert [canonical(DNAN)] == [canonical(DNAN)]


class TestDataclassEquality:
    """A dataclass is compared by its type and compared fields, whatever its
    own == says: a field declared compare=False takes no part in the value,
    and an own __eq__ merges no values."""

    # (a, b with a == b, a third value, whether a and b are one value; the
    # third value is the other way round)
    @pytest.mark.parametrize(
        "a, b, other, one",
        [
            (Noted(1, "a"), Noted(1, "b"), Noted(2, "a"), True),
            (AbsEq(1), AbsEq(-1), AbsEq(1), False),
        ],
        ids=["Noted", "AbsEq"],
    )
    def test_operators_follow_compared_fields(self, a, b, other, one):
        status, other_status = (SATISFIED, FALSIFIED) if one else (FALSIFIED, SATISFIED)
        assert a == b
        assert is_equal(a, b).evaluate().status == status
        assert value_count(one_of([a, b]), 1).evaluate().status == status
        assert is_equal(a, other).evaluate().status == other_status


def keys_alike(a, b):
    """The reference for same_value: both keys compared as set members and
    key lists compare them, identity first."""
    return [canonical(a)] == [canonical(b)]


DNAN = Decimal("NaN")
FNAN = float("nan")
UNEQUAL = SelfUnequal()

# (a, b, whether a and b are the same value)
SAME_VALUE_CASES = [
    (Leaf(FNAN), Leaf(float("nan")), True),
    ([[FNAN]], [[float("nan")]], True),
    ([[1.0]], [[FNAN]], False),
    ([[1]], ([1],), False),
    ([[1]], [(1,)], False),
    (Leaf([1]), Box([1]), False),
    (Leaf(Leaf(1)), Leaf(Box(1)), False),
    ([{1, 2}], [frozenset({2, 1})], True),
    ({1: {2}}, {1: frozenset({2})}, True),
    ([{1, 2}], [[1, 2]], False),
    # IntEnum members are keyed by type and value, so == members of two
    # classes key apart
    (Color.RED, Shade.RED, False),
    ([Color.RED], [Shade.RED], False),
    (Color.RED, Shade.BLUE, False),
    (Leaf(Color.RED), Leaf(1), False),
    ([[True]], [[1]], False),
    ([[0]], [[False]], False),
    ([-0.0, [0.0]], [0.0, [-0.0]], True),
    ([[1]], [[1.0]], False),
    (["a", [1]], [b"a", [1]], False),
    ([None, [()]], [None, [()]], True),
    ([None], [()], False),
    (DNAN, DNAN, True),
    (DNAN, Decimal("NaN"), False),
    ([DNAN], [DNAN], True),
    (Leaf(DNAN), Leaf(DNAN), True),
    (Leaf(DNAN), Leaf(Decimal("NaN")), False),
    (UNEQUAL, UNEQUAL, True),
    ([UNEQUAL, 1], [UNEQUAL, 1], True),
    ([SelfUnequal()], [SelfUnequal()], False),
    ({1: UNEQUAL}, {1: UNEQUAL}, True),
    ([Unhashable([1])], [Unhashable([1])], True),
    ([Unhashable(1)], [Unhashable(2)], False),
    (Tagged([Leaf(1)]), Tagged([Leaf(1)]), True),
    (Tagged([Leaf(1)]), [Leaf(1)], False),
    ([Zero(), Succ(Zero())], [Zero(), Succ(Zero())], True),
    (Succ(Zero()), Succ(Succ(Zero())), False),
    ([Leaf(1), 2], [Leaf(1), 2, 3], False),
    (tree(Ordering.LT, Ordering.GT), tree(Ordering.LT, Ordering.GT), True),
    (tree(Ordering.LT, Ordering.GT), tree(Ordering.GT, Ordering.LT), False),
    (1, [1], False),
    (True, 1, False),
    ([1, 2], [1, 2], True),
]


FLAT_SCALARS = (bool, int, float, str, bytes)


def is_flat(v):
    if type(v) in (list, tuple):
        return all(type(x) in FLAT_SCALARS for x in v)
    return type(v) in FLAT_SCALARS


class TestSameValue:
    """same_value(a, b) is [canonical(a)] == [canonical(b)], exactly."""

    @pytest.mark.parametrize(
        "a,b,same", CONTRACT + SAME_VALUE_CASES,
        ids=[f"{a!r}-{b!r}" for a, b, _ in CONTRACT + SAME_VALUE_CASES],
    )
    def test_edge_cases(self, a, b, same):
        assert keys_alike(a, b) is same
        assert same_value(a, b) is same
        assert same_value(b, a) is same

    def test_random_nested_pairs_agree_with_keys(self):
        rng = random.Random(29)
        pool = [FNAN, DNAN, UNEQUAL, Unhashable([1]), Leaf(1)]  # objects drawn more than once

        def scalar():
            return rng.choice([
                rng.randrange(-2, 3), rng.random() < 0.5, rng.choice([0.0, -0.0, 1.0]),
                float("nan"), rng.choice(["", "a"]), rng.choice([b"", b"a"]), None,
                rng.choice(list(Color)), rng.choice(list(Shade)), rng.choice(list(Ordering)),
                Decimal("NaN"), SelfUnequal(), Unhashable(rng.randrange(2)), Zero(),
                rng.choice(pool),
            ])

        def nested(depth=0):
            r = rng.random()
            if depth >= 4 or r < 0.3:
                return scalar()
            items = [nested(depth + 1) for _ in range(rng.randrange(4))]
            first = items[0] if items else scalar()
            if r < 0.45:
                return items
            if r < 0.55:
                return tuple(items)
            if r < 0.62:
                return Leaf(first)
            if r < 0.67:
                return Box(first)
            if r < 0.72:
                return Node(tuple(items))
            if r < 0.77:
                return Succ(first)
            if r < 0.85:
                return {i: x for i, x in enumerate(items)}
            members = set()
            for x in items:
                try:
                    members.add(x)
                except TypeError:   # unhashable
                    pass
            return members if r < 0.92 else frozenset(members)

        def swapped(v):
            """A scalar == to v, or one that differs only in type."""
            t = type(v)
            if t is bool:
                return int(v)
            if t is int:
                return bool(v) if v in (0, 1) else float(v)
            if t is float:
                return -v
            if t is str:
                return v.encode()
            if t is bytes:
                return v.decode()
            return v

        def relative(v, share):
            """A value built like v.  With share, most parts of v are reused
            as they are; without, they are copied, some with a part swapped
            for one that may or may not be the same value."""
            r = rng.random()
            if share and r < 0.5:
                return v
            t = type(v)
            if t in (list, tuple):
                items = [relative(x, share) for x in v]
                if r < 0.1:
                    return tuple(items) if t is list else items
                if r < 0.15 and items:
                    items.pop()
                return t(items)
            if t in (Leaf, Box):
                return (Box if r < 0.1 else t)(relative(v.payload, share))
            if t is Succ:
                return Succ(relative(v.pred, share))
            if t is Node:
                return Node(relative(v.children, share))
            if t is dict:
                return {k: relative(x, share) for k, x in v.items()}
            if t in (set, frozenset):
                return (set if r < 0.5 else frozenset)(v)
            if t in (Color, Shade):
                return Shade(v) if r < 0.5 else Color(v)
            if t is float and v != v:
                return float("nan")
            if r < 0.7:
                return swapped(v)
            return scalar()

        pairs = []
        for i in range(3000):
            a = nested()
            if i % 3 == 0:   # shared subobjects, or the very same object
                b = a if rng.random() < 0.2 else relative(a, share=True)
            else:
                b = relative(a, share=False) if rng.random() < 0.7 else nested()
            pairs.append((a, b))
        got = [(same_value(a, b), same_value(b, a)) for a, b in pairs]
        expect = [(keys_alike(a, b), keys_alike(b, a)) for a, b in pairs]
        assert got == expect
        same = [x for x, _ in expect]
        assert same.count(True) > 600 and same.count(False) > 600
        walked = [x for (x, _), (a, b) in zip(expect, pairs) if a is not b]
        assert walked.count(True) > 300 and walked.count(False) > 300

    def test_random_flat_pairs_agree_with_keys(self):
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
        got = [same_value(a, b) for a, b in pairs]
        assert got == [keys_alike(a, b) for a, b in pairs]
        assert got == [same_value(b, a) for a, b in pairs]
        assert got.count(True) > 300 and got.count(False) > 300

    @pytest.mark.parametrize("build", [succ_chain, nested_list])
    def test_deep_values_without_recursion(self, build):
        assert same_value(build(3000), build(3000)) is True
        assert same_value(build(3000), build(2999)) is False
        assert same_value([build(3000), 1], [build(3000), 2]) is False

    def test_identical_objects_build_no_keys(self, monkeypatch):
        keyed = []
        monkeypatch.setattr("ndcheck.values.canonical", lambda v: keyed.append(v) or canonical(v))
        x = Unhashable([1])
        for a, b in ((DNAN, DNAN), (UNEQUAL, UNEQUAL), ([x, Color.RED], [x, Color.RED]),
                     (Leaf(Ordering.LT), Leaf(Ordering.LT)), (tree(Ordering.GT), tree(Ordering.GT))):
            assert same_value(a, b) is True
        assert keyed == []
        assert same_value(Color.RED, Color.BLUE) is False
        assert keyed == [Color.RED, Color.BLUE]


def flat_pair(a, b):
    """Two scalars, or two lists (or two tuples) of scalars."""
    if type(a) in FLAT_SCALARS and type(b) in FLAT_SCALARS:
        return True
    return type(a) is type(b) and type(a) in (list, tuple) and is_flat(a) and is_flat(b)


def keys_built(monkeypatch, a, b):
    """same_value(a, b), and the values it keyed on the way."""
    keyed = []
    monkeypatch.setattr("ndcheck.values.canonical", lambda v: keyed.append(v) or canonical(v))
    return same_value(a, b), keyed


class TestFlatPairs:
    """same_value decides a flat pair (two scalars, or two lists or tuples
    of scalars) exactly as the keys do, and without building a key."""

    def check(self, monkeypatch, a, b, same):
        for x, y in ((a, b), (b, a)):
            got, keyed = keys_built(monkeypatch, x, y)
            assert got is same
            if flat_pair(x, y):
                assert keyed == []

    @pytest.mark.parametrize("a,b,same", CONTRACT, ids=[f"{a!r}-{b!r}" for a, b, _ in CONTRACT])
    def test_contract_table(self, monkeypatch, a, b, same):
        self.check(monkeypatch, a, b, same)

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
        # not flat: decided through keys or the walk
        ([], (), False),
        (1, [1], False),
        (Color.RED, 1, False),
        ([Color.RED], [1], False),
        (Leaf(1), Leaf(1), True),
        ([Leaf(1)], [Leaf(1)], True),
        ([[1]], [[1]], True),
    ])
    def test_edge_cases(self, monkeypatch, a, b, same):
        assert a is not b
        assert keys_alike(a, b) is same
        self.check(monkeypatch, a, b, same)
