"""Generator combinators and built-in generators."""

import dataclasses
import enum
import gc
import itertools
import weakref
from dataclasses import InitVar, dataclass, field
from functools import partial

import pytest

from ndcheck.gen import (
    BaseType,
    Generator,
    Ordering,
    alt,
    builtin,
    gen_cons,
    gen_cons0,
    list_of,
    positive_ints,
    recursive,
    tuple_of,
)
from ndcheck.cli import build_parser, config_from_options
from ndcheck.corpus.sumup import gen_pos
from ndcheck.corpus.trees import Leaf, Node, Succ, Zero, gen_nat, gen_tree
from ndcheck.searchtree import (
    OrNode, SearchTree, Strategy, bind, choice, defer, enumerate_tree, fail, one_of, take_values, value,
)
from ndcheck.values import canonical, same_value

DIAG = Strategy("level_diag")


def nested_bind_list_of(g: Generator) -> Generator:
    """list_of as first written: one bind per element, copying the tail at
    every level.  The reference for the one-pass definition."""

    def rec():
        return choice(
            value([]),
            bind(g.tree, lambda h: bind(defer(rec), lambda t: value([h] + t))),
        )

    return Generator(defer(rec))


def nested_bind_positive_ints() -> Generator:
    """positive_ints as first written: 1, then 2n and 2n+1 mapped over whole
    subtrees.  The reference for the top-down definition."""

    def rec():
        return choice(
            value(1),
            choice(
                bind(defer(rec), lambda n: value(2 * n)),
                bind(defer(rec), lambda n: value(2 * n + 1)),
            ),
        )

    return Generator(defer(rec))


def nested_pair(g1: Generator, g2: Generator) -> Generator:
    """A pair as first written: a bind for each part."""
    return Generator(bind(g1.tree, lambda a: bind(g2.tree, lambda b: value((a, b)))))


def nested_pair_tuple_of(*gens: Generator) -> Generator:
    """tuple_of as first written: nest pairs, then re-bind each pair to
    flatten it.  The reference for the nested-bind definition."""
    if len(gens) == 1:
        g = gens[0]
        return Generator(bind(g.tree, lambda a: value((a,))))
    acc = nested_pair(gens[0], gens[1])
    for g in gens[2:]:
        nested = nested_pair(acc, g)
        acc = Generator(bind(nested.tree, lambda p: value(p[0] + (p[1],))))
    return acc


def hand_written_gen_tree(ga: Generator) -> Generator:
    """gen_tree as first written: a closure that names itself, and a map of
    each list of subtrees to a tuple.  The reference for the recursive one."""

    def rec():
        self_gen = Generator(defer(rec))
        return choice(
            bind(ga.tree, lambda x: value(Leaf(x))),
            bind(list_of(self_gen).tree, lambda ts: value(Node(tuple(ts)))),
        )

    return Generator(defer(rec))


def hand_written_gen_nat() -> Generator:
    """gen_nat as first written.  The reference for the recursive one."""

    def rec():
        return choice(value(Zero()), bind(defer(rec), lambda n: value(Succ(n))))

    return Generator(defer(rec))


def logged_elements(log: list) -> Generator:
    """0, 1, 2, ... down a right spine whose thunks log when they are forced."""

    def spine(n):
        return OrNode(lambda: log.append(("value", n)) or value(n),
                      lambda: log.append(("spine", n)) or spine(n + 1))

    return Generator(spine(0))


STRATEGY_MAKERS = [partial(Strategy, "bfs", 0), partial(Strategy, "level_diag", 0)] + [
    lambda budget, seed=seed: Strategy("rand_level_diag", seed, budget) for seed in (0, 1, 7, 42)
]


def assert_same_walks(build_new, build_old):
    """Generators freshly built by the two builders give the same values,
    node counts and end flags for every strategy, seed and budget.  Values
    are compared as same_value does, at any depth (a deep Nat chain would
    exceed the recursion limit under ==)."""
    for make in STRATEGY_MAKERS:
        for budget in (1, 7, 50, 2000):
            strategy = make(budget)
            new_gen, old_gen = build_new(), build_old()
            new = enumerate_tree(new_gen.tree, strategy)
            old = enumerate_tree(old_gen.tree, strategy)
            new_values, old_values = list(new), list(old)
            assert len(new_values) == len(old_values), strategy
            assert all(map(same_value, new_values, old_values)), strategy
            assert (new.expansions, new.exhausted, new.budget_exceeded) == (
                old.expansions, old.exhausted, old.budget_exceeded,
            ), strategy


def distinct(values):
    seen = set()
    out = []
    for v in values:
        k = canonical(v)
        if k not in seen:
            seen.add(k)
            out.append(v)
    return out


def full_values(g: Generator):
    e = enumerate_tree(g.tree, DIAG)
    vs = list(e)
    return vs, e.exhausted


class TestConstructors:
    def test_gen_cons0_single_value(self):
        vs, exhausted = full_values(gen_cons0(("Z",)))
        assert vs == [("Z",)] and exhausted

    def test_gen_cons0_number(self):
        vs, exhausted = full_values(gen_cons0(1))
        assert vs == [1] and exhausted

    def test_gen_cons1_over_single_leaf(self):
        succ = lambda n: ("S", n)
        vs, exhausted = full_values(gen_cons(succ, gen_cons0(("Z",))))
        assert vs == [("S", ("Z",))] and exhausted

    def test_gen_cons2_cross_product(self):
        g = gen_cons(lambda a, b: (a, b), builtin(BaseType.BOOL), builtin(BaseType.BOOL))
        vs, exhausted = full_values(g)
        assert exhausted
        assert sorted(vs) == sorted(itertools.product([False, True], repeat=2))

    def test_peano_prefix(self):
        zero = ("Z",)
        succ = lambda n: ("S", n)

        def nat() -> Generator:
            return alt(gen_cons0(zero), gen_cons(succ, Generator(defer(lambda: nat().tree))))

        prefix = take_values(nat().tree, DIAG, 3)
        assert prefix == [zero, succ(zero), succ(succ(zero))]

    def test_product_size_for_injective_constructors(self):
        cases = [
            (builtin(BaseType.BOOL), builtin(BaseType.ORDERING)),
            (builtin(BaseType.ORDERING), builtin(BaseType.ORDERING)),
        ]
        for g1, g2 in cases:
            n1 = len(full_values(g1)[0])
            n2 = len(full_values(g2)[0])
            product = gen_cons(lambda a, b: (a, b), g1, g2)
            vs, exhausted = full_values(product)
            assert exhausted and len(vs) == n1 * n2 and len(distinct(vs)) == n1 * n2

    def test_any_arity_cross_product(self):
        # no arity cap: six parts give the full cross product, and a free
        # constructor of six fields is marked distinct
        b = builtin(BaseType.BOOL)
        vs, exhausted = full_values(gen_cons(lambda *a: a, *(b for _ in range(6))))
        assert exhausted
        assert sorted(vs) == sorted(itertools.product([False, True], repeat=6))
        g = gen_six_fields()
        vs, exhausted = full_values(g)
        assert g.distinct and g.types == frozenset((Six,))
        assert exhausted and len(vs) == 2 ** 5 * 3 and len(distinct(vs)) == len(vs)


class TestAlt:
    def test_alt_unions_values(self):
        vs, exhausted = full_values(alt(gen_cons0(1), gen_cons0(2)))
        assert sorted(vs) == [1, 2] and exhausted

    def test_linear_positive_chain_prefix(self):
        def pos() -> Generator:
            return alt(gen_cons0(1), gen_cons(lambda n: n + 1, Generator(defer(lambda: pos().tree))))

        assert take_values(pos().tree, DIAG, 3) == [1, 2, 3]

    def test_balanced_positives_cover_1_to_64_exactly_once(self):
        vs = take_values(positive_ints().tree, DIAG, 1000)
        assert len(set(vs)) == len(vs)
        hits = [v for v in vs if 1 <= v <= 64]
        assert sorted(hits) == list(range(1, 65))


class TestBuiltins:
    def test_bool_exhausts_at_two(self):
        vs, exhausted = full_values(builtin(BaseType.BOOL))
        assert exhausted and sorted(vs) == [False, True]

    def test_ordering_exhausts_at_three(self):
        vs, exhausted = full_values(builtin(BaseType.ORDERING))
        assert exhausted and set(vs) == {Ordering.LT, Ordering.EQ, Ordering.GT}
        assert len(vs) == 3

    def test_char_covers_printable_ascii(self):
        vs, exhausted = full_values(builtin(BaseType.CHAR))
        assert exhausted
        assert sorted(vs) == [chr(c) for c in range(0x20, 0x7F)]

    def test_int_first_1000_distinct_with_small_values(self):
        vs = take_values(builtin(BaseType.INT).tree, DIAG, 1000)
        assert len(set(vs)) == len(vs)
        assert {0, 1, -1} <= set(vs)

    def test_int_covers_band_within_finite_prefix(self):
        # brute force: every integer in [-20, 20] appears, each exactly once
        vs = take_values(builtin(BaseType.INT).tree, DIAG, 4000)
        for m in range(-20, 21):
            assert vs.count(m) == 1

    def test_from_token_round_trip(self):
        # the command line's --deftype token is the base type's value
        for bt in BaseType:
            opts = build_parser().parse_args(["--deftype", bt.value])
            assert config_from_options(opts).default_base_type is bt

    def test_positive_ints_same_walk_as_nested_bind_definition(self):
        # the same choice structure: values, node counts and end flags agree
        # for every strategy, seed and budget
        assert_same_walks(positive_ints, nested_bind_positive_ints)

    def test_int_same_walk_as_nested_bind_definition(self):
        def nested_int():
            signed = bind(nested_bind_positive_ints().tree, lambda n: choice(value(-n), value(n)))
            return Generator(choice(value(0), signed))

        assert_same_walks(lambda: builtin(BaseType.INT), nested_int)


class TestRecursive:
    @pytest.mark.parametrize("element", [BaseType.BOOL, BaseType.ORDERING, BaseType.INT])
    def test_gen_tree_same_walk_as_hand_written_definition(self, element):
        # same tree shape: values, node counts and end flags agree for every
        # strategy, seed and budget
        assert_same_walks(lambda: gen_tree(builtin(element)),
                          lambda: hand_written_gen_tree(builtin(element)))

    def test_gen_nat_same_walk_as_hand_written_definition(self):
        assert_same_walks(gen_nat, hand_written_gen_nat)

    def test_gen_tree_forces_element_thunks_in_the_same_order(self):
        for make in STRATEGY_MAKERS:
            walks = []
            for define in (gen_tree, hand_written_gen_tree):
                log = []
                e = enumerate_tree(define(logged_elements(log)).tree, make(2000))
                walks.append((list(e), e.expansions, log))
            assert walks[0] == walks[1]

    def test_body_sees_a_self_reference_assumed_distinct(self):
        seen = []

        def body(me):
            seen.append((me.distinct, me.types))
            return alt(gen_cons0(0), list_of(me))

        g = recursive(body)
        assert seen == [(True, None)]
        assert g.distinct and g.types == frozenset((int, list))
        assert take_values(g.tree, DIAG, 4) == [0, [], [0], [0, 0]]


class TestListOf:
    def test_prefix_contains_small_bool_lists(self):
        vs = take_values(list_of(builtin(BaseType.BOOL)).tree, DIAG, 40)
        for want in ([], [False], [True], [False, False]):
            assert want in vs

    def test_every_short_bool_list_appears_exactly_once(self):
        vs = take_values(list_of(builtin(BaseType.BOOL)).tree, DIAG, 400)
        assert len(distinct(vs)) == len(vs)
        for length in range(4):
            combos = list(itertools.product([False, True], repeat=length))
            got = [v for v in vs if len(v) == length]
            for combo in combos:
                assert got.count(list(combo)) == 1

    def test_tuples_walk_like_lists(self):
        for element in (BaseType.BOOL, BaseType.INT):
            as_lists = list_of(builtin(element))
            as_tuples = list_of(builtin(element), seq=tuple)
            assert as_tuples.distinct and as_tuples.types == frozenset((tuple,))
            lists = take_values(as_lists.tree, DIAG, 300)
            assert take_values(as_tuples.tree, DIAG, 300) == [tuple(v) for v in lists]
        with pytest.raises(ValueError):
            list_of(builtin(BaseType.BOOL), seq=set)

    def test_list_of_empty_generator_yields_only_nil(self):
        g = Generator(fail())
        vs, exhausted = full_values(list_of(g))
        assert vs == [[]] and exhausted

    def test_list_counts_are_powers_of_base_size(self):
        # |lists of length L| = k^L for a k-valued element generator
        vs = take_values(list_of(builtin(BaseType.ORDERING)).tree, DIAG, 500)
        by_len = {}
        for v in vs:
            by_len.setdefault(len(v), []).append(v)
        for length in range(3):
            assert len(by_len[length]) == 3 ** length

    @pytest.mark.parametrize("element", [BaseType.BOOL, BaseType.ORDERING, BaseType.INT, None])
    @pytest.mark.parametrize("nested", [False, True])
    def test_same_walk_as_nested_bind_definition(self, element, nested):
        # same tree shape: values, node counts and end flags agree for every
        # strategy, seed and budget, also under an outer bind (None: an
        # element generator with no value)
        def gen(define):
            elements = builtin(element) if element is not None else Generator(fail())
            lists = define(elements)
            return tuple_of(lists, builtin(BaseType.BOOL)) if nested else lists

        assert_same_walks(lambda: gen(list_of), lambda: gen(nested_bind_list_of))

class TestTuples:
    def test_pair_of_bools(self):
        vs, exhausted = full_values(tuple_of(builtin(BaseType.BOOL), builtin(BaseType.BOOL)))
        assert exhausted and len(vs) == 4 and len(distinct(vs)) == 4

    def test_pair_of_singletons(self):
        vs, exhausted = full_values(tuple_of(gen_cons0(1), gen_cons0("a")))
        assert vs == [(1, "a")] and exhausted

    def test_pair_ordering_bool(self):
        vs, exhausted = full_values(tuple_of(builtin(BaseType.ORDERING), builtin(BaseType.BOOL)))
        assert exhausted and len(vs) == 6

    def test_triple_flattens(self):
        g = tuple_of(*(builtin(BaseType.BOOL) for _ in range(3)))
        vs, exhausted = full_values(g)
        assert exhausted
        assert sorted(vs) == sorted(itertools.product([False, True], repeat=3))

    def test_tuple_of_single(self):
        vs, exhausted = full_values(tuple_of(builtin(BaseType.BOOL)))
        assert sorted(vs) == [(False,), (True,)] and exhausted

    def test_tuple_of_empty_rejected(self):
        with pytest.raises(ValueError):
            tuple_of()

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    @pytest.mark.parametrize("component", ["bool", "ordering", "int", "bool_list", "singleton"])
    def test_same_walk_as_nested_pair_definition(self, arity, component):
        # same choice structure: values, node counts and end flags agree
        # for every strategy, seed and budget
        def make():
            if component == "bool_list":
                return list_of(builtin(BaseType.BOOL))
            if component == "singleton":
                return gen_cons0(1)
            return builtin(BaseType(component))

        assert_same_walks(
            lambda: tuple_of(*(make() for _ in range(arity))),
            lambda: nested_pair_tuple_of(*(make() for _ in range(arity))),
        )
        if arity == 2:
            assert_same_walks(lambda: tuple_of(make(), make()),
                              lambda: nested_pair_tuple_of(make(), make()))


@dataclass(frozen=True)
class Point:
    x: int
    up: bool


@dataclass(frozen=True)
class Clamped:
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", max(self.n, 0))


@dataclass(frozen=True)
class AbsEq:
    n: int

    def __eq__(self, other):
        return isinstance(other, AbsEq) and abs(self.n) == abs(other.n)

    __hash__ = object.__hash__


@dataclass(frozen=True)
class AbsInit:
    n: int

    def __init__(self, n):
        object.__setattr__(self, "n", abs(n))


@dataclass(frozen=True)
class Scaled:
    n: int
    scale: InitVar[int] = 1


@dataclass(frozen=True)
class Tagged:
    n: int
    tag: str = field(default="t", init=False)


@dataclass
class Mutable:
    n: int


@dataclass(frozen=True)
class AbsNew:
    n: int

    def __new__(cls, n):
        return abs(n)


class _AbsCall(type):
    def __call__(cls, n):
        return abs(n)


@dataclass(frozen=True)
class AbsMeta(metaclass=_AbsCall):
    n: int


@dataclass(frozen=True)
class Noted:
    n: int
    note: str = field(compare=False, default="")


@dataclass(frozen=True)
class Six:
    a: bool
    b: bool
    c: bool
    d: bool
    e: bool
    f: Ordering


def gen_six_fields() -> Generator:
    """A free constructor of six fields over five Bools and an Ordering."""
    b = builtin(BaseType.BOOL)
    return gen_cons(Six, b, b, b, b, b, builtin(BaseType.ORDERING))


LAW_STRATEGIES = [Strategy("bfs", 0, 10**6), Strategy("level_diag", 0, 10**6)] + [
    Strategy("rand_level_diag", seed, 10**6) for seed in (0, 1, 7)
]

# generators the combinators mark distinct, and how many values to draw
MARKED = {
    "Bool": (lambda: builtin(BaseType.BOOL), 10),
    "Ordering": (lambda: builtin(BaseType.ORDERING), 10),
    "Char": (lambda: builtin(BaseType.CHAR), 200),
    "Int": (lambda: builtin(BaseType.INT), 20_000),
    "PosInt": (positive_ints, 2000),
    "gen_cons0": (lambda: gen_cons0([1, (2, "a")]), 10),
    "[Bool]": (lambda: list_of(builtin(BaseType.BOOL)), 2000),
    "[Ordering]": (lambda: list_of(builtin(BaseType.ORDERING)), 2000),
    "[[Bool]]": (lambda: list_of(list_of(builtin(BaseType.BOOL))), 2000),
    "[Int]": (lambda: list_of(builtin(BaseType.INT)), 20_000),
    "(Int,[Char])": (lambda: tuple_of(builtin(BaseType.INT), list_of(builtin(BaseType.CHAR))), 2000),
    "(Ordering,Bool)": (lambda: tuple_of(builtin(BaseType.ORDERING), builtin(BaseType.BOOL)), 10),
    "(Bool,PosInt,[Ordering],0)": (
        lambda: tuple_of(builtin(BaseType.BOOL), positive_ints(),
                         list_of(builtin(BaseType.ORDERING)), gen_cons0(0)),
        2000,
    ),
    "(Char,)": (lambda: tuple_of(builtin(BaseType.CHAR)), 200),
    "Tree(Int)": (lambda: gen_tree(builtin(BaseType.INT)), 2000),
    "Tree(Ordering)": (lambda: gen_tree(builtin(BaseType.ORDERING)), 2000),
    "Nat": (gen_nat, 200),
    "Point": (lambda: gen_cons(Point, builtin(BaseType.INT), builtin(BaseType.BOOL)), 2000),
    "Bool|Int": (lambda: alt(builtin(BaseType.BOOL), builtin(BaseType.INT)), 2000),
    "Int|[Bool]": (lambda: alt(builtin(BaseType.INT), list_of(builtin(BaseType.BOOL))), 2000),
}


@pytest.fixture
def no_cyclic_gc():
    """Pause automatic cyclic GC, as run_suite does: trees make no cycles,
    and rescanning a memo of 20 000 lists would dominate the walks."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


class TestDistinctMark:
    """Generator.distinct promises that no two values of the tree key alike;
    the runner relies on it to skip keying inputs."""

    @pytest.mark.parametrize("name", list(MARKED))
    def test_marked_generator_yields_each_key_once(self, name, no_cyclic_gc):
        make, n = MARKED[name]
        g = make()  # one tree for every walk, as across warm reruns
        assert g.distinct
        for strategy in LAW_STRATEGIES:
            walk = enumerate_tree(g.tree, strategy)
            vs = list(itertools.islice(walk, n))
            assert len(vs) == n or walk.exhausted, strategy  # finite: the whole domain
            assert len(distinct(vs)) == len(vs), strategy

    def test_unproven_combinators_stay_unmarked(self):
        b, n = builtin(BaseType.BOOL), builtin(BaseType.INT)
        unmarked = [
            alt(b, b),
            alt(gen_cons0(1), gen_cons0(2)),
            gen_cons(lambda x: x, b),
            gen_cons(abs, n),
            gen_cons(lambda x, y: (x, y), b, b),
            Generator(one_of([1, 2])),
            list_of(alt(b, b)),
            tuple_of(b, Generator(value(1))),
            tuple_of(n, b, gen_cons(abs, n)),
            gen_cons(Clamped, n),
            gen_cons(AbsEq, n),
            gen_cons(AbsInit, n),
            gen_cons(Scaled, n, n),
            gen_cons(Tagged, n),
            gen_cons(Mutable, n),
            gen_cons(AbsNew, n),
            gen_cons(AbsMeta, n),
            gen_cons(Noted, n, builtin(BaseType.CHAR)),
            alt(n, positive_ints()),
            alt(gen_cons(Point, n, b), gen_cons(Point, n, b)),
            gen_pos(),
            recursive(lambda pos: alt(gen_cons0(1), gen_cons(lambda k: k + 1, pos))),
        ]
        assert not any(g.distinct for g in unmarked)

    def test_unmarked_generators_can_repeat_a_key(self):
        # why alt and gen_cons are not always marked: both can yield a key
        # twice, over overlapping types or through a constructor that is not free
        n = builtin(BaseType.INT)
        for g in (alt(builtin(BaseType.BOOL), builtin(BaseType.BOOL)),
                  alt(n, positive_ints()),
                  gen_cons(abs, n),
                  gen_cons(Clamped, n),
                  gen_cons(AbsInit, n),
                  gen_cons(Scaled, n, n),
                  gen_cons(AbsNew, n),
                  gen_cons(AbsMeta, n)):
            vs = take_values(g.tree, DIAG, 40)
            assert len(distinct(vs)) < len(vs)

    def test_distinct_and_types_are_no_constructor_arguments(self):
        for facts in ({"distinct": True}, {"types": frozenset((int,))}):
            with pytest.raises(TypeError):
                Generator(value(1), **facts)
        with pytest.raises(TypeError):
            Generator(value(1), True)
        g = Generator(value(1))
        assert (g.distinct, g.types, g.key) == (False, None, None)


COMBINATORS = {
    "gen_cons0": lambda: gen_cons0(0),
    "builtin(Bool)": lambda: builtin(BaseType.BOOL),
    "builtin(Int)": lambda: builtin(BaseType.INT),
    "builtin(Char)": lambda: builtin(BaseType.CHAR),
    "positive_ints": positive_ints,
    "list_of": lambda: list_of(builtin(BaseType.INT)),
    "list_of(seq=tuple)": lambda: list_of(builtin(BaseType.INT), seq=tuple),
    "list_of(list_of)": lambda: list_of(list_of(builtin(BaseType.BOOL))),
    "alt": lambda: alt(builtin(BaseType.BOOL), builtin(BaseType.ORDERING)),
    "gen_cons": lambda: gen_cons(lambda a, b: (b, a), builtin(BaseType.BOOL), positive_ints()),
    "tuple_of": lambda: tuple_of(builtin(BaseType.BOOL), builtin(BaseType.ORDERING)),
    "pair_of": lambda: tuple_of(list_of(builtin(BaseType.BOOL)), builtin(BaseType.INT)),
    "gen_cons(Six)": gen_six_fields,
    "gen_tree": lambda: gen_tree(builtin(BaseType.INT)),
    "gen_nat": gen_nat,
    "gen_pos": gen_pos,
}


class TestNoReferenceCycles:
    """run_suite pauses automatic cyclic GC, which is safe only while
    generators, their trees and the walks over them make no cycles."""

    @pytest.mark.parametrize("name", list(COMBINATORS))
    @pytest.mark.parametrize("n", [1, 200])  # 200 exhausts every finite domain here
    def test_built_walked_and_dropped_generator_leaves_no_garbage(self, name, n, no_cyclic_gc):
        gc.collect()
        g = COMBINATORS[name]()
        walks = []
        for strategy in LAW_STRATEGIES:
            walk = enumerate_tree(g.tree, strategy)
            vs = list(itertools.islice(walk, n))
            assert vs
            walks.append(weakref.ref(walk))
        del g, walk, vs
        # a walk its consumer stopped is freed at once, not left in a cycle
        # with its suspended generator (which gc.collect() would count as 0)
        assert [w() for w in walks] == [None] * len(walks)
        assert gc.collect() == 0


class Colour(enum.Enum):
    RED = 1
    GREEN = 2


# whether each generator of COMBINATORS is keyed: exactly those whose values
# are immutable by construction, so the specs of one run may share its tree
KEYED = {
    "gen_cons0": True,
    "builtin(Bool)": True,
    "builtin(Int)": True,
    "builtin(Char)": True,
    "positive_ints": False,          # only builtin is keyed of the built-ins
    "list_of": False,                # a body may mutate a list
    "list_of(seq=tuple)": True,
    "list_of(list_of)": False,
    "alt": True,
    "gen_cons": False,               # a lambda is no free constructor
    "tuple_of": True,
    "pair_of": False,                # its first part is a list
    "gen_cons(Six)": True,
    "gen_tree": True,
    "gen_nat": False,                # gen_cons0 keys no dataclass instance
    "gen_pos": False,                # n + 1 is no free constructor
}

# more generators the key rules decide, beyond COMBINATORS
MORE_KEYED = {
    "gen_cons0(None)": (lambda: gen_cons0(None), True),
    "gen_cons0(True)": (lambda: gen_cons0(True), True),
    "gen_cons0('a')": (lambda: gen_cons0("a"), True),
    "gen_cons0(b'a')": (lambda: gen_cons0(b"a"), True),
    "gen_cons0(Colour.RED)": (lambda: gen_cons0(Colour.RED), True),
    "gen_cons0(Ordering.LT)": (lambda: gen_cons0(Ordering.LT), True),
    "gen_cons0([1])": (lambda: gen_cons0([1]), False),
    "gen_cons0((1,))": (lambda: gen_cons0((1,)), False),
    "gen_cons0(1.0)": (lambda: gen_cons0(1.0), False),
    "gen_cons0(Zero())": (lambda: gen_cons0(Zero()), False),
    "hand-built": (lambda: Generator(one_of([1, 2])), False),
    "gen_cons(Point)": (lambda: gen_cons(Point, builtin(BaseType.INT), builtin(BaseType.BOOL)), True),
    "gen_cons(Point, hand-built)": (
        lambda: gen_cons(Point, Generator(one_of([1, 2])), builtin(BaseType.BOOL)), False),
    "gen_cons(Mutable)": (lambda: gen_cons(Mutable, builtin(BaseType.INT)), False),
    "gen_cons(Clamped)": (lambda: gen_cons(Clamped, builtin(BaseType.INT)), False),
    "alt(Int, [Bool])": (lambda: alt(builtin(BaseType.INT), list_of(builtin(BaseType.BOOL))), False),
    "tuple_of(Int, (Bool,))": (
        lambda: tuple_of(builtin(BaseType.INT), list_of(builtin(BaseType.BOOL), seq=tuple)), True),
    "list_of([Bool], seq=tuple)": (
        lambda: list_of(list_of(builtin(BaseType.BOOL)), seq=tuple), False),
    "Tree(Ordering)": (lambda: gen_tree(builtin(BaseType.ORDERING)), True),
    "Tree(hand-built)": (lambda: gen_tree(Generator(one_of([1, 2]))), False),
    "recursive over a partial": (
        lambda: recursive(partial(lambda leaf, s: alt(leaf, gen_cons(Succ, s)), gen_cons0(1))),
        True),
    "recursive, list self": (
        lambda: recursive(lambda s: alt(gen_cons0(0), list_of(s))), False),
    "recursive, keyword-only default": (
        lambda: recursive(lambda s, *, zero=gen_cons0(0): alt(zero, gen_cons(Succ, s))), True),
    "recursive in recursive, (s, t)": (lambda: recursive(lambda s: alt(gen_cons0(1), recursive(
        lambda t: alt(gen_cons0(0), gen_cons(Point, s, t))))), True),
    "recursive in recursive, (t, s)": (lambda: recursive(lambda s: alt(gen_cons0(1), recursive(
        lambda t: alt(gen_cons0(0), gen_cons(Point, t, s))))), True),
}

KEY_CASES = {name: (COMBINATORS[name], keyed) for name, keyed in KEYED.items()} | MORE_KEYED

_MUTABLE = (list, dict, set, bytearray)


def mutable_part(v):
    """A list, dict, set or bytearray inside v at any depth (through
    tuples, frozensets and dataclass fields), or None."""
    stack = [v]
    while stack:
        v = stack.pop()
        if isinstance(v, _MUTABLE):
            return v
        if isinstance(v, (tuple, frozenset)):
            stack.extend(v)
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            stack.extend(getattr(v, f.name) for f in dataclasses.fields(v))
    return None


def key_parts(key):
    """Every object a key holds, through its tuples."""
    stack, out = [key], []
    while stack:
        k = stack.pop()
        out.append(k)
        if type(k) is tuple:
            stack.extend(k)
    return out


class TestKeys:
    """A generator is keyed exactly when its values are immutable by
    construction; two builds of one expression have equal keys."""

    def test_every_combinator_is_classified(self):
        assert set(KEYED) == set(COMBINATORS)

    @pytest.mark.parametrize("name", list(KEY_CASES))
    def test_keyed_exactly_by_the_rules(self, name):
        make, keyed = KEY_CASES[name]
        assert (make().key is not None) == keyed

    @pytest.mark.parametrize("name", [n for n, (_, keyed) in KEY_CASES.items() if keyed])
    def test_keyed_values_are_immutable(self, name, no_cyclic_gc):
        g = KEY_CASES[name][0]()
        for strategy in LAW_STRATEGIES:
            for v in itertools.islice(enumerate_tree(g.tree, strategy), 200):
                assert mutable_part(v) is None, (strategy, v)

    @pytest.mark.parametrize("name", [n for n, (_, keyed) in KEY_CASES.items() if keyed])
    def test_two_builds_have_equal_keys_that_hold_no_tree(self, name):
        make = KEY_CASES[name][0]
        first, second = make(), make()
        assert first.key == second.key and hash(first.key) == hash(second.key)
        assert not any(isinstance(p, (Generator, SearchTree)) for p in key_parts(first.key))

    def test_different_expressions_have_different_keys(self):
        keys = [make().key for make, keyed in KEY_CASES.values() if keyed]
        assert len(set(keys)) == len(keys)
        assert gen_tree(builtin(BaseType.INT)).key != gen_tree(builtin(BaseType.ORDERING)).key
        assert gen_cons0(1).key != gen_cons0(True).key   # 1 == True, of two types
        assert gen_cons0(Colour.RED).key != gen_cons0(Colour.GREEN).key

    def test_nested_self_references_key_apart(self):
        # each self-reference is keyed by the level of its recursive call
        st = recursive(lambda s: recursive(lambda t: alt(gen_cons0(0), gen_cons(Point, s, t))))
        ts = recursive(lambda s: recursive(lambda t: alt(gen_cons0(0), gen_cons(Point, t, s))))
        assert st.key != ts.key
        # with a value of its own in the outer body, the two differ in values:
        # Point(1, 0) takes x from the outer generator and up from the inner
        st = MORE_KEYED["recursive in recursive, (s, t)"][0]()
        ts = MORE_KEYED["recursive in recursive, (t, s)"][0]()
        assert st.key != ts.key
        assert Point(1, 0) in take_values(st.tree, DIAG, 40)
        assert Point(1, 0) not in take_values(ts.tree, DIAG, 40)

    def test_self_references_routed_by_a_value_key_apart(self):
        # the same code routes the self-references by a closure variable
        def mk(flip):
            return recursive(lambda s: alt(gen_cons0(1), recursive(lambda t: alt(
                gen_cons0(0), gen_cons(Point, *((t, s) if flip else (s, t)))))))
        assert mk(False).key != mk(True).key
        assert mk(False).key == MORE_KEYED["recursive in recursive, (s, t)"][0]().key
        assert mk(True).key == MORE_KEYED["recursive in recursive, (t, s)"][0]().key
        assert Point(1, 0) in take_values(mk(False).tree, DIAG, 40)
        assert Point(1, 0) not in take_values(mk(True).tree, DIAG, 40)

    def test_a_keyed_recursive_used_at_another_level_keeps_its_self_reference(self):
        # nats is built at level 0 and used in a body at level 0; the inner
        # definition of ref is built at level 1 and refers to the outer one
        nats = recursive(lambda t: alt(gen_cons0(0), gen_cons(Succ, t)))
        own = recursive(lambda s: alt(nats, gen_cons(Point, s, s)))
        ref = recursive(lambda s: alt(recursive(lambda t: alt(gen_cons0(0), gen_cons(Succ, s))),
                                      gen_cons(Point, s, s)))
        assert own.key != ref.key
        assert Succ(Point(0, 0)) in take_values(ref.tree, DIAG, 40)
        assert Succ(Point(0, 0)) not in take_values(own.tree, DIAG, 40)

    def test_a_failing_body_restores_the_level(self):
        def nats():
            return recursive(lambda t: alt(gen_cons0(0), gen_cons(Succ, t)))
        before = nats().key
        with pytest.raises(ZeroDivisionError):
            recursive(lambda s: 1 // 0)
        assert nats().key == before == (recursive, 0, before[2])

    def test_one_generator_spelled_two_ways_has_one_key(self):
        # the key follows what body built, not how body is written
        by_partial = recursive(partial(lambda leaf, s: alt(leaf, gen_cons(Succ, s)), gen_cons0(0)))
        by_default = MORE_KEYED["recursive, keyword-only default"][0]()
        assert by_partial.key == by_default.key

    def test_a_key_is_no_constructor_argument(self):
        with pytest.raises(TypeError):
            Generator(value(1), key=(builtin, BaseType.INT))
        g = builtin(BaseType.INT)
        assert dataclasses.replace(g).key is None
