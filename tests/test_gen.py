"""Generator combinators and built-in generators."""

import gc
import itertools

import pytest

from ndcheck.gen import (
    BaseType,
    Generator,
    Ordering,
    alt,
    builtin,
    gen_cons,
    gen_cons0,
    gen_cons1,
    gen_cons2,
    list_of,
    pair_of,
    positive_ints,
    tuple_of,
)
from ndcheck.searchtree import (
    Strategy, bind, choice, defer, enumerate_tree, fail, one_of, take_values, value,
)
from ndcheck.values import canonical

DIAG = Strategy.level_diag()


def nested_bind_list_of(g: Generator) -> Generator:
    """list_of as first written: one bind per element, copying the tail at
    every level.  The reference for the one-pass definition."""

    def rec():
        return choice(
            value([]),
            bind(g.tree, lambda h: bind(defer(rec), lambda t: value([h] + t))),
        )

    return Generator(defer(rec), f"[{g.name}]")


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

    return Generator(defer(rec), "PosInt")


def nested_pair(g1: Generator, g2: Generator) -> Generator:
    """pair_of as first written: a bind for each part."""
    return Generator(bind(g1.tree, lambda a: bind(g2.tree, lambda b: value((a, b)))),
                     f"({g1.name},{g2.name})")


def nested_pair_tuple_of(*gens: Generator) -> Generator:
    """tuple_of as first written: nest pairs, then re-bind each pair to
    flatten it.  The reference for the nested-bind definition."""
    if len(gens) == 1:
        g = gens[0]
        return Generator(bind(g.tree, lambda a: value((a,))), f"({g.name},)")
    acc = nested_pair(gens[0], gens[1])
    for g in gens[2:]:
        nested = nested_pair(acc, g)
        acc = Generator(bind(nested.tree, lambda p: value(p[0] + (p[1],))), nested.name)
    return Generator(acc.tree, "(" + ",".join(g.name for g in gens) + ")")


STRATEGY_MAKERS = [Strategy.bfs, Strategy.level_diag] + [
    lambda budget, seed=seed: Strategy.rand_level_diag(seed, budget) for seed in (0, 1, 7, 42)
]


def assert_same_walks(build_new, build_old):
    """Generators freshly built by the two builders give the same values,
    node counts and end flags for every strategy, seed and budget."""
    for make in STRATEGY_MAKERS:
        for budget in (1, 7, 50, 2000):
            strategy = make(budget)
            new_gen, old_gen = build_new(), build_old()
            assert new_gen.name == old_gen.name
            new = enumerate_tree(new_gen.tree, strategy)
            old = enumerate_tree(old_gen.tree, strategy)
            assert new.values() == old.values(), strategy
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
    vs = e.values()
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
        vs, exhausted = full_values(gen_cons1(succ, gen_cons0(("Z",))))
        assert vs == [("S", ("Z",))] and exhausted

    def test_gen_cons2_cross_product(self):
        g = gen_cons2(lambda a, b: (a, b), builtin(BaseType.BOOL), builtin(BaseType.BOOL))
        vs, exhausted = full_values(g)
        assert exhausted
        assert sorted(vs) == sorted(itertools.product([False, True], repeat=2))

    def test_peano_prefix(self):
        zero = ("Z",)
        succ = lambda n: ("S", n)

        def nat() -> Generator:
            return alt(gen_cons0(zero), gen_cons1(succ, Generator(defer(lambda: nat().tree))))

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

    def test_arity_cap(self):
        with pytest.raises(ValueError):
            gen_cons(lambda *a: a, *(gen_cons0(i) for i in range(6)))


class TestAlt:
    def test_alt_unions_values(self):
        vs, exhausted = full_values(alt(gen_cons0(1), gen_cons0(2)))
        assert sorted(vs) == [1, 2] and exhausted

    def test_linear_positive_chain_prefix(self):
        def pos() -> Generator:
            return alt(gen_cons0(1), gen_cons1(lambda n: n + 1, Generator(defer(lambda: pos().tree))))

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
        for bt in BaseType:
            assert BaseType.from_token(bt.value) is bt

    def test_positive_ints_same_walk_as_nested_bind_definition(self):
        # the same choice structure: values, node counts and end flags agree
        # for every strategy, seed and budget
        assert_same_walks(positive_ints, nested_bind_positive_ints)

    def test_int_same_walk_as_nested_bind_definition(self):
        def nested_int():
            signed = bind(nested_bind_positive_ints().tree, lambda n: choice(value(-n), value(n)))
            return Generator(choice(value(0), signed), "Int")

        assert_same_walks(lambda: builtin(BaseType.INT), nested_int)


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

    def test_list_of_empty_generator_yields_only_nil(self):
        g = Generator(fail(), "none")
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
            elements = builtin(element) if element is not None else Generator(fail(), "none")
            lists = define(elements)
            return pair_of(lists, builtin(BaseType.BOOL)) if nested else lists

        assert_same_walks(lambda: gen(list_of), lambda: gen(nested_bind_list_of))

class TestTuples:
    def test_pair_of_bools(self):
        vs, exhausted = full_values(pair_of(builtin(BaseType.BOOL), builtin(BaseType.BOOL)))
        assert exhausted and len(vs) == 4 and len(distinct(vs)) == 4

    def test_pair_of_singletons(self):
        vs, exhausted = full_values(pair_of(gen_cons0(1), gen_cons0("a")))
        assert vs == [(1, "a")] and exhausted

    def test_pair_ordering_bool(self):
        vs, exhausted = full_values(pair_of(builtin(BaseType.ORDERING), builtin(BaseType.BOOL)))
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
            assert_same_walks(lambda: pair_of(make(), make()),
                              lambda: nested_pair_tuple_of(make(), make()))


LAW_STRATEGIES = [Strategy.bfs(10**6), Strategy.level_diag(10**6)] + [
    Strategy.rand_level_diag(seed, 10**6) for seed in (0, 1, 7)
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
    "(Int,[Char])": (lambda: pair_of(builtin(BaseType.INT), list_of(builtin(BaseType.CHAR))), 2000),
    "(Ordering,Bool)": (lambda: pair_of(builtin(BaseType.ORDERING), builtin(BaseType.BOOL)), 10),
    "(Bool,PosInt,[Ordering],0)": (
        lambda: tuple_of(builtin(BaseType.BOOL), positive_ints(),
                         list_of(builtin(BaseType.ORDERING)), gen_cons0(0)),
        2000,
    ),
    "(Char,)": (lambda: tuple_of(builtin(BaseType.CHAR)), 200),
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
            gen_cons1(abs, n),
            gen_cons2(lambda x, y: (x, y), b, b),
            Generator(one_of([1, 2]), "plain"),
            list_of(alt(b, b)),
            pair_of(b, Generator(value(1))),
            tuple_of(n, b, gen_cons1(abs, n)),
        ]
        assert not any(g.distinct for g in unmarked)

    def test_unmarked_generators_can_repeat_a_key(self):
        # why alt and gen_cons may not be marked: both can yield a key twice
        for g in (alt(builtin(BaseType.BOOL), builtin(BaseType.BOOL)),
                  gen_cons1(abs, builtin(BaseType.INT))):
            vs = take_values(g.tree, DIAG, 40)
            assert len(distinct(vs)) < len(vs)

    def test_distinct_is_keyword_only(self):
        with pytest.raises(TypeError):
            Generator(value(1), "one", True)
        assert Generator(value(1), "one", distinct=True).distinct


COMBINATORS = {
    "gen_cons0": lambda: gen_cons0(0),
    "builtin(Bool)": lambda: builtin(BaseType.BOOL),
    "builtin(Int)": lambda: builtin(BaseType.INT),
    "builtin(Char)": lambda: builtin(BaseType.CHAR),
    "positive_ints": positive_ints,
    "list_of": lambda: list_of(builtin(BaseType.INT)),
    "alt": lambda: alt(builtin(BaseType.BOOL), builtin(BaseType.ORDERING)),
    "gen_cons": lambda: gen_cons(lambda a, b: (b, a), builtin(BaseType.BOOL), positive_ints()),
    "tuple_of": lambda: tuple_of(builtin(BaseType.BOOL), builtin(BaseType.ORDERING)),
    "pair_of": lambda: pair_of(list_of(builtin(BaseType.BOOL)), builtin(BaseType.INT)),
}


class TestNoReferenceCycles:
    """run_suite pauses automatic cyclic GC, which is safe only while
    generators, their trees and the walks over them make no cycles."""

    @pytest.mark.parametrize("name", list(COMBINATORS))
    @pytest.mark.parametrize("n", [1, 200])  # 200 exhausts every finite domain here
    def test_built_walked_and_dropped_generator_leaves_no_garbage(self, name, n, no_cyclic_gc):
        gc.collect()
        g = COMBINATORS[name]()
        for strategy in LAW_STRATEGIES:
            walk = enumerate_tree(g.tree, strategy)
            vs = list(itertools.islice(walk, n))
            assert vs
        del g, walk, vs
        assert gc.collect() == 0
