"""Runner verdicts, accounting, and report rendering."""

import gc
import json
import sys
from dataclasses import replace

import pytest

from ndcheck import registry
from ndcheck.corpus.trees import Leaf, Node, Succ, Zero
from ndcheck.gen import (
    BaseType, Generator, Ordering, alt, builtin, gen_cons, gen_cons0, list_of,
    positive_ints, recursive, tuple_of,
)
from ndcheck.prop import EvalContext, Prop, classify, collect, for_all, implies, is_equal, returns
from ndcheck.runner import (
    ERROR,
    EXHAUSTED_V,
    FALSIFIED_V,
    PARAM,
    PASSED,
    PASSED_EXHAUSTIVE,
    POLY,
    SKIPPED_PROVED,
    UNIT,
    ConfigError,
    RunConfig,
    TestEntry,
    TestReport,
    TestSpec,
    Verdict,
    instantiate_poly,
    render_report,
    run_param,
    run_suite,
)
from ndcheck.searchtree import (
    DEFAULT_NODE_BUDGET, Strategy, choice, defer, enumerate_tree, fail, one_of, value,
)
from ndcheck.values import canonical


def nat_chain(k=0):
    return choice(value(k), defer(lambda: nat_chain(k + 1)))


def param_spec(gen, body, name="p", arity=1):
    return TestSpec(name=name, module="T", line=1, kind=PARAM, input_gen=gen, body=body, arity=arity)


def input_order(gen, cfg, n):
    """Replay the runner's de-duplicated input stream independently."""
    seen, out = set(), []
    for v in enumerate_tree(gen.tree, cfg.strategy):
        k = canonical(v)
        if k in seen:
            continue
        seen.add(k)
        out.append(v)
        if len(out) >= n:
            break
    return out


class TestRunParam:
    def test_finite_domain_pass_is_exhaustive(self):
        gen = tuple_of(builtin(BaseType.BOOL), builtin(BaseType.BOOL))
        spec = param_spec(gen, lambda a, b: is_equal(not (a or b), (not a) and (not b)), arity=2)
        verdict, _ = run_param(spec, RunConfig())
        assert verdict.kind == PASSED_EXHAUSTIVE
        assert verdict.tests_executed == 4

    def test_infinite_domain_pass_stops_at_max_tests(self):
        spec = param_spec(builtin(BaseType.INT), lambda n: is_equal(n, n))
        verdict, _ = run_param(spec, RunConfig(max_tests=37))
        assert verdict.kind == PASSED and verdict.tests_executed == 37

    def test_domain_exactly_max_tests_counts_as_plain_pass(self):
        gen = Generator(one_of(range(10)))
        spec = param_spec(gen, lambda n: is_equal(n, n))
        verdict, _ = run_param(spec, RunConfig(max_tests=10))
        assert verdict.kind == PASSED and verdict.tests_executed == 10

    def test_all_dropped_is_exhausted_zero(self):
        spec = param_spec(
            builtin(BaseType.INT),
            lambda n: implies(False, lambda: is_equal(n, n)),
        )
        cfg = RunConfig(drop_limit=200)
        verdict, _ = run_param(spec, cfg)
        assert verdict.kind == EXHAUSTED_V
        assert verdict.tests_executed == 0
        assert verdict.tests_dropped == 200

    def test_drop_limit_after_some_tests_claims_no_proof(self):
        # the drop limit stops the run on an infinite domain: the inputs
        # that ran are no proof, however many there were
        spec = param_spec(positive_ints(), lambda n: implies(n < 4, lambda: is_equal(n, n)))
        verdict, _ = run_param(spec, RunConfig(drop_limit=100))
        assert verdict.kind == EXHAUSTED_V
        assert (verdict.tests_executed, verdict.tests_dropped) == (3, 100)
        report = run_suite([spec], RunConfig(drop_limit=100))
        assert report.exit_code == 1
        assert render_report(report).endswith("\n Arguments exhausted after 3 tests.")

    def test_last_input_dropped_at_the_limit_claims_no_proof(self):
        # the runner does not look past the drop limit, so a finite domain
        # whose last input is the limit-th drop reads Exhausted: too little
        # is claimed, never too much
        gen = Generator(one_of([0, 1, 2]))
        spec = param_spec(gen, lambda n: implies(n == 0, lambda: is_equal(n, n)))
        at_limit, _ = run_param(spec, RunConfig(drop_limit=2, strategy_kind="bfs"))
        assert (at_limit.kind, at_limit.tests_executed, at_limit.tests_dropped) == (EXHAUSTED_V, 1, 2)
        below, _ = run_param(spec, RunConfig(drop_limit=3, strategy_kind="bfs"))
        assert (below.kind, below.tests_executed, below.tests_dropped) == (PASSED_EXHAUSTIVE, 1, 2)

    def test_finite_domain_with_drops_passes_exhaustively(self):
        gen = Generator(one_of(range(8)))
        spec = param_spec(gen, lambda n: implies(n % 2 == 0, lambda: is_equal(n, n)))
        verdict, _ = run_param(spec, RunConfig())
        assert verdict.kind == PASSED_EXHAUSTIVE
        assert verdict.tests_executed == 4
        assert verdict.tests_dropped == 4

    def test_drop_accounting_sums_to_drawn_inputs(self):
        gen = Generator(one_of(range(8)))
        spec = param_spec(gen, lambda n: implies(n % 2 == 0, lambda: is_equal(n, n)))
        verdict, _ = run_param(spec, RunConfig())
        assert verdict.tests_executed + verdict.tests_dropped == 8

    def test_falsification_records_case_and_counterexample(self):
        cfg = RunConfig()
        gen = Generator(one_of(range(10)))
        bad = input_order(gen, cfg, 10)[2]  # third drawn input will fail
        spec = param_spec(gen, lambda n, bad=bad: is_equal(n == bad, False))
        verdict, _ = run_param(spec, cfg)
        assert verdict.kind == FALSIFIED_V
        assert verdict.case_index == 3
        assert verdict.counterexample == bad
        assert verdict.arguments == str(bad)

    def test_case_index_ignores_dropped_cases(self):
        cfg = RunConfig()
        gen = Generator(one_of(range(12)))
        order = input_order(gen, cfg, 12)
        evens = [n for n in order if n % 2 == 0]
        bad = evens[1]  # second executed case
        spec = param_spec(
            gen,
            lambda n, bad=bad: implies(n % 2 == 0, lambda: is_equal(n == bad, False)),
        )
        verdict, _ = run_param(spec, cfg)
        assert verdict.kind == FALSIFIED_V
        assert verdict.case_index == 2
        assert verdict.counterexample == bad

    def test_monotonic_case_index_under_larger_max_tests(self):
        gen = builtin(BaseType.INT)
        spec = param_spec(gen, lambda n: is_equal(abs(n) < 15, True))
        small, _ = run_param(spec, RunConfig(max_tests=80))
        large, _ = run_param(spec, RunConfig(max_tests=160))
        assert small.kind == large.kind == FALSIFIED_V
        assert small.case_index == large.case_index
        assert small.counterexample == large.counterexample

    def test_body_exception_is_an_error_verdict(self):
        def body(n):
            raise RuntimeError("boom")

        spec = param_spec(builtin(BaseType.INT), body)
        verdict, _ = run_param(spec, RunConfig(max_tests=5))
        assert verdict.kind == ERROR
        assert "boom" in verdict.message

    @pytest.mark.parametrize("body,message", [
        (lambda xs: xs == xs, "TypeError: body returned bool, not a property (input [])"),
        (lambda xs: None, "TypeError: body returned NoneType, not a property (input [])"),
        (lambda xs: implies(True, lambda: xs == xs), "TypeError: implies got bool, not a property (input [])"),
        (lambda xs: implies(True, xs == xs), "TypeError: implies got bool, not a property (input [])"),
        (lambda xs: for_all([xs], lambda ys: ys == ys), "TypeError: for_all body returned bool, not a property (input [])"),
        (lambda xs: classify(True, "x", xs == xs), "TypeError: classify got bool, not a property (input [])"),
        (lambda xs: collect(xs, xs == xs), "TypeError: collect got bool, not a property (input [])"),
    ], ids=["bool", "none", "implies-thunk", "implies-value", "for_all", "classify", "collect"])
    def test_no_property_names_what_came_back(self, body, message):
        verdict, _ = run_param(param_spec(list_of(builtin(BaseType.INT)), body), RunConfig())
        assert (verdict.kind, verdict.message, verdict.tests_executed) == (ERROR, message, 0)

    def test_attribute_errors_of_a_body_or_a_check_are_reported_as_raised(self):
        def check(ctx):
            raise AttributeError("no such field")

        cases = [
            (lambda xs: xs.check, "AttributeError: 'list' object has no attribute 'check' (input [])"),
            (lambda xs: classify(True, "x", Prop(check)), "AttributeError: no such field (input [])"),
            (lambda xs: implies(True, Prop(check)), "AttributeError: no such field (input [])"),
        ]
        for body, message in cases:
            verdict, _ = run_param(param_spec(list_of(builtin(BaseType.INT)), body), RunConfig())
            assert (verdict.kind, verdict.message) == (ERROR, message)

    def test_unit_test_that_is_no_property_names_what_it_is(self):
        specs = [
            TestSpec(name="flag", module="T", kind=UNIT, prop=True),
            TestSpec(name="guarded", module="T", kind=UNIT, prop=implies(True, lambda: 1 == 1)),
        ]
        report = run_suite(specs, RunConfig())
        assert [e.verdict.message for e in report.entries] == [
            "TypeError: unit test is bool, not a property",
            "TypeError: implies got bool, not a property",
        ]

    def test_inconclusive_outcome_is_an_error_verdict(self):
        spec = param_spec(
            builtin(BaseType.BOOL),
            lambda _b: is_equal(nat_chain(), value(0)),
        )
        cfg = RunConfig(node_budget=2)
        verdict, _ = run_param(spec, cfg)
        assert verdict.kind == ERROR
        assert "undecided" in verdict.message
        # at node budget 2 the two-value Bool walk itself ends first
        assert verdict == Verdict(
            ERROR,
            message="input generator exceeded the node budget after 0 tests; domain coverage undecided",
        )

    def test_undecided_operator_names_the_input(self):
        spec = param_spec(builtin(BaseType.BOOL), lambda _b: is_equal(nat_chain(), value(0)))
        # budget 3 covers the Bool walk but only one value of the chain
        verdict, _ = run_param(spec, RunConfig(node_budget=3))
        assert verdict == Verdict(
            ERROR, message="is_equal: left side undecided (node budget exceeded) (input True)"
        )

    def test_input_budget_exhaustion_is_an_error_not_exhaustive_pass(self):
        spec = param_spec(Generator(nat_chain()), lambda n: is_equal(n, n))
        verdict, _ = run_param(spec, RunConfig(max_tests=100_000, node_budget=60))
        assert verdict.kind == ERROR
        assert "budget" in verdict.message
        assert verdict == Verdict(
            ERROR,
            tests_executed=29,
            message="input generator exceeded the node budget after 29 tests; domain coverage undecided",
        )

    def test_reproducible_for_fixed_seed(self):
        spec = param_spec(builtin(BaseType.INT), lambda n: is_equal(n, n))
        cfg = RunConfig(max_tests=50, seed=21)
        assert run_param(spec, cfg) == run_param(spec, cfg)

    def test_exhaustive_count_matches_brute_force(self):
        # PassedExhaustive(n) must equal the number of distinct,
        # guard-satisfying values in the (small, finite) domain
        domains = [list(range(6)), [1, 1, 2, 3], list(range(13)), ["a", "b", "a"]]
        guards = [lambda v: True, lambda v: str(v) < "4"]
        for domain in domains:
            for guard in guards:
                gen = Generator(one_of(domain))
                spec = param_spec(
                    gen,
                    lambda v, g=guard: implies(g(v), lambda: is_equal(v, v)),
                )
                verdict, _ = run_param(spec, RunConfig())
                expect = len({canonical(v) for v in domain if guard(v)})
                if expect:
                    assert verdict.kind == PASSED_EXHAUSTIVE
                    assert verdict.tests_executed == expect
                else:
                    assert verdict.kind == EXHAUSTED_V


    def test_walks_and_keys_per_case(self, monkeypatch):
        """Inputs are walked through the runner's enumerate_tree and keyed
        once; a body comparing plain values walks nothing and compares
        them without keys, dataclasses and flat values alike."""
        calls = {"input": 0, "prop": 0, "key": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr("ndcheck.runner.enumerate_tree", counting("input", enumerate_tree))
        monkeypatch.setattr("ndcheck.prop.enumerate_tree", counting("prop", enumerate_tree))
        monkeypatch.setattr("ndcheck.prop.canonical", counting("key", canonical))
        bodies = [
            (lambda n: is_equal(Succ(Zero()), Succ(Zero())), 1),  # only the input is keyed
            (lambda n: is_equal(n, n), 1),
        ]
        for body, keys_per_case in bodies:
            calls.update(input=0, prop=0, key=0)
            spec = param_spec(Generator(nat_chain()), body)
            verdict, _ = run_param(spec, RunConfig(max_tests=25))
            assert verdict.kind == PASSED
            assert calls == {"input": 1, "prop": 0, "key": keys_per_case * 25}


MARKED = {
    "Bool": lambda: builtin(BaseType.BOOL),
    "Ordering": lambda: builtin(BaseType.ORDERING),
    "Char": lambda: builtin(BaseType.CHAR),
    "Int": lambda: builtin(BaseType.INT),
    "PosInt": positive_ints,
    "gen_cons0": lambda: gen_cons0([0]),
    "[Ordering]": lambda: list_of(builtin(BaseType.ORDERING)),
    "[[Bool]]": lambda: list_of(list_of(builtin(BaseType.BOOL))),
    "[Int]": lambda: list_of(builtin(BaseType.INT)),
    "(Bool,Bool)": lambda: tuple_of(builtin(BaseType.BOOL), builtin(BaseType.BOOL)),
    "(Char,[Bool],Int)": lambda: tuple_of(
        builtin(BaseType.CHAR), list_of(builtin(BaseType.BOOL)), builtin(BaseType.INT),
    ),
}


class TestDistinctInputs:
    """Inputs of a generator marked distinct are drawn without keying; the
    runner must still see the keyed stream and reach the keyed verdict."""

    @staticmethod
    def run_recording(gen, cfg):
        """run_param with a body that drops every third input and fails the
        400th, so drops, falsification and exhaustion all depend on the
        stream.  Returns the verdict and the inputs the body saw."""
        drawn = []

        def body(x):
            drawn.append(x)
            return implies(len(drawn) % 3 != 0, lambda: is_equal(len(drawn) == 400, False))

        verdict, _ = run_param(param_spec(gen, body), cfg)
        return verdict, drawn

    @pytest.mark.parametrize("budget", [1, 7, 50, DEFAULT_NODE_BUDGET])
    @pytest.mark.parametrize("name", list(MARKED))
    def test_unkeyed_run_matches_keyed_replay(self, name, budget):
        cfg = RunConfig(max_tests=1000, node_budget=budget)
        gen = MARKED[name]()
        assert gen.distinct
        verdict, drawn = self.run_recording(gen, cfg)
        replay = input_order(MARKED[name](), cfg, len(drawn) + 1)
        assert replay[: len(drawn)] == drawn
        if verdict.kind != FALSIFIED_V:  # the stream ended: so did the replay
            assert replay == drawn
        keyed_verdict, keyed_drawn = self.run_recording(Generator(MARKED[name]().tree), cfg)
        assert (verdict, drawn) == (keyed_verdict, keyed_drawn)

    def test_unmarked_alt_is_still_deduplicated(self):
        gen = alt(builtin(BaseType.BOOL), builtin(BaseType.BOOL))
        assert not gen.distinct
        verdict, _ = run_param(param_spec(gen, lambda b: is_equal(b, b)), RunConfig())
        assert verdict.kind == PASSED_EXHAUSTIVE
        assert verdict.tests_executed == 2

    def test_unmarked_gen_cons_is_still_deduplicated(self):
        gen = gen_cons(lambda b: 0, builtin(BaseType.BOOL))  # not injective
        assert not gen.distinct
        verdict, _ = run_param(param_spec(gen, lambda n: is_equal(n, n)), RunConfig())
        assert verdict.kind == PASSED_EXHAUSTIVE
        assert verdict.tests_executed == 1

    def test_marked_inputs_are_not_keyed(self, monkeypatch):
        keyed = []
        monkeypatch.setattr("ndcheck.prop.canonical", lambda v: keyed.append(v) or canonical(v))
        spec = param_spec(list_of(builtin(BaseType.INT)), lambda xs: is_equal(xs, xs))
        verdict, _ = run_param(spec, RunConfig(max_tests=25))
        assert verdict.kind == PASSED
        assert len(keyed) == 0  # none per input, and flat lists are compared without keys
        spec = param_spec(list_of(builtin(BaseType.INT)), lambda xs: is_equal(Leaf(xs), Leaf(xs)))
        verdict, _ = run_param(spec, RunConfig(max_tests=25))
        assert verdict.kind == PASSED
        assert len(keyed) == 0  # a dataclass is compared without keys too


class TestPoly:
    def poly(self, gen_for=builtin):
        return TestSpec(
            name="prop", module="M", line=2, kind=POLY,
            gen_for=gen_for, body=lambda v: is_equal(v, v),
        )

    def test_renamed_with_base_type_suffix(self):
        inst = instantiate_poly(self.poly(), RunConfig())
        assert inst.name == "prop_ON_BASETYPE"
        assert inst.kind == PARAM
        assert inst.input_gen.types == frozenset({Ordering})

    def test_configured_base_type_selected(self):
        inst = instantiate_poly(self.poly(), RunConfig(default_base_type=BaseType.INT))
        assert inst.input_gen.types == frozenset({int})

    def test_non_poly_specs_unchanged(self):
        spec = param_spec(builtin(BaseType.INT), lambda n: is_equal(n, n))
        assert instantiate_poly(spec, RunConfig()) is spec

    def test_missing_instantiation_is_an_error_verdict(self):
        broken = self.poly(gen_for={BaseType.INT: builtin(BaseType.INT)}.__getitem__)
        report = run_suite([broken], RunConfig())
        assert report.entries[0].verdict.kind == ERROR


class TestPolyOnDemand:
    """poly_test stores gen_for; the runner builds only the configured
    instantiation, on first use, and keeps it."""

    MODULE = "PolyOnDemand"

    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        registry.clear(self.MODULE)
        yield
        registry.clear(self.MODULE)

    @staticmethod
    def int_only(bt):
        if bt is not BaseType.INT:
            raise LookupError(f"no generator for {bt.value}")
        return builtin(bt)

    def register(self, name, gen_for, body=lambda v: is_equal(v, v)):
        return registry.poly_test(self.MODULE, name, gen_for=gen_for, body=body, line=1)

    def test_failing_gen_for_registers(self):
        spec = self.register("p", self.int_only)
        assert spec.kind == POLY
        assert registry.specs_for([self.MODULE]) == [spec]

    def test_failing_gen_for_passes_under_its_type(self):
        self.register("p", self.int_only)
        report = run_suite(registry.specs_for([self.MODULE]), RunConfig(default_base_type=BaseType.INT))
        assert [e.verdict.kind for e in report.entries] == [PASSED]
        assert report.entries[0].name == "p_ON_BASETYPE"

    def test_failing_gen_for_is_one_error_and_the_run_goes_on(self):
        self.register("p", self.int_only)
        registry.param_test(self.MODULE, "q", builtin(BaseType.BOOL), lambda b: is_equal(b, b), line=2)
        report = run_suite(registry.specs_for([self.MODULE]), RunConfig())
        assert [(e.name, e.verdict.kind) for e in report.entries] == [
            ("p", ERROR),
            ("q", PASSED_EXHAUSTIVE),
        ]
        assert report.entries[0].verdict.message == (
            "LookupError: no generator for ordering (while instantiating for base type ordering)"
        )

    def test_configured_instantiation_built_once(self):
        calls = []

        def counting(bt):
            calls.append(bt)
            return builtin(bt)

        self.register("p", counting)
        assert calls == []
        cfg = RunConfig(default_base_type=BaseType.CHAR, max_tests=10)
        for _ in range(2):
            report = run_suite(registry.specs_for([self.MODULE]), cfg)
            assert report.entries[0].verdict.kind == PASSED
        assert calls == [BaseType.CHAR]

    @pytest.mark.parametrize(
        "bt, py_type", [(BaseType.ORDERING, Ordering), (BaseType.BOOL, bool), (BaseType.INT, int), (BaseType.CHAR, str)]
    )
    def test_configured_type_supplies_the_inputs(self, bt, py_type):
        self.register("p", builtin, body=lambda v: is_equal(v, None))
        entry = run_suite(registry.specs_for([self.MODULE]), RunConfig(default_base_type=bt)).entries[0]
        assert entry.verdict.kind == FALSIFIED_V
        assert type(entry.verdict.counterexample) is py_type


class TestSharedInputs:
    """A spec whose input generator has an earlier spec's key draws from the
    earlier spec's generator and replays its walk; a generator whose values
    a body could mutate has no key, so no body changes a later spec."""

    def test_a_body_that_mutates_its_list_input_changes_no_later_spec(self):
        def appending(xs):
            xs.append(0)
            return is_equal(True, True)

        def short(xs):
            return is_equal(len(xs) < 3, True)

        cfg = RunConfig(max_tests=20, seed=3)
        alone = run_suite([param_spec(list_of(builtin(BaseType.INT)), short, "short")], cfg)
        after = run_suite([param_spec(list_of(builtin(BaseType.INT)), appending, "appending"),
                           param_spec(list_of(builtin(BaseType.INT)), short, "short")], cfg)
        assert alone.entries[0].verdict.kind == FALSIFIED_V
        assert after.entries[1] == alone.entries[0]

    def test_trees_specs_give_the_same_entries_in_either_order(self):
        cfg = RunConfig(max_tests=500, seed=7)
        trees = registry.specs_for(["Trees"])
        assert len(trees) == 2

        def fresh(specs, built):
            # gen_for uncached, so no earlier test has walked the trees
            def gen_for(s):
                return lambda bt: built.append(s.gen_for.__wrapped__(bt)) or built[-1]

            return [replace(s, gen_for=gen_for(s)) for s in specs]

        built: list = []
        forward = run_suite(fresh(trees, built), cfg)
        backward = run_suite(fresh(trees[::-1], []), cfg)
        assert {e.name: e for e in forward.entries} == {e.name: e for e in backward.entries}
        assert [e.verdict.kind for e in forward.entries] == [PASSED, PASSED]
        # the second spec drew the first one's recorded walk; its own tree
        # was never walked
        first, second = built
        assert first.key == second.key
        assert len(first.tree._walks[cfg.strategy].values) >= 500
        assert getattr(second.tree, "_walks", None) is None


# the element generator of global_elem_trees, read from the module's globals
# each time its body runs
ELEM = builtin(BaseType.BOOL)


def global_elem_trees():
    """Rose trees whose leaves hold values of the module global ELEM."""
    return recursive(lambda t: alt(gen_cons(Leaf, ELEM), gen_cons(Node, list_of(t, seq=tuple))))


class TestSharedRecursiveInputs:
    """A recursive generator's key records what its body reads from module
    globals, so a spec never draws another spec's generator built over
    other parts."""

    def test_a_spec_over_a_global_reads_the_same_after_another_global(self, monkeypatch):
        def no_bool_leaf(t):
            return is_equal(isinstance(t, Leaf) and type(t.payload) is bool, False)

        cfg = RunConfig(max_tests=5)
        monkeypatch.setitem(globals(), "ELEM", builtin(BaseType.INT))
        alone = run_suite([param_spec(global_elem_trees(), no_bool_leaf, "ints")], cfg)
        monkeypatch.setitem(globals(), "ELEM", builtin(BaseType.BOOL))
        bools = global_elem_trees()
        monkeypatch.setitem(globals(), "ELEM", builtin(BaseType.INT))
        ints = global_elem_trees()
        assert bools.key != ints.key
        both = run_suite([param_spec(bools, lambda t: is_equal(t, t), "bools"),
                          param_spec(ints, no_bool_leaf, "ints")], cfg)
        assert alone.entries[0].verdict.kind == PASSED
        assert both.entries[1] == alone.entries[0]


class TestRunConfig:
    @pytest.mark.parametrize("field", ["max_tests", "drop_limit"])
    @pytest.mark.parametrize("bad", [0, -1])
    def test_count_below_one_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            RunConfig(**{field: bad})


class TestRunSuite:
    def test_one_verdict_per_spec_in_registration_order(self):
        specs = [
            TestSpec(name="u1", module="M", line=1, kind=UNIT, prop=is_equal(1, 1)),
            param_spec(builtin(BaseType.BOOL), lambda b: is_equal(b, b), name="p1"),
            TestSpec(name="u2", module="M", line=3, kind=UNIT, prop=is_equal(1, 2)),
        ]
        report = run_suite(specs, RunConfig())
        assert [e.name for e in report.entries] == ["u1", "p1", "u2"]
        assert [e.verdict.kind for e in report.entries] == [
            PASSED, PASSED_EXHAUSTIVE, FALSIFIED_V,
        ]

    def test_io_specs_share_scratch_in_order(self):
        def write(p):
            (p / "TEST").write_text("Hello")
            return None

        def read(p):
            return (p / "TEST").read_text()

        specs = [
            TestSpec(name="w", module="IO", line=1, kind=UNIT, prop=returns(write, None)),
            TestSpec(name="r", module="IO", line=2, kind=UNIT, prop=returns(read, "Hello")),
        ]
        report = run_suite(specs, RunConfig())
        assert [e.verdict.kind for e in report.entries] == [PASSED, PASSED]

    def test_unit_dropped_guard_reports_exhausted_zero(self):
        spec = TestSpec(
            name="u", module="M", line=1, kind=UNIT,
            prop=implies(False, lambda: is_equal(1, 1)),
        )
        report = run_suite([spec], RunConfig())
        assert report.entries[0].verdict.kind == EXHAUSTED_V

    def test_every_unit_ending_gives_its_whole_verdict_and_labels(self):
        # a unit test is one case with no input: nothing is rendered, an
        # Error carries the bare detail, and a falsified for_all names its
        # element; node budget 2 leaves the infinite chain undecided
        def boom(ctx):
            raise ValueError("no check")

        def unit(name, prop):
            return TestSpec(name=name, module="T", kind=UNIT, prop=prop)

        table = [
            (
                TestSpec(name="odd", module="T", kind="io"),
                Verdict(ERROR, message="unknown spec kind 'io'"),
                (),
            ),
            (
                unit("pass", classify(True, "small", is_equal(1, 1))),
                Verdict(PASSED, tests_executed=1),
                (("small", 1),),
            ),
            (
                unit("fail", for_all([1, 2, 3], lambda x: collect(x, is_equal(x, 1)))),
                Verdict(FALSIFIED_V, tests_executed=1, case_index=1, arguments="2", results="(2,1)"),
                (("1", 1), ("2", 1)),
            ),
            (
                unit("drop", classify(True, "guarded", implies(False, is_equal(1, 1)))),
                Verdict(EXHAUSTED_V, tests_executed=0, tests_dropped=1),
                (("guarded", 1),),
            ),
            (
                unit("undecided", is_equal(nat_chain(), value(0))),
                Verdict(ERROR, message="is_equal: left side undecided (node budget exceeded)"),
                (),
            ),
            (
                unit("raise", Prop(boom)),
                Verdict(ERROR, message="ValueError: no check"),
                (),
            ),
        ]
        report = run_suite([spec for spec, _, _ in table], RunConfig(node_budget=2))
        assert [(e.verdict, e.labels) for e in report.entries] == [
            (verdict, labels) for _, verdict, labels in table
        ]

    def test_proof_dir_marks_specs_skipped(self, tmp_path):
        (tmp_path / "proof-u1.agda").write_text("qed")
        specs = [
            TestSpec(name="u1", module="M", line=1, kind=UNIT, prop=is_equal(1, 2)),
            TestSpec(name="u2", module="M", line=2, kind=UNIT, prop=is_equal(1, 1)),
        ]
        report = run_suite(specs, RunConfig(proof_dir=tmp_path))
        assert report.entries[0].verdict.kind == SKIPPED_PROVED
        assert report.entries[0].verdict.proof_file == "proof-u1.agda"
        assert report.entries[1].verdict.kind == PASSED

    def test_unreadable_proof_dir_is_a_config_error(self, unreadable_dir):
        specs = [TestSpec(name="u1", module="M", line=1, kind=UNIT, prop=is_equal(1, 2))]
        with pytest.raises(ConfigError) as info:
            run_suite(specs, RunConfig(proof_dir=unreadable_dir))
        assert str(info.value) == (f"proof directory not readable: {unreadable_dir} "
                                   f"([Errno 13] Permission denied: '{unreadable_dir}')")

    def test_report_names_proof_files_no_spec_matched(self, tmp_path):
        for f in ("proof-zz.txt", "proof-U_1.agda", "proof-b.txt"):
            (tmp_path / f).write_text("qed")
        specs = [TestSpec(name="u1", module="M", line=1, kind=UNIT, prop=is_equal(1, 2))]
        report = run_suite(specs, RunConfig(proof_dir=tmp_path))
        assert report.entries[0].verdict.proof_file == "proof-U_1.agda"
        assert report.unused_proofs == ("proof-b.txt", "proof-zz.txt")
        assert run_suite(specs, RunConfig()).unused_proofs == ()

    def test_report_names_a_second_proof_file_for_one_name(self, tmp_path):
        for f in ("proof-u_1.txt", "proof-U1.agda", "proof-u-1.v"):
            (tmp_path / f).write_text("qed")
        specs = [TestSpec(name="u1", module="M", line=1, kind=UNIT, prop=is_equal(1, 2))]
        report = run_suite(specs, RunConfig(proof_dir=tmp_path))
        assert report.entries[0].verdict.proof_file == "proof-U1.agda"
        assert report.unused_proofs == ("proof-u-1.v", "proof-u_1.txt")

    def test_labels_aggregate_into_frequency_table(self):
        gen = Generator(one_of(range(10)))
        spec = param_spec(
            gen,
            lambda n: classify(n % 2 == 0, "even", is_equal(n, n)),
        )
        report = run_suite([spec], RunConfig())
        assert report.entries[0].labels == (("even", 5),)

    def run_after_bad_input(self, gen):
        """Run a spec over gen, then a plain one: both must get a verdict."""
        specs = [
            param_spec(gen, lambda v: is_equal(v, v), name="bad"),
            TestSpec(name="after", module="M", line=2, kind=UNIT, prop=is_equal(1, 1)),
        ]
        report = run_suite(specs, RunConfig())
        assert [e.name for e in report.entries] == ["bad", "after"]
        assert report.entries[1].verdict.kind == PASSED
        return report.entries[0].verdict

    def test_generator_error_is_an_error_verdict(self):
        def cons(b):
            if b:
                raise ValueError("no constructor for True")
            return b

        verdict = self.run_after_bad_input(gen_cons(cons, builtin(BaseType.BOOL)))
        assert verdict.kind == ERROR
        assert verdict.message.startswith("ValueError: no constructor for True")
        assert "while drawing input" in verdict.message

    def test_deep_input_is_keyed_and_tested(self):
        """An unmarked generator's inputs are keyed to skip duplicates; a
        3 000-deep chain is keyed on the explicit stack and tested like any
        other input."""
        assert sys.getrecursionlimit() == 1000
        deep = Zero()
        for _ in range(3000):
            deep = Succ(deep)
        spec = param_spec(Generator(one_of([Zero(), deep, Zero()])), lambda v: is_equal(v, v))
        verdict = run_suite([spec], RunConfig()).entries[0].verdict
        assert (verdict.kind, verdict.tests_executed) == (PASSED_EXHAUSTIVE, 2)

    def test_sys_exit_in_user_code_is_that_specs_error(self):
        def leave(*_):
            sys.exit(3)

        specs = [
            param_spec(list_of(builtin(BaseType.BOOL)), leave, name="bodyExits"),
            param_spec(gen_cons(leave, builtin(BaseType.BOOL)), lambda v: is_equal(v, v), name="genExits"),
            TestSpec(name="checkExits", module="M", line=2, kind=UNIT, prop=is_equal(defer(leave), 1)),
            TestSpec(name="genForExits", module="M", line=3, kind=POLY, gen_for=leave, body=leave),
            TestSpec(name="after", module="M", line=4, kind=UNIT, prop=is_equal(1, 1)),
        ]
        report = run_suite(specs, RunConfig())
        assert [(e.name, e.verdict.kind) for e in report.entries] == [
            ("bodyExits", ERROR), ("genExits", ERROR), ("checkExits", ERROR),
            ("genForExits", ERROR), ("after", PASSED),
        ]
        assert render_report(report).splitlines()[1] == " Error: SystemExit: 3 (input [])"
        assert [e.verdict.message for e in report.entries[1:4]] == [
            "SystemExit: 3 (while drawing input 1)",
            "SystemExit: 3",
            "SystemExit: 3 (while instantiating for base type ordering)",
        ]


class TestDeepInputRendering:
    """An input of any depth renders in full, on the main thread under the
    default recursion limit, whatever the verdict."""

    DEPTH = 3000
    SHOWN = "[" * (DEPTH + 1) + "]" * (DEPTH + 1)

    def verdict_for(self, body, **cfg):
        assert sys.getrecursionlimit() == 1000
        deep: list = []
        for _ in range(self.DEPTH):
            deep = [deep]
        # bfs draws [] first, then the deep list
        spec = param_spec(Generator(one_of([[], deep])), body)
        return run_suite([spec], RunConfig(strategy_kind="bfs", **cfg)).entries[0].verdict

    def test_falsified(self):
        verdict = self.verdict_for(lambda v: is_equal(len(v), 0))
        assert verdict.kind == FALSIFIED_V
        assert (verdict.tests_executed, verdict.case_index) == (2, 2)
        assert verdict.arguments == self.SHOWN
        assert verdict.results == "(1,0)"

    def test_body_error(self):
        def body(v):
            if v:
                raise ValueError("boom")
            return is_equal(1, 1)

        verdict = self.verdict_for(body)
        assert verdict.kind == ERROR
        assert verdict.tests_executed == 1
        assert verdict.message == f"ValueError: boom (input {self.SHOWN})"

    def test_inconclusive(self):
        def no_values():
            return choice(fail(), defer(no_values))

        verdict = self.verdict_for(
            lambda v: is_equal(defer(no_values) if v else 1, 1), node_budget=50
        )
        assert verdict.kind == ERROR
        assert verdict.tests_executed == 1
        assert verdict.message == (
            f"is_equal: left side undecided (node budget exceeded) (input {self.SHOWN})"
        )


class TestDeepResultRendering:
    """A falsification decided on values whose own str recurses past the
    recursion limit stays Falsified; the input and each result show a
    placeholder naming the RecursionError."""

    MODULE = "DeepRender"

    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        registry.clear(self.MODULE)
        yield
        registry.clear(self.MODULE)

    def test_falsified_on_values_whose_str_recurses(self):
        x = Zero()
        for _ in range(3000):
            x = Succ(x)
        registry.param_test(self.MODULE, "succNotSelf", gen_cons0(x),
                            lambda v: is_equal(v, Succ(v)))
        verdict = run_suite(registry.specs_for([self.MODULE]), RunConfig()).entries[0].verdict
        assert verdict.kind == FALSIFIED_V
        assert (verdict.tests_executed, verdict.case_index) == (1, 1)
        assert verdict.arguments == "<input not renderable: RecursionError>"
        assert verdict.results == (
            "(<value not renderable: RecursionError>,<value not renderable: RecursionError>)"
        )


class Unshowable:
    """A value whose __str__ and __repr__ raise."""

    def __str__(self):
        raise ValueError("no str")

    __repr__ = __str__


class UnshowableError(Exception):
    def __str__(self):
        raise ValueError("no str")


class ExitingError(Exception):
    def __str__(self):
        sys.exit(3)


def raise_unshowable(_):
    raise UnshowableError


def raise_exiting(_):
    raise ExitingError


class TestUnshowableValues:
    def test_a_value_that_cannot_be_shown_keeps_its_verdict(self):
        """An exception, an input or a result whose rendering raises is
        shown as a placeholder that names the rendering error's type; the
        verdict stands, and the run goes on."""
        one = Generator(value(1))
        specs = [
            param_spec(one, raise_unshowable, name="raises"),
            param_spec(one, raise_exiting, name="exits"),
            param_spec(Generator(value(Unshowable())), lambda _: is_equal(1, 2), name="input"),
            param_spec(one, lambda _: is_equal(Unshowable(), 2), name="result"),
            TestSpec(name="after", module="T", line=2, kind=UNIT, prop=is_equal(1, 1)),
        ]
        verdicts = [e.verdict for e in run_suite(specs, RunConfig()).entries]
        assert [(v.kind, v.message, v.arguments, v.results) for v in verdicts] == [
            (ERROR, "UnshowableError: <message not renderable: ValueError> (input 1)", None, None),
            (ERROR, "ExitingError: <message not renderable: SystemExit> (input 1)", None, None),
            (FALSIFIED_V, None, "<input not renderable: ValueError>", "(1,2)"),
            (FALSIFIED_V, None, "1", "(<value not renderable: ValueError>,2)"),
            (PASSED, None, None, None),
        ]


@pytest.fixture
def gc_state():
    """Give the test the collector to switch; restore it afterwards."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestGcPolicy:
    """run_suite pauses automatic cyclic GC while specs run, and hands the
    collector back as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_restored(self, gc_state, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        seen = []

        def body(b):
            seen.append(gc.isenabled())
            return is_equal(b, b)

        spec = param_spec(builtin(BaseType.BOOL), body)
        report = run_suite([spec], RunConfig())
        assert report.entries[0].verdict.kind == PASSED_EXHAUSTIVE
        assert seen == [False, False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_gc_state_restored_when_body_raises(self, gc_state, exc):
        def body(b):
            raise exc("body failed")

        gc.enable()
        spec = param_spec(builtin(BaseType.BOOL), body)
        if issubclass(exc, Exception):
            report = run_suite([spec], RunConfig())
            assert report.entries[0].verdict.kind == ERROR
        else:
            with pytest.raises(exc):
                run_suite([spec], RunConfig())
        assert gc.isenabled()

    def test_bundled_suites_leave_no_cyclic_garbage(self, gc_state):
        # the pause is safe only while runs make no reference cycles: no
        # collection, during the run or after it, may find garbage
        found = []

        def on_gc(phase, info):
            if phase == "stop":
                found.append(info["collected"])

        gc.disable()
        gc.collect()
        specs = registry.specs_for(["Trees", "Rev", "ConcDup", "SumUp", "BoolTest"])
        gc.callbacks.append(on_gc)
        try:
            run_suite(specs, RunConfig(max_tests=40))
            gc.collect()
        finally:
            gc.callbacks.remove(on_gc)
        assert found and sum(found) == 0


class TestExitCodes:
    def entry(self, kind, **kw):
        return TestEntry("t", "M", 1, Verdict(kind, **kw))

    def test_all_passing_kinds_exit_zero(self):
        report = TestReport(
            (
                self.entry(PASSED, tests_executed=100),
                self.entry(PASSED_EXHAUSTIVE, tests_executed=4),
                self.entry(SKIPPED_PROVED, proof_file="proof-t.agda"),
            )
        )
        assert report.exit_code == 0

    @pytest.mark.parametrize(
        "verdict",
        [
            Verdict(FALSIFIED_V, tests_executed=1, case_index=1),
            Verdict(EXHAUSTED_V, tests_executed=0),
            Verdict(ERROR, message="x"),
        ],
    )
    def test_any_failing_verdict_exits_one(self, verdict):
        report = TestReport(
            (
                TestEntry("ok", "M", 1, Verdict(PASSED, tests_executed=100)),
                TestEntry("bad", "M", 2, verdict),
            )
        )
        assert report.exit_code == 1

    def test_exit_code_depends_only_on_verdict_multiset(self):
        a = TestReport((self.entry(PASSED, tests_executed=1), self.entry(FALSIFIED_V, tests_executed=1, case_index=1)))
        b = TestReport((self.entry(FALSIFIED_V, tests_executed=1, case_index=1), self.entry(PASSED, tests_executed=1)))
        assert a.exit_code == b.exit_code == 1


class TestRendering:
    def test_passed_line(self):
        e = TestEntry("revLength_ON_BASETYPE", "Rev", 9, Verdict(PASSED, tests_executed=100))
        assert render_report(TestReport((e,))) == (
            "revLength_ON_BASETYPE (module Rev, line 9):\n OK, passed 100 tests."
        )

    def test_exhaustive_line(self):
        e = TestEntry("negOr", "BoolTest", 4, Verdict(PASSED_EXHAUSTIVE, tests_executed=4))
        assert render_report(TestReport((e,))) == (
            "negOr (module BoolTest, line 4):\n Passed all available tests: 4 tests."
        )

    def test_exhausted_line(self):
        e = TestEntry("revRevIsIdLong", "Rev", 13, Verdict(EXHAUSTED_V, tests_executed=0, tests_dropped=10_000))
        assert render_report(TestReport((e,))) == (
            "revRevIsIdLong (module Rev, line 13):\n Arguments exhausted after 0 test."
        )

    @pytest.mark.parametrize("n, line", [(1, "1 test."), (2, "2 tests."), (63, "63 tests.")])
    def test_exhausted_line_counts_tests(self, n, line):
        e = TestEntry("p", "M", 1, Verdict(EXHAUSTED_V, tests_executed=n, tests_dropped=10_000))
        assert render_report(TestReport((e,))) == f"p (module M, line 1):\n Arguments exhausted after {line}"

    def test_falsified_block(self):
        e = TestEntry(
            "concIsCommutative",
            "ConcDup",
            20,
            Verdict(
                FALSIFIED_V,
                tests_executed=8,
                case_index=8,
                arguments="[-1] [-3]",
                results="([-1,-3],[-3,-1])",
            ),
        )
        assert render_report(TestReport((e,))) == (
            "concIsCommutative (module ConcDup, line 20):\n"
            "Falsified by 8th test.\n"
            "Arguments: [-1] [-3]\n"
            "Results: ([-1,-3],[-3,-1])"
        )

    def test_line_omitted_when_unknown(self):
        e = TestEntry("t", "M", None, Verdict(PASSED, tests_executed=1))
        assert render_report(TestReport((e,))).startswith("t (module M):")

    @pytest.mark.parametrize(
        "n,word",
        [(1, "1st"), (2, "2nd"), (3, "3rd"), (4, "4th"), (11, "11th"), (12, "12th"),
         (13, "13th"), (21, "21st"), (22, "22nd"), (23, "23rd"), (101, "101st"), (111, "111th")],
    )
    def test_ordinals(self, n, word):
        e = TestEntry("t", "M", 1, Verdict(FALSIFIED_V, tests_executed=n, case_index=n))
        assert f"Falsified by {word} test." in render_report(TestReport((e,)))

    def test_json_lines_carry_all_fields(self):
        e = TestEntry(
            "t", "M", 7,
            Verdict(FALSIFIED_V, tests_executed=3, tests_dropped=1, case_index=3,
                    arguments="[1]", results="(a,b)"),
            labels=(("even", 2),),
        )
        rec = json.loads(render_report(TestReport((e,)), "json"))
        assert rec == {
            "name": "t", "module": "M", "line": 7, "verdict": "Falsified",
            "tests_executed": 3, "tests_dropped": 1, "case_index": 3,
            "arguments": "[1]", "results": "(a,b)", "labels": {"even": 2},
            "proof_file": None, "message": None,
        }

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(TestReport(()), "xml")

    def test_json_report_reproducible(self):
        spec = param_spec(builtin(BaseType.INT), lambda n: is_equal(n, n))
        cfg = RunConfig(max_tests=40, seed=5)
        a = render_report(run_suite([spec], cfg), "json")
        b = render_report(run_suite([spec], cfg), "json")
        assert a == b
