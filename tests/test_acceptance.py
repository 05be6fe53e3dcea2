"""Acceptance criteria for the whole artifact.

Each test exercises one criterion end to end at its stated tolerance and
prints a PASS line when it holds (run with -s to see them).  Suites come
from the bundled registry under the default configuration unless the
criterion says otherwise.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ndcheck import registry
from ndcheck.corpus.isset import is_set
from ndcheck.corpus.perm import perm
from ndcheck.corpus.sort import quicksort
from ndcheck.gen import BaseType, builtin, list_of
from ndcheck.prop import FALSIFIED, EvalContext
from ndcheck.runner import (
    PARAM,
    RunConfig,
    TestSpec,
    render_report,
    run_suite,
)
from ndcheck.prop import is_equal
from ndcheck.searchtree import Strategy, enumerate_tree
from ndcheck.values import canonical

CFG = RunConfig()


def ok(n, text):
    print(f"ACCEPTANCE {n:>2}: PASS - {text}")


def eval_context(cfg: RunConfig) -> EvalContext:
    return EvalContext(
        strategy=cfg.strategy,
        value_budget=cfg.value_budget,
        for_all_limit=cfg.max_tests,
    )


@pytest.fixture(scope="module")
def rev_report():
    return run_suite(registry.specs_for(["Rev"]), CFG)


@pytest.fixture(scope="module")
def concdup_report():
    return run_suite(registry.specs_for(["ConcDup"]), CFG)


@pytest.fixture(scope="module")
def perm_report():
    return run_suite(registry.specs_for(["Perm"]), CFG)


@pytest.fixture(scope="module")
def sort_report():
    return run_suite(registry.specs_for(["Sort"]), CFG)


def test_01_exhaustive_proof_on_finite_domain():
    start = time.perf_counter()
    report = run_suite(registry.specs_for(["BoolTest"]), CFG)
    elapsed = time.perf_counter() - start
    entry = report.entry("negOr")
    assert entry.verdict.kind == "PassedExhaustive"
    assert entry.verdict.tests_executed == 4
    assert elapsed < 1.0
    ok(1, f"negOr proved exhaustively with exactly 4 tests in {elapsed:.3f}s")


def test_02_default_type_specialization_transcript(rev_report):
    for name in ("revLength_ON_BASETYPE", "revRevIsId_ON_BASETYPE"):
        entry = rev_report.entry(name)
        assert entry.verdict.kind == "Passed"
        assert entry.verdict.tests_executed == 100
    text = render_report(rev_report)
    assert (
        "revLength_ON_BASETYPE (module Rev, line 9):\n OK, passed 100 tests.\n"
        "revRevIsId_ON_BASETYPE (module Rev, line 10):\n OK, passed 100 tests."
    ) in text
    ok(2, "both Rev properties pass 100 tests under the _ON_BASETYPE name, bit-exact text")


def test_03_conditional_exhaustion(rev_report):
    entry = rev_report.entry("revRevIsIdLong")
    assert entry.verdict.kind == "Exhausted"
    assert entry.verdict.tests_executed == 0
    assert entry.verdict.tests_dropped == 10_000
    assert "\n Arguments exhausted after 0 test." in render_report(rev_report)
    ok(3, "revRevIsIdLong exhausts after exactly 10000 drops and 0 tests")


def test_04_falsification_with_valid_evidence(concdup_report):
    entry = concdup_report.entry("concIsCommutative")
    assert entry.verdict.kind == "Falsified"
    assert entry.verdict.case_index is not None and entry.verdict.case_index <= 100
    xs, ys = entry.verdict.counterexample
    assert xs + ys != ys + xs  # the reported arguments really do falsify
    spec = next(
        s for s in registry.specs_for(["ConcDup"]) if s.name == "concIsCommutative"
    )
    again = spec.body(xs, ys).evaluate(eval_context(CFG))
    assert again.status == FALSIFIED
    ok(4, f"concIsCommutative falsified by case {entry.verdict.case_index}; evidence re-falsifies")


def test_05_contract_falsification(sort_report):
    for name in ("sortSatisfiesSpecification", "sortSatisfiesPostCondition"):
        entry = sort_report.entry(name)
        assert entry.verdict.kind == "Falsified", name
        xs = entry.verdict.counterexample
        assert len(set(canonical(x) for x in xs)) < len(xs), "counterexample lacks a duplicate"
    assert quicksort([1, 1]) == [1]
    again = run_suite(registry.specs_for(["Sort"]), CFG)
    assert render_report(again, "json") == render_report(sort_report, "json")
    ok(5, "both sort contract properties falsified on duplicate-bearing lists, deterministically")


def test_06_determinism_checking():
    report = run_suite(registry.specs_for(["IsSet"]), CFG)
    entry = report.entry("isSetIsDeterministic")
    assert entry.verdict.kind == "Passed"
    assert entry.verdict.tests_executed == 100
    e = enumerate_tree(is_set([1, 3, 1, 3, 1]), CFG.strategy)
    values = list(e)
    assert e.exhausted
    assert {canonical(v) for v in values} == {canonical(False)}
    ok(6, "isSetIsDeterministic passes 100 tests; isSet([1,3,1,3,1]) has the single value False")


def test_07_set_semantics(concdup_report, perm_report):
    entry = concdup_report.entry("someDup12")
    assert entry.verdict.kind == "Passed"
    entry = perm_report.entry("permLength_ON_BASETYPE")
    assert entry.verdict.kind == "Passed"
    assert entry.verdict.tests_executed == 100
    ok(7, "someDup12 and permLength satisfied: multisets collapse to sets")


def test_08_counting_oracle(perm_report):
    universe = [0, 1, 2, 3]
    checked = 0
    for n in range(5):
        for xs in itertools.permutations(universe, n):
            xs = list(xs)
            e = enumerate_tree(perm(xs), Strategy("level_diag"))
            distinct = {canonical(v) for v in e}
            assert e.exhausted
            assert len(distinct) == math.factorial(len(xs)), xs
            checked += 1
    entry = perm_report.entry("permCount")
    assert entry.verdict.kind == "Passed"
    assert entry.verdict.tests_executed == 100
    assert entry.verdict.tests_dropped < CFG.drop_limit
    ok(8, f"perm counts match |xs|! on {checked} distinct-element lists; permCount passes")


def test_09_proof_skipping(sort_report, tmp_path):
    (tmp_path / "proof-sortlength.agda").write_text("believed verified")
    with_proof = run_suite(
        registry.specs_for(["Sort"]),
        RunConfig(proof_dir=tmp_path),
    )
    skipped = with_proof.entry("sortlength")
    assert skipped.verdict.kind == "SkippedProved"
    assert skipped.verdict.proof_file == "proof-sortlength.agda"
    assert sort_report.entry("sortlength").verdict.kind != "SkippedProved"
    before = [e for e in sort_report.entries if e.name != "sortlength"]
    after = [e for e in with_proof.entries if e.name != "sortlength"]
    assert before == after  # exact diff: nothing else moved
    ok(9, "proof-sortlength.agda skips exactly that property and changes nothing else")


def test_10_enumeration_invariants():
    from ndcheck.searchtree import take_values

    raw = take_values(list_of(builtin(BaseType.BOOL)).tree, CFG.strategy, 1000)
    keys = [canonical(v) for v in raw]
    assert len(set(keys)) == len(keys), "raw enumeration repeated a value"
    short = {k for v, k in zip(raw, keys) if len(v) <= 3}
    want = {
        canonical(list(bits))
        for n in range(4)
        for bits in itertools.product([False, True], repeat=n)
    }
    assert want <= set(keys) and len(want) == 15
    for bt, size in ((BaseType.BOOL, 2), (BaseType.ORDERING, 3)):
        e = enumerate_tree(builtin(bt).tree, CFG.strategy)
        assert len(list(e)) == size and e.exhausted
    ok(10, "bool lists enumerate duplicate-free with all 15 short lists; Bool/Ordering exhaust at 2/3")


def test_11_performance_sanity():
    spec = TestSpec(
        name="trivial",
        module="Perf",
        line=1,
        kind=PARAM,
        input_gen=list_of(builtin(BaseType.INT)),
        body=lambda xs: is_equal(xs, xs),
    )
    cfg = RunConfig(max_tests=10_000)
    start = time.perf_counter()
    report = run_suite([spec], cfg)
    elapsed = time.perf_counter() - start
    assert report.entries[0].verdict.kind == "Passed"
    assert report.entries[0].verdict.tests_executed == 10_000
    assert elapsed < 5.0
    ok(11, f"10000 tests over integer lists in {elapsed:.2f}s (< 5s)")


def test_12_reproducibility():
    cfg = RunConfig(seed=424_242)
    selection = registry.specs_for(
        ["ConcDup", "Perm", "BoolTest", "SumUp", "Trees", "Sort", "IsSet", "IOTests"]
    )
    first = render_report(run_suite(selection, cfg), "json")
    second = render_report(run_suite(selection, cfg), "json")
    assert first == second
    assert first.encode() == second.encode()
    for line in first.splitlines():
        json.loads(line)
    ok(12, "two identically configured runs render byte-identical JSON reports")


REPRODUCIBILITY_SUITES = ["ConcDup", "Perm", "BoolTest", "SumUp", "Trees", "Sort", "IsSet", "IOTests"]


def test_12_reproducibility_on_fresh_trees():
    """A rerun in one process replays the walks of the first run; a run in a
    fresh process builds and walks every tree anew, and renders the same."""
    cfg = RunConfig(seed=424_242)
    here = render_report(run_suite(registry.specs_for(REPRODUCIBILITY_SUITES), cfg), "json")
    code = (
        "import ndcheck.corpus\n"
        "from ndcheck import registry\n"
        "from ndcheck.runner import RunConfig, render_report, run_suite\n"
        f"specs = registry.specs_for({REPRODUCIBILITY_SUITES!r})\n"
        "print(render_report(run_suite(specs, RunConfig(seed=424_242)), 'json'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    fresh = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    ).stdout
    assert fresh == here + "\n"
    ok(12, "a run in a fresh process renders the JSON report of a rerun")
