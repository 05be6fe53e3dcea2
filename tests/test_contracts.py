"""Contract synthesis and proof-file handling."""

import pytest

from ndcheck.contracts import ContractEntry, RegistrationError, synthesize
from ndcheck.gen import BaseType, Generator, builtin, list_of
from ndcheck.prop import DROPPED, FALSIFIED, SATISFIED, EvalContext, is_equal
from ndcheck.runner import (
    CONTRACT,
    PASSED,
    PASSED_EXHAUSTIVE,
    SKIPPED_PROVED,
    ConfigError,
    RunConfig,
    TestSpec,
    run_param,
    run_suite,
)
from ndcheck.searchtree import one_of

CTX = EvalContext()


def spec_sorted_perms(xs):
    import itertools

    perms = sorted({tuple(p) for p in itertools.permutations(xs)})
    return one_of([list(p) for p in perms if list(p) == sorted(p)])


def buggy_quicksort(xs):
    if not xs:
        return []
    pivot, rest = xs[0], xs[1:]
    return (
        buggy_quicksort([y for y in rest if y < pivot])
        + [pivot]
        + buggy_quicksort([y for y in rest if y > pivot])
    )


def insertion_sort(xs):
    out = []
    for x in xs:
        i = 0
        while i < len(out) and out[i] <= x:
            i += 1
        out.insert(i, x)
    return out


def sort_entry(impl, **kw):
    defaults = dict(
        name="sort",
        impl=impl,
        input_gen=list_of(builtin(BaseType.INT)),
        spec=spec_sorted_perms,
        post=lambda xs, ys: len(xs) == len(ys),
        module="SortCase",
        line=3,
    )
    defaults.update(kw)
    return ContractEntry(**defaults)


class TestSynthesize:
    def test_names_and_origin(self):
        specs = synthesize(sort_entry(buggy_quicksort, det=True))
        assert [s.name for s in specs] == [
            "sortSatisfiesSpecification",
            "sortSatisfiesPostCondition",
            "sortIsDeterministic",
        ]
        assert all(s.origin == CONTRACT for s in specs)
        assert all(s.module == "SortCase" and s.line == 3 for s in specs)

    def test_spec_property_falsified_on_duplicate_input(self):
        specs = synthesize(sort_entry(buggy_quicksort))
        spec_prop = specs[0]
        assert spec_prop.body([1, 1]).evaluate(CTX).status == FALSIFIED
        assert spec_prop.body([3, 1, 2]).evaluate(CTX).status == SATISFIED

    def test_post_property_falsified_on_duplicate_input(self):
        specs = synthesize(sort_entry(buggy_quicksort))
        post_prop = specs[1]
        assert post_prop.body([1, 1]).evaluate(CTX).status == FALSIFIED
        assert post_prop.body([2, 1]).evaluate(CTX).status == SATISFIED

    def test_correct_implementation_passes_over_generated_inputs(self):
        specs = synthesize(sort_entry(insertion_sort))
        cfg = RunConfig(max_tests=100)
        for spec in specs:
            verdict, _ = run_param(spec, cfg)
            assert verdict.kind == PASSED, (spec.name, verdict)

    def test_missing_precondition_admits_everything(self):
        entry = sort_entry(insertion_sort)
        out = synthesize(entry)[0].body([2, 1]).evaluate(CTX)
        assert out.status == SATISFIED

    def test_precondition_restricts_cases(self):
        entry = sort_entry(insertion_sort, pre=lambda xs: len(xs) >= 2)
        spec_prop = synthesize(entry)[0]
        assert spec_prop.body([]).evaluate(CTX).status == DROPPED
        assert spec_prop.body([2, 1]).evaluate(CTX).status == SATISFIED

    def test_determinism_property_counts_distinct_values(self):
        def flaky(x):
            return one_of([x, x + 1])

        entry = ContractEntry(
            name="flaky",
            impl=flaky,
            input_gen=builtin(BaseType.INT),
            det=True,
        )
        det_prop = synthesize(entry)[0]
        assert det_prop.name == "flakyIsDeterministic"
        assert det_prop.body(5).evaluate(CTX).status == FALSIFIED

    def test_entry_without_any_contract_is_rejected(self):
        with pytest.raises(RegistrationError):
            ContractEntry(name="noop", impl=lambda x: x, input_gen=builtin(BaseType.INT))

    def test_pre_only_entry_is_legal_but_synthesizes_nothing(self):
        entry = ContractEntry(
            name="guarded",
            impl=lambda x: x,
            input_gen=builtin(BaseType.INT),
            pre=lambda x: x > 0,
        )
        assert synthesize(entry) == []


def param_spec(name, module="Sort"):
    return TestSpec(
        name=name, module=module, kind="param", input_gen=Generator(one_of([1])), body=lambda x: is_equal(x, x)
    )


def verdicts(specs, proof_dir):
    """name -> (verdict kind, proof file) of each entry of a run."""
    report = run_suite(specs, RunConfig(proof_dir=proof_dir))
    return {e.name: (e.verdict.kind, e.verdict.proof_file) for e in report.entries}


class TestProofScanning:
    def test_plain_proof_file(self, tmp_path):
        (tmp_path / "proof-sortlength.agda").write_text("qed")
        assert verdicts([param_spec("sortlength")], tmp_path) == {
            "sortlength": (SKIPPED_PROVED, "proof-sortlength.agda"),
        }

    def test_normalization_is_case_and_separator_insensitive(self, tmp_path):
        (tmp_path / "PROOF-Sort_Length.txt").write_text("qed")
        names = ["sortlength", "sort-length", "SortLength"]
        skipped = (SKIPPED_PROVED, "PROOF-Sort_Length.txt")
        assert verdicts([param_spec(n) for n in names], tmp_path) == {n: skipped for n in names}

    def test_empty_directory_proves_nothing(self, tmp_path):
        assert verdicts([param_spec("anything")], tmp_path) == {"anything": (PASSED_EXHAUSTIVE, None)}

    def test_non_proof_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("x")
        (tmp_path / "proofsketch.md").write_text("x")
        names = ["notes", "proofsketch", "sketch"]
        assert verdicts([param_spec(n) for n in names], tmp_path) == {
            n: (PASSED_EXHAUSTIVE, None) for n in names
        }

    def test_any_extension_accepted(self, tmp_path):
        (tmp_path / "proof-revLength.smt2").write_text("x")
        assert verdicts([param_spec("revLength")], tmp_path) == {
            "revLength": (SKIPPED_PROVED, "proof-revLength.smt2"),
        }

    def test_unreadable_directory_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            run_suite([param_spec("sortlength")], RunConfig(proof_dir=tmp_path / "does-not-exist"))


class TestApplyProofs:
    def _specs(self):
        return [param_spec("sortlength"), param_spec("revLength", module="Rev")]

    def test_marks_only_proved_specs(self, tmp_path):
        (tmp_path / "proof-sortlength.agda").write_text("qed")
        assert verdicts(self._specs(), tmp_path) == {
            "sortlength": (SKIPPED_PROVED, "proof-sortlength.agda"),
            "revLength": (PASSED_EXHAUSTIVE, None),
        }

    def test_empty_index_is_identity(self, tmp_path):
        specs = self._specs()
        assert run_suite(specs, RunConfig(proof_dir=tmp_path)) == run_suite(specs, RunConfig())

    def test_determinism_proof_skips_the_synthesized_property(self, tmp_path):
        (tmp_path / "proof-isSetIsDeterministic.agda").write_text("qed")
        entry = ContractEntry(
            name="isSet",
            impl=lambda xs: one_of([True]),
            input_gen=list_of(builtin(BaseType.ORDERING)),
            det=True,
        )
        assert verdicts(synthesize(entry), tmp_path) == {
            "isSetIsDeterministic": (SKIPPED_PROVED, "proof-isSetIsDeterministic.agda"),
        }
