"""Command-line behavior: selection, flags, exit codes, output formats."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ndcheck.cli import build_parser, config_from_options, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSelection:
    def test_single_clean_suite_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "BoolTest")
        assert code == 0
        assert "negOr (module BoolTest, line 4):" in out
        assert " Passed all available tests: 4 tests." in out

    def test_rev_suite_prints_both_ok_lines(self, capsys):
        code, out, _ = run_cli(capsys, "Rev")
        assert "revLength_ON_BASETYPE (module Rev, line 9):\n OK, passed 100 tests." in out
        assert "revRevIsId_ON_BASETYPE (module Rev, line 10):\n OK, passed 100 tests." in out
        # the long-list guard exhausts its drop budget, which fails the suite
        assert code == 1

    def test_multiple_suites_run_in_order(self, capsys):
        _, out, _ = run_cli(capsys, "BoolTest", "IsSet")
        assert out.index("negOr") < out.index("isSetIsDeterministic")

    def test_suite_named_twice_runs_once(self, capsys):
        once = run_cli(capsys, "Rev", "--maxtests", "5")
        assert run_cli(capsys, "Rev", "Rev", "--maxtests", "5") == once

    def test_unknown_suite_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "NoSuchModule")
        assert code == 2
        assert "NoSuchModule" in err

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--bogus"])
        assert exc.value.code == 2


class TestFlags:
    def test_deptype_int_switches_instantiation(self, capsys):
        code, out, _ = run_cli(capsys, "--deftype=int", "--maxtests=30", "Trees")
        assert code == 0
        assert "doubleMirrorIsId_ON_BASETYPE" in out
        assert " OK, passed 30 tests." in out

    def test_maxtests_controls_pass_count(self, capsys):
        _, out, _ = run_cli(capsys, "--maxtests=17", "IsSet")
        assert " OK, passed 17 tests." in out

    def test_json_format_emits_one_record_per_test(self, capsys):
        code, out, _ = run_cli(capsys, "--format=json", "BoolTest")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 1
        assert records[0]["name"] == "negOr"
        assert records[0]["verdict"] == "PassedExhaustive"
        assert records[0]["tests_executed"] == 4

    def test_strategy_flag_round_trip(self):
        parser = build_parser()
        for token, kind in [("bfs", "bfs"), ("diag", "level_diag"), ("rdiag", "rand_level_diag")]:
            cfg = config_from_options(parser.parse_args(["--strategy", token]))
            assert cfg.strategy_kind == kind
            assert cfg.strategy.kind == kind

    def test_options_map_to_config_without_loss(self):
        parser = build_parser()
        opts = parser.parse_args(
            ["--maxtests=7", "--droplimit=9", "--deftype=char", "--strategy=bfs",
             "--seed=42", "--budget=555", "--proofdir=/tmp/p", "Rev", "Perm"]
        )
        cfg = config_from_options(opts)
        assert cfg.max_tests == 7
        assert cfg.drop_limit == 9
        assert cfg.default_base_type.value == "char"
        assert cfg.strategy_kind == "bfs"
        assert cfg.seed == 42
        assert cfg.node_budget == 555
        assert cfg.proof_dir == "/tmp/p"

    @pytest.mark.parametrize("strategy", ["bfs", "diag", "rdiag"])
    def test_every_strategy_runs_the_finite_suite(self, capsys, strategy):
        code, out, _ = run_cli(capsys, f"--strategy={strategy}", "BoolTest")
        assert code == 0
        assert " Passed all available tests: 4 tests." in out

    def test_seed_env_fallback(self, monkeypatch):
        parser = build_parser()
        monkeypatch.setenv("NDCHECK_SEED", "77")
        cfg = config_from_options(parser.parse_args([]))
        assert cfg.seed == 77
        cfg = config_from_options(parser.parse_args(["--seed=5"]))
        assert cfg.seed == 5

    def test_non_integer_seed_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NDCHECK_SEED", "abc")
        code, out, err = run_cli(capsys, "BoolTest")
        assert code == 2
        assert out == ""
        assert err == "ndcheck: NDCHECK_SEED must be an integer, not 'abc'\n"
        assert run_cli(capsys, "--seed=3", "BoolTest")[0] == 0  # the flag wins

    def test_bad_maxtests_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "--maxtests=0", "BoolTest")
        assert code == 2
        assert "max_tests" in err

    def test_bad_budget_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "--budget=0", "BoolTest")
        assert code == 2
        assert "node budget must be positive" in err


class TestListOnly:
    def test_lists_names_and_kinds_without_running(self, capsys):
        code, out, _ = run_cli(capsys, "--list", "Rev")
        assert code == 0
        assert "Rev revLength (line 9, poly, user)" in out
        assert "Rev revRevIsIdLong (line 13, param, user)" in out
        assert "passed" not in out

    def test_contract_suite_lists_synthesized_origin(self, capsys):
        _, out, _ = run_cli(capsys, "--list", "Sort")
        assert "Sort sortSatisfiesSpecification (line 7, param, synthesized)" in out
        assert "Sort sortSatisfiesPostCondition (line 7, param, synthesized)" in out

    def test_empty_selection_lists_everything(self, capsys):
        _, out, _ = run_cli(capsys, "--list")
        for suite in ("ConcDup", "Perm", "Rev", "BoolTest", "SumUp", "Trees", "Sort", "IsSet", "IOTests"):
            assert suite in out


class TestProofDir:
    def test_proofdir_skips_property(self, capsys, tmp_path):
        (tmp_path / "proof-sortlength.agda").write_text("qed")
        code, out, _ = run_cli(capsys, f"--proofdir={tmp_path}", "Sort")
        assert "sortlength (module Sort, line 16):\n Skipped: proved by proof-sortlength.agda." in out
        assert code == 1  # the contract failures remain

    def test_missing_proofdir_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, f"--proofdir={tmp_path}/nope", "Sort")
        assert code == 2
        assert "proof directory" in err

    def test_unreadable_proofdir_is_usage_error(self, capsys, unreadable_dir):
        code, out, err = run_cli(capsys, f"--proofdir={unreadable_dir}", "Sort")
        assert code == 2
        assert out == ""
        assert err == (f"ndcheck: proof directory not readable: {unreadable_dir} "
                       f"([Errno 13] Permission denied: '{unreadable_dir}')\n")


# sha256 of the report printed by
#   ndcheck Trees Rev ConcDup SumUp BoolTest --maxtests 40 --seed S --format F
# as first recorded; a change that alters any verdict, count, rendered input
# or byte of layout changes it.
PINNED_REPORTS = {
    ("0", "json"): "e15c24c6f3534bf8731c588c92ae5686d6a0ff4bcaf4d5dc96c67ae985d44cec",
    ("0", "text"): "fdf8cb14f3ffc875a49f9713505a73b8c540389e44e7bc3caa6b7b0d514bb029",
    ("1", "json"): "52f6452f2b89d0b3dae2b643bf4b7c9d53af8d7a81961f03403b4bb36c950f85",
    ("1", "text"): "db7fca9105314714c0c78aec6a38e4c8cba712a7d6adf7776b084231e501b788",
}


@pytest.mark.parametrize("seed, fmt", sorted(PINNED_REPORTS))
def test_report_matches_pinned_digest(capsys, seed, fmt):
    argv = ["Trees", "Rev", "ConcDup", "SumUp", "BoolTest", "--maxtests", "40"]
    code, out, _ = run_cli(capsys, *argv, "--seed", seed, "--format", fmt)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[seed, fmt]


# sha256 of the report printed by
#   ndcheck Perm Sort IsSet IOTests --maxtests 40 --seed S --format F
# as first recorded; covers eventually (Perm), always (Sort's postcondition
# contracts), value_count_less (IsSet) and the effectful unit tests.
PINNED_REPORTS_REST = {
    ("0", "json"): "9d2d76fabf235adadf8e22c670b1b9334cd2307adec018b84bd7ac09e38247eb",
    ("0", "text"): "7c0066550b45f5aaff69e83d73457b11c4169e1d1df119c0b8fbab9726a8e27d",
    ("1", "json"): "f20a1f55e546a848451b66c562b391ea03010c932d2873ac32520604911e66fc",
    ("1", "text"): "7157cf6e72c12363d9f32ecb87b46187d18badf51fdc23749b4f3b32c8d360e4",
}


@pytest.mark.parametrize("seed, fmt", sorted(PINNED_REPORTS_REST))
def test_rest_of_corpus_matches_pinned_digest(capsys, seed, fmt):
    argv = ["Perm", "Sort", "IsSet", "IOTests", "--maxtests", "40"]
    code, out, _ = run_cli(capsys, *argv, "--seed", seed, "--format", fmt)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS_REST[seed, fmt]


# sha256 of the same two reports under the other strategies,
#   ndcheck <selection> --maxtests 40 --strategy K --seed S --format F
# keyed by the selection's first suite, with the exit code, as first recorded.
SELECTIONS = {
    "Trees": ["Trees", "Rev", "ConcDup", "SumUp", "BoolTest"],
    "Perm": ["Perm", "Sort", "IsSet", "IOTests"],
}
PINNED_REPORTS_BY_STRATEGY = {
    ("Trees", "diag", "0", "json"): (0, "cacd8cc8187c61c2281a743f5d991f29ee016f2a314e0fe0f1b23b4c2f3257f2"),
    ("Trees", "diag", "0", "text"): (0, "11dc595d5a2ef230d57c02b9518ccf3375b42ef21c5629565ba4075beacfcfd7"),
    ("Trees", "diag", "1", "json"): (0, "cacd8cc8187c61c2281a743f5d991f29ee016f2a314e0fe0f1b23b4c2f3257f2"),
    ("Trees", "diag", "1", "text"): (0, "11dc595d5a2ef230d57c02b9518ccf3375b42ef21c5629565ba4075beacfcfd7"),
    ("Trees", "bfs", "0", "json"): (1, "0b2c09895e4acde3ef7ca7dcc1b3c303f52d19794cfc4d9a7f5a0cdd82ec675b"),
    ("Trees", "bfs", "0", "text"): (1, "f22b9063fd11205627b067517afd35f1000cbc6e3fe2277693207cbb8669de1b"),
    ("Trees", "bfs", "1", "json"): (1, "0b2c09895e4acde3ef7ca7dcc1b3c303f52d19794cfc4d9a7f5a0cdd82ec675b"),
    ("Trees", "bfs", "1", "text"): (1, "f22b9063fd11205627b067517afd35f1000cbc6e3fe2277693207cbb8669de1b"),
    ("Perm", "diag", "0", "json"): (1, "dd4536ef1a7b8947eb4b0088b0b293d73ab00e565b88660ad6486e62b0f43fe3"),
    ("Perm", "diag", "0", "text"): (1, "88e60cbbec9016f0dfd26c71ad28fce5948fccc2a8e3465a8aa8e639719fb616"),
    ("Perm", "diag", "1", "json"): (1, "dd4536ef1a7b8947eb4b0088b0b293d73ab00e565b88660ad6486e62b0f43fe3"),
    ("Perm", "diag", "1", "text"): (1, "88e60cbbec9016f0dfd26c71ad28fce5948fccc2a8e3465a8aa8e639719fb616"),
    ("Perm", "bfs", "0", "json"): (1, "dc14eb9a7db24f5d561f3318523b805881d4cfd9c04b34a50be70a704faa333c"),
    ("Perm", "bfs", "0", "text"): (1, "88e60cbbec9016f0dfd26c71ad28fce5948fccc2a8e3465a8aa8e639719fb616"),
    ("Perm", "bfs", "1", "json"): (1, "dc14eb9a7db24f5d561f3318523b805881d4cfd9c04b34a50be70a704faa333c"),
    ("Perm", "bfs", "1", "text"): (1, "88e60cbbec9016f0dfd26c71ad28fce5948fccc2a8e3465a8aa8e639719fb616"),
}


@pytest.mark.parametrize("first, strategy, seed, fmt", sorted(PINNED_REPORTS_BY_STRATEGY))
def test_other_strategies_match_pinned_digest(capsys, first, strategy, seed, fmt):
    argv = SELECTIONS[first] + ["--maxtests", "40", "--strategy", strategy]
    code, out, _ = run_cli(capsys, *argv, "--seed", seed, "--format", fmt)
    want_code, want_digest = PINNED_REPORTS_BY_STRATEGY[first, strategy, seed, fmt]
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest


# sha256 of the whole-corpus report at default flags printed by
#   ndcheck --strategy K --seed 0 --format F
# as first recorded.  Default flags are where node budgets cut the walks;
# bfs and diag draw no random bits, so one seed covers them.
PINNED_DEFAULT_FLAG_REPORTS = {
    ("bfs", "json"): "1df7ee1d77054e3dd4548a54a7aa1edf6f94ba1e17c63bfe2aacdbd1423b0a60",
    ("bfs", "text"): "02d1078f22c825ad2ba4197d418d8e35d125d54557ed4b82041ab99270a9dca3",
    ("diag", "json"): "8e8490450d435f8aaf418f06ec4950b6b441cea6fe9e12ca5aed3e8783d08824",
    ("diag", "text"): "ae6bd917980e2110bfcf33b0bd4d98e4c31aed247c9c6783ae7ab72d1d1697ed",
}


@pytest.mark.parametrize("strategy, fmt", sorted(PINNED_DEFAULT_FLAG_REPORTS))
def test_default_flag_corpus_matches_pinned_digest(capsys, strategy, fmt):
    code, out, _ = run_cli(capsys, "--strategy", strategy, "--seed", "0", "--format", fmt)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DEFAULT_FLAG_REPORTS[strategy, fmt]


# sha256 of the report printed by
#   ndcheck Rev Sort Perm Trees ConcDup --maxtests 40 --seed 0 --deftype T --format F
# for the base types other than the default, as first recorded.  Every
# polymorphic property there passes 40 tests under each type, so the three
# types print the same report; the digest still pins names, counts and order.
PINNED_REPORTS_BY_BASE_TYPE = {
    ("bool", "json"): "d107bc180824dbace207004fc3833cb66483a8abab417368e5884296bf169837",
    ("bool", "text"): "86d982737d49be15c389146f95729c333d928c867efc67d38829cb304c342203",
    ("char", "json"): "d107bc180824dbace207004fc3833cb66483a8abab417368e5884296bf169837",
    ("char", "text"): "86d982737d49be15c389146f95729c333d928c867efc67d38829cb304c342203",
    ("int", "json"): "d107bc180824dbace207004fc3833cb66483a8abab417368e5884296bf169837",
    ("int", "text"): "86d982737d49be15c389146f95729c333d928c867efc67d38829cb304c342203",
}


@pytest.mark.parametrize("deftype, fmt", sorted(PINNED_REPORTS_BY_BASE_TYPE))
def test_other_base_types_match_pinned_digest(capsys, deftype, fmt):
    argv = ["Rev", "Sort", "Perm", "Trees", "ConcDup", "--maxtests", "40", "--seed", "0"]
    code, out, _ = run_cli(capsys, *argv, "--deftype", deftype, "--format", fmt)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS_BY_BASE_TYPE[deftype, fmt]


# sha256 of the report printed by
#   ndcheck Trees --maxtests 500 --strategy K --seed 0 --format F
# as recorded while the runner still keyed every Trees input.  Trees inputs
# are now drawn unkeyed, since gen_tree's distinct mark is derived; the
# report is the same under every strategy, as both properties pass.
PINNED_TREES_500 = {
    "json": "27d2e58752d03ff0d590cef56b568f2f6134876a3548f97db7c5e4c28ae23426",
    "text": "6569d3ed444b6a11fb119a7753ebdc27b5e896473e33bcc59e756c80103a5005",
}


@pytest.mark.parametrize("fmt", sorted(PINNED_TREES_500))
@pytest.mark.parametrize("strategy", ["bfs", "diag", "rdiag"])
def test_trees_at_benchmark_size_matches_pinned_digest(capsys, strategy, fmt):
    argv = ["Trees", "--maxtests", "500", "--strategy", strategy, "--seed", "0"]
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TREES_500[fmt]


# sha256 of the full `ndcheck --list` output, as first recorded.
PINNED_LIST = "8aebcb607250b30066d287d6955188f82fe25fd9a73511445570c50e5bfadadf"


def test_list_matches_pinned_digest(capsys):
    code, out, _ = run_cli(capsys, "--list")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_LIST


# Proof files for six properties of the corpus, in the spellings a proof
# may use: exact, other case, '_' and '-' inside the name.  permLength is a
# polymorphic property, proved under its registered name.
PROOF_FILES = [
    "proof-concIsCommutative.txt",
    "proof-sortSatisfiesSpecification.txt",
    "proof-sort_satisfies_post-condition.txt",
    "proof-SortLength.txt",
    "proof-revRevIsIdLong.txt",
    "proof-permLength.txt",
]

# sha256 of the whole-corpus report printed by
#   ndcheck --maxtests 40 --seed 0 --proofdir D
# with D holding PROOF_FILES, as first recorded.
PINNED_PROVED_REPORT = "38a419568792dbdb653aa9afafb58f9afd3fd92db15dbe47ec42a568630aaf26"


class TestProvedCorpus:
    def _run(self, capsys, tmp_path, files):
        for f in files:
            (tmp_path / f).write_text("qed")
        return run_cli(capsys, "--maxtests", "40", "--seed", "0", "--proofdir", str(tmp_path))

    def test_report_matches_pinned_digest(self, capsys, tmp_path):
        code, out, err = self._run(capsys, tmp_path, PROOF_FILES)
        assert code == 0
        assert err == ""  # every proof file is used
        assert out.count(" Skipped: proved by ") == len(PROOF_FILES)
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_PROVED_REPORT
        # a polymorphic property is skipped under its registered name
        assert "permLength (module Perm, line 8):\n Skipped: proved by proof-permLength.txt." in out
        assert "permLength_ON_BASETYPE" not in out

    def test_instantiated_name_proves_nothing(self, capsys, tmp_path):
        _, out, _ = self._run(capsys, tmp_path, ["proof-permLength_ON_BASETYPE.txt"])
        assert "Skipped" not in out
        assert "permLength_ON_BASETYPE (module Perm, line 8):\n OK, passed 40 tests." in out

    def test_unused_proof_file_is_named_on_stderr(self, capsys, tmp_path):
        plain = run_cli(capsys, "--maxtests", "40", "--seed", "0")
        code, out, err = self._run(capsys, tmp_path, ["proof-permLength_ON_BASETYPE.txt"])
        assert (code, out) == plain[:2]
        assert err == "ndcheck: proof file proof-permLength_ON_BASETYPE.txt matches no test\n"

    def test_second_file_for_a_taken_name_is_named_on_stderr(self, capsys, tmp_path):
        """Two files whose names normalize alike: the first in sorted order
        proves the test, and the other is named as unused."""
        argv = ("Sort", "--maxtests", "5", "--seed", "0", "--proofdir", str(tmp_path))
        (tmp_path / "proof-SortLength.txt").write_text("qed")
        one = run_cli(capsys, *argv)
        (tmp_path / "proof-sort_length.txt").write_text("qed")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, one[2]) == (*one[:2], "")
        assert " Skipped: proved by proof-SortLength.txt." in out
        assert err == "ndcheck: proof file proof-sort_length.txt matches no test\n"


class TestModuleInvocation:
    """`python -m ndcheck.cli` runs the same front end as the console script."""

    def run_module(self, *argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-m", "ndcheck.cli", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_runs_a_suite_and_exits_zero(self):
        proc = self.run_module("BoolTest")
        assert proc.returncode == 0
        assert "negOr (module BoolTest, line 4):\n Passed all available tests: 4 tests." in proc.stdout

    def test_unknown_suite_exits_two(self):
        proc = self.run_module("NoSuchModule")
        assert proc.returncode == 2
        assert "NoSuchModule" in proc.stderr
