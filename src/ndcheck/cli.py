"""Command-line front end: select suites, run them, print the report.

Exit code 0 means every test passed (or was skipped via a proof), 1 means
some test failed or errored, 2 means the invocation itself was wrong.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import corpus  # noqa: F401  (importing registers the bundled suites)
from . import registry
from .gen import BaseType
from .runner import CONTRACT, ConfigError, RunConfig, TestSpec, render_report, run_suite
from .searchtree import DEFAULT_NODE_BUDGET

_STRATEGIES = {"bfs": "bfs", "diag": "level_diag", "rdiag": "rand_level_diag"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndcheck",
        description="Run property suites with systematic test-data enumeration.",
    )
    parser.add_argument("modules", nargs="*", help="suite names (default: all registered)")
    parser.add_argument("--maxtests", type=int, default=100, help="tests per property (default 100)")
    parser.add_argument(
        "--droplimit", type=int, default=10_000,
        help="max rejected inputs per conditional property (default 10000)",
    )
    parser.add_argument(
        "--deftype", choices=[bt.value for bt in BaseType], default="ordering",
        help="base type for polymorphic properties (default ordering)",
    )
    parser.add_argument(
        "--strategy", choices=sorted(_STRATEGIES), default="rdiag",
        help="enumeration strategy (default rdiag)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="PRNG seed (default: NDCHECK_SEED or 0)")
    parser.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                        help="tree-node budget per enumeration")
    parser.add_argument("--proofdir", default=None, help="directory with proof-<name>.* files")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="report format (default text)")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list selected tests without running them")
    return parser


def config_from_options(opts: argparse.Namespace) -> RunConfig:
    seed = opts.seed
    if seed is None:
        raw = os.environ.get("NDCHECK_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"NDCHECK_SEED must be an integer, not {raw!r}") from None
    return RunConfig(
        max_tests=opts.maxtests,
        drop_limit=opts.droplimit,
        default_base_type=BaseType(opts.deftype),
        strategy_kind=_STRATEGIES[opts.strategy],
        seed=seed,
        node_budget=opts.budget,
        proof_dir=opts.proofdir,
    )


def list_tests(specs: list[TestSpec]) -> str:
    lines = []
    for s in specs:
        loc = f"line {s.line}" if s.line is not None else "line ?"
        origin = "synthesized" if s.origin == CONTRACT else "user"
        lines.append(f"{s.module} {s.name} ({loc}, {s.kind}, {origin})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    try:
        cfg = config_from_options(opts)
    except ValueError as exc:
        print(f"ndcheck: {exc}", file=sys.stderr)
        return 2
    try:
        specs = registry.specs_for(opts.modules)
    except KeyError as exc:
        known = ", ".join(registry.suite_names())
        print(f"ndcheck: unknown suite {exc.args[0]!r} (known: {known})", file=sys.stderr)
        return 2
    if opts.list_only:
        print(list_tests(specs))
        return 0
    try:
        report = run_suite(specs, cfg)
    except ConfigError as exc:
        print(f"ndcheck: {exc}", file=sys.stderr)
        return 2
    print(render_report(report, opts.format))
    return report.exit_code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
