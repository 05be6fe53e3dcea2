"""Contract registry: operations bundled with specifications, pre- and
postconditions, and determinism claims, from which properties are derived.

An operation's specification is a second implementation of the same type;
agreement is checked with set semantics.  A postcondition must hold for
every value the operation produces.  A determinism claim asserts at most
one distinct value per input.  Externally supplied proofs (files named
``proof-<property>.<ext>``) exempt individual properties from checking.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from .gen import Generator
from .prop import Prop, always, as_tree, implies, same_set, value_count_less
from .searchtree import bind, value
from .runner import CONTRACT, PARAM, TestSpec


class RegistrationError(Exception):
    """A contract entry that cannot be turned into any property."""


class ConfigError(Exception):
    """Bad runner configuration, e.g. an unreadable proof directory."""


@dataclass(frozen=True)
class ContractEntry:
    """An operation under test plus its optional contract pieces.

    impl may be multi-valued (returning a search tree) or plain-valued; a
    missing precondition admits every generated input.
    """

    name: str
    impl: Callable[[Any], Any]
    input_gen: Generator
    spec: Callable[[Any], Any] | None = None
    pre: Callable[[Any], bool] | None = None
    post: Callable[[Any, Any], bool] | None = None
    det: bool = False
    module: str = "Contracts"
    line: int | None = None

    def __post_init__(self):
        if self.spec is None and self.pre is None and self.post is None and not self.det:
            raise RegistrationError(
                f"contract for {self.name!r} declares no specification,"
                " precondition, postcondition, or determinism claim"
            )


def synthesize(entry: ContractEntry) -> list[TestSpec]:
    """Derive the checkable properties implied by a contract entry.

    A specification yields <name>SatisfiesSpecification (set agreement under
    the precondition); a postcondition yields <name>SatisfiesPostCondition
    (every produced value passes); a determinism claim yields
    <name>IsDeterministic (fewer than two distinct values per input).
    """
    pre = entry.pre if entry.pre is not None else (lambda _x: True)
    specs: list[TestSpec] = []

    def param(name: str, body: Callable[[Any], Prop]) -> TestSpec:
        return TestSpec(
            name=name,
            module=entry.module,
            line=entry.line,
            kind=PARAM,
            input_gen=entry.input_gen,
            body=body,
            origin=CONTRACT,
        )

    if entry.spec is not None:
        spec_fn = entry.spec

        def satisfies_spec(x, _impl=entry.impl, _spec=spec_fn, _pre=pre):
            return implies(
                _pre(x), lambda: same_set(as_tree(_impl(x)), as_tree(_spec(x)))
            )

        specs.append(param(f"{entry.name}SatisfiesSpecification", satisfies_spec))

    if entry.post is not None:
        post_fn = entry.post

        def satisfies_post(x, _impl=entry.impl, _post=post_fn, _pre=pre):
            return implies(
                _pre(x),
                lambda: always(bind(as_tree(_impl(x)), lambda y: value(_post(x, y)))),
            )

        specs.append(param(f"{entry.name}SatisfiesPostCondition", satisfies_post))

    if entry.det:

        def is_deterministic(x, _impl=entry.impl):
            return value_count_less(as_tree(_impl(x)), 2)

        specs.append(param(f"{entry.name}IsDeterministic", is_deterministic))

    return specs


# -- proof files -----------------------------------------------------------


def _normalize(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "")


@dataclass(frozen=True)
class ProofIndex:
    """Property names considered proved, keyed by normalized name."""

    proofs: dict[str, str]  # normalized property name -> file name

    def lookup(self, prop_name: str) -> str | None:
        return self.proofs.get(_normalize(prop_name))


def scan_proofs(proof_dir: str | Path) -> ProofIndex:
    """Index proof files in a directory.

    A file ``proof-<t>.<ext>`` (any extension, matching case-insensitively,
    '-' and '_' ignored inside <t>) marks property t as proved.  The file
    content is trusted, not validated.
    """
    path = Path(proof_dir)
    if not path.is_dir():
        raise ConfigError(f"proof directory not readable: {path}")
    try:
        names = sorted(os.listdir(path))
    except OSError as exc:
        raise ConfigError(f"proof directory not readable: {path} ({exc})") from exc
    proofs: dict[str, str] = {}
    for fname in names:
        stem = fname.rsplit(".", 1)[0] if "." in fname else fname
        if not stem.lower().startswith("proof-"):
            continue
        key = _normalize(stem[len("proof-"):])
        if key:
            proofs.setdefault(key, fname)
    return ProofIndex(proofs)


def apply_proofs(specs: list[TestSpec], index: ProofIndex) -> list[TestSpec]:
    """Mark proved specs as skipped (they stay in the report); the rest pass
    through unchanged."""
    out = []
    for spec in specs:
        fname = index.lookup(spec.name)
        out.append(spec if fname is None else replace(spec, proof_file=fname))
    return out
