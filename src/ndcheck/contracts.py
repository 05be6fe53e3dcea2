"""Contract registry: operations bundled with specifications, pre- and
postconditions, and determinism claims, from which properties are derived.

An operation's specification is a second implementation of the same type;
agreement is checked with set semantics.  A postcondition must hold for
every value the operation produces.  A determinism claim asserts at most
one distinct value per input.  A derived property is an ordinary
parameterized spec, so a proof file exempts it by its derived name, as it
does any other spec (see runner).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .gen import Generator
from .prop import Prop, always, as_tree, implies, same_set, value_count_less
from .searchtree import bind, value
from .runner import CONTRACT, PARAM, TestSpec


class RegistrationError(Exception):
    """A contract entry that cannot be turned into any property."""


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
            return implies(_pre(x), lambda: same_set(_impl(x), _spec(x)))

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
            return value_count_less(_impl(x), 2)

        specs.append(param(f"{entry.name}IsDeterministic", is_deterministic))

    return specs
