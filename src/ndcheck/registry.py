"""Global suite registry: test specs grouped under module names.

Suites register at import time (the bundled example suites do this) and the
command-line front end selects them by name.  Names must be unique within a
module.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable

from .contracts import ContractEntry, RegistrationError, synthesize
from .gen import BaseType, Generator
from .prop import Prop
from .runner import PARAM, POLY, UNIT, TestSpec

_SUITES: dict[str, list[TestSpec]] = {}


def register(spec: TestSpec) -> TestSpec:
    suite = _SUITES.setdefault(spec.module, [])
    if any(s.name == spec.name for s in suite):
        raise RegistrationError(f"duplicate test name {spec.name!r} in suite {spec.module!r}")
    suite.append(spec)
    return spec


def suite_names() -> list[str]:
    return list(_SUITES)


def specs_for(selection: Iterable[str] = ()) -> list[TestSpec]:
    """Specs of the selected suites, each once, in the order their names are
    first given; empty selection means every registered suite in
    registration order.  Unknown names raise KeyError."""
    names = list(dict.fromkeys(selection)) or suite_names()
    out: list[TestSpec] = []
    for name in names:
        if name not in _SUITES:
            raise KeyError(name)
        out.extend(_SUITES[name])
    return out


def clear(module: str) -> None:
    """Drop one suite's registrations; intended for tests."""
    _SUITES.pop(module, None)


# -- registration helpers ----------------------------------------------------


def unit_test(module: str, name: str, prop: Prop, line: int | None = None) -> TestSpec:
    return register(TestSpec(name=name, module=module, line=line, kind=UNIT, prop=prop))


def param_test(
    module: str,
    name: str,
    input_gen: Generator,
    body: Callable[..., Prop],
    line: int | None = None,
    arity: int = 1,
) -> TestSpec:
    return register(
        TestSpec(
            name=name,
            module=module,
            line=line,
            kind=PARAM,
            input_gen=input_gen,
            body=body,
            arity=arity,
        )
    )


def poly_test(
    module: str,
    name: str,
    gen_for: Callable[[BaseType], Generator],
    body: Callable[..., Prop],
    line: int | None = None,
    arity: int = 1,
) -> TestSpec:
    """A polymorphic property: the runner instantiates it for the configured
    base type on first use.  gen_for is cached, so each instantiation (and
    its input memo) is built once and kept for the process.  Within one
    run, a spec whose instantiation has the key of an earlier spec's input
    generator draws from that earlier generator instead, and replays its
    walk; an instantiation with no key is drawn from as built."""
    return register(
        TestSpec(name=name, module=module, line=line, kind=POLY, body=body, arity=arity,
                 gen_for=cache(gen_for))
    )


def contract(entry: ContractEntry) -> list[TestSpec]:
    """Register every property synthesized from a contract entry."""
    return [register(spec) for spec in synthesize(entry)]
