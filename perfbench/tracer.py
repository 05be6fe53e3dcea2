"""Layer tracing for the benchmark's traced runs.

Wraps the public entry points through which ndcheck's modules call each
other, from the outside: the runner's and the property layer's
``enumerate_tree``, every imported binding of ``values.canonical``, the
property checks and bodies the runner invokes, ``run_suite`` and
``render_report``.  Spans are kept in memory as per-layer totals and self
times; a layer's self time is its span time minus the spans nested in it.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# span names
INPUT_WALK = "searchtree.input_walk"
PROP_WALK = "searchtree.prop_walk"
CANONICAL = "values.canonical"
CHECK = "prop.check"
BODY = "runner.body"
RUNNER = "runner.run_suite"
RENDER = "cli.render"
UNIT_CASE = "runner.unit_case"


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self.stack: list[list] = []       # [name, start, time covered by children]
        self.case_us: list[float] = []
        self.gc_pause = 0.0
        self.gc_gen2 = 0
        self._gc_start = None

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.stack.append([name, perf(), 0.0])

    def exit(self) -> float:
        name, start, covered = self.stack.pop()
        spent = perf() - start
        self.total[name] += spent
        self.self_time[name] += spent - covered
        if self.stack:
            self.stack[-1][2] += spent
        return spent

    # -- gc ------------------------------------------------------------------

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf()
        elif self._gc_start is not None:
            self.gc_pause += perf() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1


class _TracedEnumeration:
    """Proxy for an Enumeration that times every ``next`` and counts values
    and node expansions; other attributes read through to the real one."""

    __slots__ = ("_enum", "_it", "_tracer", "_span", "_seen")

    def __init__(self, enum, tracer: Tracer, span: str):
        self._enum = enum
        self._it = iter(enum)
        self._tracer = tracer
        self._span = span
        self._seen = 0

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.enter(self._span)
        try:
            value = next(self._it)
        finally:
            tracer.exit()
            done = self._enum.expansions
            tracer.count[self._span + ".nodes"] += done - self._seen
            self._seen = done
        tracer.count[self._span + ".values"] += 1
        return value

    def __getattr__(self, name):
        return getattr(self._enum, name)


def _traced_enumerate(original, tracer: Tracer, span: str, singleton_types: tuple):
    def enumerate_tree(t, strategy=None):
        tracer.count[span + ".enums"] += 1
        if isinstance(t, singleton_types):
            tracer.count[span + ".singleton_enums"] += 1
        return _TracedEnumeration(original(t, strategy), tracer, span)

    return enumerate_tree


def _traced_canonical(original, tracer: Tracer):
    def canonical(v):
        tracer.count[CANONICAL] += 1
        tracer.enter(CANONICAL)
        try:
            return original(v)
        finally:
            tracer.exit()

    return canonical


def _timed(original, tracer: Tracer, span: str):
    def wrapper(*args, **kwargs):
        tracer.enter(span)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def _traced_prop(prop, tracer: Tracer, body_s: float | None):
    """Trace a property's check; body_s is None for a unit spec's property,
    which is a runner case on its own."""
    check = prop.check

    def traced_check(ctx):
        if body_s is None:
            tracer.count[UNIT_CASE] += 1
        tracer.count[CHECK] += 1
        tracer.enter(CHECK)
        try:
            return check(ctx)
        finally:
            tracer.case_us.append(((body_s or 0.0) + tracer.exit()) * 1e6)

    return dataclasses.replace(prop, check=traced_check)


def _traced_body(body, tracer: Tracer):
    def traced_body(*args):
        tracer.count[BODY] += 1
        tracer.enter(BODY)
        try:
            prop = body(*args)
        finally:
            spent = tracer.exit()
        return _traced_prop(prop, tracer, spent)

    return traced_body


def trace_spec(spec, tracer: Tracer):
    """A copy of a TestSpec whose property checks and bodies are traced."""
    changes = {}
    if spec.prop is not None:
        changes["prop"] = _traced_prop(spec.prop, tracer, None)
    if spec.body is not None:
        changes["body"] = _traced_body(spec.body, tracer)
    if spec.by_base_type:
        changes["by_base_type"] = {
            bt: trace_spec(inst, tracer) for bt, inst in spec.by_base_type.items()
        }
    return dataclasses.replace(spec, **changes) if changes else spec


def _rebind_everywhere(original, replacement, skip: str) -> None:
    """Point every ndcheck binding of `original` at `replacement`: module
    globals, class attributes and constructor defaults (``EvalContext.key_fn``
    defaults to canonical).  Module `skip` keeps the original, so its own
    recursion is not counted."""

    def swap(value):
        return replacement if value is original else value

    for name, module in list(sys.modules.items()):
        if not (name == "ndcheck" or name.startswith("ndcheck.")) or name == skip:
            continue
        for attr, obj in list(vars(module).items()):
            if obj is original:
                setattr(module, attr, replacement)
            elif isinstance(obj, type) and obj.__module__ == name:
                for cattr, cval in list(vars(obj).items()):
                    if cval is original:
                        setattr(obj, cattr, replacement)
                init = vars(obj).get("__init__")
                if getattr(init, "__defaults__", None):
                    init.__defaults__ = tuple(swap(d) for d in init.__defaults__)


def install(tracer: Tracer) -> None:
    """Wrap ndcheck's layer boundaries; call after ndcheck.cli is imported."""
    import ndcheck.cli as cli
    import ndcheck.prop as prop
    import ndcheck.registry as registry
    import ndcheck.runner as runner
    import ndcheck.values as values
    from ndcheck.searchtree import FailNode, ValueNode

    leaves = (ValueNode, FailNode)
    runner.enumerate_tree = _traced_enumerate(runner.enumerate_tree, tracer, INPUT_WALK, leaves)
    prop.enumerate_tree = _traced_enumerate(prop.enumerate_tree, tracer, PROP_WALK, leaves)
    _rebind_everywhere(values.canonical, _traced_canonical(values.canonical, tracer), "ndcheck.values")

    specs_for = registry.specs_for
    registry.specs_for = lambda *a, **kw: [trace_spec(s, tracer) for s in specs_for(*a, **kw)]
    traced_run = _timed(runner.run_suite, tracer, RUNNER)
    runner.run_suite = cli.run_suite = traced_run
    traced_render = _timed(runner.render_report, tracer, RENDER)
    runner.render_report = cli.render_report = traced_render
    gc.callbacks.append(tracer.on_gc)


def _quantile(samples: list[float], q: float) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tracer: Tracer, pass_s: float) -> dict[str, float]:
    """Per-layer figures for one pass, keyed by metric name."""
    c, t, s = tracer.count, tracer.total, tracer.self_time
    input_nodes, prop_nodes = c[INPUT_WALK + ".nodes"], c[PROP_WALK + ".nodes"]
    walk_s = t[INPUT_WALK] + t[PROP_WALK]
    cases = c[BODY] + c[UNIT_CASE]   # inputs handed to bodies, plus unit properties
    return {
        "searchtree.input_nodes": input_nodes,
        "searchtree.input_values": c[INPUT_WALK + ".values"],
        "searchtree.input_walk_s": t[INPUT_WALK],
        "searchtree.prop_enums": c[PROP_WALK + ".enums"],
        "searchtree.prop_singleton_enums": c[PROP_WALK + ".singleton_enums"],
        "searchtree.prop_nodes": prop_nodes,
        "searchtree.prop_walk_s": t[PROP_WALK],
        "searchtree.nodes_per_s": (input_nodes + prop_nodes) / walk_s if walk_s else 0.0,
        "values.canonical_calls": c[CANONICAL],
        "values.canonical_s": t[CANONICAL],
        "values.keys_per_case": c[CANONICAL] / cases if cases else 0.0,
        "prop.checks": c[CHECK],
        "prop.check_s": t[CHECK],
        "prop.self_s": s[CHECK],
        "runner.cases": cases,
        "runner.useful_input_ratio": (
            c[BODY] / c[INPUT_WALK + ".values"] if c[INPUT_WALK + ".values"] else 0.0
        ),
        "runner.body_s": t[BODY],
        "runner.self_s": s[RUNNER],
        "runner.case_p50_us": _quantile(tracer.case_us, 0.50),
        "runner.case_p99_us": _quantile(tracer.case_us, 0.99),
        "runner.case_samples": len(tracer.case_us),
        "cli.render_s": t[RENDER],
        "gc.pause_s": tracer.gc_pause,
        "gc.share": tracer.gc_pause / pass_s if pass_s else 0.0,
        "gc.gen2_collections": tracer.gc_gen2,
    }
