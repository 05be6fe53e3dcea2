"""The package's modules import one another without a cycle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ndcheck"


def relative_imports(source: str) -> set[str]:
    """The sibling modules a module's source imports relatively, wherever the
    import stands (inside a function too)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """A list of modules that import one another in a ring, or None."""
    done: set[str] = set()
    path: list[str] = []

    def visit(m: str) -> list[str] | None:
        if m in path:
            return path[path.index(m):] + [m]
        if m in done:
            return None
        path.append(m)
        for dep in sorted(graph.get(m, ())):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(m)
        return None

    for m in sorted(graph):
        cycle = visit(m)
        if cycle:
            return cycle
    return None


def package_graph() -> dict[str, set[str]]:
    return {p.stem: relative_imports(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def test_function_level_imports_are_seen():
    src = "from .a import x\n\ndef f():\n    from .b import y\n    from . import c\n"
    assert relative_imports(src) == {"a", "b", "c"}


def test_a_ring_is_found():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_package_imports_form_no_cycle():
    graph = package_graph()
    assert {"runner", "contracts", "registry", "cli"} <= set(graph)
    assert find_cycle(graph) is None


def test_runner_imports_nothing_from_contracts():
    assert "contracts" not in package_graph()["runner"]
