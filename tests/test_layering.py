"""The package's modules import one another without a cycle, and the
zero-flux projection of a state is built in one module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "meshless_growth"


def internal_imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules that path imports anywhere in its body, function
    bodies included; a name taken from the package itself that is not a
    module counts as an import of __init__."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("meshless_growth."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                target = node.module
            elif node.level == 0 and node.module and node.module.split(".")[0] == "meshless_growth":
                target = node.module.partition(".")[2]
            else:
                continue
            if target:
                found.add(target.split(".")[0])
            else:  # from . import name
                found.update(alias.name if alias.name in modules else "__init__"
                             for alias in node.names)
    return found


def test_package_imports_form_no_cycle():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert {"scheme", "stability", "model"} <= modules
    graph = {m: internal_imports(PACKAGE / f"{m}.py", modules) for m in sorted(modules)}
    assert "stability" in graph["scheme"]  # the parse sees the imports
    done, path = set(), []

    def visit(module):
        if module in path:
            pytest.fail("import cycle: " + " -> ".join(path[path.index(module):] + [module]))
        if module not in done:
            path.append(module)
            for dep in sorted(graph[module]):
                visit(dep)
            path.pop()
            done.add(module)

    for module in graph:
        visit(module)


def named(path: Path) -> set[str]:
    """Every identifier path names in code: names, attributes and imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_only_scheme_names_the_neumann_operator():
    # scheme alone imposes zero flux: step on the fields the next step
    # reads, and March.project on both fields of every state that leaves
    # the march; a module that builds its own NeumannOperator projects a
    # second way.
    users = {p.stem for p in PACKAGE.glob("*.py") if "NeumannOperator" in named(p)}
    assert "scheme" in users  # the parse sees the class's own module
    assert users <= {"scheme", "__init__"}, sorted(users - {"scheme", "__init__"})
