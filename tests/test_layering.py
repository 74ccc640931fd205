"""The package's modules import one another without a cycle, the
zero-flux projection of a state is built in one module and imposed by one
function, and no frozen object is written after its __post_init__."""

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


def readers(path: Path, owner: str, attr: str) -> set[str]:
    """The names of the innermost functions in path that read owner.attr."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (isinstance(node, ast.Attribute) and node.attr == attr
              and isinstance(node.value, ast.Attribute) and node.value.attr == owner):
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_scheme_names_the_neumann_operator():
    # scheme alone imposes zero flux, in one March method: step on the
    # fields the next step reads, and March.project on both fields of every
    # state that leaves the march; a module that builds its own
    # NeumannOperator, or a second function that reads neumann.project,
    # projects a second way.
    users = {p.stem for p in PACKAGE.glob("*.py") if "NeumannOperator" in named(p)}
    assert "scheme" in users  # the parse sees the class's own module
    assert users <= {"scheme", "__init__"}, sorted(users - {"scheme", "__init__"})
    assert len(readers(PACKAGE / "scheme.py", "neumann", "project")) == 1


def test_only_a_post_init_writes_through_object_setattr():
    # A frozen dataclass settles its derived fields once, in __post_init__;
    # a write from any other function changes a frozen object after it is
    # built, as a cache would.
    callers = set()

    def visit(module, node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__setattr__" and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "object"):
            callers.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(module, child, function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text()), None)
    assert ("cloud", "__post_init__") in callers  # the parse sees NodeCloud's
    assert {f for _, f in callers} == {"__post_init__"}, sorted(callers)
