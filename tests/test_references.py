"""Every module-level function and class of the package is referenced
somewhere: by a name, an attribute or an import, other than inside its own
definition.  An ``ast`` stand-in for a dead-code finder.  References are
collected from the package, the tests, the scripts and ``perfbench/``,
which is only read."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "anyplan").glob("*.py"))
READERS = [p for d in ("src", "tests", "scripts", "perfbench")
           for p in sorted((ROOT / d).rglob("*.py"))]


def referenced_names(tree: ast.AST) -> Counter:
    """How often each name is referenced in ``tree``."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def unreferenced(source: str, used: Counter) -> list[str]:
    """The module-level functions and classes of ``source`` that ``used``,
    the references of every scanned file (``source``'s own included), holds
    only inside their own definition."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if used[node.name] <= referenced_names(node)[node.name]:
                found.append(f"line {node.lineno}: {node.name}")
    return found


@pytest.fixture(scope="module")
def used() -> Counter:
    total: Counter = Counter()
    for path in READERS:
        total += referenced_names(ast.parse(path.read_text()))
    return total


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_definition_is_referenced(path, used):
    assert unreferenced(path.read_text(), used) == []


def test_the_check_finds_an_unreferenced_definition():
    module = ("def used():\n    return helper()\n"
              "def helper():\n    pass\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Lonely:\n    pass\n"
              "def imported():\n    pass\n"
              "def by_attribute():\n    pass\n")
    reader = "import m\nfrom m import imported\nm.by_attribute()\nused()\n"
    used = referenced_names(ast.parse(module)) + referenced_names(ast.parse(reader))
    assert unreferenced(module, used) == ["line 5: recursive", "line 7: Lonely"]
