"""Every module-level function and class of the package, and every public
method of its classes, is referenced somewhere other than inside its own
definition.  A module-level definition is read by a load of its bare name,
an import of it, or an attribute read off a package module (``domain.x``,
``anyplan.x``); a method by its name, read off anything.  An ``ast``
stand-in for a dead-code finder.  One walk of each reader feeds two passes:

- the first counts the package, the tests, the scripts and ``perfbench/``
  (which is only read) as readers;
- the second counts only ``src``, ``scripts`` and ``perfbench``, so a
  definition that only the tests read is flagged: it belongs in ``tests/``.

In both, an ``__init__.py`` that re-exports a name from its own package
does not read it."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
PACKAGE = sorted((ROOT / "src" / "anyplan").glob("*.py"))
READERS = [p for d in ("src", "tests", "scripts", "perfbench")
           for p in sorted((ROOT / d).rglob("*.py"))]
#: The names a package module is read through: ``anyplan`` and its modules.
MODULES = {"anyplan", *(p.stem for p in PACKAGE)}

#: Package definitions that only the tests read, kept with a reason each.
TEST_ONLY_ALLOWED = {
    "dijkstra_distances": "public API: anyplan/__init__.py exports the oracle's distance map",
    "weight_schedule": "public API: anyplan/__init__.py exports the weights a plan steps through",
}


def referenced_names(tree: ast.AST) -> Counter:
    """How often each name is referenced in ``tree``: ``x`` counts the reads
    of ``x`` as a module-level name (a bare-name load, an import, an
    attribute read off a package module), ``.x`` every other attribute read.
    A store to an attribute (``r.x = ...``, ``r.x += 1``) is not a read."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            owner = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            names[node.attr if owner in MODULES else "." + node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def reader_references(path: Path, source: str) -> Counter:
    """The references of the reader ``source`` at ``path``, less the names
    an ``__init__.py`` re-exports from its own package."""
    tree = ast.parse(source)
    names = referenced_names(tree)
    if path.name == "__init__.py":
        names -= Counter(alias.name for node in tree.body
                         if isinstance(node, ast.ImportFrom) and node.level
                         for alias in node.names)
    return names


def total(references: dict[Path, Counter], skip: Path | None = None) -> Counter:
    """The references of every reader outside ``skip``."""
    return sum((names for path, names in references.items() if skip not in path.parents),
               Counter())


def definitions(tree: ast.Module) -> list[tuple[ast.AST, tuple[str, ...]]]:
    """The module-level functions and classes of ``tree`` and the public
    methods of those classes, each with the :func:`referenced_names` keys
    that read it."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            found.append((node, (node.name,)))
        if isinstance(node, ast.ClassDef):
            found += [(m, (m.name, "." + m.name)) for m in node.body
                      if isinstance(m, functions) and not m.name.startswith("_")]
    return found


def unreferenced(source: str, used: Counter, allowed=()) -> list[str]:
    """The :func:`definitions` of ``source`` outside ``allowed`` that
    ``used``, the references of every scanned reader, holds only inside
    their own definition."""
    return [f"line {node.lineno}: {node.name}"
            for node, keys in definitions(ast.parse(source))
            if node.name not in allowed
            and sum(used[k] for k in keys) <= sum(referenced_names(node)[k] for k in keys)]


@pytest.fixture(scope="module")
def references() -> dict[Path, Counter]:
    return {path: reader_references(path, path.read_text()) for path in READERS}


def relative(path: Path) -> str:
    return str(path.relative_to(ROOT))


@pytest.mark.parametrize("path", PACKAGE, ids=relative)
def test_every_definition_is_referenced(path, references):
    assert unreferenced(path.read_text(), total(references)) == []


@pytest.mark.parametrize("path", PACKAGE, ids=relative)
def test_every_definition_has_a_reader_outside_the_tests(path, references):
    used = total(references, skip=TESTS)
    assert unreferenced(path.read_text(), used, TEST_ONLY_ALLOWED) == []


def test_every_allowed_name_is_read_only_by_the_tests(references):
    used = total(references, skip=TESTS)
    flagged = {entry.split(": ")[1] for path in PACKAGE
               for entry in unreferenced(path.read_text(), used)}
    assert flagged == TEST_ONLY_ALLOWED.keys()


def test_the_check_finds_an_unreferenced_definition():
    module = ("def used():\n    return helper()\n"
              "def helper():\n    pass\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Lonely:\n    pass\n"
              "def imported():\n    pass\n"
              "def by_attribute():\n    pass\n"
              "class Holder:\n"
              "    def unread(self):\n        pass\n"
              "    def _private(self):\n        pass\n")
    reader = ("import anyplan\nfrom anyplan import imported\nanyplan.by_attribute()\n"
              "used()\nanyplan.Holder()\n")
    used = referenced_names(ast.parse(module)) + referenced_names(ast.parse(reader))
    assert unreferenced(module, used) == ["line 5: recursive", "line 7: Lonely",
                                          "line 14: unread"]


def test_a_reader_field_of_the_same_name_is_not_a_read():
    module = ("def cost():\n    pass\nclass Walk:\n    def total(self):\n        pass\n"
              "    def length(self):\n        pass\n")
    reader = ("class Record:\n    cost: float\n    total: float\n    length: float\n"
              "def check(r):\n    return r.cost + r.total\n"
              "def fill(r):\n    r.length = 1.0\n    r.length += 1.0\nWalk()\n")
    used = referenced_names(ast.parse(module)) + referenced_names(ast.parse(reader))
    # a method is still read by its name, off anything, but not by a store
    assert unreferenced(module, used) == ["line 1: cost", "line 6: length"]


def test_the_check_finds_a_definition_only_the_tests_read():
    module = ("class Queue:\n"
              "    def push(self):\n        pass\n"
              "    def peek(self):\n        pass\n"
              "def kept():\n    pass\n"
              "def exported():\n    pass\n")
    sources = {
        "src/m/queue.py": module,
        "src/m/__init__.py": "from .queue import Queue, exported, kept\n",
        "scripts/reader.py": "from m import Queue\nQueue().push()\n",
        "tests/test_m.py": "from m import exported, kept\nq = Queue()\nq.peek()\n"
                           "kept()\nexported()\n",
    }
    references = {Path(name): reader_references(Path(name), source)
                  for name, source in sources.items()}
    used = total(references, skip=Path("tests"))
    assert unreferenced(module, used, allowed={"kept"}) == ["line 4: peek",
                                                             "line 8: exported"]
    assert unreferenced(module, total(references)) == []
