"""Every module-level import in the package source is used, and every
module-level private function is read somewhere in the package.

No linter ships with the project, so these stdlib-only checks stand in for
one.  `__init__.py` is skipped by the import check: its imports are the
package's re-exports.  A private function that only the tests read belongs
in the tests.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fqspectra"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_the_check_sees_unused_and_used_imports():
    source = ("import math\nimport numpy as np\nfrom collections import Counter\n"
              "from os import path as p\n\nx = np.zeros(1)\ny = p.join\n")
    assert unused_imports(source) == ["Counter (line 3)", "math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_functions(sources: dict) -> list:
    """Module-level `def _name` functions of `sources` (module name ->
    source) that no module in it reads, by name or as an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{node.name} (line {node.lineno})"
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                  and not node.name.startswith("__") and node.name not in read)


def test_the_check_sees_unread_and_read_private_functions():
    sources = {
        "a": "def _called():\n    pass\n\n\ndef _unread():\n    _called\n",
        "b": "import a\nfrom a import _imported\n\n\ndef _local():\n    pass\n\n"
             "x = a._by_attribute\n_local()\n_imported()\n",
        "c": "def _imported():\n    pass\n\n\ndef _by_attribute():\n    pass\n\n"
             "def public():\n    pass\n",
    }
    assert unread_private_functions(sources) == ["a._unread (line 5)"]


def test_every_private_function_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unread_private_functions(sources) == []
