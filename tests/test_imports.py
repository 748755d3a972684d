"""Every module-level import in the package source is used.

No linter ships with the project, so this stdlib-only check stands in for
one.  `__init__.py` is skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fqspectra"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
