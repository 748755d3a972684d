"""Every module-level import in the package source is used, every
module-level function and method is read somewhere in the package, so is
every field of a package dataclass, every exception class is raised or
caught somewhere in it, every module imports only modules below it in the
package's layer order, no module holds an `assert` statement, which
`python -O` would strip, and `np.rint` is called at one site only, the
rounding gate that every float-to-exact read goes through.

No linter ships with the project, so these stdlib-only checks stand in for
one.  `__init__.py` is skipped by the import check: its imports are the
package's re-exports, and a re-export is not a read.  A function or method
that only the tests read belongs in the tests, as a reference.
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


def _read_names(trees) -> set:
    """Every name the trees read, as a loaded name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_private_functions(sources: dict) -> list:
    """Module-level `def _name` functions of `sources` (module name ->
    source) that no module in it reads, by name or as an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = _read_names(trees.values())
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


# Definitions no program module reads, each with the reason it stays.
UNREAD_ALLOWED = {
    # The benchmark's tracer wraps both (perfbench/spans.py), and a missing
    # target fails the traced run; they leave when the benchmark is re-aimed.
    # translate_table is also the shift step of the tests' reference fold.
    "domains.PointDomain.index_of",
    "domains.PointDomain.translate_table",
    # argparse calls it on every usage error; no line of the package does.
    "cli._Parser.error",
}


def _is_property(fn) -> bool:
    return any(isinstance(dec, ast.Name) and dec.id == "property"
               for dec in fn.decorator_list)


def _is_dataclass(cls) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _off_module_or_string(node, modules) -> bool:
    """Whether an attribute is read off a module that `import` binds
    (`np.trace`, `np.linalg.norm`) or off a string literal (`", ".join`)."""
    root = node.value
    while isinstance(root, ast.Attribute):
        root = root.value
    return ((isinstance(root, ast.Name) and root.id in modules)
            or (isinstance(root, ast.Constant) and isinstance(root.value, str)))


def _read_methods(trees) -> set:
    """Names a plain method is read by: an attribute that is called, or one
    read uncalled whose name is no dataclass field and no `self.<name> =`
    attribute of the trees.  A bare name, an uncalled read of a name that
    data also has (`spec.degree` of a field), and an attribute of an
    imported module or a string literal (`np.trace(m)`) are no read of a
    method."""
    called, uncalled, data = set(), set(), set()
    for tree in trees:
        modules = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _off_module_or_string(node, modules):
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and not _off_module_or_string(node.func, modules)):
                called.add(node.func.attr)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    uncalled.add(node.attr)
                elif getattr(node.value, "id", None) == "self":
                    data.add(node.attr)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                data |= {stmt.target.id for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign)
                         and isinstance(stmt.target, ast.Name)}
    return called | (uncalled - data)


def unread_definitions(sources: dict) -> list:
    """Module-level functions, and methods of module-level classes, of
    `sources` (module name -> source) that no module in it reads.  Dunders
    are exempt; private methods are checked as public ones are.  A function
    is read by name or as an attribute, a property as an attribute, and a
    plain method as `_read_methods` says."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = _read_names(trees.values())
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    methods = _read_methods(trees.values())
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("__") and node.name not in read:
                    out.append(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if not isinstance(sub, ast.FunctionDef) or sub.name.startswith("__"):
                        continue
                    seen = attributes if _is_property(sub) else methods
                    if sub.name not in seen:
                        out.append(f"{module}.{node.name}.{sub.name}")
    return sorted(out)


def test_the_check_sees_unread_public_functions_and_methods():
    sources = {
        "a": "def used():\n    pass\n\n\ndef unread():\n    pass\n\n\n"
             "class K:\n    def __init__(self):\n        self.called()\n\n"
             "    def called(self):\n        pass\n\n    def unread_method(self):\n"
             "        pass\n\n    def _private(self):\n        pass\n\n"
             "    def _helper(self):\n        pass\n\n    def __repr__(self):\n"
             "        self._helper()\n",
        "b": "from a import used\n\nused()\n",
    }
    assert unread_definitions(sources) == ["a.K._private", "a.K.unread_method", "a.unread"]


def test_the_check_sees_a_method_shadowed_by_a_field_or_attribute():
    # `spec.degree` reads Spectrum's field and a bare `degree` is a local, so
    # neither reads PolySpec.degree; `dom.size` reads the attribute that
    # Domain sets.  An uncalled read of a name no data has (`poly.handler`)
    # and any attribute read of a property still count.
    sources = {
        "a": "from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\n"
             "class Spectrum:\n    degree: int\n\n\nclass PolySpec:\n"
             "    def degree(self):\n        return 0\n\n    def size(self):\n"
             "        return 0\n\n    def called(self):\n        return 0\n\n"
             "    def handler(self):\n        return 0\n\n    @property\n"
             "    def order(self):\n        return 0\n",
        "b": "def f(spec, poly, dom):\n    degree = spec.degree\n    poly.called()\n"
             "    return degree, dom.size, poly.handler, spec.order\n\n\nf(1, 2, 3)\n",
        "c": "class Domain:\n    def __init__(self):\n        self.size = 1\n",
    }
    assert unread_definitions(sources) == ["a.PolySpec.degree", "a.PolySpec.size"]


def test_the_check_sees_past_module_and_string_receivers():
    # numpy's trace, numpy's norm and the string's join read no method of
    # Field; `field.norm()` on a local and `field.join` uncalled still do,
    # and so does an attribute of a name bound by `from ... import`.
    sources = {
        "a": "import numpy as np\nfrom b import Table\n\n\nclass Field:\n"
             "    def trace(self):\n        return 0\n\n    def norm(self):\n"
             "        return 0\n\n    def join(self):\n        return 0\n\n"
             "    def rank(self):\n        return 0\n\n    def dump(self):\n"
             "        return 0\n\n\ndef f(field, m, parts):\n"
             "    return (np.trace(m), np.linalg.norm(m), ', '.join(parts), np.rank,\n"
             "            field.norm(), field.join, Table.dump())\n\n\nf(1, 2, 3)\n",
        "b": "class Table:\n    pass\n",
    }
    assert unread_definitions(sources) == ["a.Field.rank", "a.Field.trace"]


def test_the_check_flags_a_scalar_helper_left_in_the_package():
    # The character chi(a) one element at a time, as FieldContext.char was:
    # only the tests read it, so the check must flag it.
    sources = {p.stem: p.read_text() for p in SOURCES}
    anchor = "    def mul(self, a: int, b: int) -> int:\n"
    assert anchor in sources["field"]
    sources["field"] = sources["field"].replace(anchor, (
        "    def char(self, a: int) -> complex:\n"
        "        return complex(self.char_table[self.trace_table[a]])\n\n" + anchor))
    assert "field.FieldContext.char" in unread_definitions(sources)


def test_the_check_flags_a_private_method_left_for_the_tests():
    # The polynomial product of two encodings, as FieldContext._mul_poly was:
    # only the tests' reference read it, so the check must flag it.
    sources = {p.stem: p.read_text() for p in SOURCES}
    anchor = "    def digits(self, a: int) -> tuple:\n"
    assert anchor in sources["field"]
    sources["field"] = sources["field"].replace(anchor, (
        "    def _mul_poly(self, a: int, b: int) -> int:\n"
        "        return self.mul(a, b)\n\n" + anchor))
    assert unread_definitions(sources) == sorted(UNREAD_ALLOWED | {"field.FieldContext._mul_poly"})


def test_every_function_and_public_method_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert set(unread_definitions(sources)) == UNREAD_ALLOWED


def unread_fields(sources: dict) -> list:
    """Fields of the module-level dataclasses of `sources` (module name ->
    source) that no module in it reads as an attribute.  A keyword of the
    constructor, a bare name and an assignment are no read."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}.{node.name}.{stmt.target.id}"
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                  for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in read)


def test_the_check_sees_unread_dataclass_fields():
    sources = {
        "a": "from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\n"
             "class Audit:\n    count: int\n    main_term: float\n    ok: bool\n"
             "    gap: float\n\n\nclass Plain:\n    note: str\n",
        "b": "import dataclasses\nfrom a import Audit\n\n\n@dataclasses.dataclass\n"
             "class Row:\n    size: int\n    spec: object = None\n\n\n"
             "def f(row, gap, main_term=0):\n    a = Audit(count=1, main_term=main_term, ok=True,\n"
             "              gap=gap)\n    row.spec = None\n    return a.count, a.ok, row.size\n",
    }
    assert unread_fields(sources) == ["a.Audit.gap", "a.Audit.main_term", "b.Row.spec"]


def test_every_dataclass_field_is_read_in_the_package():
    assert unread_fields({p.stem: p.read_text() for p in SOURCES}) == []


def _exception_names(node) -> set:
    """Class names an exception expression refers to: `X`, `X(...)`,
    `errors.X`, or a tuple of these."""
    if isinstance(node, ast.Call):
        return _exception_names(node.func)
    if isinstance(node, ast.Tuple):
        return set().union(*(_exception_names(elt) for elt in node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def unused_exceptions(sources: dict) -> list:
    """Classes of the `errors` module of `sources` (module name -> source)
    that no `raise` or `except` in any module of it names."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= _exception_names(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= _exception_names(node.type)
    return sorted(node.name for node in trees["errors"].body
                  if isinstance(node, ast.ClassDef) and node.name not in used)


def test_the_check_sees_unused_exception_classes():
    sources = {
        "errors": "class Base(Exception):\n    pass\n\n\nclass Raised(Base):\n    pass\n\n\n"
                  "class ByAttribute(Base):\n    pass\n\n\nclass InTuple(Base):\n    pass\n\n\n"
                  "class Unused(Base):\n    pass\n\n\nclass OnlyMentioned(Base):\n    pass\n",
        "a": "import errors\nfrom errors import Base, InTuple, OnlyMentioned, Raised\n\n"
             "KINDS = (OnlyMentioned,)\n\n\ndef f():\n    try:\n        raise Raised('x')\n"
             "    except (InTuple, Base):\n        raise errors.ByAttribute\n",
    }
    assert unused_exceptions(sources) == ["OnlyMentioned", "Unused"]


def test_the_check_flags_an_exception_class_left_in_the_package():
    sources = {p.stem: p.read_text() for p in SOURCES}
    sources["errors"] += ("\n\nclass BudgetExceededError(FqspectraError):\n"
                          '    """Requested fold exceeds the operation budget."""\n')
    assert unused_exceptions(sources) == ["BudgetExceededError"]


def test_every_exception_class_is_raised_or_caught_in_the_package():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unused_exceptions(sources) == []


# The package's layers, lowest first.
LAYERS = ("errors", "field", "domains", "geometry", "spectra", "energy", "experiments", "cli")


def layer_violations(sources: dict) -> list:
    """Intra-package imports, at any depth of each module of `sources`
    (module name -> source), that name a module not earlier in LAYERS.

    `from . import __version__` is exempt: `__init__.py` binds `__version__`
    before it imports any module, so reading it ties a module to no layer.
    Any other name imported from the package itself is read as a module."""
    rank = {name: i for i, name in enumerate(LAYERS)}
    out = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "fqspectra"):
                path = node.module if node.level else node.module.partition(".")[2]
                targets = ([path.split(".")[0]] if path else
                           [a.name for a in node.names if a.name != "__version__"])
            elif isinstance(node, ast.Import):
                targets = [a.name.split(".")[1] for a in node.names
                           if a.name.startswith("fqspectra.")]
            else:
                continue
            out += [f"{module} imports {t} (line {node.lineno})" for t in targets
                    if rank.get(t, len(LAYERS)) >= rank[module]]
    return sorted(out)


def test_the_check_sees_imports_against_the_layer_order():
    sources = {
        "errors": "X = 1\n",
        "field": "from .errors import X\nfrom . import __version__\n",
        "domains": "def f():\n    from .spectra import g\n",
        "geometry": "import fqspectra.cli\nfrom fqspectra.field import y\n",
        "spectra": "from . import energy, domains\nfrom fqspectra import geometry\n",
        "energy": "from .energy import z\n",
    }
    assert layer_violations(sources) == [
        "domains imports spectra (line 2)", "energy imports energy (line 1)",
        "geometry imports cli (line 1)", "spectra imports energy (line 1)"]


def test_every_module_imports_only_lower_layers():
    assert {p.stem for p in MODULES} == set(LAYERS)
    assert layer_violations({p.stem: p.read_text() for p in MODULES}) == []


def assert_statements(source: str) -> list:
    """Lines of the `assert` statements in a module, at any depth."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_the_check_sees_assert_statements():
    source = ("def f(x):\n    assert x > 0, 'x must be positive'\n    return x\n\n"
              "assert f(1)\nname = 'assert'\nif name:\n    raise ValueError('assert')\n")
    assert assert_statements(source) == [2, 5]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements_in_the_package(path):
    # An invariant must survive `python -O`: raise InvariantError instead.
    assert assert_statements(path.read_text()) == []


def rint_calls(source: str) -> list:
    """(line, enclosing function) of each `np.rint` call in `source`."""
    out = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "rint" and isinstance(child.func.value, ast.Name)
                    and child.func.value.id in ("np", "numpy")):
                out.append((child.lineno, name))
            visit(child, name)

    visit(ast.parse(source), None)
    return out


def test_the_check_sees_rint_calls():
    source = ("import numpy as np\n\ndef f(x):\n    return np.rint(x)\n\n"
              "y = np.rint(2.5)\nrint = 'np.rint(x)'\nz = np.round(1.5)\n")
    assert rint_calls(source) == [(4, "f"), (6, None)]


def test_np_rint_is_called_only_in_the_rounding_gate():
    # A float becomes exact counts only through `energy._rounded`, which
    # checks the mass, the a priori bounds, the residuals and the range.
    sites = [(path.name, name) for path in SOURCES
             for _, name in rint_calls(path.read_text())]
    assert sites == [("energy.py", "_rounded")]
