"""Every name a package module imports is used in that module, no
module imports a `_`-prefixed name from another opfactor module, every
`_`-prefixed top-level function, class or constant is read in its
module, every public top-level function is exported by `__init__.py`
or read somewhere in the package, no module but `expr.py` imports or
names the tree node classes Sum, Product, Power and Div, inside
`expr.py` only `_fun_atom` builds a Fun and only the tree constructors
build the other four, only `_poly_mul` and its pack and unpack helpers
read the atom table and the two monomial tables, and every name
`__init__.py` re-exports is
referenced by another Python file of the repository or named in
README.md.  No module imports `dataclasses`,
and importing the CLI loads neither `dataclasses` nor `inspect`: each
command runs in a fresh interpreter, which would pay for both.

`__init__.py` is exempt from the first and the last but one rule: its
imports are the public re-exports.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "opfactor"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree) -> dict:
    """{bound name: line} of every import statement, nested ones too."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.setdefault(name, node.lineno)
    return out


def _private(tree) -> dict:
    """{name: line} of `_`-prefixed names imported from opfactor modules."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "opfactor"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    out.setdefault(alias.name, node.lineno)
    return out


def _used(tree) -> set:
    """Names read anywhere, including inside string annotations."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                out.add(base.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            out |= _used(ast.parse(annotation.value, mode="eval"))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom sys import argv, path\nx: 'Fraction' = argv\n")
    assert set(_imported(tree)) - _used(tree) == {"os", "path"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    private = _private(ast.parse(path.read_text(encoding="utf-8")))
    assert not private, f"{path.name}: imports private names {private}"


def test_detects_a_private_import():
    tree = ast.parse("from .expr import _cancel, simplify\nfrom os import _exit\n"
                     "from opfactor.cascade import _grid\nimport _thread\n")
    assert set(_private(tree)) == {"_cancel", "_grid"}


def _unread_helpers(tree) -> set:
    """`_`-prefixed top-level functions and classes that nothing else in
    the module reads; a helper's reads of itself do not count."""
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]
    return {node.name for node in defs
            if not any(node.name in _used(other) for other in tree.body if other is not node)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_helpers(path):
    unread = _unread_helpers(ast.parse(path.read_text(encoding="utf-8")))
    assert not unread, f"{path.name}: private helpers read nowhere {sorted(unread)}"


def test_detects_an_unread_private_helper():
    tree = ast.parse("def _dead(x):\n    return 1\n"
                     "def _self_only(n):\n    return _self_only(n - 1)\n"
                     "def _used(x):\n    return x\n"
                     "class _Unused:\n    pass\n"
                     "def __getattr__(name):\n    return name\n"
                     "def public():\n    return _used(2)\n"
                     "TABLE = {'k': _Kept}\nclass _Kept:\n    pass\n")
    assert _unread_helpers(tree) == {"_dead", "_self_only", "_Unused"}


def _unread_constants(tree) -> set:
    """`_`-prefixed names a module-level assignment binds that no other
    top-level statement reads; the assignment's own reads do not count."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            out |= {name for name in names
                    if name.startswith("_") and not name.startswith("__")
                    and not any(name in _used(other) for other in tree.body if other is not node)}
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_constants(path):
    unread = _unread_constants(ast.parse(path.read_text(encoding="utf-8")))
    assert not unread, f"{path.name}: private constants read nowhere {sorted(unread)}"


def test_detects_an_unread_private_constant():
    tree = ast.parse("_STALE = {(1, 1): (1, 2)}\n"
                     "_A, _B = 1, 2\n"
                     "_SELF: int = len([_SELF for _ in ()])\n"
                     "_KEPT = 3\n"
                     "__version__ = '1'\n"
                     "PUBLIC = 4\n"
                     "def f():\n    return _KEPT + _A\n"
                     "class C:\n    _inside = 5\n")
    assert _unread_constants(tree) == {"_STALE", "_B", "_SELF"}


def _unread_public_functions(trees: dict) -> set:
    """(module, name) of public top-level functions that `__init__.py`
    does not export and that no statement of the package reads but
    their own definition."""
    exported = set(_imported(trees["__init__.py"]))
    out = set()
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_") and node.name not in exported
                    and not any(node.name in _used(other)
                                for t in trees.values() for other in t.body
                                if other is not node)):
                out.add((module, node.name))
    return out


def test_no_unread_public_functions():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    unread = _unread_public_functions(trees)
    assert not unread, f"public functions neither exported nor read {sorted(unread)}"


def test_detects_an_unread_public_function():
    trees = {"__init__.py": ast.parse("from .a import exported\n"),
             "a.py": ast.parse("def exported():\n    return helper()\n"
                               "def helper():\n    return 1\n"
                               "def dead(p):\n    return dead(p)\n"
                               "def _private():\n    return 2\n"
                               "class Public:\n    def method(self):\n        return 3\n"),
             "b.py": ast.parse("from .a import dead\n"
                               "def view(p):\n    return p\n"
                               "def reader():\n    return view\n"
                               "TABLE = [reader]\n"
                               "def orphan():\n    return 4\n")}
    assert _unread_public_functions(trees) == {("a.py", "dead"), ("b.py", "orphan")}


TREE_NODES = {"Sum", "Product", "Power", "Div"}


def _tree_names(tree) -> dict:
    """{name: line} of the tree node classes a module imports or names,
    as a name or as an attribute (`expr.Sum`)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        for name in TREE_NODES.intersection(names):
            out.setdefault(name, node.lineno)
    return out


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "expr.py"],
                         ids=lambda p: p.name)
def test_tree_nodes_stay_in_expr(path):
    named = _tree_names(ast.parse(path.read_text(encoding="utf-8")))
    assert not named, f"{path.name}: names tree node classes {named}"


def test_detects_a_tree_node_outside_expr():
    tree = ast.parse("from .expr import Div as Quotient, ratio\nimport opfactor.expr as E\n"
                     "x = E.Sum\ny = isinstance(z, Power)\nself.Product = 2\n"
                     "Sums, e.terms, divisor = 1, 2, 3\n")
    assert set(_tree_names(tree)) == TREE_NODES


def _misplaced_builds(tree) -> list:
    """(scope, class) of each call, in source order, that builds a Fun outside `_fun_atom`,
    or a Sum, Product, Power or Div outside the class Expr (its operator
    methods), `_term_expr`, `poly_to_expr` and `cancelled_tree`.  A scope
    is the dotted path of the classes and functions around the call."""
    homes = {"Fun": {"_fun_atom"}}
    homes.update(dict.fromkeys(TREE_NODES, {"Expr", "_term_expr", "poly_to_expr",
                                            "cancelled_tree"}))
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in homes and scope.split(".")[0] not in homes[name]:
                out.append((scope, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def test_expr_builds_atoms_and_trees_in_their_constructors():
    # the kernel works on pairs: `_fun_atom` is the one place that makes
    # a function atom, and only the tree constructors make tree nodes
    misplaced = _misplaced_builds(ast.parse((PACKAGE / "expr.py").read_text(encoding="utf-8")))
    assert not misplaced, f"expr.py: atoms or trees built outside their constructors {misplaced}"


def test_detects_an_atom_or_tree_built_outside_its_constructor():
    tree = ast.parse("class Expr:\n    def __add__(self, o):\n        return Sum((self, o))\n"
                     "class Other:\n    def __add__(self, o):\n        return Sum((self, o))\n"
                     "def _fun_atom(name, arg):\n    return Fun(name, Product((arg, arg)))\n"
                     "def poly_to_expr(p):\n    return Sum(tuple(Power(x, 2) for x in p))\n"
                     "def _normal(mono):\n    return expr.Fun('exp', mono)\n"
                     "def _atom_derivative(a):\n"
                     "    def outer(y):\n        return Div(ONE, y)\n    return outer\n"
                     "ROOT = Fun('sqrt', TWO)\n"
                     "def cancel(pair):\n    return isinstance(pair, Fun) and Var(pair)\n")
    assert _misplaced_builds(tree) == [("Other.__add__", "Sum"), ("_fun_atom", "Product"),
                                       ("_normal", "Fun"), ("_atom_derivative.outer", "Div"),
                                       ("", "Fun")]


PACKING_TABLES = {"_FIELDS", "_ATOMS", "_NORMAL_FIELDS", "_PACKED", "_UNPACKED"}
PACKING_READERS = {"_poly_mul", "_Packing", "_Unpacking"}


def _table_readers(tree) -> list:
    """(scope, name) of each use, in source order, of a packing table
    outside `_poly_mul` and the two table classes; a module-level
    assignment to a table is its definition, not a use."""
    out = []
    for node in tree.body:
        scope = getattr(node, "name", "")
        if scope in PACKING_READERS:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in PACKING_TABLES and \
                    (scope or not isinstance(sub.ctx, ast.Store)):
                out.append((scope, sub.id))
    return out


def test_only_the_product_kernel_reads_the_packing_tables():
    # packed monomials are the product kernel's own form: everything
    # else sees polys as {monomial tuple: Fraction}
    readers = _table_readers(ast.parse((PACKAGE / "expr.py").read_text(encoding="utf-8")))
    assert not readers, f"expr.py: packing tables read outside `_poly_mul` {readers}"


def test_detects_a_packing_table_read_elsewhere():
    tree = ast.parse("_PACKED, _ATOMS = {}, []\n"
                     "def _poly_mul(p1, p2):\n    return _PACKED[p1], _FIELDS\n"
                     "class _Unpacking(dict):\n    def __missing__(self, v):\n"
                     "        return _ATOMS[v]\n"
                     "def cancel(pair):\n    return [_UNPACKED[v] for v in pair]\n"
                     "class Other:\n    def peek(self):\n        global _NORMAL_FIELDS\n"
                     "        _NORMAL_FIELDS = 0\n"
                     "SIZE = len(_PACKED)\n")
    assert _table_readers(tree) == [("cancel", "_UNPACKED"), ("Other", "_NORMAL_FIELDS"),
                                    ("", "_PACKED")]


def _references(tree) -> set:
    """Every name, attribute name and imported name in a module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(part for alias in node.names for part in alias.name.split("."))
    return out


def _dead_exports(init, others, readme: str) -> set:
    """Names `init` re-exports that no tree of `others` references and
    no word of `readme` names."""
    named = set(re.findall(r"\w+", readme)).union(*map(_references, others))
    return set(_imported(init)) - named


def test_every_export_is_used_or_documented():
    others = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(ROOT.rglob("*.py"))
              if p != PACKAGE / "__init__.py"
              and not any(part.startswith(".") for part in p.relative_to(ROOT).parts)]
    dead = _dead_exports(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")),
                         others, (ROOT / "README.md").read_text(encoding="utf-8"))
    assert not dead, f"exports neither referenced nor in README.md {sorted(dead)}"


def test_detects_a_dead_export():
    init = ast.parse("from .a import by_name, by_attr, by_import, documented, dead\n"
                     "from .b import Renamed as Alias, Other\n")
    others = [ast.parse("from opfactor.a import by_import\nx = by_name\n"),
              ast.parse("import opfactor\ny = opfactor.by_attr\n"
                        "z = 'dead Other'  # strings do not count\n"
                        "def Renamed():\n    pass\n")]
    readme = "Call `documented(x)`; its_dead is another word.\n"
    assert _dead_exports(init, others, readme) == {"dead", "Alias", "Other"}


SLOW_IMPORTS = ("dataclasses", "inspect")


def _slow_imports(tree) -> dict:
    """{module: line} of the start-up-heavy modules a module imports."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        for top in (name.split(".")[0] for name in names):
            if top in SLOW_IMPORTS:
                out.setdefault(top, node.lineno)
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses_or_inspect(path):
    slow = _slow_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not slow, f"{path.name}: imports {slow}"


def test_detects_a_dataclasses_import():
    tree = ast.parse("from dataclasses import dataclass\nimport os, inspect\n"
                     "def f():\n    import dataclasses as dc\n"
                     "from .records import record\nimport inspection\n")
    assert _slow_imports(tree) == {"dataclasses": 1, "inspect": 2}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import sys, opfactor.cli; "
             f"print(sorted(set({SLOW_IMPORTS!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
