"""Every name a package module imports is used in that module, and no
module imports a `_`-prefixed name from another opfactor module.

`__init__.py` is exempt from the first rule: its imports are the public
re-exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "opfactor"
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
