"""Static rules for the package source, read with `ast`.

No `assert` statement: `python -O` drops it, so a check must raise.  No
`numpy` or `sympy` import, at module level or inside a function: both are
test oracles only.  No module but `zpoly` imports or reads an underscore
name of `zpoly`: the polynomial arithmetic is public there and nowhere
else.  The subprocess import test sees only the modules that an import
loads; this one sees every line.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jigroup"
ORACLE_ONLY = {"numpy", "sympy"}


def _modules():
    return sorted(SRC.glob("*.py"))


def _imported_roots(node):
    if isinstance(node, ast.Import):
        return {alias.name.partition(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return {node.module.partition(".")[0]}
    return set()


def _private_zpoly_names(node):
    """Underscore names of zpoly that node imports or reads as zpoly._name."""
    if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "zpoly":
        return [alias.name for alias in node.names if alias.name.startswith("_")]
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "zpoly" and node.attr.startswith("_")):
        return [node.attr]
    return []


def _violations(source, name="<source>"):
    out = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Assert):
            out.append((node.lineno, "assert statement"))
        for root in sorted(_imported_roots(node) & ORACLE_ONLY):
            out.append((node.lineno, f"imports {root}"))
        if name != "zpoly.py":
            for private in _private_zpoly_names(node):
                out.append((node.lineno, f"uses zpoly.{private}"))
    return [f"{name}:{line}: {what}" for line, what in sorted(out)]


def test_the_package_has_modules():
    assert len(_modules()) > 10


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_module_has_no_assert_and_no_oracle_import(path):
    assert _violations(path.read_text(), path.name) == []


def test_the_rules_see_nested_asserts_and_imports():
    source = (
        "import os\n"
        "from . import perm\n"
        "def f(x):\n"
        "    import numpy as np\n"
        "    if x:\n"
        "        assert x > 0\n"
        "    from sympy.polys import factor_list\n"
        "class C:\n"
        "    def g(self):\n"
        "        import sympy\n"
    )
    assert _violations(source) == [
        "<source>:4: imports numpy",
        "<source>:6: assert statement",
        "<source>:7: imports sympy",
        "<source>:10: imports sympy",
    ]


def test_the_rules_see_private_zpoly_names():
    source = (
        "from . import zpoly\n"
        "from .zpoly import factor_q, _fp_bezout\n"
        "from jigroup.zpoly import _exact_quo as quo\n"
        "def f(g):\n"
        "    return zpoly.mul(g, g), zpoly._primitive(g)\n"
    )
    assert _violations(source) == [
        "<source>:2: uses zpoly._fp_bezout",
        "<source>:3: uses zpoly._exact_quo",
        "<source>:5: uses zpoly._primitive",
    ]
    assert _violations(source, "zpoly.py") == []
