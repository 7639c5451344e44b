"""Static rules for the package source, read with `ast`.

No `assert` statement: `python -O` drops it, so a check must raise.  No
`numpy` or `sympy` import, at module level or inside a function: both are
test oracles only.  The subprocess import test sees only the modules that
an import loads; this one sees every line.
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


def _violations(source, name="<source>"):
    out = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Assert):
            out.append((node.lineno, "assert statement"))
        for root in sorted(_imported_roots(node) & ORACLE_ONLY):
            out.append((node.lineno, f"imports {root}"))
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
