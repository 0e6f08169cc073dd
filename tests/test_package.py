"""The package's runtime dependencies stay numpy-only: every import in every
module under ``src/pivotgauge`` names the standard library, numpy or the
package itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pivotgauge"
ALLOWED = {*sys.stdlib_module_names, "numpy", "pivotgauge"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative: the package
            yield node.module.split(".")[0]


def test_runtime_imports_are_stdlib_numpy_or_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = {
        (path.name, root)
        for path in modules
        for root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in ALLOWED
    }
    assert not foreign, f"imports outside the standard library and numpy: {sorted(foreign)}"
