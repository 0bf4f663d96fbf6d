"""The package keeps mpmath as its only dependency.

Every import in ``src/deflap``, function-local ones included, names a
standard-library module, mpmath, or the package itself (relative).
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "deflap"


@pytest.mark.skipif(sys.version_info < (3, 10), reason="sys.stdlib_module_names needs Python 3.10")
def test_imports_are_stdlib_or_mpmath():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update((path.name, name.partition(".")[0]) for name in names)
    # the walk reaches into function bodies
    assert ("diagonalize.py", "fractions") in found
    foreign = sorted(pair for pair in found
                     if pair[1] != "mpmath" and pair[1] not in sys.stdlib_module_names)
    assert foreign == []
