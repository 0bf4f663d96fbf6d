"""The package keeps mpmath as its only dependency, and no dead helpers.

Every import in ``src/deflap``, function-local ones included, names a
standard-library module, mpmath, or the package itself (relative). Every
module-level private function or class is named by library code outside
its own definition.
"""

import ast
import pathlib
import subprocess
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


def test_import_leaves_fractions_unloaded():
    # the exact count rung imports fractions where it runs, so importing
    # deflap, which the benchmark's set-up time includes, does not
    code = "import sys, deflap; print('fractions' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC.parent, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_private_helpers_have_a_library_caller():
    # a name counts as a Name, an Attribute or an import alias anywhere in
    # the package but inside the private definition itself, so a helper
    # that only tests call, or only calls itself, is reported
    defined = []
    named = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if top.name.startswith("_") and not top.name.startswith("__"):
                    owner = top.name
                    defined.append((path.name, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != owner:
                    named.add(name)
    assert ("diagonalize.py", "_Ladder") in defined
    assert [pair for pair in defined if pair[1] not in named] == []
