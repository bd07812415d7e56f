"""Zero runtime dependencies: the package imports the standard library only."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "k3cone"


def absolute_imports(path):
    """Top-level names of the modules a source file imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_absolute_import_is_in_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {
        path.name: sorted(absolute_imports(path) - sys.stdlib_module_names)
        for path in sources
    }
    assert {name: mods for name, mods in outside.items() if mods} == {}
