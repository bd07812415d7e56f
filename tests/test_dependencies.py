"""Zero runtime dependencies: the package imports the standard library only,
and starting a command does not import what it never uses."""

import ast
import os
import subprocess
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


def loaded_modules(code):
    """The modules a fresh interpreter holds after running ``code``."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return set(done.stdout.split())


def test_starting_the_cli_does_not_import_dataclasses():
    """dataclasses imports inspect, ast, dis and tokenize and generates each
    class's methods on import, and fractions imports decimal and numbers:
    start-up work that no command needs."""
    added = loaded_modules("import k3cone.cli") - loaded_modules("pass")
    assert "k3cone.cli" in added
    unwanted = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "numbers"}
    assert unwanted & added == set()
