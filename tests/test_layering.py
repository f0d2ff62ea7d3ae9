"""The numerical and pipeline modules never import the file formats or the CLI.

Formats and the CLI sit on top: they read and write what the modules below
compute.  An import the other way round couples the kernels to a file layout.
"""

import ast
from pathlib import Path

import pytest

import regwave

PACKAGE = Path(regwave.__file__).parent
BELOW = ("wavelets", "reducer", "gaussian", "metrics", "pipeline", "telemetry", "suite")
ABOVE = {"regwave.formats", "regwave.cli"}


def imported_modules(source: str):
    """Every module an import statement anywhere in the source names,
    relative imports resolved inside the regwave package."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "regwave" if node.level else ""
            if node.module:
                module = f"{module}.{node.module}" if module else node.module
            yield module
            # ``from . import formats`` and ``from regwave import cli``.
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_imported_modules_resolves_every_import_form():
    source = (
        "import regwave.cli\nfrom . import formats\nfrom .formats import x\n"
        "from regwave.formats import y\ndef f():\n    from .cli import main\n"
    )
    assert ABOVE <= set(imported_modules(source))
    assert not ABOVE & set(imported_modules("from .reducer import formats_like\n"))


@pytest.mark.parametrize("name", BELOW)
def test_module_does_not_import_formats_or_cli(name):
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert not ABOVE & set(imported_modules(source))
