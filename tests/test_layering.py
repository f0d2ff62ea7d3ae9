"""The numerical and pipeline modules never import the file formats or the CLI,
no module imports a name it does not read, and only the format readers and
writers open files.

Formats and the CLI sit on top: they read and write what the modules below
compute.  An import the other way round couples the kernels to a file layout.
An import nothing reads is left over from a deletion.  Every file is opened by
formats or, for scenario files, by scenario, so that each on-disk layout is
written in one place; the CLI passes paths along, gets back what each writer
took, and indexes only the report document it builds itself.
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


def unused_imports(source: str) -> list[str]:
    """Names an import binds that nothing else in the source reads.

    ``from __future__`` imports and an import whose statement carries
    ``# noqa: F401`` bind names on purpose and are left out.
    """
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        statement = lines[node.lineno - 1 : node.end_lineno]
        if getattr(node, "module", None) == "__future__" or any(
            "# noqa: F401" in line for line in statement
        ):
            continue
        bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_only_unread_names():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .a import (\n    b,\n    c,\n)\nfrom .d import e  # noqa: F401\n"
        "def f(x: c) -> None:\n    return np.asarray(os.path.join(x))\n"
    )
    assert unused_imports(source) == ["b"]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


OPENERS = ("formats", "scenario")


def calls_open(source: str) -> bool:
    """Whether the source calls open, by name or as an attribute such as
    ``io.open`` or ``path.open``."""
    return any(
        isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Name) and node.func.id == "open"
             or isinstance(node.func, ast.Attribute) and node.func.attr == "open")
        for node in ast.walk(ast.parse(source))
    )


def test_calls_open_finds_every_form():
    for source in ("with open(p) as fh:\n    pass\n", "import io\nio.open(p)\n",
                   "def f(path):\n    return path.open('w')\n"):
        assert calls_open(source), source
    assert not calls_open("opener = open\nreopen(p)\nx.opened()\nopen_files = []\n")


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.stem not in OPENERS),
    ids=lambda p: p.stem,
)
def test_only_formats_and_scenario_open_files(path):
    assert not calls_open(path.read_text(encoding="utf-8"))


def test_cli_does_not_import_json():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert "json" not in set(imported_modules(source))


def string_keyed_subscripts(source: str) -> list[str]:
    """The source text of every expression that a string constant indexes."""
    return [
        ast.unparse(node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    ]


def test_cli_indexes_no_file_document():
    # The readers in formats return what their writers took, so the only
    # document the CLI indexes is the report that cmd_compare builds.
    assert string_keyed_subscripts('meta["n"]\nx[0]\nf"{doc[\'k\']}"\n') == ["meta", "doc"]
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert set(string_keyed_subscripts(source)) == {"doc"}


def feature_axis_uses(source: str) -> list[str]:
    """Every name as_feature_matrix or per_window that the source defines,
    imports or reads, and every subscript that appends a feature axis,
    ``[:, :, None]``.  The detector scores one series, in ``(rows, m)``
    stacks, and compare always scores with one calibrated model."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and ast.unparse(node).endswith("[:, :, None]"):
            found.append(ast.unparse(node))
        names = (getattr(node, field, None) for field in ("id", "attr", "arg", "name"))
        found += [name for name in names if name in ("as_feature_matrix", "per_window")]
    return found


def test_the_detector_has_no_feature_axis_and_no_per_window_fit():
    source = ("from .gaussian import as_feature_matrix\ndef f(x, per_window):\n"
              "    return g(x[:,:,None], per_window=args.per_window)\n")
    assert sorted(feature_axis_uses(source)) == [
        "as_feature_matrix", "per_window", "per_window", "per_window", "x[:, :, None]"]
    for path in sorted(PACKAGE.glob("*.py")):
        assert feature_axis_uses(path.read_text(encoding="utf-8")) == [], path.name


def energy_floor_uses(source: str) -> list[str]:
    """Every ReductionPolicy that the source defines, imports or reads, and
    every min_energy_ratio it names or holds in a string.  Every window
    descends to the depth it is asked for, so only formats, which writes
    the old floor's field as 0.0 and checks it on reading, names it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = (getattr(node, field, None) for field in ("id", "attr", "arg", "name"))
        found += [name for name in names if name in ("ReductionPolicy", "min_energy_ratio")]
        if isinstance(node, ast.Constant) and "min_energy_ratio" in str(node.value):
            found.append("min_energy_ratio")
    return found


def test_no_module_but_formats_knows_the_energy_floor():
    source = ("from .reducer import ReductionPolicy\nclass ReductionPolicy:\n    pass\n"
              "def f(min_energy_ratio):\n"
              "    return g(x.min_energy_ratio, doc['min_energy_ratio'], f'{y} min_energy_ratio')\n")
    assert sorted(energy_floor_uses(source)) == [
        "ReductionPolicy", "ReductionPolicy", "min_energy_ratio", "min_energy_ratio",
        "min_energy_ratio", "min_energy_ratio"]
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = {"min_energy_ratio"} if path.stem == "formats" else set()
        assert set(energy_floor_uses(path.read_text(encoding="utf-8"))) <= allowed, path.name


def batch_agreement_uses(source: str) -> list[str]:
    """Every family_length_and_depth or FamilyMismatchError that the source
    defines, imports or reads, and every "L" or "H" string constant.  One
    ReducedRegister holds every window of a series with one family, length
    and depth, so no batch of registers can disagree, and a kept branch is
    a boolean; only formats, which writes and reads the path text, spells
    its letters."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = (getattr(node, field, None) for field in ("id", "attr", "arg", "name"))
        found += [name for name in names
                  if name in ("family_length_and_depth", "FamilyMismatchError")]
        if isinstance(node, ast.Constant) and node.value in ("L", "H"):
            found.append(node.value)
    return found


def test_no_module_checks_that_registers_agree_and_only_formats_spells_a_path():
    source = ("from .errors import FamilyMismatchError\n"
              "def family_length_and_depth(r):\n"
              "    raise errors.FamilyMismatchError(family_length_and_depth(r))\n"
              "x = 'H' if h else \"L\"\ny = 'LH'\n")
    assert sorted(batch_agreement_uses(source)) == [
        "FamilyMismatchError", "FamilyMismatchError", "H", "L",
        "family_length_and_depth", "family_length_and_depth"]
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = {"L", "H"} if path.stem == "formats" else set()
        assert set(batch_agreement_uses(path.read_text(encoding="utf-8"))) <= allowed, path.name
