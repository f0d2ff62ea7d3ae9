"""Every function the benchmark's tracer hooks exists in regwave.

perfbench/tracing.py names each traced function in its TARGETS dict as a
``(module, attribute, hook)`` triple.  A target the tracer cannot find is
only counted under ``trace.missing``, which no benchmark gate reads, so a
renamed or deleted function would drop its layer from every traced run
without a failure.  The file is read as text, never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_targets(source: str) -> dict[str, tuple[str, str]]:
    """The ``(module, attribute)`` of each entry of the TARGETS dict literal."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return {
                ast.literal_eval(key): tuple(ast.literal_eval(v) for v in value.elts[:2])
                for key, value in zip(node.value.keys, node.value.values)
            }
    raise AssertionError("no TARGETS assignment")


TARGETS = tracer_targets(TRACING.read_text(encoding="utf-8"))


def test_tracer_targets_reads_the_dict_literal():
    source = (
        'X = 1\nTARGETS = {\n    "a.b": ("regwave.a", "b", None),\n'
        '    "c": ("m", "f", _hook),\n}\n'
    )
    assert tracer_targets(source) == {"a.b": ("regwave.a", "b"), "c": ("m", "f")}
    assert TARGETS


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_traced_target_exists_in_regwave(name):
    module, attr = TARGETS[name]
    assert module.split(".")[0] == "regwave"
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
