"""The benchmark's tracer binds program entry points by name: each one it
names must exist, or a renamed function would drop out of the per-layer
figures unnoticed."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    """``TARGETS`` from ``perfbench/tracer.py``, read from its source
    without running the module."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_every_traced_target_resolves():
    targets = tracer_targets()
    assert "linalg.solve_combination" in targets and "linalg.nullspace_basis" in targets
    for label, (module_name, class_name, attributes, _leaf) in targets.items():
        owner = importlib.import_module(f"extprob.{module_name}")
        where = f"extprob.{module_name}"
        if class_name is not None:
            owner = getattr(owner, class_name)
            where += f".{class_name}"
        for attribute in attributes:
            assert callable(getattr(owner, attribute, None)), f"{label}: {where} has no {attribute}"
