"""The benchmark's trace targets name callables of firmopt.

`benchmarks/worker.py` lists in SPANS and COUNTERS the firmopt functions
its traced run wraps, by name ("module.attr" or "module.Class.method").
A rename or a method turned property in firmopt would break the traced
run without failing any other test.  The names are read from the file's
source with `ast` (importing it would import the benchmark's own modules)
and resolved the way `benchmarks/tracing.py` resolves them.
"""

import ast
import importlib
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "benchmarks" / "worker.py"
LISTS = ("SPANS", "COUNTERS")


def trace_targets() -> dict[str, tuple[str, ...]]:
    found = {}
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in LISTS:
                found[name] = ast.literal_eval(node.value)
    return found


TARGETS = trace_targets()


def test_both_lists_are_literal_and_non_empty():
    assert set(TARGETS) == set(LISTS)
    assert all(TARGETS[name] for name in LISTS)


@pytest.mark.parametrize("target", [t for name in LISTS for t in TARGETS.get(name, ())])
def test_each_target_resolves_to_a_callable(target):
    module_name, _, attr = target.partition(".")
    assert attr and attr.count(".") <= 1, "expected module.attr or module.Class.method"
    owner = importlib.import_module(f"firmopt.{module_name}")
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)
