"""firmopt's `__all__` covers its callers and lists nothing else.

The callers are the benchmark (`benchmarks/*.py`) and the README's
python examples.  Each name they import from `firmopt`, or read as
`firmopt.<name>`, must be exported or be a submodule: a name trimmed
from the package would otherwise break the benchmark run without
failing any other test.  The sources are read with `ast`, not imported.
Each exported name must in turn be used by a caller, be an exception a
public function raises, or be documented in the README.
"""

import ast
import pkgutil
import re
from pathlib import Path

import pytest

import firmopt

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
SUBMODULES = {m.name for m in pkgutil.iter_modules(firmopt.__path__)}


def caller_sources() -> dict[str, str]:
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for path in sorted(ROOT.glob("benchmarks/*.py"))
    }
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", README, re.S)):
        sources[f"README.md python block {k}"] = block
    return sources


def names_used(source: str) -> set[str]:
    """Names imported from `firmopt` or read as `firmopt.<name>`, less
    module attributes such as `__file__`."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "firmopt" and not node.level:
            used.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "firmopt"
        ):
            used.add(node.attr)
    return {name for name in used if not name.startswith("__")}


SOURCES = caller_sources()
USED = {name: where for where, src in SOURCES.items() for name in names_used(src)}


def test_callers_are_found():
    assert any(where.startswith("README.md") for where in SOURCES)
    assert {"synthesize_policy", "certify_policy", "evaluate_chain"} <= set(USED)


@pytest.mark.parametrize("name", sorted(USED))
def test_each_name_a_caller_uses_is_exported_or_a_submodule(name):
    assert name in firmopt.__all__ or name in SUBMODULES, f"{name} (used in {USED[name]})"


@pytest.mark.parametrize("name", firmopt.__all__)
def test_each_exported_name_is_used_raised_or_documented(name):
    obj = getattr(firmopt, name)
    is_error = isinstance(obj, type) and issubclass(obj, Exception)
    documented = re.search(rf"`{name}`", README) is not None
    assert name in USED or is_error or documented
