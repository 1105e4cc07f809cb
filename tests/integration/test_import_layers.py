"""The bottom layers import no layer above them.

``workload``, ``perf``, ``gpu`` and ``models`` sit under the paper's
algorithms, the simulator and everything built on them.  An import from a
higher layer, even inside a function or a ``TYPE_CHECKING`` block, ties the
bottom of the stack to the top: a ``repro.core`` import in ``workload/``
makes ``import repro.workload`` load core and sim, which import workload
back, so a module-level workload import anywhere on that chain (say, in
``sim/columnar.py``) fails ``import repro`` with a circular import.  Every
import statement of those packages is scanned, not just the ones that run.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
LOWER = ("workload", "perf", "gpu", "models")
HIGHER = ("core", "sim", "serving", "analysis", "autoscale", "faults", "daemon", "pipeline")


def imported_modules(tree: ast.AST):
    """Every module an import statement of ``tree`` names, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module
            if node.module == "repro":  # from repro import core
                for alias in node.names:
                    yield node.lineno, f"repro.{alias.name}"


def is_higher_layer(module: str) -> bool:
    top, _, rest = module.partition(".")
    return top == "repro" and rest.partition(".")[0] in HIGHER


def higher_layer_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.relative_to(PACKAGE)}:{line} imports {module}"
        for line, module in imported_modules(tree)
        if is_higher_layer(module)
    ]


@pytest.mark.parametrize("layer", LOWER)
def test_lower_layer_imports_no_higher_layer(layer):
    modules = sorted((PACKAGE / layer).glob("*.py"))
    assert modules, f"no modules found under {PACKAGE / layer}"
    offending = [hit for path in modules for hit in higher_layer_imports(path)]
    assert offending == []
