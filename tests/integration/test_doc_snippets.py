"""The documented entry points run as written.

The first Python block of each section below is executed verbatim, so
renaming or deleting a public name it uses fails here instead of in a
reader's shell: the README's Quickstart, fleet and session sections,
``docs/index.md``'s orientation, ``docs/fleets.md``'s fleet session and
fleet of one, and ``docs/autoscaling.md``'s fleet elasticity.
Each block is self-contained and prints what it ran.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def first_python_block(path: str, heading: str) -> str:
    text = (ROOT / path).read_text(encoding="utf-8")
    match = PYTHON_BLOCK.search(text, text.index(f"\n{heading}\n"))
    assert match is not None, f"{path} has no Python block after {heading!r}"
    return match.group(1)


@pytest.mark.parametrize(
    ("path", "heading"),
    [
        ("README.md", "## Quickstart"),
        ("docs/index.md", "## One-minute orientation"),
        ("README.md", "## Heterogeneous fleets"),
        ("README.md", "## Sessions, scenarios, live repartitioning"),
        ("docs/fleets.md", "## Serving on a fleet"),
        ("docs/fleets.md", "## A server is a fleet of one"),
        ("docs/autoscaling.md", "## Fleet elasticity on `ServingSession`"),
    ],
)
def test_documented_snippet_runs(path, heading, capsys):
    code = compile(first_python_block(path, heading), f"{path} ({heading})", "exec")
    exec(code, {"__name__": "snippet"})
    assert capsys.readouterr().out
