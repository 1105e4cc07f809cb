"""repro.lint — determinism & concurrency static analysis for this repo.

An AST-based (stdlib :mod:`ast`) checker suite enforcing, at the source
level, the invariants the bit-identity proofs rest on: no ambient entropy
in simulation/scheduling code (DET001), no set-iteration-order consumption
on hot paths (DET002), no ``id()``/``hash()`` ordering keys (DET003),
asyncio hygiene in the daemon (CONC001), pool-pickling safety in the sweep
engine (CONC002), lifecycle-event dispatchability (HOOK001) and full
annotations in the mypy-gated packages (TYP001).

Run it as ``python -m repro.lint``; see ``docs/static_analysis.md`` for
the catalogue, the ``# lint: ignore[CODE]`` pragma and the baseline
workflow.
"""

from repro.lint.base import Checker, Module
from repro.lint.checkers import ALL_CHECKERS, checker_catalogue
from repro.lint.findings import Finding
from repro.lint.runner import lint_paths, lint_source
from repro.lint.zones import ZONES, zones_for

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "Finding",
    "Module",
    "ZONES",
    "checker_catalogue",
    "lint_paths",
    "lint_source",
    "zones_for",
]
