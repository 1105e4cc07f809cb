"""HOOK001 — lifecycle-event exhaustiveness in ``sim/hooks.py``.

The simulator's dispatch is pre-resolved from the ``_HANDLERS`` table.
Adding an event class without a table entry silently drops it from every
observer, and a table entry naming a method that ``SimulationObserver``
lacks makes every dispatch-table build fail.

The checker asserts, purely from the AST of ``sim/hooks.py``:

1. every subclass of ``SimEvent`` appears as a key of ``_HANDLERS``;
2. every ``_HANDLERS`` value names a method defined on
   ``SimulationObserver`` (and the handler methods have event classes).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.lint.base import Checker, Module
from repro.lint.findings import Finding

_EVENT_BASE = "SimEvent"
_OBSERVER_BASE = "SimulationObserver"


class HookExhaustivenessChecker(Checker):
    """HOOK001: every lifecycle event is dispatchable."""

    code = "HOOK001"
    zones = frozenset({"hooks"})
    description = "every SimEvent has a dispatch-table entry and handler method"

    def check(self, module: Module) -> Iterator[Finding]:
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, ast.ClassDef)
        }
        handlers_node = self._handlers_table(module.tree)
        if handlers_node is None:
            base = classes.get(_EVENT_BASE, module.tree)
            yield module.finding(
                base,
                self.code,
                "no _HANDLERS dispatch table found in the hooks module",
            )
            return
        table = self._table_entries(handlers_node)

        event_classes = {
            name
            for name, node in classes.items()
            if name != _EVENT_BASE
            and any(
                isinstance(base, ast.Name) and base.id == _EVENT_BASE
                for base in node.bases
            )
        }
        observer = classes.get(_OBSERVER_BASE)
        observer_methods = self._method_names(observer) if observer else set()

        # 1. every event class is dispatchable
        for name in sorted(event_classes):
            if name not in table:
                yield module.finding(
                    classes[name],
                    self.code,
                    f"event class {name} has no _HANDLERS entry — it can "
                    "never be delivered to any observer",
                )
        # 2. every table entry resolves to a real handler on the base class
        for event_name, handler in sorted(table.items()):
            if event_name not in event_classes:
                yield module.finding(
                    handlers_node,
                    self.code,
                    f"_HANDLERS keys unknown event class {event_name}",
                )
            if handler not in observer_methods:
                yield module.finding(
                    handlers_node,
                    self.code,
                    f"_HANDLERS maps {event_name} to {handler!r}, which "
                    f"{_OBSERVER_BASE} does not define",
                )

    @staticmethod
    def _handlers_table(tree: ast.Module) -> Optional[ast.Assign]:
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "_HANDLERS"
                and isinstance(node.value, ast.Dict)
            ):
                return node
        return None

    @staticmethod
    def _table_entries(node: ast.Assign) -> Dict[str, str]:
        table: Dict[str, str] = {}
        assert isinstance(node.value, ast.Dict)
        for key, value in zip(node.value.keys, node.value.values):
            if isinstance(key, ast.Name) and isinstance(value, ast.Constant):
                table[key.id] = str(value.value)
        return table

    @staticmethod
    def _method_names(cls: Optional[ast.ClassDef]) -> Set[str]:
        if cls is None:
            return set()
        return {
            n.name
            for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }


__all__ = ["HookExhaustivenessChecker"]
