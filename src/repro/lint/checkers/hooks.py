"""HOOK001 — lifecycle-event exhaustiveness in ``sim/hooks.py``.

The simulator's dispatch is pre-resolved from the ``_HANDLERS`` table, and
the simulator replaces per-query event delivery for columnar-capable
observers with lazy columnar digestion.  Adding an event class without a
table entry silently drops it from every observer; overriding a new
``on_*`` handler on a columnar-capable observer without accounting for it
in columnar mode silently diverges columnar from event-driven — the exact
regression the bit-identity proofs exist to prevent.

The checker asserts, purely from the AST of ``sim/hooks.py``:

1. every subclass of ``SimEvent`` appears as a key of ``_HANDLERS``;
2. every ``_HANDLERS`` value names a method defined on
   ``SimulationObserver`` (and the handler methods have event classes);
3. every ``on_*`` handler overridden by a ``columnar_capable`` observer is
   either forwarded in columnar mode (overridden by ``ReconfigEventsOnly``)
   or declared in the observer's ``columnar_covered`` set — its promise
   that the columnar digestion reconstructs that signal from the columns.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.lint.base import Checker, Module
from repro.lint.findings import Finding

_EVENT_BASE = "SimEvent"
_OBSERVER_BASE = "SimulationObserver"
_RECONFIG_VIEW = "ReconfigEventsOnly"


class HookExhaustivenessChecker(Checker):
    """HOOK001: events dispatchable, columnar mode accounted for."""

    code = "HOOK001"
    zones = frozenset({"hooks"})
    description = (
        "every SimEvent has a dispatch-table entry, handler method, and a "
        "columnar-mode story"
    )

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
        # 3. columnar-capable observers account for every handler they override
        reconfig_view = classes.get(_RECONFIG_VIEW)
        forwarded = self._method_names(reconfig_view) if reconfig_view else set()
        for name, node in sorted(classes.items()):
            if not self._truthy_class_attr(node, "columnar_capable"):
                continue
            covered = self._declared_covered(node)
            if covered is None:
                yield module.finding(
                    node,
                    self.code,
                    f"columnar-capable observer {name} declares no "
                    "columnar_covered set; list the on_* handlers its "
                    "columnar digestion reconstructs",
                )
                covered = set()
            overridden = {
                m for m in self._method_names(node)
                if m.startswith("on_") and m in observer_methods
            }
            for handler in sorted(overridden - forwarded - covered):
                yield module.finding(
                    node,
                    self.code,
                    f"{name}.{handler} is overridden but the simulator never "
                    "delivers it: not forwarded by "
                    f"{_RECONFIG_VIEW} and not declared in "
                    f"{name}.columnar_covered — columnar runs would silently "
                    "diverge from event-driven runs",
                )
            for handler in sorted(covered - observer_methods):
                yield module.finding(
                    node,
                    self.code,
                    f"{name}.columnar_covered names unknown handler "
                    f"{handler!r}",
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

    @staticmethod
    def _truthy_class_attr(cls: ast.ClassDef, name: str) -> bool:
        for node in cls.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name
                and isinstance(node.value, ast.Constant)
            ):
                return bool(node.value.value)
        return False

    @staticmethod
    def _declared_covered(cls: ast.ClassDef) -> Optional[Set[str]]:
        for node in cls.body:
            targets = []
            value = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if not any(
                isinstance(t, ast.Name) and t.id == "columnar_covered"
                for t in targets
            ):
                continue
            if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
                return {
                    str(e.value)
                    for e in value.elts
                    if isinstance(e, ast.Constant)
                }
            if isinstance(value, ast.Call):
                if value.args and isinstance(value.args[0], (ast.Set, ast.Tuple,
                                                             ast.List)):
                    return {
                        str(e.value)
                        for e in value.args[0].elts
                        if isinstance(e, ast.Constant)
                    }
                return set()
        return None


__all__ = ["HookExhaustivenessChecker"]
