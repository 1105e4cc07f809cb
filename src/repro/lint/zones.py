"""Per-module policy zones.

A *zone* names a guarantee a group of modules must uphold; each checker
declares which zones it polices and the runner only dispatches it to
modules inside them.  Zone membership is computed from the module's path
relative to the ``repro`` package root (``"sim/cluster.py"``,
``"daemon/api.py"``, ...), so the map below reads like the repo layout.

The zones and what they protect:

* ``determinism`` — everything whose outputs feed a bit-identity proof
  (replay ≡ corpus, chunked ≡ one-shot, tenant ≡ standalone, ...): no
  wall clocks, no unseeded RNG, no hash-order-dependent logic.
* ``hot-path`` — the replay loop and the policies it consults: iteration
  order is dispatch order here, so bare ``set`` iteration is forbidden.
* ``asyncio`` — the serving daemon: no blocking calls on the event loop,
  admission state only mutates under the admission ``Condition``.
* ``pool`` — code shipped into the sweep ``ProcessPoolExecutor``: classes
  holding live pools/locks/sessions must strip them in ``__getstate__``.
* ``hooks`` — the lifecycle-event layer: every event type must stay
  dispatchable.
* ``typed`` — the packages under the strict typing gate: every function
  is fully annotated (mirrors the ``mypy`` CI gate locally).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

#: zone name -> path prefixes/files relative to the ``repro`` package root.
ZONES: Dict[str, Tuple[str, ...]] = {
    "determinism": (
        "registry.py",
        "sim/",
        "core/",
        "workload/",
        "serving/",
        "autoscale/",
        "faults/",
        "pipeline/",
    ),
    "hot-path": (
        "sim/",
        "core/schedulers.py",
        "core/elsa.py",
        "core/paris.py",
        "autoscale/",
    ),
    "asyncio": ("daemon/",),
    "pool": ("analysis/sweep.py", "analysis/experiments.py", "autoscale/planner.py"),
    "hooks": ("sim/hooks.py",),
    "typed": ("registry.py", "core/", "sim/", "gpu/", "autoscale/", "faults/"),
}

#: Every declared zone name (checkers validate their declarations against it).
ALL_ZONES: FrozenSet[str] = frozenset(ZONES)


def zones_for(rel_path: str) -> FrozenSet[str]:
    """Zones of the module at ``rel_path`` (relative to the package root).

    A prefix entry ending in ``"/"`` matches a whole subpackage; any other
    entry must match the path exactly.  Paths outside every zone (e.g.
    ``models/bert.py``) return the empty set — zone-scoped checkers skip
    them entirely.
    """
    rel = rel_path.replace("\\", "/")
    out = set()
    for zone, patterns in ZONES.items():
        for pattern in patterns:
            if pattern.endswith("/"):
                if rel.startswith(pattern):
                    out.add(zone)
                    break
            elif rel == pattern:
                out.add(zone)
                break
    return frozenset(out)


__all__ = ["ALL_ZONES", "ZONES", "zones_for"]
