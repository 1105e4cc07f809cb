"""The shared structural comparator behind every artifact gate.

Every committed-artifact check in this repo used to carry its own copy of a
``_match`` structural diff (the autoscale and fault smoke scripts were
literal copy-pastes; the figure experiments had nothing at all).  This
module is the single implementation: a recursive structural diff between a
*fresh* payload and a *pinned* baseline with

* **shape checks** — dict key sets and list lengths must match exactly,
  with both missing and unexpected keys reported;
* **exact matching for integers, bools and strings** — counts (crashes,
  windows, instances, queries) are discrete facts; a baseline integer that
  drifts by one is a real behavior change, never noise;
* **tolerant matching for floats** — a pinned float accepts any number
  within ``rel_tol``/``abs_tol`` (``math.isclose`` semantics), with
  per-field overrides keyed by the leaf field name for quantities that are
  legitimately noisier than the default;
* **total NaN/inf handling** — a pinned NaN matches only a fresh NaN (the
  comparison is an equivalence, not IEEE ``==``), and infinities must match
  in sign.

The diff returns human-readable mismatch strings (dotted/indexed paths into
the payload) instead of raising, so callers can report the first mismatch,
all of them, or feed them to an exit code.
"""

from __future__ import annotations

import math
from typing import Any, List, Mapping, Optional

#: Default relative tolerance for pinned floats (the historical ``_match``
#: value: tight enough that any genuine behavior change trips it).
DEFAULT_REL_TOL = 1e-6

#: Default absolute tolerance for pinned floats near zero.
DEFAULT_ABS_TOL = 1e-9

#: Safety valve on the number of mismatches collected per diff.
DEFAULT_LIMIT = 50


def diff_structures(
    fresh: Any,
    pinned: Any,
    *,
    path: str = "payload",
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    field_tolerances: Optional[Mapping[str, float]] = None,
    limit: int = DEFAULT_LIMIT,
) -> List[str]:
    """Structurally diff ``fresh`` against the ``pinned`` baseline.

    Args:
        fresh: the regenerated payload.
        pinned: the committed baseline the payload must reproduce.
        path: root label used in mismatch messages.
        rel_tol / abs_tol: default float tolerances (``math.isclose``).
        field_tolerances: per-field *relative* tolerance overrides, keyed
            by the leaf dict key holding the float (e.g.
            ``{"throughput_qps": 1e-3}``); an override of ``0.0`` demands
            exact equality for that field.
        limit: stop collecting after this many mismatches.

    Returns:
        A list of mismatch descriptions; empty when the payload reproduces
        the baseline within tolerance.
    """
    mismatches: List[str] = []
    _diff(
        fresh,
        pinned,
        path,
        rel_tol,
        abs_tol,
        dict(field_tolerances or {}),
        None,
        mismatches,
        limit,
    )
    return mismatches


def _diff(
    fresh: Any,
    pinned: Any,
    path: str,
    rel_tol: float,
    abs_tol: float,
    overrides: Mapping[str, float],
    field: Optional[str],
    out: List[str],
    limit: int,
) -> None:
    if len(out) >= limit:
        return
    if isinstance(pinned, Mapping):
        if not isinstance(fresh, Mapping):
            out.append(f"{path}: expected an object, got {type(fresh).__name__}")
            return
        missing = sorted(set(pinned) - set(fresh))
        unexpected = sorted(set(fresh) - set(pinned))
        if missing:
            out.append(f"{path}: missing keys {missing}")
        if unexpected:
            out.append(f"{path}: unexpected keys {unexpected}")
        for key in pinned:
            if key in fresh:
                _diff(
                    fresh[key],
                    pinned[key],
                    f"{path}.{key}",
                    rel_tol,
                    abs_tol,
                    overrides,
                    str(key),
                    out,
                    limit,
                )
        return
    if isinstance(pinned, (list, tuple)):
        if not isinstance(fresh, (list, tuple)):
            out.append(f"{path}: expected a list, got {type(fresh).__name__}")
            return
        if len(fresh) != len(pinned):
            out.append(f"{path}: list length {len(fresh)} != {len(pinned)}")
            return
        for index, (a, b) in enumerate(zip(fresh, pinned)):
            _diff(
                a,
                b,
                f"{path}[{index}]",
                rel_tol,
                abs_tol,
                overrides,
                field,
                out,
                limit,
            )
        return
    # bool before int: True/False are discrete facts, and bool is an int
    # subclass so the integer branch would otherwise swallow them.
    if isinstance(pinned, bool) or isinstance(fresh, bool):
        if fresh is not pinned:
            out.append(f"{path}: {fresh!r} != {pinned!r}")
        return
    if isinstance(pinned, int):
        # exact integer matching: counts never get a tolerance, and a float
        # where the baseline pinned an integer is a type drift worth failing
        if not isinstance(fresh, int) or fresh != pinned:
            out.append(f"{path}: {fresh!r} != {pinned!r} (exact integer match)")
        return
    if isinstance(pinned, float):
        if not isinstance(fresh, (int, float)):
            out.append(f"{path}: expected a number, got {fresh!r}")
            return
        tolerance = overrides.get(field, rel_tol) if field is not None else rel_tol
        if not _floats_equivalent(float(fresh), pinned, tolerance, abs_tol):
            out.append(
                f"{path}: {fresh!r} != {pinned!r} (rel_tol={tolerance:g})"
            )
        return
    if fresh != pinned:
        out.append(f"{path}: {fresh!r} != {pinned!r}")


def _floats_equivalent(
    fresh: float, pinned: float, rel_tol: float, abs_tol: float
) -> bool:
    """Equivalence (not IEEE equality) of two floats under a tolerance."""
    if math.isnan(pinned) or math.isnan(fresh):
        # NaN is "the same value" only against another NaN; isclose would
        # reject NaN == NaN and silently let nothing match it at all.
        return math.isnan(pinned) and math.isnan(fresh)
    if math.isinf(pinned) or math.isinf(fresh):
        return fresh == pinned
    if rel_tol <= 0.0:
        return fresh == pinned
    return math.isclose(fresh, pinned, rel_tol=rel_tol, abs_tol=abs_tol)


def first_mismatch(mismatches: List[str]) -> str:
    """The leading mismatch, with a count of how many more there are."""
    if not mismatches:
        return ""
    if len(mismatches) == 1:
        return mismatches[0]
    return f"{mismatches[0]} (+{len(mismatches) - 1} more)"


__all__ = [
    "DEFAULT_ABS_TOL",
    "DEFAULT_LIMIT",
    "DEFAULT_REL_TOL",
    "diff_structures",
    "first_mismatch",
]
