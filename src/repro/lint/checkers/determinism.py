"""Determinism checkers: DET001 (entropy sources), DET002 (set-order
consumption), DET003 (identity/hash ordering).

Every headline claim in this repo is a bit-identity proof (replay ≡ corpus,
chunked ≡ one-shot, tenant ≡ standalone, ...).  These checkers forbid
the three source-level patterns that silently break such proofs: reading
ambient entropy (wall clocks, unseeded RNG), consuming the arbitrary
iteration order of a ``set``, and ordering by ``id()``/``hash()`` — both of
which vary across processes and interpreter runs.
"""

from __future__ import annotations

import ast
from typing import ClassVar, FrozenSet, Iterator, Optional, Set

from repro.lint.base import Checker, ImportMap, Module, call_name, dotted_name
from repro.lint.findings import Finding

# --------------------------------------------------------------------------- #
# DET001 — ambient entropy sources
# --------------------------------------------------------------------------- #

#: Exact dotted call names that read a wall clock or process entropy.
_BANNED_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Module-level functions of the stdlib ``random`` module (process-global
#: RNG state: seeding one call site perturbs every other).
_RANDOM_FUNCTIONS: FrozenSet[str] = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)


class EntropySourceChecker(Checker):
    """DET001: no wall clocks or unseeded RNG in determinism zones.

    Flags ``time.time()``-family calls, ``datetime.now()``, ``os.urandom``,
    ``uuid.uuid1/4``, anything from ``secrets``, every module-level
    ``random.*`` call, every legacy module-level ``numpy.random.*`` call,
    and ``numpy.random.default_rng()`` *without* an explicit seed.  Seeded
    generators (``default_rng(seed)``, ``Generator(...)``) are the
    sanctioned pattern and pass.
    """

    code = "DET001"
    zones = frozenset({"determinism"})
    description = (
        "no wall clocks / unseeded or process-global RNG in determinism zones"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, imports)
            if name is None:
                continue
            message = self._verdict(name, node)
            if message is not None:
                yield module.finding(node, self.code, message)

    @staticmethod
    def _verdict(name: str, node: ast.Call) -> Optional[str]:
        if name in _BANNED_CALLS:
            return (
                f"call to {name}() reads ambient wall-clock/entropy state; "
                "simulated time and seeded generators are the only sanctioned "
                "sources in determinism zones"
            )
        if name.startswith("secrets."):
            return (
                f"call to {name}() draws OS entropy; determinism zones must "
                "use seeded numpy Generators"
            )
        head, _, tail = name.partition(".")
        if head == "random" and tail in _RANDOM_FUNCTIONS:
            return (
                f"module-level random.{tail}() uses the process-global RNG; "
                "use a seeded np.random.default_rng(seed) (or random.Random(seed)) "
                "owned by the caller"
            )
        if name.startswith(("numpy.random.", "np.random.")):
            attr = name.rsplit(".", 1)[-1]
            if attr == "default_rng":
                if not node.args and not node.keywords:
                    return (
                        "np.random.default_rng() without a seed draws OS "
                        "entropy; pass an explicit seed"
                    )
                return None
            if attr in {"Generator", "SeedSequence", "PCG64", "Philox", "MT19937"}:
                return None
            return (
                f"legacy module-level np.random.{attr}() uses process-global "
                "RNG state; use a seeded np.random.default_rng(seed)"
            )
        return None


# --------------------------------------------------------------------------- #
# DET002 — set iteration order feeding dispatch/sort decisions
# --------------------------------------------------------------------------- #


class _SetBindings(ast.NodeVisitor):
    """Collect names / ``self`` attributes bound to set values in a module.

    Local inference only — a binding counts when it is (a) assigned a set
    display, set comprehension or ``set()``/``frozenset()`` call, or (b)
    annotated ``set``/``Set``/``frozenset``/``FrozenSet``/``MutableSet``.
    """

    _SET_ANNOTATIONS: ClassVar[Set[str]] = {
        "set", "Set", "frozenset", "FrozenSet", "MutableSet"
    }

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self.self_attrs: Set[str] = set()

    def _record(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                self.self_attrs.add(target.attr)

    def _is_set_value(self, value: Optional[ast.AST]) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            return name in {"set", "frozenset"}
        return False

    def _is_set_annotation(self, annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        name = dotted_name(annotation)
        if name is None:
            return False
        return name.rsplit(".", 1)[-1] in self._SET_ANNOTATIONS

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_value(node.value):
            for target in node.targets:
                self._record(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._is_set_value(node.value) or self._is_set_annotation(node.annotation):
            self._record(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._is_set_value(node.value):
            self._record(node.target)
        self.generic_visit(node)


class SetOrderChecker(Checker):
    """DET002: set iteration order must never reach an ordering decision.

    In hot-path modules, iterating a ``set`` (a ``for`` loop or a
    comprehension), materialising one (``list(s)``/``tuple(s)``), reducing
    one with ``min()``/``max()``, or ``s.pop()`` all consume the arbitrary
    hash/insertion order — which the replay loop turns into dispatch order.
    Membership tests and ``add``/``discard`` are fine; ``sorted(s)`` is the
    sanctioned way to linearise a set.
    """

    code = "DET002"
    zones = frozenset({"hot-path"})
    description = "no set-iteration-order consumption in hot-path modules"

    def check(self, module: Module) -> Iterator[Finding]:
        bindings = _SetBindings()
        bindings.visit(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter, bindings):
                    yield module.finding(
                        node,
                        self.code,
                        "iterating a set drives loop order from hash/insertion "
                        "order; iterate sorted(...) or an explicitly ordered "
                        "structure",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for comp in node.generators:
                    if self._is_set_expr(comp.iter, bindings):
                        yield module.finding(
                            node,
                            self.code,
                            "comprehension over a set consumes arbitrary "
                            "iteration order; iterate sorted(...) instead",
                        )
            elif isinstance(node, ast.Call):
                yield from self._check_call(node, module, bindings)

    def _check_call(
        self, node: ast.Call, module: Module, bindings: _SetBindings
    ) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name in {"min", "max", "list", "tuple", "next", "iter"} and node.args:
            if self._is_set_expr(node.args[0], bindings):
                yield module.finding(
                    node,
                    self.code,
                    f"{name}() over a set resolves ties/order by set iteration "
                    "order; sort first (sorted(...) with a total key) or keep "
                    "an indexed ordered view",
                )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and not node.args
            and self._is_set_expr(node.func.value, bindings)
        ):
            yield module.finding(
                node,
                self.code,
                "set.pop() removes an arbitrary element; pick deterministically "
                "(e.g. min(sorted(...))) or use an ordered container",
            )

    @staticmethod
    def _is_set_expr(node: ast.AST, bindings: _SetBindings) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name in {"set", "frozenset"}
        if isinstance(node, ast.Name):
            return node.id in bindings.names
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in bindings.self_attrs
            )
        return False


# --------------------------------------------------------------------------- #
# DET003 — id()/hash() ordering keys
# --------------------------------------------------------------------------- #


class IdentityOrderChecker(Checker):
    """DET003: no ``id()``/``hash()`` in ordering or grouping keys.

    ``id()`` is an allocation address (different every run) and ``str``
    hashes are salted per process (``PYTHONHASHSEED``), so a sort/min/max
    key — or a grouping-dict subscript — built from either produces a
    different order in every interpreter.  Flags ``key=id``, ``key=hash``,
    ``id()``/``hash()`` calls anywhere inside a ``key=`` argument, and
    ``d[id(x)]`` grouping subscripts.
    """

    code = "DET003"
    zones = frozenset({"determinism"})
    description = "no id()/hash()-derived ordering or grouping keys"

    _ORDERING: ClassVar[Set[str]] = {"sorted", "min", "max", "sort", "groupby"}

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(node, module)
            elif isinstance(node, ast.Subscript):
                if self._contains_identity(node.slice):
                    yield module.finding(
                        node,
                        self.code,
                        "grouping by id()/hash() keys produces a different "
                        "table order every run; key on a stable identifier "
                        "(instance_id, name, index)",
                    )

    def _check_call(self, node: ast.Call, module: Module) -> Iterator[Finding]:
        callee = dotted_name(node.func)
        simple = callee.rsplit(".", 1)[-1] if callee else None
        if simple not in self._ORDERING:
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            value = keyword.value
            if isinstance(value, ast.Name) and value.id in {"id", "hash"}:
                yield module.finding(
                    node,
                    self.code,
                    f"key={value.id} orders by the default object "
                    f"{'address' if value.id == 'id' else 'hash'}, which "
                    "differs across runs; key on a stable field",
                )
            elif self._contains_identity(value):
                yield module.finding(
                    node,
                    self.code,
                    "ordering key calls id()/hash(); both vary across "
                    "interpreter runs — key on a stable field instead",
                )

    @staticmethod
    def _contains_identity(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in {"id", "hash"}
            ):
                return True
        return False


__all__ = ["EntropySourceChecker", "IdentityOrderChecker", "SetOrderChecker"]
