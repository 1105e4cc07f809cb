"""Name-keyed factory registries, the extension mechanism of every pluggable
policy.

A :class:`PolicyRegistry` maps case-insensitive names (and aliases) to
factories and registers them by decorator.  The partitioner and scheduler
registries (:mod:`repro.core.registry`), the repartition triggers
(:mod:`repro.core.triggers`) and the scenario workloads
(:mod:`repro.workload.scenario`) are instances of it.  The module imports
only the standard library, so the bottom layers can hold a registry without
importing the policies above them; for the same reason it holds
:func:`check_count`, the whole-number guard shared by ``WorkloadConfig``,
``FleetServerSpec`` and ``ServerConfig``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar, Union, overload

FactoryT = TypeVar("FactoryT", bound=Callable)


def check_count(value: Any, message: str) -> None:
    """Raise ``ValueError(f"{message}, got {value}")`` unless ``value`` is a
    whole number >= 1.

    NaN, the infinities and fractions fail; numpy integers and integral
    floats pass.
    """
    try:
        whole = value == int(value)
    except (OverflowError, ValueError):  # int() of an infinity or of NaN
        whole = False
    if not whole or value < 1:
        raise ValueError(f"{message}, got {value}")


class UnknownPolicyError(ValueError):
    """Raised when a policy name is not present in the registry."""


def normalize_policy_name(value: object, what: str = "policy") -> str:
    """Normalise a policy name to a registry key.

    The single normaliser shared by the registries and ``ServerConfig`` —
    names accepted anywhere resolve identically everywhere.
    """
    name = str(value).strip().lower()
    if not name:
        raise ValueError(f"{what} must be a non-empty policy name")
    return name


class PolicyRegistry:
    """A name -> factory mapping with decorator-based registration.

    Names are case-insensitive.  Aliases resolve to the same factory but are
    marked as such in listings.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: Dict[str, Callable] = {}
        self._aliases: Dict[str, str] = {}

    def _key(self, name: str) -> str:
        return normalize_policy_name(name, self.kind)

    @overload
    def register(
        self,
        name: str,
        factory: FactoryT,
        *,
        aliases: Sequence[str] = (),
        overwrite: bool = False,
    ) -> FactoryT: ...

    @overload
    def register(
        self,
        name: str,
        factory: None = None,
        *,
        aliases: Sequence[str] = (),
        overwrite: bool = False,
    ) -> Callable[[FactoryT], FactoryT]: ...

    def register(
        self,
        name: str,
        factory: Optional[FactoryT] = None,
        *,
        aliases: Sequence[str] = (),
        overwrite: bool = False,
    ) -> Union[FactoryT, Callable[[FactoryT], FactoryT]]:
        """Register ``factory`` under ``name`` (usable as a decorator).

        Args:
            name: registry key (case-insensitive).
            factory: the factory callable; omit to use as a decorator.
            aliases: additional names resolving to the same factory.
            overwrite: replace an existing registration instead of raising.

        Raises:
            ValueError: if the name is taken and ``overwrite`` is false.
        """

        def _register(fn: FactoryT) -> FactoryT:
            if not callable(fn):
                raise TypeError(f"{self.kind} factory for {name!r} must be callable")
            key = self._key(name)
            keys = [key]
            for alias in aliases:
                alias_key = self._key(alias)
                # an alias that folds onto the name (or a repeat) is a no-op,
                # not a self-shadowing registration
                if alias_key not in keys:
                    keys.append(alias_key)
            for k in keys:
                if not overwrite and (k in self._factories or k in self._aliases):
                    raise ValueError(
                        f"{self.kind} {k!r} is already registered; pass "
                        "overwrite=True to replace it"
                    )
            for k in keys:
                self._displace(k)
            self._factories[key] = fn
            for alias in keys[1:]:
                self._aliases[alias] = key
            return fn

        if factory is None:
            return _register
        return _register(factory)

    def _displace(self, key: str) -> None:
        """Remove whatever currently occupies ``key`` (factory or alias).

        Displacing a primary name also drops its aliases, so no alias is
        ever left dangling at a removed factory.
        """
        if key in self._factories:
            del self._factories[key]
            for alias in [a for a, t in self._aliases.items() if t == key]:
                del self._aliases[alias]
        self._aliases.pop(key, None)

    def unregister(self, name: str) -> None:
        """Remove a registration.

        Called with a primary name, removes the factory and every alias
        pointing at it; called with an alias, removes only that alias (the
        aliased factory stays registered).
        """
        key = self._key(name)
        if key in self._aliases:
            del self._aliases[key]
            return
        self._factories.pop(key, None)
        for alias in [a for a, target in self._aliases.items() if target == key]:
            del self._aliases[alias]

    def canonical(self, name: str) -> str:
        """Resolve ``name`` through the alias table to its primary name.

        Unregistered names pass through unchanged (they may be registered
        later), normalised to lowercase.
        """
        key = self._key(name)
        return self._aliases.get(key, key)

    def get(self, name: str) -> Callable:
        """Look up the factory registered under ``name``.

        Raises:
            UnknownPolicyError: listing the available policies.
        """
        key = self.canonical(name)
        try:
            return self._factories[key]
        except KeyError:
            raise UnknownPolicyError(
                f"unknown {self.kind} {name!r}; available {self.kind}s: "
                f"{self.names()}"
            ) from None

    def __contains__(self, name: str) -> bool:
        key = self._key(name)
        return key in self._factories or key in self._aliases

    def names(self) -> List[str]:
        """Sorted primary names of every registered policy."""
        return sorted(self._factories)
