"""The scenario registry: named, discoverable configuration factories.

The paper's §3.1 design principle is that a whole emulation run is driven
from one configuration; the registry makes the *scenarios* that produce
those configurations first-class data too.  Each scenario registers its
constructor under a stable name; the operator catalogue
(:mod:`repro.scenarios.operators`) registers one per constellation, each a
few lines over its ``SHELLS`` table::

    @scenario("kuiper")
    def kuiper_configuration(..., shell_limit: Optional[int] = None, ...) -> Configuration:
        shells = operator_shells("kuiper", limit=shell_limit)
        ...

and callers discover it by name (``repro.scenarios.get("kuiper")``,
``list_scenarios()``) instead of importing the module — which is what lets
an :class:`~repro.experiments.spec.ExperimentSpec` reference a scenario as
a string in a TOML file, whose ``params`` :func:`build` checks against the
factory's signature.

The registry itself has no dependencies on the scenario modules; importing
:mod:`repro.scenarios` triggers the registrations (``get`` does this lazily,
so a spec file can be resolved without any prior import).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.config import Configuration, ConfigurationError


class UnknownScenarioError(KeyError):
    """A scenario name that is not (or no longer) registered."""


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario factory."""

    name: str
    factory: Callable[..., Configuration]
    description: str
    module: str


_REGISTRY: dict[str, ScenarioEntry] = {}


def scenario(
    name: str, description: Optional[str] = None
) -> Callable[[Callable[..., Configuration]], Callable[..., Configuration]]:
    """Decorator registering a configuration factory under ``name``.

    The factory keeps its signature and remains directly callable; the
    description defaults to the first line of its docstring.
    """
    if not name:
        raise ValueError("scenario name must not be empty")

    def _register(factory: Callable[..., Configuration]) -> Callable[..., Configuration]:
        if name in _REGISTRY:
            raise ValueError(
                f"scenario {name!r} is already registered "
                f"(by {_REGISTRY[name].module})"
            )
        doc = (factory.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = ScenarioEntry(
            name=name,
            factory=factory,
            description=description or (doc[0] if doc else ""),
            module=factory.__module__,
        )
        return factory

    return _register


def _ensure_registrations() -> None:
    # The scenario modules register themselves on import; anyone resolving
    # names through the registry gets them loaded on demand.
    import repro.scenarios  # noqa: F401


def get(name: str) -> Callable[..., Configuration]:
    """The registered factory of a scenario, by name."""
    return entry(name).factory


def entry(name: str) -> ScenarioEntry:
    """The full registry entry of a scenario, by name."""
    _ensure_registrations()
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise UnknownScenarioError(
            f"unknown scenario {name!r} (registered: {known})"
        )
    return _REGISTRY[name]


def list_scenarios() -> list[str]:
    """Sorted names of every registered scenario."""
    _ensure_registrations()
    return sorted(_REGISTRY)


def entries() -> list[ScenarioEntry]:
    """Every registry entry, sorted by name."""
    _ensure_registrations()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def build(name: str, **params: Any) -> Configuration:
    """Build a scenario's configuration, checking the parameters and the result.

    A parameter the factory does not take is a :class:`ConfigurationError`
    naming the parameters it does take.
    """
    factory = get(name)
    signature = inspect.signature(factory)
    try:
        signature.bind(**params)
    except TypeError as error:
        taken = ", ".join(signature.parameters)
        raise ConfigurationError(f"scenario {name!r}: {error} (it takes {taken})") from None
    config = factory(**params)
    if not isinstance(config, Configuration):
        raise TypeError(
            f"scenario {name!r} returned {type(config).__name__}, "
            "expected Configuration"
        )
    return config
