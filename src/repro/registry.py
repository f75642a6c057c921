"""Generic name → class registry and the shared unknown-name message.

:class:`ClassRegistry` backs the cluster router's shard policies
(:mod:`repro.cluster.router`): implementations self-register under a name,
the configuration names the implementation, and a factory resolves it.
:func:`unknown_name_message` formats every "no such name" error, including
``ExtractorConfig`` validation of its ``engine`` name.
"""

from __future__ import annotations

import difflib
from typing import Callable, Dict, Generic, List, Sequence, Type, TypeVar

from .errors import FeatureError

T = TypeVar("T")


def unknown_name_message(kind: str, name: str, available: Sequence[str]) -> str:
    """Error message for an unresolved registry name.

    One shared formatter for every registry (and for configuration-level
    validation), so an unknown ``ExtractorConfig.engine`` or shard policy
    always reports the available alternatives — plus a closest-match hint
    for the common typo case.
    """
    listed = ", ".join(available) if available else "<none registered>"
    message = f"unknown {kind} {name!r}; available: {listed}"
    close = difflib.get_close_matches(name, list(available), n=1)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    return message


class ClassRegistry(Generic[T]):
    """Name-keyed class registry with decorator registration.

    ``kind`` is the human-readable noun used in error messages (e.g.
    ``"shard policy"``).  Registration stamps the class's ``name``
    attribute so instances can report which implementation they are.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._classes: Dict[str, Type[T]] = {}

    def register(self, name: str) -> Callable[[Type[T]], Type[T]]:
        """Class decorator registering the class under ``name``."""

        def decorator(cls: Type[T]) -> Type[T]:
            if name in self._classes:
                raise FeatureError(f"{self.kind} {name!r} is already registered")
            cls.name = name  # type: ignore[attr-defined]
            self._classes[name] = cls
            return cls

        return decorator

    def names(self) -> List[str]:
        """Registered names, sorted."""
        return sorted(self._classes)

    def create(self, name: str, *args, **kwargs) -> T:
        """Instantiate the class registered under ``name``."""
        if name not in self._classes:
            raise FeatureError(unknown_name_message(self.kind, name, self.names()))
        return self._classes[name](*args, **kwargs)
