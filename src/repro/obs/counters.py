"""One idiom for every layer's logical counters.

A counter struct is a dataclass deriving from :class:`Counters` whose
``int`` fields are the counters.  The field names *are* the metric names:
a pull collector exports a struct with ``stats.metrics("wal_")`` instead
of naming each attribute by hand, so a collector cannot read a counter
that does not exist, and a new field is exported the moment it is
declared.  Hot paths still bump a plain attribute
(``self.stats.appends += 1``) on a struct their owner holds.

Fields of any other type (a per-kind dict, say) are state, not counters:
:meth:`Counters.reset` restores them to their defaults, but they are not
exported, summed or persisted.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from typing import Any, Dict, Tuple, Type, TypeVar

__all__ = ["Counters"]

_C = TypeVar("_C", bound="Counters")


@lru_cache(maxsize=None)
def _counter_names(cls: Type["Counters"]) -> Tuple[str, ...]:
    """The ``int`` fields of a counter class, in declaration order."""
    return tuple(spec.name for spec in fields(cls) if spec.type in (int, "int"))


@dataclass
class Counters:
    """Base for counter dataclasses: reset, snapshot, delta, sum, persist
    and export, all by iterating the declared ``int`` fields."""

    def reset(self) -> None:
        """Every field back to its declared default."""
        for spec in fields(self):
            if spec.default_factory is not MISSING:
                setattr(self, spec.name, spec.default_factory())
            else:
                setattr(self, spec.name, spec.default)

    def snapshot(self: _C) -> _C:
        """A private copy of the counters."""
        return self.from_dict(self.to_dict())

    def delta(self: _C, earlier: _C) -> _C:
        """Counts accumulated since ``earlier`` (an older snapshot)."""
        return self.from_dict(
            {
                name: getattr(self, name) - getattr(earlier, name)
                for name in _counter_names(type(self))
            }
        )

    def add(self: _C, other: "Counters") -> _C:
        """Accumulate ``other``'s counts into this one; returns ``self``."""
        for name in _counter_names(type(self)):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def to_dict(self) -> Dict[str, Any]:
        """The counters by field name, in declaration order."""
        return {name: getattr(self, name) for name in _counter_names(type(self))}

    @classmethod
    def from_dict(cls: Type[_C], payload: Dict[str, Any]) -> _C:
        """Inverse of :meth:`to_dict`.  A missing counter reads as 0, so a
        payload written before a counter existed still loads."""
        return cls(**{name: int(payload.get(name, 0)) for name in _counter_names(cls)})

    def metrics(self, prefix: str) -> Dict[str, int]:
        """``{prefix + field: value}`` over the counters — what a pull
        collector exports."""
        return {prefix + name: getattr(self, name) for name in _counter_names(type(self))}
