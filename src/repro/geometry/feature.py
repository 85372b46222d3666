"""Feature: a shape with attached attributes.

The spatial analogue of a database row — what Pigeon scripts and the
example applications manipulate. The indexing and operations layers only
require records to expose ``.mbr``, so features index and query exactly
like bare shapes; a block of Features over float points or rectangles
carries the same columnar payload as bare shapes, plus an attribute
column (:mod:`repro.mapreduce.columnar`). The class lives beside the
shapes so that the storage layer reaches it without importing the
:mod:`repro.core` facade; ``repro.Feature`` and ``repro.core.Feature``
name it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.geometry.rectangle import Rectangle


@dataclass(frozen=True)
class Feature:
    """An immutable (shape, attributes) record."""

    shape: Any
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def mbr(self) -> Rectangle:
        return self.shape.mbr

    def get(self, name: str, default: Any = None) -> Any:
        return self.attributes.get(name, default)

    def with_attributes(self, **updates: Any) -> "Feature":
        """A copy with ``updates`` merged into the attributes."""
        merged = dict(self.attributes)
        merged.update(updates)
        return Feature(shape=self.shape, attributes=merged)

    def __getitem__(self, name: str) -> Any:
        return self.attributes[name]

    def __hash__(self) -> int:
        return hash((self.shape, tuple(sorted(self.attributes.items()))))

    def __str__(self) -> str:
        attrs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.attributes.items()))
        return f"Feature({self.shape}, {attrs})"
