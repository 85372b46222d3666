"""Job counters, mirroring Hadoop's counter facility."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Tuple


class Counter:
    """Well-known counter names used by the runtime itself."""

    MAP_INPUT_RECORDS = "MAP_INPUT_RECORDS"
    MAP_OUTPUT_RECORDS = "MAP_OUTPUT_RECORDS"
    COMBINE_INPUT_RECORDS = "COMBINE_INPUT_RECORDS"
    COMBINE_OUTPUT_RECORDS = "COMBINE_OUTPUT_RECORDS"
    REDUCE_INPUT_RECORDS = "REDUCE_INPUT_RECORDS"
    REDUCE_OUTPUT_RECORDS = "REDUCE_OUTPUT_RECORDS"
    SHUFFLE_RECORDS = "SHUFFLE_RECORDS"
    SHUFFLE_BYTES = "SHUFFLE_BYTES"
    BLOCKS_TOTAL = "BLOCKS_TOTAL"
    BLOCKS_READ = "BLOCKS_READ"
    BLOCKS_PRUNED = "BLOCKS_PRUNED"
    #: Records in the job's final output. Row-set jobs (the distributed
    #: join, SJMR, the kNN-join and kNN) write one tuple of row numbers
    #: per partition or reduce task, and count one record per tuple.
    OUTPUT_RECORDS = "OUTPUT_RECORDS"
    MAP_TASKS = "MAP_TASKS"
    REDUCE_TASKS = "REDUCE_TASKS"


class Counters:
    """A named multi-set of monotonically increasing counters."""

    def __init__(self) -> None:
        self._values: Dict[str, int] = defaultdict(int)

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` (which may be any integer >= 0) to ``name``."""
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative: {amount}")
        self._values[name] += amount

    def get(self, name: str) -> int:
        return self._values.get(name, 0)

    def merge(self, other: "Counters") -> None:
        """Accumulate every counter from ``other`` into this instance."""
        for name, value in other.items():
            self._values[name] += value

    def merge_dict(self, values: Dict[str, int]) -> None:
        """Accumulate a plain ``{name: value}`` mapping.

        Task results cross process boundaries as plain dicts (cheaper to
        pickle than a :class:`Counters`); the driver folds them back in
        with this method. Addition commutes, so the merged totals are
        identical no matter which backend ran the tasks. Values are
        validated like :meth:`increment`: counters are monotone, and a
        buggy task must not silently decrement driver-side totals.
        """
        for name, value in values.items():
            if value < 0:
                raise ValueError(
                    f"counter {name!r} merged a negative value: {value}"
                )
            self._values[name] += value

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._values.items()))

    def as_dict(self) -> Dict[str, int]:
        return dict(self._values)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.items())
        return f"Counters({inner})"
