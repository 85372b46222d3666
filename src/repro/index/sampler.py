"""Uniform sampling, the driver of index construction.

SpatialHadoop computes partition boundaries from a random sample of the
input file so that index building needs only one full pass over the data.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, TypeVar

T = TypeVar("T")


def reservoir_sample(
    records: Sequence[T], size: int, seed: Optional[int] = None
) -> List[T]:
    """Uniform random sample of ``size`` records, in O(``size``) time.

    Draws positions with ``random.Random(seed).sample`` and indexes the
    sequence at them, so it never walks the input: a ``range(n)`` and a
    record list of the same length give the same positions in the same
    order. Returns all records, in order, when the input holds no more
    than ``size``. With a fixed ``seed`` the sample is deterministic,
    which keeps index builds — and therefore every downstream experiment
    — reproducible.
    """
    if size <= 0:
        raise ValueError("sample size must be positive")
    if len(records) <= size:
        return list(records)
    return random.Random(seed).sample(records, size)
