"""The SpatialRecordReader: local-index-aware record access.

Hadoop's record reader streams raw records to the map function. Here a
map task receives its split's sealed block itself (``map(key, block,
ctx)``): the records and the columnar payload. A partition of an indexed
file stores its rows in STR order, so its local index is a view of the
block — the MBR columns and the leaves packed over them, derived on first
use (:func:`repro.index.rtree.local_index`) — and kNN walks those leaves
instead of ranking the whole partition.
"""

from __future__ import annotations

from typing import Optional

from repro.index.rtree import RTree, local_index
from repro.mapreduce.job import MapContext


def local_index_of(ctx: MapContext) -> Optional[RTree]:
    """The local index of the map task's partition of an indexed file
    (a block that carries its cell); None on a heap file's block."""
    if "cell" not in ctx.split.metadata:
        return None
    return local_index(ctx.split.block)
