"""The SpatialRecordReader: local-index-aware record access.

Hadoop's record reader streams raw records to the map function. Here a
map task receives its split's sealed block itself (``map(key, block,
ctx)``): the records, the columnar payload and, for an indexed file, the
block's local index, letting map functions answer range/kNN sub-queries
in logarithmic time instead of scanning the partition — the "local index
on/off" ablation of E2.
"""

from __future__ import annotations

from typing import Optional

from repro.index.rtree import RTree
from repro.mapreduce.job import MapContext


def local_index_of(ctx: MapContext) -> Optional[RTree]:
    """The local index of the map task's partition, when one was built."""
    return ctx.split.metadata.get("local_index")
