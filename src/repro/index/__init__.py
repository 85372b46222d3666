"""SpatialHadoop's storage and indexing layer.

This package implements the two-level index organisation of SpatialHadoop:
a **global index** describing how the file is partitioned into spatial cells
(one HDFS block per cell) and per-block **local indexes** organising the
records inside each partition. A block stores its rows in STR order, so
its local index is a view of the block: its MBR columns and the packed
leaves over them (:func:`repro.index.rtree.local_index`), derived on
first use and never stored.

Index construction follows the paper's three phases, all expressed as
MapReduce jobs over the simulator:

1. draw a random sample of the input and compute partition boundaries from
   it with the chosen *partitioning technique*;
2. a partitioning MapReduce job routes every record to its cell(s) —
   replicating records that span several cells for *disjoint* techniques;
3. each reducer packs one cell's row references, and the commit step
   gathers every cell into a block in STR order and assembles the indexed
   file and its global index.

Seven partitioning techniques are provided, matching the SpatialHadoop
partitioning paper: uniform grid, Quad-tree, K-d tree and STR+ (disjoint,
with replication), and STR, Z-curve and Hilbert-curve (overlapping,
each record assigned to exactly one cell).
"""

from repro.index.global_index import Cell, GlobalIndex
from repro.index.rtree import RTree
from repro.index.sampler import reservoir_sample
from repro.index.partitioners.base import Partitioner, shape_mbr
from repro.index.partitioners.grid import GridPartitioner
from repro.index.partitioners.str_ import StrPartitioner, StrPlusPartitioner
from repro.index.partitioners.quadtree import QuadTreePartitioner
from repro.index.partitioners.kdtree import KdTreePartitioner
from repro.index.partitioners.space_curves import (
    HilbertCurvePartitioner,
    ZCurvePartitioner,
)
from repro.index.build import PARTITIONERS, build_index
from repro.index.quality import PartitionQuality, measure_quality

__all__ = [
    "Cell",
    "GlobalIndex",
    "GridPartitioner",
    "HilbertCurvePartitioner",
    "KdTreePartitioner",
    "PARTITIONERS",
    "Partitioner",
    "PartitionQuality",
    "QuadTreePartitioner",
    "RTree",
    "StrPartitioner",
    "StrPlusPartitioner",
    "ZCurvePartitioner",
    "build_index",
    "measure_quality",
    "reservoir_sample",
    "shape_mbr",
]
