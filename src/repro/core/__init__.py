"""SpatialHadoop's MapReduce-layer components and the user-facing facade.

Two small components make indexed files usable from MapReduce programs,
exactly as in the paper:

* the **SpatialFileSplitter** (:mod:`repro.core.splitter`) consults the
  global index with a user *filter function* and emits one input split per
  surviving partition — this is the early-pruning step every SpatialHadoop
  operation builds on;
* the **SpatialRecordReader**: a map task is ``map(key, block, ctx)``,
  with the partition boundary as the key and the split's sealed block —
  records, columns and, for a partition of an indexed file, the local
  index derived from them (:func:`repro.core.reader.local_index_of`) — as
  its input.

On top of them, :class:`~repro.core.system.SpatialHadoop` is the facade a
user of the library drives: load / index files, then run spatial operations
that return both the answer and the simulated cluster cost.
"""

from repro.geometry.feature import Feature
from repro.core.result import OperationResult
from repro.core.splitter import (
    every_partition,
    overlapping_filter,
    spatial_splitter,
)
from repro.core.reader import local_index_of
from repro.core.system import SpatialHadoop
from repro.core.workspace import (
    WorkspaceCorruptError,
    WorkspaceError,
    WorkspaceTypeError,
    WorkspaceVersionError,
    load_workspace,
    save_workspace,
)

__all__ = [
    "Feature",
    "OperationResult",
    "SpatialHadoop",
    "WorkspaceCorruptError",
    "WorkspaceError",
    "WorkspaceTypeError",
    "WorkspaceVersionError",
    "every_partition",
    "load_workspace",
    "local_index_of",
    "overlapping_filter",
    "save_workspace",
    "spatial_splitter",
]
