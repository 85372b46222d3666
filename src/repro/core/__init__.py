"""SpatialHadoop's MapReduce-layer components and the user-facing facade.

Two small components make indexed files usable from MapReduce programs,
exactly as in the paper:

* the **SpatialFileSplitter** (:mod:`repro.core.splitter`) consults the
  global index with a user *filter function* and emits one input split per
  surviving partition — this is the early-pruning step every SpatialHadoop
  operation builds on;
* the **SpatialRecordReader** (:mod:`repro.core.reader`) hands map tasks
  the partition boundary as the input key and, when available, the block's
  local index.

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
from repro.core.reader import local_index_of, spatial_reader
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
    "spatial_reader",
    "spatial_splitter",
]
