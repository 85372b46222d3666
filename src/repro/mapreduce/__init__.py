"""A faithful single-process MapReduce + HDFS simulator.

This package stands in for Apache Hadoop. It preserves the quantities the
SpatialHadoop evaluation is about — how many blocks a job reads, how many
records are shuffled, how many MapReduce rounds run, and how the per-task
work schedules over a cluster of N nodes — while running in one process.

The pieces mirror Hadoop's:

* :class:`FileSystem` — a block-structured file system. Files are split
  into blocks bounded by a configurable capacity; blocks carry optional
  metadata (a partition MBR) as SpatialHadoop stores its index
  information alongside HDFS blocks. The local index is not stored: it is
  derived from the block's rows on first use.
* :class:`Job` — the job configuration: map / combine / reduce functions,
  number of reducers and an input splitter hook (where SpatialHadoop's
  SpatialFileSplitter plugs in). A map task reads its split's block —
  ``map(key, block, ctx)`` — with its records and columns, which is what
  SpatialHadoop's SpatialRecordReader hands map tasks.
* :class:`JobRunner` — executes jobs: split, map (with per-task isolation),
  combine, hash shuffle, sort and reduce. Multi-phase merges (index
  building, the merge steps of several operations) run in the driver
  after the job returns.
* :class:`ClusterModel` — converts measured per-task work into a simulated
  makespan on an N-node cluster, adding per-job startup overhead so that
  the round-count trade-offs the papers discuss are visible.
"""

from repro.mapreduce.counters import Counter, Counters
from repro.mapreduce.fs import Block, FileEntry, FileSystem
from repro.mapreduce.types import InputSplit
from repro.mapreduce.cluster import ClusterModel, TaskAttempt, TaskStats
from repro.mapreduce.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    resolve_workers,
)
from repro.mapreduce.checkpoint import (
    CancellationToken,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointManager,
    CheckpointNotFoundError,
    DeadlineExceeded,
    DriverCrashed,
    RunCancelled,
    RunInterrupted,
)
from repro.mapreduce.faults import (
    DriverFault,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RandomFaults,
    StorageFault,
    TaskCorrupted,
    TaskTimeoutError,
    WorkerKilled,
    retry_backoff,
)
from repro.mapreduce.storage import (
    BlockUnavailableError,
    FsckIssue,
    FsckReport,
    Replica,
    StorageError,
    StorageManager,
    run_fsck,
)
from repro.mapreduce.job import Job, MapContext, ReduceContext
from repro.mapreduce.runtime import JobResult, JobRunner

__all__ = [
    "Block",
    "BlockUnavailableError",
    "CancellationToken",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointManager",
    "CheckpointNotFoundError",
    "ClusterModel",
    "Counter",
    "Counters",
    "DeadlineExceeded",
    "DriverCrashed",
    "DriverFault",
    "Executor",
    "FaultPlan",
    "FaultSpec",
    "FileEntry",
    "FileSystem",
    "FsckIssue",
    "FsckReport",
    "InjectedFault",
    "InputSplit",
    "Job",
    "JobResult",
    "JobRunner",
    "MapContext",
    "ParallelExecutor",
    "RandomFaults",
    "ReduceContext",
    "Replica",
    "RunCancelled",
    "RunInterrupted",
    "SerialExecutor",
    "StorageError",
    "StorageFault",
    "StorageManager",
    "TaskAttempt",
    "TaskCorrupted",
    "TaskStats",
    "TaskTimeoutError",
    "WorkerKilled",
    "make_executor",
    "resolve_workers",
    "retry_backoff",
    "run_fsck",
]
