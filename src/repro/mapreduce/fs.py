"""Block-structured in-memory file system (the HDFS stand-in).

Files are sequences of records grouped into *blocks*. The block is the unit
of parallelism: the default input splitter creates one map task per block,
exactly as Hadoop creates one map task per 64 MB HDFS block. Block capacity
is expressed in records (the simulator's proxy for the 64 MB limit) so that
experiments can sweep "input size in blocks" deterministically.

Blocks carry a metadata mapping. SpatialHadoop's storage layer uses it to
attach the partition MBR (the global-index entry) to each block; the
local index is not stored but derived from the block's body on first use
(:func:`repro.index.rtree.local_index`).

Durability mirrors HDFS: every written block is *sealed* — checksummed
and placed as N replicas across the simulated datanodes — by the file
system's :class:`~repro.mapreduce.storage.StorageManager`, and reads
verify replica health, failing over past dead-node or corrupt copies
(see :mod:`repro.mapreduce.storage`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.mapreduce.storage import (
    DEFAULT_DATANODES,
    DEFAULT_REPLICATION,
    Replica,
    StorageManager,
)

DEFAULT_BLOCK_CAPACITY = 10_000


@dataclass
class Block:
    """One block of a file: its body plus optional metadata.

    ``checksum`` (the body's CRC-32) and ``replicas`` (where the block's
    copies live) are stamped by :meth:`StorageManager.seal_block` when
    the block enters the file system; every block in a namespace is
    sealed.

    ``columnar`` is the columnar payload (see
    :mod:`repro.mapreduce.columnar`): the record coordinates transposed
    into flat float64 columns, plus an attribute column for Features.
    Seal time attaches it whenever the records are homogeneously float
    points or rectangles, bare or as Features, and it is then the
    block's only body: the checksum covers it, every pickle (workspace,
    pool) carries it and not the records, and ``records`` is a cache of
    :meth:`~repro.mapreduce.columnar.ColumnarPayload.materialize`, thawed
    on first read. A block built from records keeps them. ``columnar``
    is ``None`` for every other block (polygons, int coordinates,
    tuples), whose body is the record list.

    ``local_view`` caches the block's derived MBR columns and local
    index (see :func:`repro.index.rtree.block_columns`); it is not a
    field, and pickling drops it.
    """

    records: List[Any]
    metadata: Dict[str, Any] = field(default_factory=dict)
    checksum: Optional[int] = None
    replicas: List[Replica] = field(default_factory=list)
    columnar: Optional[Any] = None

    local_view = None

    def __getattr__(self, name: str) -> Any:
        # Reached only for a missing attribute: the records of a payload
        # block that was unpickled, or whose cache was dropped.
        payload = self.__dict__.get("columnar")
        if name != "records" or payload is None:
            raise AttributeError(name)
        records = self.records = payload.materialize()
        return records

    def __len__(self) -> int:
        payload = self.columnar
        return len(self.records) if payload is None else payload.count

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records)

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("local_view", None)
        if self.columnar is not None:
            state.pop("records", None)
        return state

    def drop_views(self) -> None:
        """Drop what is derived from the body (the records of a payload
        block, the local view); the next read derives it anew."""
        if self.columnar is not None:
            self.__dict__.pop("records", None)
        self.local_view = None


@dataclass
class FileEntry:
    """Namenode-side description of one file."""

    name: str
    blocks: List[Block] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_records(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def records(self) -> Iterator[Any]:
        for block in self.blocks:
            yield from block.records


class FileSystem:
    """An in-memory namespace of block-structured files.

    ``num_datanodes`` / ``replication`` configure the durable storage
    layer: every block is checksummed and stored as (up to)
    ``replication`` replicas spread round-robin over the simulated
    datanodes, and reads verify replica health before returning data.
    """

    def __init__(
        self,
        default_block_capacity: int = DEFAULT_BLOCK_CAPACITY,
        num_datanodes: int = DEFAULT_DATANODES,
        replication: int = DEFAULT_REPLICATION,
    ):
        if default_block_capacity <= 0:
            raise ValueError("block capacity must be positive")
        self._files: Dict[str, FileEntry] = {}
        self._versions: Dict[str, int] = {}
        self._mutation_count = 0
        self.default_block_capacity = default_block_capacity
        self.storage = StorageManager(
            num_nodes=num_datanodes, replication=replication
        )

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------
    def exists(self, name: str) -> bool:
        return name in self._files

    def list_files(self) -> List[str]:
        return sorted(self._files)

    def delete(self, name: str) -> bool:
        """Remove ``name``; returns True when the file existed."""
        if self._files.pop(name, None) is None:
            return False
        self._bump_version(name)
        return True

    def version(self, name: str) -> int:
        """Monotonic version of ``name``'s content, 0 if never written.

        Bumped on every create and delete, so a cache entry recording
        the versions of the files it read can detect any later mutation
        of the namespace (including delete-then-recreate) by comparing
        versions — the invalidation hook for :mod:`repro.serve`.
        """
        return self._versions.get(name, 0)

    @property
    def mutation_count(self) -> int:
        """Total namespace mutations (creates + deletes) ever applied."""
        return self._mutation_count

    def _bump_version(self, name: str) -> None:
        self._versions[name] = self._versions.get(name, 0) + 1
        self._mutation_count += 1

    def get(self, name: str) -> FileEntry:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(f"no such file: {name!r}") from None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def create_file(
        self,
        name: str,
        records: Iterable[Any],
        block_capacity: Optional[int] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> FileEntry:
        """Load ``records`` into a new file, chunked into capacity-bound blocks.

        This is the plain Hadoop loader: records are packed in arrival order
        with no regard for their spatial location (non-spatial partitioning).
        """
        if self.exists(name):
            raise FileExistsError(f"file already exists: {name!r}")
        capacity = (
            self.default_block_capacity if block_capacity is None else block_capacity
        )
        if capacity <= 0:
            raise ValueError("block capacity must be positive")
        entry = FileEntry(name=name, metadata=dict(metadata or {}))
        current: List[Any] = []
        for record in records:
            current.append(record)
            if len(current) >= capacity:
                entry.blocks.append(Block(records=current))
                current = []
        if current:
            entry.blocks.append(Block(records=current))
        self.storage.seal_file(entry)
        self._files[name] = entry
        self._bump_version(name)
        return entry

    def create_file_from_blocks(
        self,
        name: str,
        blocks: Iterable[Block],
        metadata: Optional[Dict[str, Any]] = None,
    ) -> FileEntry:
        """Install pre-built blocks (used by spatial loaders/index writers)."""
        if self.exists(name):
            raise FileExistsError(f"file already exists: {name!r}")
        entry = FileEntry(
            name=name, blocks=list(blocks), metadata=dict(metadata or {})
        )
        self.storage.seal_file(entry)
        self._files[name] = entry
        self._bump_version(name)
        return entry

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def verify_block_read(self, name: str, index: int, block: Block):
        """Verify one block is readable; returns (failovers, corrupt).

        Routes the read past dead-node and corrupt replicas to the first
        healthy copy (HDFS read failover); raises
        :class:`~repro.mapreduce.storage.BlockUnavailableError` when no
        healthy replica is left.
        """
        return self.storage.verify_block(name, index, block)

    def verify_file_read(self, name: str):
        """Verify every block of ``name``; returns (failovers, corrupt)."""
        failovers = 0
        corrupt = 0
        for index, block in enumerate(self.get(name).blocks):
            f, c = self.verify_block_read(name, index, block)
            failovers += f
            corrupt += c
        return failovers, corrupt

    def read_records(self, name: str) -> List[Any]:
        """All records of a file in block order (a verified full scan)."""
        self.verify_file_read(name)
        return list(self.get(name).records())

    def num_records(self, name: str) -> int:
        return self.get(name).num_records

    def num_blocks(self, name: str) -> int:
        return self.get(name).num_blocks
