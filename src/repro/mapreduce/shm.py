"""Zero-copy chunk dispatch over POSIX shared memory.

The parallel executor normally pickles every chunk — job, reader and the
full record lists of every split — into each worker. For blocks that
carry a :class:`~repro.mapreduce.columnar.ColumnarPayload`, that is pure
waste: the payload already *is* a flat buffer. This module writes the
payloads of one wave into a single ``multiprocessing.shared_memory``
segment (the *arena*) and ships each split with a :class:`ShmBlock` — a
tiny stand-in naming the segment, the column layout and a byte offset —
instead of the records. Workers attach the segment once per process,
rebuild zero-copy column views, and materialize record objects only when
a map function actually iterates them.

Lifecycle is strictly wave-scoped and deterministic:

* the driver creates the arena in ``map_chunks``, and destroys it
  (close + unlink) in a ``finally`` as soon as every chunk result has
  been collected — including on the broken-pool and fallback paths;
* workers release their column views and close their attachment at the
  end of each chunk (:func:`run_and_release`), so an idle pool holds no
  mappings;
* every in-process fallback (unpicklable results, pool rebuild budget
  exhausted, blacklisting) runs on the *original* chunks, never on the
  shared-memory stand-ins, so degraded modes are byte-for-byte the
  serial path.

A module-level registry of created segment names backs the leak tests:
:func:`live_segments` must be empty once no wave is in flight.

Chunks that do not match the map-wave payload shape, and splits whose
blocks carry no usable payload, pass through untouched.
"""

from __future__ import annotations

from dataclasses import replace
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.mapreduce.columnar import ColumnarPayload, payload_of

#: Names of segments created (and not yet destroyed) by this process.
_CREATED: set = set()

#: Per-process cache of attached segments, keyed by segment name.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


def live_segments() -> List[str]:
    """Names of arena segments this process created and never destroyed."""
    return sorted(_CREATED)


class ShmArena:
    """One wave's shared-memory segment, holding packed column payloads.

    Created by the driver, destroyed by the driver; workers only ever
    attach. ``destroy`` is idempotent and also runs from ``__del__`` so
    an exception between creation and the executor's ``finally`` cannot
    leak the segment.
    """

    def __init__(self, nbytes: int):
        self._seg = shared_memory.SharedMemory(
            create=True, size=max(1, nbytes)
        )
        self.name = self._seg.name
        self._cursor = 0
        self._destroyed = False
        _CREATED.add(self.name)

    def add(self, payload: ColumnarPayload) -> int:
        """Copy ``payload``'s columns into the arena; returns their offset."""
        offset = self._cursor
        self._cursor = payload.write_into(self._seg.buf, offset)
        return offset

    def destroy(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self._destroyed:
            return
        self._destroyed = True
        _CREATED.discard(self.name)
        try:
            self._seg.close()
        except Exception:
            pass
        try:
            self._seg.unlink()
        except Exception:
            pass

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.destroy()
        except Exception:
            pass


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment, once per process, tracker-neutralised.

    CPython (< 3.13) registers *attach-mode* segments with the resource
    tracker too, so a worker attaching would make the shared tracker
    process unlink an arena the driver still owns — and the duplicate
    register/unregister pairs from several workers unbalance its cache.
    Registration is suppressed for the duration of the attach (the
    driver, which created the segment, is its sole owner).
    """
    seg = _ATTACHED.get(name)
    if seg is None:
        from multiprocessing import resource_tracker

        from repro.observe import profile

        original = resource_tracker.register

        def _skip_shared_memory(rname, rtype):
            if rtype != "shared_memory":
                original(rname, rtype)

        resource_tracker.register = _skip_shared_memory
        with profile.phase("shm-attach"):
            try:
                seg = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original
        _ATTACHED[name] = seg
    return seg


class ShmBlock:
    """A shared-memory stand-in for one sealed :class:`Block`.

    Pickles as a handful of scalars plus the (index-free) metadata dict.
    ``columnar`` attaches the arena lazily and builds zero-copy column
    views; ``records`` materializes real record objects from them, and
    ``metadata`` packs the local index over the same views.
    ``release`` drops the views so the worker's attachment can close
    cleanly.
    """

    __slots__ = (
        "shm_name", "kind", "count", "offset", "num_records",
        "has_index", "index_capacity", "_base_metadata",
        "_columnar", "_records", "_metadata",
    )

    def __init__(
        self,
        shm_name: str,
        kind: str,
        count: int,
        offset: int,
        num_records: int,
        base_metadata: dict,
        has_index: bool,
        index_capacity: int,
    ):
        self.shm_name = shm_name
        self.kind = kind
        self.count = count
        self.offset = offset
        self.num_records = num_records
        self.has_index = has_index
        self.index_capacity = index_capacity
        self._base_metadata = base_metadata
        self._columnar = None
        self._records = None
        self._metadata = None

    def __getstate__(self):
        return (
            self.shm_name, self.kind, self.count, self.offset,
            self.num_records, self._base_metadata, self.has_index,
            self.index_capacity,
        )

    def __setstate__(self, state):
        self.__init__(*state)

    def __len__(self) -> int:
        return self.num_records

    @property
    def columnar(self) -> ColumnarPayload:
        payload = self._columnar
        if payload is None:
            seg = _attach(self.shm_name)
            payload = self._columnar = ColumnarPayload.from_buffer(
                self.kind, self.count, seg.buf, self.offset
            )
        return payload

    @property
    def records(self) -> List[Any]:
        records = self._records
        if records is None:
            records = self._records = self.columnar.materialize()
        return records

    @property
    def metadata(self) -> dict:
        """The block's metadata, local index included.

        A sealed block's local R-tree would pickle as a second copy of
        the coordinate columns the arena already holds, so only its
        build parameters ship (a flag plus the node capacity). The
        block's rows are stored in packed order: packing the zero-copy
        column views here gives back the original tree, array for
        array, at the cost of a few ``reduceat`` calls.
        """
        metadata = self._metadata
        if metadata is None:
            metadata = self._metadata = dict(self._base_metadata)
            if self.has_index:
                from repro.index.rtree import RTree

                metadata["local_index"] = RTree.from_columns(
                    *self.columnar.mbr_columns(),
                    node_capacity=self.index_capacity,
                )
        return metadata

    def release(self) -> None:
        """Drop the zero-copy column views (records stay usable).

        The local index in ``metadata`` is made of such views too.
        """
        self._columnar = None
        self._metadata = None

    def __iter__(self):
        return iter(self.records)


# ----------------------------------------------------------------------
# Driver side: building the shipped chunks
# ----------------------------------------------------------------------
def _is_map_chunk(chunk: Any) -> bool:
    """Does this chunk match the map-wave payload shape?

    Runtime chunks are ``(job, wave, tasks)`` with tasks of ``(index,
    attempt, item)``. A map chunk's items are input splits;
    reduce items are shuffled key groups, not blocks, so reduce chunks
    pass through untouched.
    """
    if not (isinstance(chunk, tuple) and len(chunk) == 3):
        return False
    tasks = chunk[2]
    if not isinstance(tasks, (list, tuple)):
        return False
    for task in tasks:
        if not (isinstance(task, (list, tuple)) and len(task) == 3):
            return False
        if not hasattr(task[2], "block"):
            return False
    return True


def prepare_chunks(
    chunks: Sequence[Any],
) -> Tuple[List[Any], Optional[ShmArena]]:
    """Rewrite a wave's chunks to ship columnar blocks via shared memory.

    Returns ``(shipped, arena)``. When nothing is eligible — reduce
    wave, no columnar payloads — ``shipped`` is the original chunks and
    ``arena`` is None. Otherwise every split whose
    block carries a usable payload is rebuilt around a :class:`ShmBlock`
    (blocks deduplicated by identity, so a block read by several splits
    is written once), and the caller owns the arena: it must call
    ``arena.destroy()`` once all chunk results are in.
    """
    chunks = list(chunks)
    if not all(_is_map_chunk(c) for c in chunks):
        return chunks, None

    payloads: Dict[int, ColumnarPayload] = {}
    blocks: Dict[int, Any] = {}
    for chunk in chunks:
        for _, _, split in chunk[2]:
            block = split.block
            key = id(block)
            if key in payloads:
                continue
            payload = payload_of(block, len(block.records))
            if payload is not None:
                payloads[key] = payload
                blocks[key] = block
    if not payloads:
        return chunks, None

    arena = ShmArena(sum(p.nbytes for p in payloads.values()))
    try:
        stand_ins: Dict[int, ShmBlock] = {}
        for key, payload in payloads.items():
            block = blocks[key]
            metadata = dict(block.metadata)
            local_index = metadata.pop("local_index", None)
            stand_ins[key] = ShmBlock(
                shm_name=arena.name,
                kind=payload.kind,
                count=payload.count,
                offset=arena.add(payload),
                num_records=len(block.records),
                base_metadata=metadata,
                has_index=local_index is not None,
                index_capacity=getattr(local_index, "node_capacity", 32),
            )
        shipped = []
        for chunk in chunks:
            job, wave, tasks = chunk
            shipped.append((
                job,
                wave,
                [
                    (
                        index,
                        attempt,
                        replace(split, block=stand_ins[id(split.block)])
                        if id(split.block) in stand_ins
                        else split,
                    )
                    for index, attempt, split in tasks
                ],
            ))
        return shipped, arena
    except Exception:
        arena.destroy()
        raise


# ----------------------------------------------------------------------
# Worker side: execution wrapper
# ----------------------------------------------------------------------
def run_and_release(fn, chunk):
    """Run one shipped chunk, then release its shared-memory views.

    Submitted in place of the bare chunk function whenever an arena is in
    play. The ``finally`` drops every :class:`ShmBlock`'s column views
    and closes the attachments they pinned, so worker processes hold no
    mapping between chunks (and none when the driver unlinks the arena).
    """
    try:
        return fn(chunk)
    finally:
        _release_chunk(chunk)


def _release_chunk(chunk) -> None:
    names = set()
    if isinstance(chunk, tuple) and len(chunk) == 3:
        for task in chunk[2]:
            block = getattr(task[2], "block", None)
            if isinstance(block, ShmBlock):
                names.add(block.shm_name)
                block.release()
    for name in names:
        seg = _ATTACHED.pop(name, None)
        if seg is None:
            continue
        try:
            seg.close()
        except BufferError:  # pragma: no cover - a view escaped the chunk
            _ATTACHED[name] = seg
