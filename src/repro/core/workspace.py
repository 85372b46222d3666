"""Atomic, versioned, checksummed workspace persistence.

A workspace file holds a pickled :class:`~repro.core.system.SpatialHadoop`
instance — the whole simulated HDFS plus its job history and metrics. A
bare ``pickle.dump`` over the destination is fragile in exactly the ways
HDFS's edit log is not: a crash mid-write leaves a truncated file, a
flipped byte produces an opaque ``UnpicklingError`` pages deep in the
pickle machinery, and nothing says which tool or version wrote the file.

The format wraps the pickle payload in a small header::

    REPROWS\\n | version (u8) | payload crc32 (u32 BE) | payload length (u64 BE) | payload

and writes atomically: serialise to a temp file in the destination
directory, flush + ``fsync``, then ``os.replace`` over the target — so a
reader never observes a half-written workspace. Loading verifies magic,
version, length and CRC before unpickling and raises a structured
:class:`WorkspaceError` subclass (never a raw ``UnpicklingError``).

The version byte names the layout of the pickled objects, and it is the
only place that knows about older layouts. v10 stores a block's body
once: every homogeneous point / rectangle block with float coordinates
-- bare or wrapped in Features -- is stored as its columnar payload
(plus the Features' attribute column) without its records, which thaw
from the columns when something reads them (v9 stored both); no block
stores its local index, which is derived when a query first needs it.
Payloads are written by the one block codec (:mod:`repro.mapreduce.columnar`):
a header, then raw column buffers and the attribute column pickled by
value, and every block checksum is that codec's CRC, over values only,
so a reloaded workspace verifies as written. The job runner holds its
observability channels in one
:class:`~repro.observe.recorder.Recorder`, and a parallel executor
carries the measurements of its dispatch gate. Any other version is
refused with a :class:`WorkspaceVersionError` that says how to rebuild, and a
file without the magic with a :class:`WorkspaceCorruptError` — never an
``AttributeError`` deep in unpickling.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, Optional, Tuple, Type

MAGIC = b"REPROWS\n"
FORMAT_VERSION = 10
#: Header after a frame's magic: version (u8), payload CRC-32 (u32),
#: payload length (u64).
FRAME_HEADER = struct.Struct(">BIQ")


class WorkspaceError(Exception):
    """Base class for workspace persistence failures."""


class WorkspaceCorruptError(WorkspaceError):
    """The file is truncated, bit-flipped, or otherwise unreadable."""


class WorkspaceVersionError(WorkspaceError):
    """The file declares a format version this release cannot read."""


class WorkspaceTypeError(WorkspaceError):
    """The file decoded cleanly but does not contain a workspace object."""


def atomic_write(path: Path, *chunks: bytes, sync: bool = True) -> None:
    """Write ``chunks`` to ``path`` atomically (temp + fsync + rename).

    The bytes land in a sibling temp file first, are flushed and
    ``fsync``-ed, then renamed over the destination — so a crash at any
    point leaves either the old file or the new one, never a torn one.

    ``sync=False`` skips the fsync (the rename is still atomic against
    *process* death, which keeps the page cache; only power loss can
    tear the file then). Callers that tolerate such tears — the
    checkpoint journal, whose crash model is process death and whose
    CRC framing turns a torn wave into a cache miss — use it to keep
    their writes cheap.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            if sync:
                os.fsync(fh.fileno())
        os.replace(str(tmp), str(path))
    except BaseException:
        try:
            os.unlink(str(tmp))
        except OSError:
            pass
        raise


def write_framed(path: Path, magic: bytes, version: int, payload: bytes,
                 sync: bool = True) -> int:
    """Atomically write one framed file; returns the bytes written.

    The frame is ``magic | version (u8) | payload crc32 (u32 BE) |
    payload length (u64 BE) | payload`` — shared by workspaces, run
    bundles and each frame of a checkpoint wave log, which differ only in
    their magic, payload codec, fsync choice and version rule.
    """
    header = magic + FRAME_HEADER.pack(
        version, zlib.crc32(payload) & 0xFFFFFFFF, len(payload)
    )
    atomic_write(path, header, payload, sync=sync)
    return len(header) + len(payload)


def read_framed(path: Path, magic: bytes, what: str,
                error: Type[Exception]) -> Tuple[int, bytes]:
    """Read one framed file: ``(version, payload)``, length and CRC checked.

    Every failure — unreadable, bad magic, truncated, checksum mismatch —
    raises ``error`` naming ``what`` the file should have been. The
    version is returned unjudged: each format applies its own rule.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not raw.startswith(magic):
        raise error(
            f"{path} has no {what} magic ({magic!r}): bad magic — it is not "
            f"a repro {what}, or predates the versioned format"
        )
    header_end = len(magic) + FRAME_HEADER.size
    if len(raw) < header_end:
        raise error(f"{what} {path} is truncated (incomplete header)")
    version, crc, length = FRAME_HEADER.unpack(raw[len(magic):header_end])
    payload = raw[header_end:]
    if len(payload) != length:
        raise error(
            f"{what} {path} is truncated: header promises {length} "
            f"payload bytes, file has {len(payload)}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise error(f"{what} {path} failed its checksum — the file is corrupt")
    return version, payload


def has_magic(path: Path, magic: bytes) -> bool:
    """Cheap sniff: does ``path`` start with ``magic``?"""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(magic)) == magic
    except OSError:
        return False


def save_workspace(sh: Any, path: Path) -> None:
    """Atomically persist ``sh`` to ``path`` in the current format."""
    payload = pickle.dumps(sh, protocol=pickle.HIGHEST_PROTOCOL)
    write_framed(path, MAGIC, FORMAT_VERSION, payload)


def load_workspace(
    path: Path, expected_type: Optional[Type] = None
) -> Any:
    """Load a workspace from ``path``, verifying header and checksum.

    Accepts current-format files only. Raises
    :class:`WorkspaceCorruptError` on a missing magic or truncation/bit-rot,
    :class:`WorkspaceVersionError` on any other format version, and
    :class:`WorkspaceTypeError` when the decoded object is not an
    instance of ``expected_type``.
    """
    version, payload = read_framed(
        path, MAGIC, "workspace", WorkspaceCorruptError
    )
    if version != FORMAT_VERSION:
        raise WorkspaceVersionError(
            f"workspace {path} uses format v{version}; this release reads "
            f"only v{FORMAT_VERSION} (a block stores its body once). "
            "Recreate the workspace: reload the data and rebuild "
            "the index with 'repro index'"
        )
    try:
        obj = pickle.loads(payload)
    except Exception as exc:
        raise WorkspaceCorruptError(
            f"workspace {path} passed its checksum but failed to "
            f"decode ({type(exc).__name__}: {exc}); it was likely "
            "written by an incompatible release"
        ) from exc
    if expected_type is not None and not isinstance(obj, expected_type):
        raise WorkspaceTypeError(
            f"{path} is not a repro workspace "
            f"(contains {type(obj).__name__})"
        )
    return obj
