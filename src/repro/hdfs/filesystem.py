"""Simulated HDFS: block-oriented files with replica placement.

Both prototypes in the paper read WKT text files from HDFS; SpatialSpark
through ``sc.textFile`` and ISP-MC through Impala's HDFS scanners.  This
module provides the shared storage layer: a namespace of files split into
fixed-size blocks, each block replicated on ``replication`` datanodes, with
locality metadata the schedulers use for locality-aware task placement.

Blocks live in memory (the datasets this repo generates are far below the
paper's 6.9 GB taxi file); the behavioural contract — block boundaries,
line-straddling records, per-block locality — matches real HDFS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HDFSError
from repro.obs.registry import REGISTRY

__all__ = ["BlockInfo", "FileStatus", "SimulatedHDFS", "DEFAULT_BLOCK_SIZE"]

DEFAULT_BLOCK_SIZE = 4 * 1024 * 1024  # small blocks keep sim datasets multi-block


@dataclass(frozen=True)
class BlockInfo:
    """Metadata for one block: where it starts and which nodes hold it."""

    index: int
    offset: int
    length: int
    hosts: tuple[str, ...]


@dataclass
class FileStatus:
    """Metadata for one file."""

    path: str
    size: int
    block_size: int
    blocks: list[BlockInfo] = field(default_factory=list)


class SimulatedHDFS:
    """An in-memory distributed file system with HDFS-like semantics.

    Paths are ``/``-separated absolute strings.  Files are byte oriented;
    :mod:`repro.hdfs.textfile` layers line-record semantics on top.
    """

    def __init__(
        self,
        datanodes: tuple[str, ...] = ("node0", "node1", "node2"),
        block_size: int = DEFAULT_BLOCK_SIZE,
        replication: int = 2,
    ):
        if not datanodes:
            raise HDFSError("an HDFS cluster needs at least one datanode")
        if block_size < 1:
            raise HDFSError(f"block_size must be positive, got {block_size}")
        self.datanodes = tuple(datanodes)
        self.block_size = block_size
        self.replication = min(replication, len(self.datanodes))
        self._files: dict[str, bytes] = {}
        self._status: dict[str, FileStatus] = {}
        self._next_placement = 0

    @staticmethod
    def _normalise(path: str) -> str:
        if not path.startswith("/"):
            raise HDFSError(f"HDFS paths must be absolute, got {path!r}")
        while "//" in path:
            path = path.replace("//", "/")
        return path.rstrip("/") if path != "/" else path

    def exists(self, path: str) -> bool:
        """True when a file exists at ``path``."""
        return self._normalise(path) in self._files

    def list_dir(self, path: str) -> list[str]:
        """Return files under a directory prefix (non-recursive semantics
        are not needed here; this returns every file whose path starts with
        the prefix, as globbing ``dir/*`` would)."""
        prefix = self._normalise(path)
        if prefix != "/":
            prefix += "/"
        return sorted(p for p in self._files if p.startswith(prefix))

    def write(self, path: str, data: bytes, block_size: int | None = None) -> FileStatus:
        """Create or replace a file, splitting it into placed blocks."""
        path = self._normalise(path)
        if isinstance(data, str):
            raise HDFSError("HDFS stores bytes; encode text before writing")
        block_size = block_size or self.block_size
        self._files[path] = bytes(data)
        blocks = []
        for index, offset in enumerate(range(0, max(len(data), 1), block_size)):
            length = min(block_size, len(data) - offset)
            if length <= 0 and len(data) > 0:
                break
            hosts = self._place_replicas()
            blocks.append(BlockInfo(index, offset, max(length, 0), hosts))
        status = FileStatus(path, len(data), block_size, blocks)
        self._status[path] = status
        REGISTRY.inc("hdfs.writes")
        REGISTRY.inc("hdfs.bytes_written", len(data))
        return status

    def _place_replicas(self) -> tuple[str, ...]:
        hosts = []
        for r in range(self.replication):
            hosts.append(
                self.datanodes[(self._next_placement + r) % len(self.datanodes)]
            )
        self._next_placement = (self._next_placement + 1) % len(self.datanodes)
        return tuple(hosts)

    def read(self, path: str) -> bytes:
        """Return the whole file's bytes."""
        path = self._normalise(path)
        try:
            data = self._files[path]
        except KeyError:
            raise HDFSError(f"no such file: {path}") from None
        REGISTRY.inc("hdfs.reads")
        REGISTRY.inc("hdfs.bytes_read", len(data))
        return data

    def read_block(self, path: str, block_index: int) -> bytes:
        """Return one block's bytes."""
        status = self.status(path)
        if not 0 <= block_index < len(status.blocks):
            raise HDFSError(
                f"{path} has {len(status.blocks)} blocks, asked for {block_index}"
            )
        block = status.blocks[block_index]
        data = self._files[status.path]
        REGISTRY.inc("hdfs.reads")
        REGISTRY.inc("hdfs.bytes_read", block.length)
        return data[block.offset : block.offset + block.length]

    def read_range(self, path: str, offset: int, length: int) -> bytes:
        """Return an arbitrary byte range (used for line-boundary fixup)."""
        path = self._normalise(path)
        try:
            data = self._files[path]
        except KeyError:
            raise HDFSError(f"no such file: {path}") from None
        chunk = data[offset : offset + length]
        REGISTRY.inc("hdfs.reads")
        REGISTRY.inc("hdfs.bytes_read", len(chunk))
        return chunk

    def buffer(self, path: str) -> bytes:
        """The file's stored bytes, counting no read: for a reader that
        counts the fetches it stands for itself
        (:func:`~repro.hdfs.textfile.read_split_lines`)."""
        path = self._normalise(path)
        try:
            return self._files[path]
        except KeyError:
            raise HDFSError(f"no such file: {path}") from None

    def status(self, path: str) -> FileStatus:
        """Return the file's metadata (size, blocks, locality)."""
        path = self._normalise(path)
        try:
            return self._status[path]
        except KeyError:
            raise HDFSError(f"no such file: {path}") from None

    def delete(self, path: str) -> None:
        """Remove a file."""
        path = self._normalise(path)
        if path not in self._files:
            raise HDFSError(f"no such file: {path}")
        del self._files[path]
        del self._status[path]

    def total_bytes(self) -> int:
        """Sum of all file sizes (for test assertions and reports)."""
        return sum(len(data) for data in self._files.values())
