"""Line-oriented text records over simulated HDFS blocks.

Hadoop's ``TextInputFormat`` rule for records straddling block boundaries:
a split owner reads *past* its end to finish the last line, and every
split except the first discards the partial line at its start.  Both the
Spark ``textFile`` RDD and the Impala HDFS scan node rely on this module,
so both engines see the identical record stream for a given file.
"""

from __future__ import annotations

from itertools import repeat

from repro.hdfs.filesystem import FileStatus, SimulatedHDFS
from repro.obs.registry import REGISTRY

__all__ = [
    "SplitLines",
    "count_split_lines",
    "read_lines",
    "read_split_lines",
    "split_boundaries",
    "split_fields",
    "write_text",
]


class SplitLines(list):
    """A split's lines, and where they were read: ``status`` is the file's
    :class:`~repro.hdfs.filesystem.FileStatus` at the read (a rewrite
    makes a new one) and ``split`` the split's ``(offset, length)``."""

    __slots__ = ("status", "split")

    def __init__(self, lines: list[str], status: FileStatus, split: tuple[int, int]):
        super().__init__(lines)
        self.status = status
        self.split = split


def write_text(
    fs: SimulatedHDFS, path: str, lines: "Iterator[str] | list[str]",
    block_size: int | None = None,
) -> int:
    """Write newline-terminated lines to a file; returns the byte size.

    Every line — including empty ones — is terminated by ``\\n`` (POSIX
    text-file convention), so the line list round-trips exactly through
    :func:`read_lines`.
    """
    lines = list(lines)
    payload = "\n".join(lines) + "\n" if lines else ""
    data = payload.encode("utf-8")
    fs.write(path, data, block_size=block_size)
    return len(data)


def read_lines(fs: SimulatedHDFS, path: str) -> list[str]:
    """Read a whole file as a list of lines (no trailing newline chars)."""
    text = fs.read(path).decode("utf-8")
    if not text:
        return []
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n")


def split_boundaries(fs: SimulatedHDFS, path: str, min_splits: int = 1) -> list[tuple[int, int]]:
    """Return (offset, length) byte splits for a file.

    Defaults to one split per HDFS block; when ``min_splits`` exceeds the
    block count, blocks are subdivided evenly (mirroring how Spark's
    ``textFile(path, minPartitions)`` requests more splits than blocks).
    """
    status = fs.status(path)
    if status.size == 0:
        return [(0, 0)]
    base = [(b.offset, b.length) for b in status.blocks]
    if len(base) >= min_splits:
        return base
    per_split = max(1, status.size // min_splits)
    splits = []
    offset = 0
    while offset < status.size:
        length = min(per_split, status.size - offset)
        # Last split absorbs the remainder to avoid a tiny tail split.
        if status.size - (offset + length) < per_split // 2:
            length = status.size - offset
        splits.append((offset, length))
        offset += length
    return splits


def read_split_lines(
    fs: SimulatedHDFS, path: str, offset: int, length: int
) -> SplitLines:
    """Return the complete lines owned by the split ``[offset, offset+length)``.

    Ownership follows the TextInputFormat rule: a line belongs to the split
    containing its first byte; a split that starts mid-line skips forward
    to the next newline, and every split reads past its end to complete its
    final line.

    The newlines are found in the stored bytes in place and only the
    owned range is decoded.  ``hdfs.reads`` / ``hdfs.bytes_read`` count
    what a buffered reader fetches for it: 64 KiB chunks from the byte
    before the split until the first newline, the split's last byte, 64
    KiB chunks from the split's end until its last line ends, and the
    owned range.
    """
    status = fs.status(path)
    data, start, stop = _owned_range(fs, status, offset, length)
    text = str(memoryview(data)[start:stop], "utf-8")
    if not text:
        lines = []
    else:
        lines = (text[:-1] if text.endswith("\n") else text).split("\n")
    return SplitLines(lines, status, (offset, length))


def count_split_lines(fs: SimulatedHDFS, path: str, offset: int, length: int) -> int:
    """``len(read_split_lines(fs, path, offset, length))``, counted in the
    stored bytes without decoding them: the owned range's newlines, plus
    a last line the file's end cuts off.  The ``hdfs.*`` counters move as
    :func:`read_split_lines` moves them."""
    data, start, stop = _owned_range(fs, fs.status(path), offset, length)
    if start == stop:
        return 0
    return data.count(b"\n", start, stop) + (data[stop - 1] != _NEWLINE)


def split_fields(lines: list[str], delimiter: str, width: int) -> list[list[str]] | None:
    """The lines' fields column by column, when every line has exactly
    ``width`` fields split on a one-character ``delimiter``; else None.

    One join and one split over all the lines, once each line's
    delimiters are counted.
    """
    if len(delimiter) != 1 or set(map(str.count, lines, repeat(delimiter))) - {width - 1}:
        return None
    fields = delimiter.join(lines).split(delimiter) if lines else []
    return [fields[k::width] for k in range(width)]


def _owned_range(
    fs: SimulatedHDFS, status: FileStatus, offset: int, length: int
) -> tuple[bytes, int, int]:
    """The file's stored bytes and the range ``[start, stop)`` of the
    lines the split owns in them (empty when it owns none); counts the
    reads that find it and fetch it."""
    size = status.size
    if size == 0 or length <= 0 or offset > size:
        return b"", 0, 0
    data = fs.buffer(status.path)
    start, end = offset, offset + length
    reads = fetched = 0
    if start > 0:
        # Skip the partial line: find the first newline at or after start-1.
        newline = data.find(b"\n", start - 1, size)
        reads, fetched = _fetches(start - 1, newline, size)
        start = newline + 1
        if newline < 0 or start >= end:
            # No line starts inside this split.
            _count(reads, fetched)
            return b"", 0, 0
    if start >= size:
        _count(reads, fetched)
        return b"", 0, 0
    # Read from start to the end of the line containing byte end-1; when
    # the split already ends on a newline there is nothing to extend.
    stop = min(end, size)
    if stop < size:
        reads += 1
        fetched += 1
        if data[stop - 1] != _NEWLINE:
            newline = data.find(b"\n", stop, size)
            more_reads, more_fetched = _fetches(stop, newline, size)
            reads += more_reads
            fetched += more_fetched
            stop = size if newline < 0 else newline + 1
    _count(reads + 1, fetched + stop - start)
    return data, start, stop


_NEWLINE = ord("\n")
_FETCH = 64 * 1024  # a buffered reader's chunk


def _fetches(pos: int, newline: int, size: int) -> tuple[int, int]:
    """The reads and bytes of the ``_FETCH``-byte chunks a reader fetches
    from ``pos`` until the one holding ``newline`` (the file's end when
    it is -1)."""
    chunks = ((size - 1 if newline < 0 else newline) - pos) // _FETCH + 1
    return chunks, min(chunks * _FETCH, size - pos)


def _count(reads: int, fetched: int) -> None:
    REGISTRY.inc("hdfs.reads", reads)
    REGISTRY.inc("hdfs.bytes_read", fetched)
