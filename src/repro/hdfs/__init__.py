"""Simulated HDFS substrate shared by the Spark and Impala engines."""

from repro.hdfs.filesystem import (
    BlockInfo,
    DEFAULT_BLOCK_SIZE,
    FileStatus,
    SimulatedHDFS,
)
from repro.hdfs.recordfile import (
    DEFAULT_PAGE_SIZE,
    read_records,
    read_split_records,
    record_split_boundaries,
    write_records,
)
from repro.hdfs.textfile import (
    SplitLines,
    count_split_lines,
    read_lines,
    read_split_lines,
    split_boundaries,
    split_fields,
    write_text,
)

__all__ = [
    "BlockInfo",
    "DEFAULT_BLOCK_SIZE",
    "FileStatus",
    "SimulatedHDFS",
    "SplitLines",
    "count_split_lines",
    "read_lines",
    "read_split_lines",
    "split_boundaries",
    "split_fields",
    "write_text",
    "DEFAULT_PAGE_SIZE",
    "read_records",
    "read_split_records",
    "record_split_boundaries",
    "write_records",
]
