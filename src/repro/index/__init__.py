"""Spatial indexing substrate: R-trees, grid, quadtree, partitioners."""

from repro.index.morton import morton_code, morton_codes
from repro.index.rtree import STRtree
from repro.index.dynamic_rtree import RTree
from repro.index.grid import GridIndex
from repro.index.quadtree import QuadTree
from repro.index.partitioner import (
    BinarySplitPartitioner,
    FixedGridPartitioner,
    SortTilePartitioner,
    SpatialPartitioning,
    reference_point_in,
)

__all__ = [
    "STRtree",
    "morton_code",
    "morton_codes",
    "RTree",
    "GridIndex",
    "QuadTree",
    "SpatialPartitioning",
    "FixedGridPartitioner",
    "BinarySplitPartitioner",
    "SortTilePartitioner",
    "reference_point_in",
]
