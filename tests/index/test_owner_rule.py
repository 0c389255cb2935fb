"""The partitioned joins' owner rule, as array operations, against the
set loop the per-tile join ran.

A pair replicated to several tiles is produced in each tile both of its
rows reach; only the lowest-indexed common tile emits it (the producing
tile, should they share none).  ``SpatialPartitioning.owned_pairs``
decides every match of a tile stage at once; the reference below is the
per-tile join's loop, one match at a time over Python sets.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.envelope import Envelope
from repro.index.partitioner import SpatialPartitioning, cover_plane


def owned_pairs_reference(tiles, left_bounds, rows, pair_tiles, build_bounds, entries, expand):
    """The set-based owner loop: a left row in one tile is owned there
    whatever it matched; a row in several tiles is owned by the lowest
    tile its match's (grown) box reaches too."""
    left_rows, left_tiles = tiles.route_rows(*left_bounds)
    row_tiles: dict[int, set[int]] = {}
    for row, tile in zip(left_rows.tolist(), left_tiles.tolist()):
        row_tiles.setdefault(row, set()).add(tile)
    keep = []
    for row, entry, tile in zip(rows.tolist(), entries.tolist(), pair_tiles.tolist()):
        reached = row_tiles.get(row, set())
        if len(reached) == 1:
            keep.append(min(reached) == tile)
        elif reached:
            box = Envelope(*(float(bound[entry]) for bound in build_bounds))
            match_tiles = set(tiles.route_envelopes([box], expand=expand)[1].tolist())
            common = reached & match_tiles
            keep.append((min(common) if common else tile) == tile)
        else:
            keep.append(False)
    return np.array(keep, dtype=bool)


# Small integer coordinates, so boxes often lie exactly on tile edges.
coordinate = st.integers(-3, 13).map(float)
size = st.sampled_from([0.0, 0.0, 1.0, 2.0, 4.5, 9.0])


@st.composite
def boxes(draw, min_size=1, max_size=12):
    rows = draw(st.lists(st.tuples(coordinate, coordinate, size, size),
                         min_size=min_size, max_size=max_size))
    min_x, min_y, width, height = (np.array(column, dtype=np.float64) for column in zip(*rows))
    return min_x, min_y, min_x + width, min_y + height


@st.composite
def grid_layouts(draw):
    """A grid of cuts on the integer lattice, its outer edges unbounded or not."""
    xs = sorted(draw(st.sets(st.integers(0, 10), min_size=2, max_size=5)))
    ys = sorted(draw(st.sets(st.integers(0, 10), min_size=2, max_size=5)))
    tiles = tuple(
        Envelope(float(x0), float(y0), float(x1), float(y1))
        for y0, y1 in zip(ys, ys[1:])
        for x0, x1 in zip(xs, xs[1:])
    )
    layout = SpatialPartitioning(Envelope(xs[0], ys[0], xs[-1], ys[-1]), tiles)
    return cover_plane(layout) if draw(st.booleans()) else layout


@st.composite
def overlapping_layouts(draw):
    """Arbitrary boxes: tiles may overlap one another, and leave gaps."""
    min_x, min_y, max_x, max_y = draw(boxes(min_size=1, max_size=6))
    tiles = tuple(Envelope(*bounds) for bounds in zip(min_x, min_y, max_x, max_y))
    return SpatialPartitioning(Envelope(-3, -3, 22, 22), tiles)


@settings(max_examples=300, deadline=None)
@given(
    layout=st.one_of(grid_layouts(), overlapping_layouts()),
    left=boxes(),
    build=boxes(),
    expand=st.sampled_from([0.0, 0.5, 1.0]),
    data=st.data(),
)
def test_array_rule_keeps_the_set_loops_pairs(layout, left, build, expand, data):
    num_left, num_build = len(left[0]), len(build[0])
    # A tile stage's matches: a left row, a build row, the tile producing
    # them — the tiles a left row reaches, or any tile at all.
    left_rows, left_tiles = layout.route_rows(*left)
    reached = {row: left_tiles[left_rows == row].tolist() for row in range(num_left)}
    matches = data.draw(
        st.lists(
            st.integers(0, num_left - 1).flatmap(
                lambda row: st.tuples(
                    st.just(row),
                    st.integers(0, num_build - 1),
                    st.one_of(st.sampled_from(reached[row]), st.integers(0, len(layout) - 1)),
                )
            ),
            max_size=30,
        )
    )
    rows, entries, pair_tiles = (np.array(column, dtype=np.int64).reshape(-1)
                                 for column in (zip(*matches) if matches else ([], [], [])))
    args = (left, rows, pair_tiles, build, entries, expand)
    assert layout.owned_pairs(*args).tolist() == owned_pairs_reference(layout, *args).tolist()


def test_a_replicated_pair_is_owned_once():
    """A street and a district that share every tile of a 2 x 2 grid:
    each tile produces the pair, only the lowest common tile keeps it."""
    layout = cover_plane(
        SpatialPartitioning(
            Envelope(0, 0, 10, 10),
            (Envelope(0, 0, 5, 5), Envelope(5, 0, 10, 5), Envelope(0, 5, 5, 10),
             Envelope(5, 5, 10, 10)),
        )
    )
    street = tuple(np.array([value]) for value in (1.0, 1.0, 9.0, 9.0))
    district = tuple(np.array([value]) for value in (4.0, 0.5, 9.5, 9.5))
    produced = np.arange(4)
    keep = layout.owned_pairs(
        street, np.zeros(4, dtype=np.int64), produced, district, np.zeros(4, dtype=np.int64), 0.0
    )
    assert keep.tolist() == [True, False, False, False]
