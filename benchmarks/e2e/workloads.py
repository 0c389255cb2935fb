"""The benchmark's four workloads and their seeded inputs.

Each workload is one reference (right) table that stays put and a stream
of fresh left batches probing it.  The reference table is the same for
every ``--seed`` (census blocks, streets and ecoregions do not change
between an analyst's sessions; the probes do): with 49-60 objects on the
right, a new table per seed moves the simulated seconds by up to 17 %
from seed to seed, which no regression bound survives.  Left batch *i* is
generated from ``seed + 1 + i``.  Both sides are Morton-sorted and
written as ``id<TAB>WKT`` lines with ``id == line index``, so the Spark
paths (which pair ``zipWithIndex`` record indices) and the SQL / API paths
(which return the id column) produce the same pair set.

The program under test only ever sees the generated lines.  Why each
workload is here is written once, in BENCHMARK.json (and at length in
README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.operators import SpatialOperator
from repro.data import (
    SyntheticDataset,
    generate_gbif,
    generate_lion,
    generate_nycb,
    generate_taxi,
    generate_wwf,
)
from repro.geometry import wkt_dumps
from repro.hdfs import SimulatedHDFS, write_text
from repro.index.morton import morton_code

# The default ``--seed``, and the seed of every run's right tables.
DEFAULT_SEED = 20150401
# The fixed repetition count, the same on every run: every path answers
# batches 0..ROUNDS-1.  The simulated-seconds medians are taken over
# exactly these batches, so they are a pure function of the seed, and
# expected.json pins them for the default seed.  A run with time left
# goes on to further batches, which add wall-clock samples only.
ROUNDS = 7

_SQL_FUNCTION = {
    SpatialOperator.WITHIN: "ST_WITHIN",
    SpatialOperator.NEAREST_D: "ST_NEARESTD",
    SpatialOperator.INTERSECTS: "ST_INTERSECTS",
}


@dataclass(frozen=True)
class Workload:
    """One named workload: generators, sizes and predicate."""

    name: str
    left: str
    left_count: int
    right: str
    right_count: int
    operator: SpatialOperator
    # NearestD distance in street-grid pitches (the paper's 500 ft is
    # ~1.9 NYC block pitches).
    radius_pitches: float = 0.0


# Left sizes are the largest at which ROUNDS rounds of all four paths,
# the set-up samples and the oracle fit one run of ``run_seconds`` on the
# reference container (see README.md, "Sizes").
WORKLOADS = {
    w.name: w
    for w in (
        Workload("taxi-nycb", "taxi", 14000, "nycb", 49, SpatialOperator.WITHIN),
        Workload("taxi-lion-500", "taxi", 2400, "lion", 60, SpatialOperator.NEAREST_D,
                 radius_pitches=1.9),
        Workload("g10m-wwf", "gbif", 1500, "wwf", 51, SpatialOperator.WITHIN),
        Workload("lion-nycb-intersects", "lion", 2000, "nycb", 49,
                 SpatialOperator.INTERSECTS),
    )
}


def generate_right(workload: Workload) -> SyntheticDataset:
    """The reference table (the same for every seed)."""
    generator = {"nycb": generate_nycb, "lion": generate_lion, "wwf": generate_wwf}
    return generator[workload.right](workload.right_count, seed=DEFAULT_SEED)


def generate_left(
    workload: Workload, seed: int, batch: int, right: SyntheticDataset
) -> SyntheticDataset:
    """Left batch ``batch``, from ``seed + 1 + batch``."""
    batch_seed = seed + 1 + batch
    if workload.left == "taxi":
        return generate_taxi(workload.left_count, seed=batch_seed)
    if workload.left == "lion":
        return generate_lion(workload.left_count, seed=batch_seed)
    # GBIF occurrences cluster on "land": hotspots sit on ecoregion parts,
    # as the real records do, so most points fall inside some region.
    centers = []
    for _, geometry in right.records:
        for part in geometry.parts:
            centroid = part.centroid()
            centers.append((centroid.x, centroid.y, part.envelope.width / 5.0))
    return generate_gbif(workload.left_count, seed=batch_seed, centers=centers)


def radius_of(workload: Workload, right: SyntheticDataset) -> float:
    """The NearestD distance for this right table (0.0 otherwise)."""
    if not workload.operator.needs_radius:
        return 0.0
    pitch = right.extent.width / right.metadata["grid"]
    return workload.radius_pitches * pitch


def table_lines(dataset: SyntheticDataset) -> list[str]:
    """Morton-sort the records and render ``line_index<TAB>WKT`` lines."""
    extent = dataset.extent
    ordered = sorted(
        (geometry for _, geometry in dataset.records),
        key=lambda geometry: morton_code(*geometry.envelope.center, extent),
    )
    return [f"{i}\t{wkt_dumps(g, precision=6)}" for i, g in enumerate(ordered)]


def write_table(hdfs: SimulatedHDFS, path: str, lines: list[str], blocks: int) -> None:
    """Write ``lines`` with a block size giving roughly ``blocks`` blocks."""
    size = sum(len(line) + 1 for line in lines)
    write_text(hdfs, path, lines, block_size=max(1024, size // blocks))


def wkt_rows(lines: list[str]) -> list[tuple[int, str]]:
    """``(id, WKT)`` rows, the API path's input shape."""
    rows = []
    for line in lines:
        record_id, text = line.split("\t")
        rows.append((int(record_id), text))
    return rows


def join_sql(workload: Workload, radius: float, left: str, right: str) -> str:
    """The ISP-MC query text for this workload."""
    function = _SQL_FUNCTION[workload.operator]
    distance = f", {radius!r}" if workload.operator.needs_radius else ""
    return (
        f"SELECT l.id, r.id FROM {left} l SPATIAL JOIN {right} r "
        f"WHERE {function}(l.geom, r.geom{distance})"
    )
