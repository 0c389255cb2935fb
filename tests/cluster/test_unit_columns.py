"""Unit columns against the per-row unit dicts they replace.

A probe batch's cost units travel as columns — one float64 array per
resource, one entry per row (``BroadcastIndex.probe_batch``,
``probe_wkt_rows``).  Priced with ``CostModel.row_seconds`` and counted
with ``TaskMetrics.add_columns`` they must leave every per-row second,
every makespan and every counter (key order included) exactly where
``task_seconds`` / ``TaskMetrics.add`` over the per-row dicts put them.
A Spark stage's tasks are charged and priced as one table
(``charge_members`` of more than one member, ``price_tasks``):
every task must end where ``add_columns`` of its member's merged columns
and ``task_seconds`` of its counts leave it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster.metrics import (
    TaskMetrics,
    UnitSlices,
    _charge_table,
    charge_members,
    price_tasks,
    scatter_units,
)
from repro.cluster.model import CostModel, Resource
from repro.core.probe import SPARSE_UNITS
from repro.cluster.simulation import simulate_dynamic, simulate_static_chunked
from repro.errors import BenchError


def unit_columns(rows: list[dict[str, float] | None]) -> dict[str, np.ndarray]:
    """Per-row unit dicts (``None`` for a row nobody charged) as unit
    columns: one float64 column per key, keys in first-touch order, 0
    where a row has no such key."""
    columns: dict[str, np.ndarray] = {}
    for i, row in enumerate(rows):
        for key, amount in (row or {}).items():
            columns.setdefault(key, np.zeros(len(rows)))[i] = amount
    return columns


def same_units(got: dict[str, np.ndarray], want: dict[str, np.ndarray]) -> bool:
    """Equal unit columns: same keys in the same order, same float64 bits."""
    return list(got) == list(want) and all(
        got[key].dtype == np.float64 and got[key].tobytes() == want[key].tobytes()
        for key in want
    )


UNITS = st.integers(0, 10**9).map(float)
CHARGED = st.integers(1, 10**9).map(float)
WKT = st.integers(0, 500).map(float)  # one row's WKT text


@st.composite
def unit_rows(draw):
    """One batch's per-row unit dicts in probe order: an optional parse
    charge, visits and output rows, then the vertex / allocation charges
    only when non-zero (the engines charge an allocation only with a
    vertex op); plus empty dicts and ``None`` rows."""
    wkt = draw(st.booleans())
    vertex_key = draw(st.sampled_from([Resource.REFINE_VERTEX_FAST, Resource.REFINE_VERTEX_SLOW]))

    def probed(draw_row):
        row = {Resource.WKT_BYTES: draw_row(WKT)} if wkt else {}
        row[Resource.INDEX_VISIT] = draw_row(UNITS)
        row[Resource.ROWS_OUT] = draw_row(UNITS)
        charge = draw_row(st.sampled_from(["none", "vertex", "both"]))
        if charge != "none":
            row[vertex_key] = draw_row(CHARGED)
        if charge == "both":
            row[Resource.REFINE_ALLOC] = draw_row(CHARGED)
        return row

    # Batch sizes are drawn evenly up to 100, so columns on both sides of
    # add_columns' short-column cutoff (64) are common.
    size = draw(st.integers(0, 100))
    kinds = draw(
        st.lists(
            st.sampled_from(["none", "empty", "dropped", "probed"]), min_size=size, max_size=size
        )
    )
    rows = []
    for kind in kinds:
        if kind == "none":
            rows.append(None)
        elif kind == "empty":
            rows.append({})
        elif kind == "dropped":
            rows.append({Resource.WKT_BYTES: draw(WKT)} if wkt else {})
        else:
            rows.append(probed(draw))
    return rows


# What a task or fragment instance holds before the batch is added: other
# counters, and the instance's own cost-weighted build-side parse charge —
# fractional, so only a left-to-right sum matches adding row by row.
HELD = st.dictionaries(
    st.sampled_from(
        [Resource.HDFS_BYTES, Resource.ROW_BATCHES, Resource.INDEX_BUILD, Resource.WKT_BYTES]
    ),
    st.builds(
        lambda units, weight: units * (weight / 1009), st.integers(0, 2000), st.integers(1, 1009)
    ),
)


def held_metrics(held: dict[str, float]) -> TaskMetrics:
    return TaskMetrics(counts=dict(held))


class TestUnitColumnsAreThePerRowDicts:
    @settings(max_examples=300, deadline=None)
    @given(rows=unit_rows())
    def test_row_seconds_is_task_seconds_per_row(self, rows):
        model = CostModel()
        got = model.row_seconds(unit_columns(rows), len(rows)).tolist()
        want = [model.task_seconds(row or {}) for row in rows]
        assert [s.hex() for s in got] == [s.hex() for s in want]

    @settings(max_examples=300, deadline=None)
    @given(rows=unit_rows(), held=HELD)
    # Adding the column's sum once would round 0.3002973240832507 + 8
    # differently from (0.3002973240832507 + 2) + 6.
    @example(
        rows=[{Resource.WKT_BYTES: 2.0, Resource.INDEX_VISIT: 0.0, Resource.ROWS_OUT: 0.0},
              {Resource.WKT_BYTES: 6.0}],
        held={Resource.WKT_BYTES: 0.3002973240832507},
    )
    def test_add_columns_is_add_row_by_row(self, rows, held):
        got, want = held_metrics(held), held_metrics(held)
        got.add_columns(unit_columns(rows))
        for row in rows:
            for resource, amount in (row or {}).items():
                want.add(resource, amount)
        assert list(got.counts) == list(want.counts)
        assert [v.hex() for v in got.counts.values()] == [v.hex() for v in want.counts.values()]

    @settings(max_examples=200, deadline=None)
    @given(rows=unit_rows(), workers=st.integers(1, 9))
    def test_makespans_are_the_per_row_ones(self, rows, workers):
        model = CostModel()
        columns = model.row_seconds(unit_columns(rows), len(rows)).tolist()
        dicts = [model.task_seconds(row or {}) for row in rows]
        for simulate in (simulate_static_chunked, simulate_dynamic):
            assert simulate(columns, workers).hex() == simulate(dicts, workers).hex()

    @given(held=HELD)
    def test_a_zero_row_batch_adds_nothing(self, held):
        metrics = held_metrics(held)
        metrics.add_columns({})
        metrics.add_columns({Resource.WKT_BYTES: np.zeros(0)})
        assert list(metrics.counts.items()) == list(held.items())
        assert CostModel().row_seconds({}, 0).tolist() == []

    def test_unknown_resource_is_refused(self):
        with pytest.raises(BenchError, match="unknown resource counter 'bogus'"):
            CostModel().row_seconds({"bogus": np.ones(2)}, 2)


def test_scatter_units_places_rows_and_keeps_key_order():
    units = {Resource.INDEX_VISIT: np.array([3.0, 4.0]), Resource.ROWS_OUT: np.array([1.0, 0.0])}
    placed = scatter_units(units, [3, 1], 5)
    assert same_units(placed, unit_columns(
        [None, {Resource.INDEX_VISIT: 4.0, Resource.ROWS_OUT: 0.0}, None,
         {Resource.INDEX_VISIT: 3.0, Resource.ROWS_OUT: 1.0}, None]
    ))


# -- a fused stage charged as one table -------------------------------------------

_STEP_KEYS = [
    Resource.WKT_BYTES,
    Resource.RDD_RECORDS,
    Resource.INDEX_VISIT,
    Resource.ROWS_OUT,
    Resource.REFINE_VERTEX_FAST,
    Resource.REFINE_ALLOC,
]


def merged_units(charges, member: int) -> dict[str, np.ndarray]:
    """A member's one charge as a stage batch merged it before the table:
    every step's columns, keys in the order the steps made them, a key
    two steps share holding both steps' entries in step order."""
    merged: dict[str, np.ndarray] = {}
    for charge in charges:
        for resource, column in charge(member).items():
            held = merged.get(resource)
            merged[resource] = column if held is None else np.concatenate((held, column))
    return merged


def _column(rng, rows: int, kind: str) -> np.ndarray:
    """One step's column for ``kind`` rows: whole counts, a 0.37
    cost-weighted (fractional) charge, or a sparse charge that is zero
    on most rows."""
    if kind == "weighted":
        return rng.integers(0, 500, rows) * 0.37
    if kind == "sparse":
        return rng.integers(1, 10**6, rows) * (rng.random(rows) < 0.05)
    return rng.integers(0, 10**6, rows).astype(np.float64)


@st.composite
def fused_stages(draw):
    """A stage's steps' unit slices, member ``b`` charged to task ``b``:
    member sizes from 0 to 1 100 (both of ``add_columns``' sums), or one
    skewed member beside empty ones; one to three steps over the same
    members, keys drawn from one pool so steps share keys; sparse
    columns with all-zero segments."""
    members = draw(st.integers(1, 7))
    skewed = draw(st.booleans())
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        if skewed:
            sizes = [0] * members
            sizes[draw(st.integers(0, members - 1))] = draw(st.integers(65, 1100))
        else:
            size = st.one_of(st.integers(0, 3), st.integers(0, 70), st.integers(0, 1100))
            sizes = draw(st.lists(size, min_size=members, max_size=members))
        stops = np.cumsum([draw(st.integers(0, 2)), *sizes]).tolist()
        rows = stops[-1] + draw(st.integers(0, 2))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        keys = draw(st.lists(st.sampled_from(_STEP_KEYS), unique=True, max_size=4))
        units = {}
        for key in keys:
            sparse = key in SPARSE_UNITS
            units[key] = _column(rng, rows, "sparse" if sparse else draw(
                st.sampled_from(["whole", "weighted"])
            ))
        steps.append(UnitSlices(units, stops, SPARSE_UNITS))
    return steps, members


def _tasks(held: list[dict[str, float]], members: int) -> list[TaskMetrics]:
    """``members`` tasks holding the ``held`` counts in turn."""
    return [held_metrics(held[b % len(held)]) for b in range(members)]


def _bits(metrics: TaskMetrics) -> list[tuple[str, str]]:
    return [(key, float(value).hex()) for key, value in metrics.counts.items()]


class TestAStageIsChargedAsOneTable:
    @settings(max_examples=300, deadline=None)
    @given(stage=fused_stages(), held=st.lists(HELD, min_size=1, max_size=7))
    # A sparse key the first step leaves out for member 0 but the second
    # charges: it takes the second step's place in that member's keys.
    @example(
        stage=(
            [
                UnitSlices(
                    {Resource.REFINE_ALLOC: np.array([0.0, 5.0]), Resource.WKT_BYTES: np.ones(2)},
                    [0, 1, 2], SPARSE_UNITS,
                ),
                UnitSlices(
                    {Resource.ROWS_OUT: np.ones(2), Resource.REFINE_ALLOC: np.array([3.0, 0.0])},
                    [0, 1, 2], SPARSE_UNITS,
                ),
            ],
            2,
        ),
        held=[{}],
    )
    def test_the_table_is_add_columns_member_by_member(self, stage, held):
        steps, members = stage
        want = _tasks(held, members)
        for member, task in enumerate(want):
            task.add_columns(merged_units(steps, member))
        # The table itself, a lone member included, and the stage's
        # charge, which charges a lone member with add_columns.
        for charge in (_charge_table, charge_members):
            got = _tasks(held, members)
            charge(got, steps)
            assert [_bits(task) for task in got] == [_bits(task) for task in want]

    @settings(max_examples=300, deadline=None)
    @given(stage=fused_stages(), held=st.lists(HELD, min_size=1, max_size=7), data=st.data())
    def test_one_price_table_is_task_seconds_per_task(self, stage, held, data):
        steps, members = stage
        tasks = _tasks(held, members)
        charge_members(tasks, steps)
        # And a task whose keys come in another order than the others'.
        if tasks and len(tasks[0].counts) > 1:
            keys = data.draw(st.permutations(list(tasks[0].counts)))
            tasks.append(TaskMetrics(counts={key: tasks[0].counts[key] for key in keys}))
        model = CostModel()
        got = price_tasks(model, tasks).tolist()
        assert [s.hex() for s in got] == [model.task_seconds(t.counts).hex() for t in tasks]

    def test_each_task_is_priced_in_one_row(self, monkeypatch):
        rows = []
        price = CostModel.row_seconds
        monkeypatch.setattr(
            CostModel,
            "row_seconds",
            lambda self, units, n: rows.append(n) or price(self, units, n),
        )
        tasks = [
            TaskMetrics(counts={Resource.WKT_BYTES: 1.5, Resource.ROWS_OUT: 2.0}),
            TaskMetrics(counts={Resource.ROWS_OUT: 3.0}),
            TaskMetrics(counts={Resource.ROWS_OUT: 1.0, Resource.WKT_BYTES: 0.37}),
            TaskMetrics(),
        ]
        price_tasks(CostModel(), tasks)
        # One table for the tasks in first-seen key order, one for the task
        # whose order differs.
        assert rows == [3, 1]
