"""HAVING and EXPLAIN — SQL surface beyond the paper's minimal dialect."""

import random

import pytest

from repro.cluster import ClusterSpec
from repro.errors import PlanError
from repro.hdfs import SimulatedHDFS, write_text
from repro.impala import ColumnType, ImpalaBackend


@pytest.fixture(scope="module")
def backend():
    rng = random.Random(42)
    fs = SimulatedHDFS()
    write_text(
        fs, "/p.txt",
        [f"{i}\tPOINT ({rng.uniform(0, 90)} {rng.uniform(0, 90)})" for i in range(300)],
    )
    polys = []
    for row in range(3):
        for col in range(3):
            x0, y0 = col * 30, row * 30
            polys.append(
                f"{row * 3 + col}\tPOLYGON (({x0} {y0}, {x0+30} {y0}, "
                f"{x0+30} {y0+30}, {x0} {y0+30}, {x0} {y0}))"
            )
    write_text(fs, "/z.txt", polys)
    backend = ImpalaBackend(ClusterSpec(2, 4), hdfs=fs)
    schema = [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)]
    backend.metastore.create_table("p", schema, "/p.txt")
    backend.metastore.create_table("z", schema, "/z.txt")
    return backend


JOIN_AGG = (
    "SELECT z.id, COUNT(*) AS n FROM p SPATIAL JOIN z "
    "WHERE ST_WITHIN(p.geom, z.geom) GROUP BY z.id"
)


class TestHaving:
    def test_filters_groups(self, backend):
        unfiltered = backend.execute(JOIN_AGG)
        threshold = sorted(n for _, n in unfiltered.rows)[len(unfiltered.rows) // 2]
        filtered = backend.execute(f"{JOIN_AGG} HAVING COUNT(*) > {threshold}")
        expected = [(z, n) for z, n in unfiltered.rows if n > threshold]
        assert sorted(filtered.rows) == sorted(expected)

    def test_alias_reference(self, backend):
        by_call = backend.execute(f"{JOIN_AGG} HAVING COUNT(*) >= 30")
        by_alias = backend.execute(f"{JOIN_AGG} HAVING n >= 30")
        assert sorted(by_call.rows) == sorted(by_alias.rows)

    def test_group_key_reference(self, backend):
        result = backend.execute(f"{JOIN_AGG} HAVING z.id < 3")
        assert all(z < 3 for z, _ in result.rows)

    def test_compound_condition(self, backend):
        result = backend.execute(f"{JOIN_AGG} HAVING n > 20 AND z.id < 6")
        assert all(n > 20 and z < 6 for z, n in result.rows)

    def test_arithmetic_in_having(self, backend):
        doubled = backend.execute(f"{JOIN_AGG} HAVING n * 2 > 60")
        plain = backend.execute(f"{JOIN_AGG} HAVING n > 30")
        assert sorted(doubled.rows) == sorted(plain.rows)

    def test_having_with_order_and_limit(self, backend):
        result = backend.execute(
            f"{JOIN_AGG} HAVING n > 10 ORDER BY n DESC LIMIT 3"
        )
        values = [n for _, n in result.rows]
        assert len(values) <= 3
        assert values == sorted(values, reverse=True)

    def test_having_without_aggregate_rejected(self, backend):
        with pytest.raises(PlanError):
            backend.execute("SELECT id FROM p HAVING id > 3")

    def test_having_on_ungrouped_column_rejected(self, backend):
        with pytest.raises(PlanError):
            backend.execute(f"{JOIN_AGG} HAVING p.id > 3")


class TestExplain:
    def test_join_plan_structure(self, backend):
        result = backend.execute(
            "EXPLAIN SELECT p.id, z.id FROM p SPATIAL JOIN z "
            "WHERE ST_WITHIN(p.geom, z.geom) AND p.id < 10"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert result.columns == ["Explain"]
        assert "SPATIAL JOIN [R-tree, BROADCAST]" in text
        assert "SCAN z [BROADCAST]" in text
        assert "SCAN p" in text
        assert "(p.id < 10)" in text

    def test_cross_join_plan(self, backend):
        result = backend.execute(
            "EXPLAIN SELECT p.id FROM p INNER JOIN z ON ST_WITHIN(p.geom, z.geom)"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "CROSS JOIN [single-core, BROADCAST]" in text

    def test_aggregate_plan(self, backend):
        result = backend.execute(f"EXPLAIN {JOIN_AGG} HAVING n > 5")
        text = "\n".join(row[0] for row in result.rows)
        assert "AGGREGATE [FINALIZE]" in text
        assert "AGGREGATE [PARTIAL]" in text
        assert "HAVING" in text

    def test_explain_does_not_execute(self, backend):
        result = backend.execute("EXPLAIN SELECT id FROM p")
        # No fragment instances ran: planning cost only.
        assert result.instances == []
        assert result.simulated_seconds <= backend.cost_model.impala_plan_base

    def test_scan_only_plan(self, backend):
        result = backend.execute("EXPLAIN SELECT id FROM p WHERE id BETWEEN 1 AND 5")
        text = "\n".join(row[0] for row in result.rows)
        assert "SCAN p" in text
        assert "JOIN" not in text


@pytest.fixture(scope="module")
def nullable():
    """``t(k, v)``: group 2's values are all NULL, so its SUM and MAX are."""
    fs = SimulatedHDFS()
    write_text(fs, "/t.txt", ["1\t5", "1\t\\N", "2\t\\N", "2\t\\N", "3\t7", "3\t2"])
    backend = ImpalaBackend(ClusterSpec(2, 4), hdfs=fs)
    backend.metastore.create_table(
        "t", [("k", ColumnType.BIGINT), ("v", ColumnType.BIGINT)], "/t.txt"
    )
    return backend


class TestHavingOverAggregatedOutput:
    def test_is_null_on_an_aggregate_alias(self, nullable):
        result = nullable.execute(
            "SELECT k, MAX(v) AS m FROM t GROUP BY k HAVING m IS NULL"
        )
        assert result.rows == [(2, None)]

    def test_is_not_null_on_an_aggregate_call(self, nullable):
        result = nullable.execute(
            "SELECT k, MAX(v) AS m FROM t GROUP BY k HAVING MAX(v) IS NOT NULL ORDER BY k"
        )
        assert result.rows == [(1, 5), (3, 7)]

    def test_order_by_resolves_a_shadowing_alias_first(self, nullable):
        # ``k`` names the SUM; the SELECT item ``k`` (the key) is shadowed.
        result = nullable.execute(
            "SELECT k AS v, SUM(v) AS k FROM t GROUP BY k ORDER BY k"
        )
        assert result.rows == [(1, 5), (3, 9), (2, None)]

    def test_having_resolves_the_select_item_first(self, nullable):
        # ``k`` is the SELECT item ``k`` (the key), not the SUM aliased k.
        result = nullable.execute(
            "SELECT k AS v, SUM(v) AS k FROM t GROUP BY k HAVING k > 1 ORDER BY v"
        )
        assert result.rows == [(2, None), (3, 9)]

    def test_order_by_a_constant_is_refused(self, nullable):
        # Not an ordinal: a constant key would leave the rows unsorted.
        with pytest.raises(PlanError, match="does not match any output column"):
            nullable.execute("SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY 2")


class TestOrderByOverPlainOutput:
    def test_an_alias_resolves_to_its_select_item(self, nullable):
        result = nullable.execute(
            "SELECT k, v * 2 AS d FROM t WHERE v IS NOT NULL ORDER BY d DESC"
        )
        assert result.rows == [(3, 14), (1, 10), (3, 4)]

    def test_a_column_not_in_select_resolves_against_the_input_row(self, nullable):
        result = nullable.execute("SELECT k FROM t WHERE v IS NOT NULL ORDER BY v")
        assert result.rows == [(3,), (1,), (3,)]

    def test_a_shadowing_alias_resolves_first(self, nullable):
        # Each alias names the other input column, which it shadows:
        # the rows sort by the input ``k`` descending, then by ``v``.
        result = nullable.execute(
            "SELECT v AS k, k AS v FROM t WHERE v IS NOT NULL ORDER BY v DESC, k"
        )
        assert result.rows == [(2, 3), (7, 3), (5, 1)]

    def test_order_by_a_constant_is_refused(self, nullable):
        with pytest.raises(PlanError, match="does not match any output column"):
            nullable.execute("SELECT k, v FROM t ORDER BY 2")


class TestGlobalAggregateOverNoRows:
    @pytest.mark.parametrize("nodes", [1, 4])
    def test_is_one_row_of_empty_aggregates(self, nodes):
        fs = SimulatedHDFS(datanodes=tuple(f"node{i}" for i in range(nodes)))
        write_text(fs, "/t.txt", [f"{i}\t{i % 3}" for i in range(40)], block_size=64)
        backend = ImpalaBackend(ClusterSpec(nodes, 2), hdfs=fs)
        backend.metastore.create_table(
            "t", [("k", ColumnType.BIGINT), ("v", ColumnType.BIGINT)], "/t.txt"
        )
        none = "FROM t WHERE k > 100"
        assert backend.execute(f"SELECT COUNT(*) {none}").rows == [(0,)]
        assert backend.execute(
            f"SELECT COUNT(v), COUNT(DISTINCT v), SUM(v), MIN(v), MAX(v), AVG(v) {none}"
        ).rows == [(0, 0, None, None, None, None)]
        assert backend.execute(f"SELECT v, COUNT(*) {none} GROUP BY v").rows == []
        assert backend.execute(f"SELECT COUNT(*) {none} HAVING COUNT(*) > 0").rows == []
        result = backend.execute(f"SELECT COUNT(*) {none}")
        assert len(result.instances) == nodes
