"""GROUP BY / HAVING / ORDER BY / LIMIT against a plain-Python reference.

Hypothesis draws small tables with NULLs and ties — empty ones too, and
WHERE clauses that keep no row — and runs each query on one node and on
four (where every instance ships partial aggregates the coordinator
merges).  Both must return what the reference computes: COUNT, COUNT
DISTINCT, SUM, MIN, MAX and AVG per group with NULLs ignored (without
GROUP BY, one row even over no input rows: counts 0, the others NULL),
the HAVING filter under SQL's three-valued logic, and the
ORDER BY keys in Impala's NULL order (last ascending, first descending)
cut at the LIMIT.  Rows that tie on every ORDER BY key may come in any
order, so the check is on the sequence of sort keys plus the rows picked.
"""

from __future__ import annotations

from functools import cmp_to_key

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.model import ClusterSpec
from repro.hdfs import SimulatedHDFS, write_text
from repro.impala import ColumnType, ImpalaBackend

NODES = (1, 4)
SCHEMA = [("id", ColumnType.BIGINT), ("k", ColumnType.BIGINT), ("v", ColumnType.BIGINT)]
NULL = "\\N"

AGGREGATES = (
    "COUNT(*) AS n, COUNT(v) AS nv, COUNT(DISTINCT v) AS d, SUM(v) AS s, "
    "MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS a"
)
OUTPUT = ["k", "n", "nv", "d", "s", "lo", "hi", "a"]

# (WHERE clause, whether it keeps a row (id, k, v))
WHERE = [
    ("", lambda row: True),
    (" WHERE id > 1000", lambda row: False),  # keeps no row
    (" WHERE v >= 0", lambda row: row[2] is not None and row[2] >= 0),
]


def _cmp(a, op, b):
    if a is None or b is None:
        return None
    return {">": a > b, "<": a < b, ">=": a >= b, "=": a == b}[op]


def _or(a, b):
    if a is True or b is True:
        return True
    return None if a is None or b is None else False


# (SQL condition, its value over one output row as a name -> value dict)
HAVING = [
    ("n > 1", lambda r: _cmp(r["n"], ">", 1)),
    ("COUNT(*) >= 2", lambda r: _cmp(r["n"], ">=", 2)),
    ("s IS NULL", lambda r: r["s"] is None),
    ("MAX(v) IS NOT NULL", lambda r: r["hi"] is not None),
    ("hi >= 2 OR lo < 0", lambda r: _or(_cmp(r["hi"], ">=", 2), _cmp(r["lo"], "<", 0))),
    ("a * 2 > s", lambda r: _cmp(None if r["a"] is None else r["a"] * 2, ">", r["s"])),
]
KEY_HAVING = ("k = 1", lambda r: _cmp(r["k"], "=", 1))

nullable = st.one_of(st.none(), st.integers(-2, 3))


@st.composite
def tables(draw):
    """Rows ``(id, k, v)``: few distinct keys and values, so groups and
    sort keys tie; NULLs in both; now and then no row at all."""
    pairs = draw(st.one_of(st.just([]), st.lists(st.tuples(nullable, nullable), max_size=30)))
    return [(i, k, v) for i, (k, v) in enumerate(pairs)]


order_items = st.lists(
    st.tuples(st.sampled_from(OUTPUT), st.booleans()), min_size=1, max_size=2
)
limits = st.one_of(st.none(), st.integers(0, 6))


def run(rows, sql: str, nodes: int) -> list[tuple]:
    fs = SimulatedHDFS(datanodes=tuple(f"node{i}" for i in range(nodes)))
    lines = ["\t".join(NULL if x is None else str(x) for x in row) for row in rows]
    write_text(fs, "/t.txt", lines, block_size=48)
    backend = ImpalaBackend(ClusterSpec(nodes, 2), hdfs=fs)
    backend.metastore.create_table("t", SCHEMA, "/t.txt")
    return backend.execute(sql).rows


def reference_groups(rows, grouped: bool = True) -> list[dict]:
    """One record per ``k`` group, or with ``grouped`` off one record
    (``k`` None) over every row, even none."""
    groups: dict = {} if grouped else {None: []}
    for _, k, v in rows:
        groups.setdefault(k if grouped else None, []).append(v)
    out = []
    for k, values in groups.items():
        present = [v for v in values if v is not None]
        out.append(
            {
                "k": k,
                "n": len(values),
                "nv": len(present),
                "d": len(set(present)),
                "s": sum(present) if present else None,
                "lo": min(present) if present else None,
                "hi": max(present) if present else None,
                "a": sum(present) / len(present) if present else None,
            }
        )
    return out


def ordered(records: list[dict], order: list[tuple[str, bool]]) -> list[dict]:
    """``records`` sorted by ``order``'s keys, NULLs last ascending and
    first descending."""

    def compare(a, b):
        for name, ascending in order:
            x, y = a[name], b[name]
            if x == y:
                continue
            if x is None or y is None:
                return (1 if x is None else -1) * (1 if ascending else -1)
            return (-1 if x < y else 1) * (1 if ascending else -1)
        return 0

    return sorted(records, key=cmp_to_key(compare))


def check(got: list[tuple], want: list[dict], names, order, limit) -> None:
    """``got`` holds ``want``'s rows in an order ``order`` allows, cut at
    ``limit``: the same sort keys in sequence, and only rows ``want``
    holds (every row is distinct)."""
    want = ordered(want, order)[:limit]
    rows = [dict(zip(names, row)) for row in got]
    keys = [[(name, row[name]) for name, _ in order] for row in rows]
    assert keys == [[(name, row[name]) for name, _ in order] for row in want]
    assert len(set(got)) == len(got)
    assert set(got) <= {tuple(row[name] for name in names) for row in want}


def order_sql(order, limit) -> str:
    sql = " ORDER BY " + ", ".join(f"{n} {'ASC' if up else 'DESC'}" for n, up in order)
    return sql + ("" if limit is None else f" LIMIT {limit}")


@settings(max_examples=40, deadline=None)
@given(
    rows=tables(),
    where=st.sampled_from(WHERE),
    having=st.one_of(st.none(), st.sampled_from([*HAVING, KEY_HAVING])),
    order=order_items,
    limit=limits,
)
def test_grouped_queries_match_the_reference(rows, where, having, order, limit):
    sql = f"SELECT k, {AGGREGATES} FROM t{where[0]} GROUP BY k"
    want = reference_groups([row for row in rows if where[1](row)])
    if having is not None:
        sql += f" HAVING {having[0]}"
        want = [row for row in want if having[1](row) is True]
    sql += order_sql(order, limit)
    for nodes in NODES:
        check(run(rows, sql, nodes), want, OUTPUT, order, limit)


@settings(max_examples=40, deadline=None)
@given(
    rows=tables(),
    where=st.sampled_from(WHERE),
    having=st.one_of(st.none(), st.sampled_from(HAVING)),
    order=st.one_of(
        st.just([]), st.lists(st.tuples(st.sampled_from(OUTPUT[1:]), st.booleans()), max_size=2)
    ),
    limit=limits,
)
def test_global_aggregates_match_the_reference(rows, where, having, order, limit):
    # No GROUP BY: one row however many rows the WHERE keeps, HAVING
    # alone may remove it.
    sql = f"SELECT {AGGREGATES} FROM t{where[0]}"
    want = reference_groups([row for row in rows if where[1](row)], grouped=False)
    if having is not None:
        sql += f" HAVING {having[0]}"
        want = [row for row in want if having[1](row) is True]
    if order:
        sql += order_sql(order, limit)
    elif limit is not None:
        sql += f" LIMIT {limit}"
    for nodes in NODES:
        check(run(rows, sql, nodes), want, OUTPUT[1:], order, limit)


@settings(max_examples=40, deadline=None)
@given(
    rows=tables(),
    order=st.lists(
        st.tuples(st.sampled_from(["k", "v"]), st.booleans()), min_size=1, max_size=2
    ),
    limit=limits,
)
def test_plain_queries_match_the_reference(rows, order, limit):
    want = [{"id": i, "k": k, "v": v} for i, k, v in rows]
    sql = "SELECT id, k, v FROM t" + order_sql(order, limit)
    for nodes in NODES:
        check(run(rows, sql, nodes), want, ["id", "k", "v"], order, limit)
