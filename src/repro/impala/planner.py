"""Frontend planning: AST -> physical plan description.

Mirrors Impala's two-step frontend (Section IV of the paper): the parsed
statement is analysed against the metastore into a logical shape, then
turned into a *physical plan* — a plain-data description the coordinator
instantiates as exec-node trees, one fragment instance per backend node.
The plan is fixed before execution starts and never changes afterwards
("No changes on the plan are made after the plan starts to execute"),
which is precisely the static-scheduling behaviour the benchmarks probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.impala.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
)
from repro.impala.catalog import Metastore, Table
from repro.impala.exprs import Slot, TupleDescriptor
from repro.impala.udf import JOIN_PREDICATES

__all__ = [
    "ScanSpec",
    "SpatialPredicate",
    "JoinSpec",
    "AggregateSpec",
    "PhysicalPlan",
    "Planner",
]


@dataclass
class ScanSpec:
    """One table scan: the table, its exposed alias and pushed-down filters."""

    table: Table
    exposed_name: str
    conjuncts: list[Expr] = field(default_factory=list)

    @property
    def descriptor(self) -> TupleDescriptor:
        """Tuple descriptor for this scan's output rows."""
        return TupleDescriptor(
            [Slot(self.exposed_name, c.name) for c in self.table.columns]
        )


@dataclass
class SpatialPredicate:
    """The join predicate: which ST_ function over which geometry columns.

    ``probe_column``/``build_column`` are resolved against the probe (left)
    and build (right) scan descriptors; ``radius`` is the D of NearestD.
    ``flipped`` records that the SQL listed the build geometry first
    (e.g. ``ST_WITHIN(poly.geom, pnt.geom)`` is rejected, but
    ``ST_CONTAINS(poly.geom, pnt.geom)`` normalises to a flipped WITHIN).
    """

    function: str
    probe_column: ColumnRef
    build_column: ColumnRef
    radius: float = 0.0


@dataclass
class JoinSpec:
    """A spatial join: build-side scan plus the predicate.

    ``indexed`` is True for ``SPATIAL JOIN`` (the paper's R-tree path) and
    False for the naive cross-join fallback used when a plain ``JOIN``
    carries a spatial predicate.  ``distribution`` records the planner's
    stats-driven choice of how the build side reaches the instances:
    ``"broadcast"`` replicates it to every node (the paper's only mode),
    ``"partitioned"`` ships each side across the network once.  Fragment
    binding stays static either way — the choice is made before execution
    and never revisited.
    """

    build: ScanSpec
    predicate: SpatialPredicate
    indexed: bool
    residual: list[Expr] = field(default_factory=list)
    distribution: str = "broadcast"


@dataclass
class AggregateSpec:
    """An aggregation's group keys and functions, each in the order the
    SELECT list names them; ``layout[i]`` is where SELECT item ``i`` sits
    in a ``(keys..., aggregates...)`` row."""

    key_exprs: list[Expr]
    # (func_name, value_expr_or_None_for_COUNT(*), distinct)
    functions: list[tuple[str, Expr | None, bool]]
    layout: list[int]


@dataclass
class PhysicalPlan:
    """Everything the coordinator needs to execute a query."""

    statement: SelectStatement
    probe: ScanSpec
    join: JoinSpec | None
    residual: list[Expr]
    aggregate: AggregateSpec | None
    projection: list[SelectItem]
    output_names: list[str]
    order_by: list[OrderItem]
    limit: int | None
    having: Expr | None = None
    explain: bool = False

    @property
    def row_descriptor(self) -> TupleDescriptor:
        """Descriptor of rows flowing out of the (optional) join."""
        if self.join is None:
            return self.probe.descriptor
        return self.probe.descriptor.concat(self.join.build.descriptor)


class Planner:
    """Builds physical plans from parsed statements and the metastore.

    ``num_nodes`` enables the stats-driven broadcast-vs-partitioned
    choice for spatial joins (Impala's DistributedPlanner rule applied to
    metastore file sizes); the default of 1 keeps every join broadcast,
    the paper's original behaviour.
    """

    def __init__(self, metastore: Metastore, num_nodes: int = 1):
        self._metastore = metastore
        self._num_nodes = max(1, num_nodes)

    def plan(self, statement: SelectStatement) -> PhysicalPlan:
        """Analyse and plan one SELECT; raises :class:`PlanError`."""
        probe = ScanSpec(
            self._metastore.get(statement.from_table.name),
            statement.from_table.exposed_name,
        )
        if len(statement.joins) > 1:
            raise PlanError("at most one join is supported")
        join_clause = statement.joins[0] if statement.joins else None
        build = None
        if join_clause is not None:
            build = ScanSpec(
                self._metastore.get(join_clause.table.name),
                join_clause.table.exposed_name,
            )
            if build.exposed_name == probe.exposed_name:
                raise PlanError(
                    f"duplicate table name {build.exposed_name!r}; use aliases"
                )
        conjuncts = []
        if statement.where is not None:
            conjuncts.extend(_split_conjuncts(statement.where))
        if join_clause is not None and join_clause.on is not None:
            conjuncts.extend(_split_conjuncts(join_clause.on))
        join_spec, residual = self._classify(probe, build, join_clause, conjuncts)
        aggregate, projection, output_names = self._analyse_select_list(
            statement, probe, build
        )
        if statement.having is not None and aggregate is None:
            raise PlanError("HAVING requires aggregation")
        return PhysicalPlan(
            statement=statement,
            probe=probe,
            join=join_spec,
            residual=residual,
            aggregate=aggregate,
            projection=projection,
            output_names=output_names,
            order_by=statement.order_by,
            limit=statement.limit,
            having=statement.having,
            explain=statement.explain,
        )

    # -- conjunct classification ------------------------------------------------

    def _classify(
        self,
        probe: ScanSpec,
        build: ScanSpec | None,
        join_clause: JoinClause | None,
        conjuncts: list[Expr],
    ) -> tuple[JoinSpec | None, list[Expr]]:
        spatial_pred: SpatialPredicate | None = None
        residual: list[Expr] = []
        for conjunct in conjuncts:
            tables = self._tables_of(conjunct, probe, build)
            if tables <= {probe.exposed_name}:
                probe.conjuncts.append(conjunct)
                continue
            if build is not None and tables <= {build.exposed_name}:
                build.conjuncts.append(conjunct)
                continue
            candidate = self._as_spatial_predicate(conjunct, probe, build)
            if candidate is not None and spatial_pred is None:
                spatial_pred = candidate
            else:
                residual.append(conjunct)
        if join_clause is None:
            if spatial_pred is not None:
                raise PlanError(
                    "spatial predicate references two tables but no JOIN was given"
                )
            return None, residual
        if spatial_pred is None:
            raise PlanError(
                "a JOIN needs a spatial predicate "
                "(ST_WITHIN/ST_NEARESTD/ST_INTERSECTS over both tables)"
            )
        return (
            JoinSpec(
                build=build,
                predicate=spatial_pred,
                indexed=join_clause.spatial,
                residual=[],
                distribution=self._choose_distribution(probe, build),
            ),
            residual,
        )

    def _choose_distribution(self, probe: ScanSpec, build: ScanSpec) -> str:
        """Broadcast vs partitioned, by total network bytes.

        Impala's DistributedPlanner rule: broadcasting ships the build
        side to every node (``build_bytes x N``); partitioning ships each
        side across the network once (``build_bytes + probe_bytes``).
        Pick whichever moves fewer bytes.  On one node (or when the
        metastore can't size a table) there is nothing to ship — stay
        broadcast, the paper's static ISP-MC layout.
        """
        if self._num_nodes <= 1:
            return "broadcast"
        try:
            build_bytes = self._metastore.table_bytes(build.table.name)
            probe_bytes = self._metastore.table_bytes(probe.table.name)
        except Exception:
            return "broadcast"
        if build_bytes * self._num_nodes > build_bytes + probe_bytes:
            return "partitioned"
        return "broadcast"

    def _tables_of(
        self, expr: Expr, probe: ScanSpec, build: ScanSpec | None
    ) -> set[str]:
        tables: set[str] = set()
        for ref in expr.columns():
            tables.add(self._resolve_table(ref, probe, build))
        return tables

    def _resolve_table(
        self, ref: ColumnRef, probe: ScanSpec, build: ScanSpec | None
    ) -> str:
        if ref.table is not None:
            for scan in filter(None, (probe, build)):
                if scan.exposed_name == ref.table:
                    if not scan.table.has_column(ref.column):
                        raise PlanError(
                            f"table {ref.table!r} has no column {ref.column!r}"
                        )
                    return scan.exposed_name
            raise PlanError(f"unknown table {ref.table!r}")
        owners = [
            scan.exposed_name
            for scan in filter(None, (probe, build))
            if scan.table.has_column(ref.column)
        ]
        if not owners:
            raise PlanError(f"unknown column {ref.column!r}")
        if len(owners) > 1:
            raise PlanError(f"ambiguous column {ref.column!r}")
        return owners[0]

    def _as_spatial_predicate(
        self, conjunct: Expr, probe: ScanSpec, build: ScanSpec | None
    ) -> SpatialPredicate | None:
        if build is None or not isinstance(conjunct, FunctionCall):
            return None
        name = conjunct.name.upper()
        if name not in JOIN_PREDICATES:
            return None
        if len(conjunct.args) < 2 or not all(
            isinstance(arg, ColumnRef) for arg in conjunct.args[:2]
        ):
            return None
        first, second = conjunct.args[0], conjunct.args[1]
        first_table = self._resolve_table(first, probe, build)
        second_table = self._resolve_table(second, probe, build)
        if {first_table, second_table} != {probe.exposed_name, build.exposed_name}:
            return None
        radius = 0.0
        if name == "ST_NEARESTD":
            if len(conjunct.args) != 3:
                raise PlanError("ST_NEARESTD takes (geom, geom, distance)")
            from repro.impala.ast_nodes import Literal

            distance_arg = conjunct.args[2]
            if not isinstance(distance_arg, Literal) or not isinstance(
                distance_arg.value, (int, float)
            ):
                raise PlanError("ST_NEARESTD distance must be a numeric literal")
            radius = float(distance_arg.value)
        if name == "ST_CONTAINS":
            # ST_CONTAINS(build_geom, probe_geom) == ST_WITHIN(probe, build).
            if first_table != build.exposed_name:
                raise PlanError(
                    "ST_CONTAINS in a join must list the containing (build) "
                    "geometry first"
                )
            return SpatialPredicate("ST_WITHIN", second, first, radius)
        if first_table != probe.exposed_name:
            raise PlanError(
                f"{name} in a join must list the probe-side (left) geometry first"
            )
        return SpatialPredicate(name, first, second, radius)

    # -- SELECT list analysis ----------------------------------------------------

    def _analyse_select_list(
        self,
        statement: SelectStatement,
        probe: ScanSpec,
        build: ScanSpec | None,
    ) -> tuple[AggregateSpec | None, list[SelectItem], list[str]]:
        items = self._expand_stars(statement.select_items, probe, build)
        # Analysis-time validation: every referenced column must resolve
        # unambiguously against the FROM/JOIN tables.
        for item in items:
            for ref in item.expr.columns():
                self._resolve_table(ref, probe, build)
        has_aggregate = any(_contains_aggregate(item.expr) for item in items)
        output_names = [
            item.alias or _default_name(item.expr, i)
            for i, item in enumerate(items)
        ]
        if not has_aggregate:
            if statement.group_by:
                raise PlanError("GROUP BY requires an aggregate in the SELECT list")
            return None, items, output_names
        group_keys = list(statement.group_by)
        key_exprs: list[Expr] = []
        functions: list[tuple[str, Expr | None, bool]] = []
        aggregated: list[bool] = []
        for item in items:
            expr = item.expr
            aggregated.append(isinstance(expr, FunctionCall) and expr.is_aggregate)
            if aggregated[-1]:
                arg: Expr | None
                if len(expr.args) == 1 and isinstance(expr.args[0], Star):
                    if expr.name != "COUNT":
                        raise PlanError(f"{expr.name}(*) is not valid")
                    arg = None
                elif len(expr.args) == 1:
                    arg = expr.args[0]
                else:
                    raise PlanError(f"{expr.name} takes exactly one argument")
                functions.append((expr.name, arg, expr.distinct))
            else:
                if not any(expr == key for key in group_keys):
                    raise PlanError(
                        f"non-aggregate SELECT item {expr} must appear in GROUP BY"
                    )
                key_exprs.append(expr)
        for key in group_keys:
            if not any(key == e for e in key_exprs):
                raise PlanError(f"GROUP BY key {key} must appear in the SELECT list")
        keys = iter(range(len(key_exprs)))
        aggregates = iter(range(len(key_exprs), len(items)))
        layout = [next(aggregates if agg else keys) for agg in aggregated]
        return AggregateSpec(key_exprs, functions, layout), items, output_names

    def _expand_stars(
        self, items: list[SelectItem], probe: ScanSpec, build: ScanSpec | None
    ) -> list[SelectItem]:
        expanded: list[SelectItem] = []
        for item in items:
            expr = item.expr
            if not isinstance(expr, Star):
                expanded.append(item)
                continue
            if expr.table is None:
                scans = [s for s in (probe, build) if s is not None]
            elif expr.table == probe.exposed_name:
                scans = [probe]
            elif build is not None and expr.table == build.exposed_name:
                scans = [build]
            else:
                raise PlanError(f"unknown table {expr.table!r} in *")
            for scan in scans:
                for column in scan.table.columns:
                    expanded.append(
                        SelectItem(ColumnRef(scan.exposed_name, column.name))
                    )
        return expanded


def _contains_aggregate(expr: Expr) -> bool:
    if isinstance(expr, FunctionCall):
        if expr.is_aggregate:
            return True
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, BinaryOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    return False


def _split_conjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _default_name(expr: Expr, index: int) -> str:
    if isinstance(expr, ColumnRef):
        return expr.column
    if isinstance(expr, FunctionCall):
        return expr.name.lower()
    return f"_c{index}"
