"""EXPLAIN / EXPLAIN ANALYZE: estimate trees, overlays, misestimate flags."""

import json

import pytest

from repro.bench.workloads import materialize
from repro.core import JoinConfig, spatial_join
from repro.errors import ReproError
from repro.obs.events import logging_events, normalize_events
from repro.obs.explain import (
    EXPLAIN_SCHEMA_VERSION,
    ExplainNode,
    ExplainReport,
    explain,
    report_from_profile,
)

# Stage names the estimate tree must use per method — they mirror the
# executed profile's stage names so the ANALYZE overlay lines up.
_STAGES = {
    "broadcast": ["parse", "build", "probe"],
    "partitioned": ["parse", "shuffle", "join"],
    "dual-tree": ["parse", "build", "join"],
    "naive": ["parse", "join"],
}


@pytest.fixture(scope="module")
def hotspot():
    wl = materialize("hotspot-nycb", scale=0.02)
    return wl.left.records, wl.right.records, wl.workload.operator


@pytest.fixture(scope="module")
def analyzed(hotspot):
    left, right, op = hotspot
    return spatial_join(
        left, right, config=JoinConfig(operator=op, explain="analyze")
    )


class TestExplainPlanOnly:
    def test_plan_mode_never_executes(self, hotspot):
        left, right, op = hotspot
        report = explain(left, right, config=JoinConfig(operator=op))
        assert report.mode == "plan"
        assert report.root.actual is None
        assert all(node.actual is None for node in report.operators())
        assert report.misestimates() == []

    def test_operator_names_match_profile_stages(self, hotspot):
        left, right, op = hotspot
        report = explain(left, right, config=JoinConfig(operator=op))
        names = [node.name for node in report.root.children]
        assert names == _STAGES[report.method]

    def test_root_estimate_matches_priced_plan(self, hotspot):
        left, right, op = hotspot
        report = explain(left, right, config=JoinConfig(operator=op))
        priced = report.plan["costs"][report.method]
        # plan costs are rounded to 6 dp for display; the root sums the
        # unrounded terms, so compare with tolerance, not equality.
        assert report.total_estimated_seconds == pytest.approx(priced, abs=1e-5)

    def test_all_four_plans_priced(self, hotspot):
        left, right, op = hotspot
        report = explain(left, right, config=JoinConfig(operator=op))
        assert set(report.plan["costs"]) == {
            "naive", "broadcast", "partitioned", "dual-tree"
        }

    def test_forced_method_keeps_chosen_on_record(self, hotspot):
        left, right, op = hotspot
        auto = explain(left, right, config=JoinConfig(operator=op))
        forced = explain(
            left, right, config=JoinConfig(operator=op, method="partitioned")
        )
        assert forced.method == "partitioned"
        assert forced.plan["chosen"] == auto.method
        assert [n.name for n in forced.root.children] == _STAGES["partitioned"]

    def test_plan_annotations_present(self, hotspot):
        left, right, op = hotspot
        report = explain(left, right, config=JoinConfig(operator=op))
        assert report.plan["partitioner"] == "sort-tile+hot-split"
        assert report.plan["tiles"] >= 1
        assert "enabled" in report.plan["cache"]
        text = report.render()
        assert text.startswith("EXPLAIN ")
        assert "plan costs:" in text

    def test_parse_estimated_only_for_wkt_inputs(self, hotspot):
        left, right, op = hotspot
        objects = explain(left, right, config=JoinConfig(operator=op))
        wkt_left = [(i, g.wkt()) for i, g in left]
        texts = explain(wkt_left, right, config=JoinConfig(operator=op))
        assert objects.find("parse").estimate["seconds"] == 0.0
        assert texts.find("parse").estimate["seconds"] > 0.0

    def test_an_unknown_method_is_refused_like_spatial_join(self):
        """``explain`` used to price an unknown method as naive and label
        the report with it; every entry point now refuses it alike."""
        from repro.core import spatial_join_pairs

        left = [(0, "POINT (1 1)")]
        right = [("cell", "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")]
        message = r"method must be one of .*, got 'bogus'"
        for call in (
            lambda: explain(left, right, method="bogus"),
            lambda: explain(left, right, config=JoinConfig(method="bogus")),
            lambda: spatial_join(left, right, method="bogus"),
            lambda: spatial_join_pairs(["POINT (1 1)"], [right[0][1]], method="bogus"),
        ):
            with pytest.raises(ReproError, match=message):
                call()

    def test_index_is_broadcast_everywhere(self, hotspot):
        left, right, op = hotspot
        assert JoinConfig(method="index") == JoinConfig(method="broadcast")
        report = explain(left, right, config=JoinConfig(operator=op, method="index"))
        assert report.method == "broadcast"
        assert [n.name for n in report.root.children] == _STAGES["broadcast"]
        assert spatial_join(left[:50], right, operator=op, method="index").method == "broadcast"


class TestExplainAnalyze:
    def test_actuals_sum_match_engine_total(self, analyzed):
        report = analyzed.explain_report
        assert report.mode == "analyze"
        total = report.total_actual_seconds
        assert total == analyzed.profile.total_simulated_seconds
        children = sum(
            (node.actual or {}).get("seconds", 0.0)
            for node in report.root.children
        )
        assert children == pytest.approx(total, rel=1e-9)

    def test_seeded_build_misestimate_flagged(self, analyzed):
        flagged = analyzed.explain_report.misestimates()
        assert any(
            item["operator"] == "build" and "seconds misestimate" in item["flag"]
            for item in flagged
        )

    def test_render_analyze_form(self, analyzed):
        text = analyzed.explain_report.render()
        assert text.startswith("EXPLAIN ANALYZE")
        assert "actual" in text
        assert "misestimates" in text
        assert "operator" in text and "est s" in text and "act s" in text

    def test_explain_analyze_returns_attached_report(self, analyzed):
        assert analyzed.explain_analyze() is analyzed.explain_report

    def test_actual_rows_recorded(self, analyzed):
        probe = analyzed.explain_report.find("probe")
        assert probe is not None
        assert probe.actual["rows"] == float(len(analyzed.pairs))

    def test_generous_ratio_clears_flags(self, hotspot):
        left, right, op = hotspot
        result = spatial_join(
            left,
            right,
            config=JoinConfig(operator=op, explain="analyze", explain_ratio=1e6),
        )
        assert result.explain_report.misestimates() == []


class TestByteIdentity:
    """explain on vs off: identical pairs, profiles and normalized events."""

    def test_pairs_identical(self, hotspot, analyzed):
        left, right, op = hotspot
        plain = spatial_join(left, right, config=JoinConfig(operator=op))
        assert list(plain) == list(analyzed)

    def test_profile_identical(self, hotspot, analyzed):
        left, right, op = hotspot
        plain = spatial_join(
            left, right, config=JoinConfig(operator=op, profile=True)
        )
        assert plain.profile.to_json() == analyzed.profile.to_json()

    def test_normalized_events_identical(self, hotspot):
        # Compare at matched profile settings: analyze forces profile
        # collection (which legitimately fills QueryEnd.sim_seconds), so
        # explain's own contribution must be nil against a profiled run —
        # and plan mode's against an unprofiled one.
        left, right, op = hotspot
        with logging_events() as off_log:
            spatial_join(
                left, right, config=JoinConfig(operator=op, profile=True)
            )
        with logging_events() as analyze_log:
            spatial_join(
                left, right, config=JoinConfig(operator=op, explain="analyze")
            )
        assert normalize_events(off_log.events) == normalize_events(
            analyze_log.events
        )
        with logging_events() as bare_log:
            spatial_join(left, right, config=JoinConfig(operator=op))
        with logging_events() as plan_log:
            spatial_join(
                left, right, config=JoinConfig(operator=op, explain="plan")
            )
        assert normalize_events(bare_log.events) == normalize_events(
            plan_log.events
        )


class TestLazyAnalyze:
    def test_profiled_run_overlays_lazily(self, hotspot):
        left, right, op = hotspot
        result = spatial_join(
            left, right, config=JoinConfig(operator=op, profile=True)
        )
        report = result.explain_analyze()
        assert report.mode == "analyze"
        assert report.total_actual_seconds == result.profile.total_simulated_seconds

    def test_unprofiled_run_refuses(self, hotspot):
        left, right, op = hotspot
        result = spatial_join(left, right, config=JoinConfig(operator=op))
        with pytest.raises(ReproError, match="explain_analyze"):
            result.explain_analyze()


class TestReportFromProfile:
    def test_wraps_engine_profile(self, hotspot):
        left, right, op = hotspot
        result = spatial_join(
            left, right, config=JoinConfig(operator=op, profile=True)
        )
        report = report_from_profile(result.profile)
        assert report.mode == "analyze"
        assert report.total_actual_seconds == result.profile.total_simulated_seconds
        names = {node.name for node in report.root.children}
        assert names == {child.name for child in result.profile.root.children}
        # No optimizer estimates: the table renders '-' in est columns.
        assert all(not n.estimate for n in report.root.children)
        assert "EXPLAIN ANALYZE" in report.render()


class TestSerialisation:
    def test_json_round_trip_renders_equal(self, analyzed):
        doc = json.loads(json.dumps(analyzed.explain_report.to_json()))
        assert doc["schema_version"] == EXPLAIN_SCHEMA_VERSION
        assert doc["generated_by"].startswith("repro.obs.explain/")
        rebuilt = ExplainReport.from_json(doc)
        assert rebuilt.render() == analyzed.explain_report.render()
        assert rebuilt.misestimates() == analyzed.explain_report.misestimates()

    def test_unknown_schema_version_rejected(self, analyzed):
        doc = analyzed.explain_report.to_json()
        doc["schema_version"] = 99
        with pytest.raises(ReproError, match="schema_version"):
            ExplainReport.from_json(doc)

    def test_node_round_trip(self):
        node = ExplainNode(
            name="probe",
            info={"skew": 2.5},
            estimate={"seconds": 1.0, "rows": 10.0},
            actual={"seconds": 8.0},
            flags=["seconds misestimate: est 1 vs actual 8 (8.0x)"],
        )
        node.add_child(ExplainNode(name="leaf"))
        assert ExplainNode.from_dict(node.to_dict()) == node
