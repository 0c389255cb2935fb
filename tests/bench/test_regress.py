"""The perf-regression gate: committed baselines pass, doctored ones fail."""

import json
import os
import shutil

import pytest

from repro.bench.__main__ import main
from repro.obs.regress import (
    BASELINE_FILES,
    check_optimizer,
    load_baselines,
    render_regress,
    run_regress,
)

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)


@pytest.fixture(scope="module")
def committed(tmp_path_factory):
    """One full --quick gate run against the committed baselines."""
    tmp = tmp_path_factory.mktemp("regress")
    out = str(tmp / "regress-report.json")
    explain_out = str(tmp / "explain-report.json")
    code = run_regress(
        baseline_dir=REPO_ROOT, quick=True, explain_out=explain_out, out=out
    )
    return code, out, explain_out


class TestBaselineLoading:
    def test_committed_baselines_validate(self):
        docs, rows = load_baselines(REPO_ROOT)
        assert set(docs) == set(BASELINE_FILES)
        assert all(row.status == "ok" for row in rows)

    def test_missing_files_skip(self, tmp_path):
        docs, rows = load_baselines(str(tmp_path))
        assert docs == {}
        assert {row.status for row in rows} == {"skip"}

    def test_corrupt_json_fails(self, tmp_path):
        (tmp_path / BASELINE_FILES["cache"]).write_text("{nope")
        docs, rows = load_baselines(str(tmp_path))
        (row,) = [r for r in rows if r.baseline == "cache"]
        assert row.status == "FAIL"
        assert "cache" not in docs

    @pytest.mark.parametrize(
        "stamp,value", [("schema_version", 99), ("generated_by", "someone-else/9.9")]
    )
    def test_doctored_stamp_fails(self, tmp_path, stamp, value):
        with open(os.path.join(REPO_ROOT, BASELINE_FILES["cache"])) as handle:
            doc = json.load(handle)
        doc[stamp] = value
        (tmp_path / BASELINE_FILES["cache"]).write_text(json.dumps(doc))
        _, rows = load_baselines(str(tmp_path))
        (row,) = [r for r in rows if r.baseline == "cache"]
        assert row.status == "FAIL"
        assert stamp in row.detail


class TestCommittedBaselinesPass:
    def test_exit_zero(self, committed):
        code, _, _ = committed
        assert code == 0

    def test_report_json(self, committed):
        _, out, _ = committed
        with open(out) as handle:
            doc = json.load(handle)
        assert doc["schema_version"] == 1
        assert doc["quick"] is True
        assert doc["failed"] == 0
        statuses = {row["status"] for row in doc["checks"]}
        assert "ok" in statuses and "FAIL" not in statuses
        # The pool benchmark is benchmarks/e2e's runtime.pool2_* now.
        assert not [r for r in doc["checks"] if r["baseline"] == "parallel"]

    def test_explain_artifact(self, committed):
        _, _, explain_out = committed
        with open(explain_out) as handle:
            doc = json.load(handle)
        assert doc["mode"] == "analyze"
        # The canned skew case must keep its seeded misestimate flagged.
        assert doc["misestimates"]

    def test_table_verdict(self, committed):
        _, out, _ = committed
        with open(out) as handle:
            doc = json.load(handle)
        from repro.obs.regress import CheckRow

        rows = [CheckRow(**row) for row in doc["checks"]]
        text = render_regress(rows)
        assert "no regressions:" in text
        assert "FAIL" not in text


class TestDoctoredBaselineFails:
    def test_doctored_estimate_trips_the_gate(self):
        with open(os.path.join(REPO_ROOT, BASELINE_FILES["optimizer"])) as handle:
            base = json.load(handle)
        base["plans"][0]["est_seconds"]["broadcast"] *= 2.0
        rows = check_optimizer(base)
        assert any(row.status == "FAIL" for row in rows)

    def test_doctored_method_trips_the_gate(self):
        with open(os.path.join(REPO_ROOT, BASELINE_FILES["optimizer"])) as handle:
            base = json.load(handle)
        doctored = base["plans"][0]
        doctored["method"] = "naive"
        rows = check_optimizer(base)
        (row,) = [
            r for r in rows if r.metric == f"plan:{doctored['workload']}"
        ]
        assert row.status == "FAIL"
        assert row.baseline_value == "naive"
        assert row.current_value != "naive"

    def test_render_reports_failures(self):
        from repro.obs.regress import CheckRow

        rows = [
            CheckRow("optimizer", "plan:x", "ok"),
            CheckRow("optimizer", "plan:y", "FAIL", 1.0, 2.0, "doctored"),
        ]
        text = render_regress(rows)
        assert "REGRESSION" in text and "FAIL" in text


class TestCli:
    def test_cli_exit_codes(self, tmp_path):
        # A doctored optimizer baseline must propagate to a nonzero exit.
        with open(os.path.join(REPO_ROOT, BASELINE_FILES["optimizer"])) as handle:
            base = json.load(handle)
        base["plans"][0]["est_seconds"]["broadcast"] += 1.0
        (tmp_path / BASELINE_FILES["optimizer"]).write_text(json.dumps(base))
        for name, filename in BASELINE_FILES.items():
            if name != "optimizer":
                shutil.copy(
                    os.path.join(REPO_ROOT, filename), tmp_path / filename
                )
        code = main(
            ["regress", "--quick", "--baseline-dir", str(tmp_path)]
        )
        assert code == 1


class TestStampedBenchDocs:
    def test_stamp_is_idempotent(self):
        from repro import __version__
        from repro.bench.report import (
            BENCH_SCHEMA_VERSION,
            stamp_bench_doc,
        )

        doc = stamp_bench_doc({"benchmark": "x"})
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert doc["generated_by"] == f"repro.bench/{__version__}"
        assert stamp_bench_doc(dict(doc)) == doc

    def test_committed_artifacts_are_stamped(self):
        for filename in BASELINE_FILES.values():
            with open(os.path.join(REPO_ROOT, filename)) as handle:
                doc = json.load(handle)
            assert doc["schema_version"] == 1, filename
            assert doc["generated_by"].startswith("repro.bench/"), filename


class TestConsoleScript:
    def test_repro_bench_entry_point_resolves(self):
        import tomllib

        with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
            pyproject = tomllib.load(handle)
        target = pyproject["project"]["scripts"]["repro-bench"]
        module_name, _, attr = target.partition(":")
        import importlib

        module = importlib.import_module(module_name)
        entry = getattr(module, attr)
        assert callable(entry)
        assert entry is main
