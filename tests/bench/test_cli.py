"""The ``python -m repro.bench`` command line."""

import json

import pytest

from repro.bench.__main__ import build_parser, main
from repro.bench.report import DEFAULT_SCALE, experiments_json

SCALE = "0.02"


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        assert "--profile" in capsys.readouterr().out

    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.scale == DEFAULT_SCALE
        assert not args.json and not args.profile
        assert args.workload == "taxi-nycb"
        assert args.engine == "spatialspark"
        assert args.nodes == 1

    def test_scale_positional(self):
        assert build_parser().parse_args(["0.5"]).scale == 0.5

    def test_bad_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--engine", "warp"])

    # A bad positional, then the deleted A/B studies' modes and flags.
    @pytest.mark.parametrize("argv", [
        ["warp-speed"], ["kernels"], ["columnar"], ["parallel", "--repeat", "2"],
        ["parallel", "--assert-not-slower"], ["parallel", "--polygons", "10"],
        ["parallel", "--assert-bytes-ratio", "2.0"],
    ])
    def test_bad_arguments_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestProfileMode:
    def test_profile_prints_tree(self, capsys):
        assert main([SCALE, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Query Profile: SpatialSpark:taxi-nycb" in out
        assert "simulated total" in out

    def test_profile_json(self, capsys):
        assert main([SCALE, "--profile", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_simulated_seconds"] > 0
        assert sum(doc["phases"].values()) == pytest.approx(
            doc["total_simulated_seconds"], rel=1e-9
        )

    def test_trace_out_writes_merged_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main([SCALE, "--profile", "--engine", "isp-mc",
                     "--trace-out", str(path)]) == 0
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert events
        # Both clocks present: the simulated profile track and the
        # wall-clock span track ride on distinct pids.
        assert len({e["pid"] for e in events}) == 2


class TestJsonReport:
    @pytest.mark.slow
    def test_experiments_json_is_dumpable_and_complete(self):
        doc = experiments_json(scale=float(SCALE))
        json.dumps(doc)
        assert set(doc) >= {"scale", "table1", "table2", "fig4", "fig5", "paper"}
        assert len(doc["table1"]) == 4
        assert all(len(series) == 4 for series in doc["fig4"].values())


class TestEventsAndMonitorMode:
    def test_profile_writes_events_and_profile_json(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        profile_path = tmp_path / "profile.json"
        assert main([SCALE, "--profile", "--nodes", "2",
                     "--events-out", str(events_path),
                     "--profile-out", str(profile_path)]) == 0
        from repro.obs.events import read_events
        from repro.obs.profile import QueryProfile

        events = read_events(str(events_path))
        assert any(e["event"] == "QueryEnd" for e in events)
        doc = json.loads(profile_path.read_text())
        rebuilt = QueryProfile.from_dict(doc)
        assert rebuilt.to_dict() == doc

    def test_monitor_replays_written_log(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main([SCALE, "--profile", "--nodes", "2",
                     "--events-out", str(events_path)]) == 0
        capsys.readouterr()
        assert main(["monitor", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "stage summary (simulated seconds)" in out
        assert "wall-clock timeline" in out
        assert "stragglers (>" in out

    def test_monitor_straggler_k_knob(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main([SCALE, "--profile", "--nodes", "2",
                     "--events-out", str(events_path)]) == 0
        capsys.readouterr()
        assert main(["monitor", str(events_path),
                     "--straggler-k", "50"]) == 0
        assert "stragglers (> 50x stage median)" in capsys.readouterr().out

    def test_monitor_without_target_errors(self, capsys):
        assert main(["monitor"]) == 2
        assert "events.jsonl" in capsys.readouterr().err

    def test_monitor_missing_file_errors(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot replay" in capsys.readouterr().err
