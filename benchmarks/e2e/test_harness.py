"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest --noconftest benchmarks/e2e/test_harness.py -q

(``--noconftest`` keeps ``benchmarks/conftest.py``, which imports ``repro.bench``, out of it.)
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402  (puts the program's src/ on sys.path)
import paths  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402
from workloads import ROUNDS, WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_same_seed_gives_byte_identical_lines():
    for workload in WORKLOADS.values():
        first_env, first = paths.setup(workload, 7)
        again_env, again = paths.setup(workload, 7)
        assert first_env.right_lines == again_env.right_lines
        assert first.lines == again.lines
        assert paths.next_batch(first_env, 3).lines == paths.next_batch(again_env, 3).lines
        other_env, other = paths.setup(workload, 8)
        assert other.lines != first.lines


def test_ids_are_line_indices():
    env, batch = paths.setup(WORKLOADS["taxi-lion-500"], 7)
    for lines in (env.right_lines, batch.lines):
        assert [int(line.split("\t")[0]) for line in lines] == list(range(len(lines)))


def test_span_self_time_is_duration_minus_children():
    recorder = SpanRecorder("w")
    with recorder.span("parent"):
        with recorder.span("child"):
            with recorder.span("grandchild", rows=3):
                pass
        with recorder.span("child"):
            pass
    parent, child, grandchild, second = recorder.spans
    assert [s["parent"] for s in recorder.spans] == [None, 0, 1, 0]
    assert grandchild["counts"] == {"rows": 3}
    # Fixed clocks make the arithmetic exact.
    parent.update(start=0.0, end=10.0)
    child.update(start=1.0, end=5.0)
    grandchild.update(start=2.0, end=3.0)
    second.update(start=6.0, end=8.0)
    assert self_times(recorder.spans) == {0: 4.0, 1: 3.0, 2: 1.0, 3: 2.0}
    assert recorder.durations("child") == [4.0, 2.0]


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    # 4 + 22 runs per workload; a run is over when run_seconds are up, plus ~1 s of start-up.
    assert (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 3) < 3420


def _check_run(trace: int) -> dict:
    command = SPEC["command"] + [
        "--workload", "lion-nycb-intersects", "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--check",
    ]
    done = subprocess.run(command, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0
    result = json.loads(done.stdout.rstrip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_check_run_prints_exactly_the_declared_metrics():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        printed = _check_run(trace)
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {name: m["unit"] for name, m in printed.items()} == declared
        assert all(isinstance(m["value"], (int, float)) for m in printed.values())


def test_corrupted_pair_list_is_a_failed_operation():
    pairs = [(0, 1), (2, 3), (2, 4)]
    digest = paths.pair_digest(pairs)
    assert paths.pair_digest(list(reversed(pairs))) == digest
    assert paths.pair_digest(pairs + [(2, 4)]) != digest  # duplicates count
    corrupted = paths.pair_digest(pairs[:-1] + [(2, 5)])
    checker = run.Checker(pins=None)
    checker.check_round(
        0,
        {"ss": (digest, 1.0), "ss_part": (corrupted, 1.0), "isp": (digest, 2.0),
         "api": "Traceback: boom"},
        oracle=digest,
    )
    assert checker.attempted == 4
    assert len(checker.failures) == 2
    assert "ss_part" in checker.failures[0] and "api" in checker.failures[1]


def test_pinned_simulated_seconds_must_match():
    pins = {"batches": [{"digest": "d", "ss_sim_s": 1.0, "ss_part_sim_s": 2.0, "isp_sim_s": 3.0}]}
    checker = run.Checker(pins)
    checker.check_round(
        0, {"ss": ("d", 1.0), "ss_part": ("d", 2.0 + 1e-6), "isp": ("d", 3.0), "api": ("d", None)},
        oracle="d",
    )
    assert checker.attempted == 4 and len(checker.failures) == 1
    assert "simulated seconds" in checker.failures[0]
    checker.check_oracle("other")
    assert len(checker.failures) == 2


def test_simulated_medians_do_not_depend_on_how_many_rounds_fit():
    small = dataclasses.replace(WORKLOADS["taxi-nycb"], left_count=200)
    fixed, info = run.run_untraced(small, 7, 0.0, False, run.Checker(pins=None))
    assert info["rounds"] == ROUNDS
    longer, more = run.run_untraced(small, 7, 12.0, False, run.Checker(pins=None))
    assert more["rounds"] > ROUNDS
    for name in ("ss_sim_s", "isp_sim_s"):
        assert longer[name] == fixed[name] and fixed[name]["samples"] == ROUNDS
    assert longer["ss_query_s"]["samples"] == more["rounds"]


def test_compare_verdicts():
    wall = {"name": "ss_query_s", "unit": "s", "better": "lower", "bound": 0.1}
    sim = {"name": "ss_sim_s", "unit": "sim_s", "better": "lower", "bound": 0.05}
    steady = {"value": 1.0, "spread": 0.02}
    assert compare.verdict(wall, steady, {"value": 1.05, "spread": 0.02}, True) == "ok"
    assert compare.verdict(wall, steady, {"value": 0.5, "spread": 0.02}, True) == "ok"
    assert compare.verdict(wall, steady, {"value": 1.2, "spread": 0.02}, True) == "worse"
    assert compare.verdict(wall, steady, {"value": 1.2, "spread": 0.3}, True) == "unresolved"
    assert compare.verdict(wall, {"value": 1.0}, {"value": 1.2}, True) == "worse"
    assert compare.verdict(sim, steady, {"value": 1.0 + 1e-6}, True) == "worse"
    assert compare.verdict(sim, steady, {"value": 1.0 + 1e-6}, False) == "ok"
