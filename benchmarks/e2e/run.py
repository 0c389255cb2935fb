#!/usr/bin/env python3
"""End-to-end benchmark: wall-clock of the paper's joins through every query path.

    python3 benchmarks/e2e/run.py                       # every workload, one subprocess each
    python3 benchmarks/e2e/run.py --workload taxi-nycb  # one workload, in this process
    python3 benchmarks/e2e/run.py --workload g10m-wwf --trace 1   # the per-layer ledger

A closed loop: one client, one query at a time, serial executors.  Every
round generates a fresh left batch, joins it against the workload's right
table through the four paths (ss, ss_part, isp, api), and checks that all
four return the same pair set.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: the program's source is not at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import calibration  # noqa: E402
import layers  # noqa: E402
import paths  # noqa: E402
from compare import SIM_REL_TOL  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import DEFAULT_SEED, ROUNDS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_PATH = HERE / "expected.json"
SETUP_REPS = 7
# Rounds the traced run spends on untraced reference medians.
TRACE_REFERENCE_ROUNDS = 3
SIM_PATHS = ("ss", "ss_part", "isp")


def units(kind: str) -> dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


# -- correctness ledger -------------------------------------------------------


class Checker:
    """Counts operations attempted and failed, with a reason per failure."""

    def __init__(self, pins: dict | None):
        self.pins = pins
        self.attempted = 0
        self.failures: list[str] = []

    def operation(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{what}: {problem}")

    def pinned(self, batch_index: int) -> dict | None:
        if self.pins is None or batch_index >= len(self.pins["batches"]):
            return None
        return self.pins["batches"][batch_index]

    def check_round(self, batch_index: int, answers: dict, oracle: str | None) -> None:
        """One operation per path: its answer must equal the reference.

        The reference digest is the pinned one (default seed), else the
        nested-loop oracle (batch 0), else the ``ss`` path's — so the four
        paths must agree on every batch.
        """
        pinned = self.pinned(batch_index)
        reference = (pinned or {}).get("digest") or oracle
        if reference is None and isinstance(answers.get("ss"), tuple):
            reference = answers["ss"][0]
        for path, answer in answers.items():
            what = f"batch {batch_index} {path}"
            if not isinstance(answer, tuple):
                self.operation(what, f"raised\n{answer}")
                continue
            digest, sim = answer
            problem = None
            if digest != reference:
                problem = f"pair digest {digest} != reference {reference}"
            elif pinned is not None and path in SIM_PATHS:
                want = pinned[f"{path}_sim_s"]
                if abs(sim - want) > SIM_REL_TOL * abs(want):
                    problem = f"simulated seconds {sim!r} != pinned {want!r}"
            self.operation(what, problem)

    def check_oracle(self, oracle: str) -> None:
        pinned = self.pinned(0)
        stale = pinned is not None and pinned["digest"] != oracle
        self.operation(
            "oracle batch 0",
            f"expected.json pins {pinned['digest']}, oracle says {oracle}" if stale else None,
        )


def load_pins(workload: str, seed: int) -> dict | None:
    if not EXPECTED_PATH.exists():
        return None
    expected = json.loads(EXPECTED_PATH.read_text())
    if expected["seed"] != seed:
        return None
    return expected["workloads"].get(workload)


# -- measuring ----------------------------------------------------------------


def run_round(env, batch, samples: dict, sims: dict) -> dict:
    """All four paths on one batch; returns ``path -> (digest, sim)`` or a traceback."""
    answers = {}
    for name, run in paths.PATHS.items():
        paths.cold_left_warm_right(env)
        gc.collect()
        try:
            (pairs, sim), *sample = calibration.timed(lambda: run(env, batch))
        except Exception:  # a failed query is counted, and the loop goes on
            answers[name] = traceback.format_exc()
            continue
        samples[name].append(sample)
        if sim is not None:
            sims[name].append(sim)
        answers[name] = (paths.pair_digest(pairs), sim)
    return answers


def measure(env, batch, checker: Checker, oracle: str, rounds: int, deadline: float,
            first_index: int = 0):
    """``rounds`` rounds of fresh batches, then more while one still fits
    before ``deadline`` (a ``perf_counter`` reading).

    Returns per path the ``(normalised, raw, probe)`` seconds and the
    simulated seconds of every round, in batch order.
    """
    samples = {name: [] for name in paths.PATHS}
    sims = {name: [] for name in SIM_PATHS}
    index = first_index
    while True:
        round_began = time.perf_counter()
        if batch is None:
            batch = paths.next_batch(env, index)
        answers = run_round(env, batch, samples, sims)
        paths.drop_batch(env, batch)
        checker.check_round(index, answers, oracle if index == 0 else None)
        batch = None
        index += 1
        now = time.perf_counter()
        if index - first_index >= rounds and now + (now - round_began) > deadline:
            return samples, sims


def summarise(values: list[float]) -> dict:
    """Median, plus sample count, min, and p75 once 40 samples support it."""
    summary = {
        "value": statistics.median(values),
        "samples": len(values),
        "min": min(values),
    }
    if len(values) >= 40:
        summary["p75"] = statistics.quantiles(values, n=4)[2]
    return summary


def summarise_timed(samples: list[tuple]) -> dict:
    """Normalised seconds summarised; raw wall and probe medians beside them."""
    normalised, raw, probes = zip(*samples)
    return dict(
        summarise(list(normalised)),
        raw_wall_s=statistics.median(raw),
        probe_s=statistics.median(probes),
    )


def run_untraced(workload, seed: int, seconds: float, check: bool, checker: Checker):
    """Set-up samples, the oracle, then rounds until ``seconds`` are up."""
    deadline = time.perf_counter() + seconds
    setup_reps, rounds = (1, 1) if check else (SETUP_REPS, ROUNDS)
    setups = []
    for _ in range(setup_reps):
        gc.collect()
        (env, batch), *sample = calibration.timed(lambda: paths.setup(workload, seed))
        setups.append(sample)
    oracle = paths.oracle_digest(env, batch)
    checker.check_oracle(oracle)
    samples, sims = measure(env, batch, checker, oracle, rounds, 0.0 if check else deadline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": summarise_timed(setups)}
    for name in paths.PATHS:
        metrics[f"{name}_query_s"] = summarise_timed(samples[name])
    # Over the fixed rounds only: the same batches on every run of a seed,
    # however many more rounds the host had time for.
    metrics["ss_sim_s"] = summarise(sims["ss"][:rounds])
    metrics["isp_sim_s"] = summarise(sims["isp"][:rounds])
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "samples": 1, "min": peak_rss_mb}
    return metrics, {"rounds": len(samples["ss"])}


def run_traced(workload, seed: int, check: bool, checker: Checker, trace_out: Path):
    stage = layers.Stage(workload.name, reps=1 if check else None)
    env, batch = layers.traced_setup(stage, workload, seed)
    oracle = paths.oracle_digest(env, batch)
    checker.check_oracle(oracle)
    # Untraced reference medians first (fresh batches 1..), so the traced
    # paths below run as warm as the samples they are compared with.
    rounds = 1 if check else TRACE_REFERENCE_ROUNDS
    samples, _ = measure(env, None, checker, oracle, rounds, 0.0, first_index=1)
    # Per-layer numbers are raw wall seconds, so their reference is too.
    untraced = {
        name: statistics.median(raw for _, raw, _ in samples[name]) for name in paths.PATHS
    }
    checker.check_round(0, layers.traced_paths(stage, env, batch), oracle)
    layers.staged_pipeline(stage, env, batch, untraced)
    traced_wall = sum(stage.recorder.durations(f"path.{name}")[0] for name in paths.PATHS)
    stage.metrics["bench.trace_overhead_ratio"] = traced_wall / sum(untraced.values())
    selfs = self_times(stage.recorder.spans)
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "labels": stage.labels,
        "untraced_reference_s": untraced,
        "profiles": stage.profiles,
        "spans": [dict(span, self_s=selfs[span["id"]]) for span in stage.recorder.spans],
    }))
    metrics = {
        name: {"value": value, "samples": len(stage.recorder.durations(name)) or 1}
        for name, value in stage.metrics.items()
    }
    return metrics, {"rounds": rounds, "labels": stage.labels, "trace_file": str(trace_out)}


# -- reporting ----------------------------------------------------------------


def stamp(seed: int, seconds: float) -> dict:
    return {
        "seed": seed,
        "seconds": seconds,
        "rounds": ROUNDS,
        "setup_reps": SETUP_REPS,
        "nproc": os.cpu_count(),
        "available_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD's hash read from ``.git`` in the checkout, or ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_metrics(workload: str, metrics: dict, unit_of: dict) -> None:
    print(f"{workload}")
    for name, unit in unit_of.items():
        m = metrics[name]
        extra = f"n={m['samples']}"
        if "min" in m:
            extra += f" min={m['min']:.6g}"
        if "p75" in m:
            extra += f" p75={m['p75']:.6g}"
        if "raw_wall_s" in m:
            extra += f" raw_wall={m['raw_wall_s']:.6g} probe={m['probe_s']:.4g}"
        print(f"  {name:<34} {m['value']:>14.6g} {unit:<6} {extra}")


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    unit_of = units("per_layer" if args.trace else "end_to_end")
    checker = Checker(load_pins(workload.name, args.seed))
    if args.trace:
        trace_out = Path(args.trace_out or paths.out_dir() / f"trace-{workload.name}.json")
        metrics, info = run_traced(workload, args.seed, args.check, checker, trace_out)
    else:
        metrics, info = run_untraced(workload, args.seed, args.seconds, args.check, checker)
    missing = sorted(set(unit_of) ^ set(metrics))
    if missing:
        raise SystemExit(f"metric names differ from BENCHMARK.json: {missing}")
    failed = len(checker.failures)
    document = {
        "workload": workload.name,
        "trace": args.trace,
        "stamp": stamp(args.seed, args.seconds),
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "failed_share": failed / checker.attempted,
        "failures": checker.failures,
        "metrics": {name: dict(metrics[name], unit=unit) for name, unit in unit_of.items()},
        **info,
    }
    print_metrics(workload.name, metrics, unit_of)
    print(f"  rounds={info['rounds']} attempted={checker.attempted} failed={failed} "
          f"failed_share={document['failed_share']:.6g}")
    for failure in checker.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": unit}
            for name, unit in unit_of.items()
        },
    }))
    return 0 if failed == 0 else 1


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (the driver's measure)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def combine(runs: list[dict]) -> dict:
    """One workload's runs: per metric the median over runs and their spread."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {
            "value": statistics.median(values),
            "unit": first["unit"],
            "values": values,
            "spread": spread(values),
        }
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "runs": runs,
    }


def run_all(args) -> int:
    """One subprocess per workload and run, so peak RSS and cache warmth
    start fresh; run *r* of ``--repeat`` uses ``seed + 1000 r``, far enough
    apart that no two runs share a left batch."""
    part = paths.out_dir() / f"part-{os.getpid()}.json"
    workloads = {}
    status = 0
    for name in WORKLOADS:
        runs = []
        for offset in range(args.repeat):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed + 1000 * offset), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(part),
            ]
            if args.check:
                command.append("--check")
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # The child's last line is its machine-readable result; show the rest.
            print("\n".join(completed.stdout.rstrip().split("\n")[:-1]), flush=True)
            status = status or completed.returncode
            if part.exists():
                runs.append(json.loads(part.read_text()))
                part.unlink()
        if runs:
            workloads[name] = combine(runs)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"stamp": stamp(args.seed, args.seconds), "trace": args.trace,
             "repeat": args.repeat, "workloads": workloads}, indent=1))
    return status


def rebuild_expected(seed: int) -> int:
    """Pin per-batch oracle digests and simulated seconds for the default seed."""
    pinned = {}
    for workload in WORKLOADS.values():
        env, batch = paths.setup(workload, seed)
        batches = []
        for index in range(ROUNDS):
            if index:
                batch = paths.next_batch(env, index)
            entry = {"digest": paths.oracle_digest(env, batch)}
            for name in paths.PATHS:
                pairs, sim = paths.PATHS[name](env, batch)
                if paths.pair_digest(pairs) != entry["digest"]:
                    raise SystemExit(f"{workload.name} batch {index}: {name} != oracle")
                if sim is not None:
                    entry[f"{name}_sim_s"] = sim
            paths.drop_batch(env, batch)
            batches.append(entry)
            print(f"{workload.name} batch {index}: {entry}")
        pinned[workload.name] = {"batches": batches}
    EXPECTED_PATH.write_text(json.dumps({"seed": seed, "workloads": pinned}, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="how long the end-to-end run lasts: set-up samples, oracle, rounds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced per-layer run instead of the end-to-end run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="without --workload: runs per workload, seeds seed, seed+1000, ...")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--trace-out", help="span file (default .bench_out/trace-NAME.json)")
    parser.add_argument("--check", action="store_true",
                        help="one repetition per path: names and answers only")
    parser.add_argument("--rebuild-expected", action="store_true",
                        help="regenerate expected.json from the oracle (default seed)")
    args = parser.parse_args(argv)
    if args.rebuild_expected:
        return rebuild_expected(DEFAULT_SEED)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
