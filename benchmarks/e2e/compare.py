#!/usr/bin/env python3
"""Compare two result documents of run.py, metric by metric and workload by workload.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the parent, B the change.  Each file is what ``run.py --out`` wrote:
one workload's document, or a set over every workload (``--repeat N``
gives each metric the median over N runs and their spread).  One row per
end-to-end metric x workload:

  ok          B is no worse than A by more than the metric's bound
  worse       B is worse than A by more than the bound
  unresolved  the run-to-run spread of A or B is wider than the bound,
              so the difference cannot be told from noise

The bounds are BENCHMARK.json's.  Simulated seconds are a pure function
of the inputs, so when both sides ran the same seeds they must be
identical (relative 1e-9), whatever the bound says.  Any failed operation
on either side is ``worse``.  Exit code 1 if any row is not ``ok``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
SIM_REL_TOL = 1e-9


def load(path: str) -> dict:
    """A result file as ``{"seeds", "workloads": {name: {"metrics", "failed"}}}``."""
    document = json.loads(Path(path).read_text())
    if "workloads" not in document:
        document = {"stamp": document["stamp"], "workloads": {document["workload"]: document}}
    # First seed and number of runs name the seeds a file was measured on.
    seeds = (document["stamp"]["seed"], document.get("repeat", 1))
    return {"seeds": seeds, "workloads": document["workloads"]}


def verdict(metric: dict, a: dict, b: dict, same_seeds: bool) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric of one workload."""
    base, value = a["value"], b["value"]
    if metric["unit"] == "sim_s" and same_seeds:
        return "ok" if abs(value - base) <= SIM_REL_TOL * abs(base) else "worse"
    bound = metric["bound"]
    spreads = [s for s in (a.get("spread"), b.get("spread")) if s is not None]
    if any(s > bound for s in spreads):
        return "unresolved"
    change = (value - base) / abs(base)
    if metric["better"] == "higher":
        change = -change
    return "worse" if change > bound else "ok"


def compare(a: dict, b: dict, metrics: list[dict]) -> list[tuple]:
    rows = []
    same_seeds = a["seeds"] == b["seeds"]
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            rows.append((workload, "(all)", None, None, "worse: missing from B"))
            continue
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        for metric in metrics:
            name = metric["name"]
            ma, mb = side_a["metrics"][name], side_b["metrics"][name]
            rows.append((workload, name, ma["value"], mb["value"],
                         verdict(metric, ma, mb, same_seeds)))
        failed = side_a["failed"] + side_b["failed"]
        rows.append((workload, "failed_share", side_a["failed"] / side_a["attempted"],
                     side_b["failed"] / side_b["attempted"], "worse" if failed else "ok"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(load(argv[0]), load(argv[1]), metrics)
    print(f"{'workload':<22} {'metric':<18} {'A':>12} {'B':>12} {'change':>8}  verdict")
    for workload, name, base, value, outcome in rows:
        if base is None:
            print(f"{workload:<22} {name:<18} {'':>12} {'':>12} {'':>8}  {outcome}")
            continue
        change = f"{(value - base) / abs(base):+.1%}" if base else ""
        print(f"{workload:<22} {name:<18} {base:>12.6g} {value:>12.6g} {change:>8}  {outcome}")
    return 0 if all(row[4] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
