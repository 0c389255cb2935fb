"""Command-line entry: ``python -m repro.bench [scale] [options]``.

Default mode prints the full reproduction report — Table 1, Table 2,
Fig 4, Fig 5 — with the paper's numbers inline, at the requested scale
factor (default 0.12, the calibration scale).  ``--json`` emits the same
data as a machine-readable document.

``--profile`` switches to single-run mode: one workload on one engine,
rendered as an Impala-style query profile tree.  ``--trace-out PATH``
additionally captures the run's wall-clock spans and writes a Chrome
``trace_event`` file (open it at chrome://tracing or
https://ui.perfetto.dev) containing both the simulated timeline and the
real one.

``--method auto`` switches to the optimizer study: the stats-driven plan
chooser prices every join strategy per workload, and the skewed
``hotspot-nycb`` workload demonstrates the makespan win from hot-tile
splitting (see ``repro.bench.optimizer_study``).
"""

import argparse
import json
import sys

from repro.bench.optimizer_study import optimizer_study, render_optimizer_study
from repro.bench.report import (
    DEFAULT_SCALE,
    WORKLOAD_ORDER,
    experiments_json,
    experiments_report,
)
from repro.bench.runner import run_engine
from repro.obs import spans_to_chrome_trace, tracing, write_chrome_trace
from repro.runtime.config import RuntimeConfig

ENGINES = ("spatialspark", "isp-mc", "isp-standalone")


def _scale_or_mode(value: str):
    """Positional argument: a float scale factor, or a named bench mode."""
    if value in ("monitor", "chaos", "cache", "regress"):
        return value
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a scale factor, 'monitor', 'chaos', 'cache' or "
            f"'regress', got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's tables and figures, or "
        "profile a single spatial-join query.",
    )
    parser.add_argument(
        "scale",
        nargs="?",
        type=_scale_or_mode,
        default=DEFAULT_SCALE,
        help=f"dataset scale factor (default {DEFAULT_SCALE}), 'monitor' to "
        "replay an events.jsonl file as per-worker timelines, 'chaos' for the "
        "fault-injection equivalence sweep, 'cache' for the "
        "cross-query cache cold-vs-warm benchmark, or "
        "'regress' to gate a fresh run against the committed "
        "BENCH_*.json baselines (exits nonzero on regression)",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="for monitor mode: path of the events.jsonl file to replay",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="for chaos/cache/regress modes: also write the JSON "
        "document to PATH",
    )
    parser.add_argument(
        "--executors",
        default=None,
        help="executor pool size for --profile runs ('serial' or an "
        "integer >= 1)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit JSON instead of text (report or profile)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run one workload/engine and print its query profile tree",
    )
    parser.add_argument(
        "--workload",
        choices=WORKLOAD_ORDER,
        default="taxi-nycb",
        help="workload for --profile/--trace-out (default taxi-nycb)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="spatialspark",
        help="engine for --profile/--trace-out (default spatialspark)",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=1,
        help="cluster size for --profile/--trace-out (default 1)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a Chrome trace_event JSON file for the profiled run "
        "(implies --profile)",
    )
    parser.add_argument(
        "--events-out",
        metavar="PATH",
        default=None,
        help="for --profile runs: write the structured JSONL event log "
        "to PATH (replay it with 'python -m repro.bench monitor PATH'); "
        "in chaos mode PATH is a directory receiving one recovery-"
        "annotated log per (case, fault-rate) cell",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="for --profile runs: also write the profile tree as JSON "
        "to PATH (QueryProfile.to_dict form)",
    )
    parser.add_argument(
        "--straggler-k",
        type=float,
        metavar="K",
        default=2.0,
        help="for monitor mode: flag tasks slower than K x their stage "
        "median as stragglers (default 2.0)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="for chaos mode: the fault plan's seed (default 7)",
    )
    parser.add_argument(
        "--fault-rate",
        metavar="RATES",
        default="0.1,0.3",
        help="for chaos mode: comma-separated per-attempt injection "
        "probabilities to sweep (default 0.1,0.3)",
    )
    parser.add_argument(
        "--assert-identical",
        action="store_true",
        help="for chaos mode: exit nonzero unless every seeded-fault run "
        "is byte-identical to its fault-free baseline",
    )
    parser.add_argument(
        "--assert-warm-speedup",
        type=float,
        metavar="RATIO",
        default=None,
        help="for cache mode: exit nonzero unless the best warm-over-cold "
        "repeated-query speedup reaches RATIOx, or any cold-vs-warm "
        "equivalence check fails",
    )
    parser.add_argument(
        "--batches",
        type=int,
        default=12,
        help="for cache mode: point batches per repeat-query workload "
        "(default 12)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="for regress mode: skip the slower fresh benchmark runs and "
        "check the committed artifacts' internal invariants instead "
        "(the CI regress-smoke configuration)",
    )
    parser.add_argument(
        "--baseline-dir",
        metavar="DIR",
        default=".",
        help="for regress mode: directory holding the committed "
        "BENCH_*.json baselines (default: current directory)",
    )
    parser.add_argument(
        "--explain-out",
        metavar="PATH",
        default=None,
        help="for regress mode: write the hotspot EXPLAIN ANALYZE "
        "report produced by the live invariant check as JSON to PATH",
    )
    parser.add_argument(
        "--method",
        choices=("auto",),
        default=None,
        help="run the stats-driven optimizer study instead of the "
        "reproduction report (plan choices per workload plus the "
        "hot-tile-splitting makespan comparison)",
    )
    return parser


def _profile_run(args: argparse.Namespace) -> int:
    executors = args.executors
    if isinstance(executors, str) and executors != "serial":
        executors = int(executors)
    with tracing() as tracer:
        result = run_engine(
            args.workload,
            args.engine,
            args.nodes,
            scale=args.scale,
            profile=True,
            runtime=RuntimeConfig(executors=executors, events_out=args.events_out),
        )
    profile = result.profile
    if args.json:
        print(json.dumps(profile.to_json(), indent=1))
    else:
        print(profile.render())
        print(
            f"\nrows={result.result_rows}  "
            f"simulated={result.simulated_seconds:.3f}s"
        )
    if args.profile_out:
        with open(args.profile_out, "w", encoding="utf-8") as handle:
            json.dump(profile.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote profile JSON to {args.profile_out}", file=sys.stderr)
    if args.events_out:
        print(f"wrote event log to {args.events_out}", file=sys.stderr)
    if args.trace_out:
        write_chrome_trace(
            args.trace_out,
            profile.to_chrome_trace(),
            spans_to_chrome_trace(tracer.roots),
        )
        print(f"wrote Chrome trace to {args.trace_out}", file=sys.stderr)
    return 0


def _chaos_run(args: argparse.Namespace) -> int:
    from repro.bench.chaos import render_chaos, run_chaos_benchmark, write_chaos_json

    try:
        rates = tuple(
            float(part) for part in str(args.fault_rate).split(",") if part
        )
    except ValueError:
        print(f"bad --fault-rate list {args.fault_rate!r}", file=sys.stderr)
        return 2
    doc = run_chaos_benchmark(
        seed=args.seed, fault_rates=rates, events_dir=args.events_out
    )
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True, default=str))
    else:
        print(render_chaos(doc))
    if args.out:
        write_chaos_json(doc, args.out)
        print(f"wrote chaos benchmark to {args.out}", file=sys.stderr)
    if args.events_out:
        print(
            f"wrote recovery-annotated event logs to {args.events_out}/",
            file=sys.stderr,
        )
    if args.assert_identical and not doc["all_identical"]:
        print(
            "FAIL: seeded-fault runs diverged from the fault-free baseline",
            file=sys.stderr,
        )
        return 1
    return 0


def _cache_run(args: argparse.Namespace) -> int:
    from repro.bench.cache_study import (
        render_cache,
        run_cache_benchmark,
        write_cache_json,
    )

    doc = run_cache_benchmark(
        batches=args.batches, events_path=args.events_out
    )
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(render_cache(doc))
    if args.out:
        write_cache_json(doc, args.out)
        print(f"wrote cache benchmark to {args.out}", file=sys.stderr)
    if args.events_out:
        print(
            f"wrote cache-annotated event log to {args.events_out}",
            file=sys.stderr,
        )
    if not doc["all_identical"]:
        print(
            "FAIL: cache-on results diverged from the cache-off baseline",
            file=sys.stderr,
        )
        return 1
    if args.assert_warm_speedup is not None:
        best = doc["best_warm_speedup"]
        if best < args.assert_warm_speedup:
            print(
                f"FAIL: best warm speedup {best:.2f}x < "
                f"{args.assert_warm_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


def _monitor_run(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs.events import read_events
    from repro.obs.monitor import monitor_report

    if not args.target:
        print(
            "monitor mode needs an events.jsonl path: "
            "python -m repro.bench monitor <events.jsonl>",
            file=sys.stderr,
        )
        return 2
    try:
        events = read_events(args.target)
    except (OSError, ReproError) as error:
        print(f"cannot replay {args.target}: {error}", file=sys.stderr)
        return 1
    print(monitor_report(events, k=args.straggler_k))
    return 0


def _regress_run(args: argparse.Namespace) -> int:
    from repro.obs.regress import run_regress

    return run_regress(
        baseline_dir=args.baseline_dir,
        quick=args.quick,
        explain_out=args.explain_out,
        out=args.out,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.scale == "monitor":
        return _monitor_run(args)
    if args.scale == "chaos":
        return _chaos_run(args)
    if args.scale == "cache":
        return _cache_run(args)
    if args.scale == "regress":
        return _regress_run(args)
    if args.method == "auto":
        study = optimizer_study(scale=args.scale, nodes=args.nodes)
        if args.json:
            print(json.dumps(study, indent=1))
        else:
            print(render_optimizer_study(study))
        return 0
    if args.profile or args.trace_out:
        return _profile_run(args)
    if args.json:
        print(json.dumps(experiments_json(scale=args.scale), indent=1))
        return 0
    print(experiments_report(scale=args.scale))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
