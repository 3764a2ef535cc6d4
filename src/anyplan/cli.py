"""Command-line experiment harness.

Subcommands: ``run`` (execute a spec file or flag-defined run and emit the
output files), ``oracle`` (precompute optimal costs for sampled pairs),
``aggregate`` (re-aggregate a runs.ndjson), ``selftest`` (run the acceptance
suite).  Exit codes: 0 success, 1 run failure, 2 bad spec/arguments.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path as FsPath

from .bench import (
    ALGORITHMS,
    COST_ALIASES,
    SPEC_KEYS,
    SpecError,
    aggregate,
    build_instances,
    build_run_spec,
    emit_outputs,
    parse_spec_values,
    run_experiment,
    run_metrics_from_json,
)
from .grid2d import CostModel, GridDomainConfig


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", help="map file (MovingAI .map)")
    p.add_argument("--algo", choices=ALGORITHMS)
    p.add_argument("--cost", choices=["euclidean", "random"])
    p.add_argument("--cost-seed", type=int, dest="cost_seed")
    p.add_argument("--threads", type=int)
    p.add_argument("--w0", type=float)
    p.add_argument("--dw", type=float)
    p.add_argument("--timeout-ms", type=float, dest="timeout_ms")
    p.add_argument("--eval-delay-us", type=float, dest="eval_delay_us")
    p.add_argument("--pairs", type=int)
    p.add_argument("--pair-seed", type=int, dest="pair_seed")
    p.add_argument("--reps", type=int)
    p.add_argument("--footprint", type=int)
    p.add_argument("--move", type=int)


def _collect_overrides(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k in SPEC_KEYS and v is not None}


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        values: dict = {}
        if args.spec:
            spec_path = FsPath(args.spec)
            values = parse_spec_values(spec_path.read_text())
            # the spec's map is relative to the spec file, --map to the cwd
            values["map"] = str(spec_path.parent / values["map"])
        values.update(_collect_overrides(args))
        if "algo" not in values or "map" not in values:
            raise SpecError("either --spec or both --algo and --map are required")
        spec = build_run_spec(values)
    except (SpecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = run_experiment(spec, progress=_progress if args.verbose else None)
    summary = aggregate(metrics)
    out_dir = FsPath(args.out)
    written = emit_outputs(summary, out_dir)
    for path in written:
        print(path)
    failures = [m for m in metrics if m.status == "error"]
    for m in failures:
        print(f"run failed: pair {m.pair_index} rep {m.repetition}: {m.error}",
              file=sys.stderr)
    return 1 if failures else 0


def _progress(metric) -> None:
    print(f"  {metric.algorithm} pair={metric.pair_index} rep={metric.repetition} "
          f"status={metric.status} cost={metric.cost_final}")


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        _world, instances = build_instances(
            args.map, args.scale,
            GridDomainConfig(footprint_side=args.footprint, move_length=args.move),
            CostModel(COST_ALIASES[args.cost], args.cost_seed), args.pairs, args.pair_seed)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = FsPath(args.out)
    with out.open("w", newline="") as fp:
        fp.write("pair_index,start_x,start_y,goal_x,goal_y,optimal_cost\n")
        for i, (start, goal, cost) in enumerate(instances):
            fp.write(f"{i},{start[0]},{start[1]},{goal[0]},{goal[1]},{format(cost, '.9g')}\n")
    print(out)
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    try:
        lines = FsPath(args.runs).read_text().splitlines()
        metrics = [run_metrics_from_json(line) for line in lines if line.strip()]
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = aggregate(metrics)
    for path in emit_outputs(summary, args.out):
        print(path)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    repo_root = FsPath(__file__).resolve().parents[2]
    acceptance = repo_root / "tests" / "test_acceptance.py"
    if not acceptance.exists():
        print("error: acceptance suite not found (run from a source checkout)",
              file=sys.stderr)
        return 2
    cmd = [sys.executable, "-m", "pytest", str(acceptance), "-v", "-s"]
    if args.k:
        cmd += ["-k", args.k]
    return subprocess.call(cmd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="anyplan",
                                     description="anytime parallel search benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec and emit outputs")
    p_run.add_argument("--spec", help="flat key=value spec file")
    p_run.add_argument("--out", default="bench_out", help="output directory")
    p_run.add_argument("--verbose", action="store_true")
    _add_override_flags(p_run)

    p_oracle = sub.add_parser("oracle", help="precompute optimal costs for sampled pairs")
    p_oracle.add_argument("--map", required=True)
    p_oracle.add_argument("--scale", type=int, default=1)
    p_oracle.add_argument("--cost", choices=["euclidean", "random"], default="euclidean")
    p_oracle.add_argument("--cost-seed", type=int, dest="cost_seed", default=0)
    p_oracle.add_argument("--footprint", type=int, default=32)
    p_oracle.add_argument("--move", type=int, default=25)
    p_oracle.add_argument("--pairs", type=int, default=10)
    p_oracle.add_argument("--pair-seed", type=int, dest="pair_seed", default=0)
    p_oracle.add_argument("--out", required=True)

    p_agg = sub.add_parser("aggregate", help="re-aggregate a runs.ndjson file")
    p_agg.add_argument("--runs", required=True)
    p_agg.add_argument("--out", default="bench_out")

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("-k", help="pytest -k filter")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "oracle":
        return _cmd_oracle(args)
    if args.command == "aggregate":
        return _cmd_aggregate(args)
    if args.command == "selftest":
        return _cmd_selftest(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
