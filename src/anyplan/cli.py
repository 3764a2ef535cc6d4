"""Command-line experiment harness.

Subcommands: ``run`` (execute a spec file or flag-defined run and emit the
output files), ``oracle`` (precompute optimal costs for sampled pairs),
and ``aggregate`` (re-aggregate a runs.ndjson).  Exit codes: 0 success,
1 run failure, 2 bad spec/arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FsPath

from .bench import (
    INSTANCE_KEYS,
    SPEC_KEYS,
    AggregationError,
    aggregate,
    build_instances,
    build_run_spec,
    emit_outputs,
    parse_spec_values,
    run_experiment,
    run_metrics_from_json,
)
from .grid2d import SamplingError

#: What a bad spec, map or instance request raises while a command builds
#: its spec and instances (``SpecError`` and ``MapFormatError`` are
#: ``ValueError``s): each is an ``error:`` line and exit code 2.
_BAD_INPUT = (ValueError, OSError, SamplingError)


def _add_spec_flags(p: argparse.ArgumentParser, keys) -> None:
    """One ``--key-with-dashes`` flag per spec key, typed by :data:`SPEC_KEYS`
    and with no default of its own: an absent flag leaves the key unset."""
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), type=SPEC_KEYS[key][0])


def _flag_values(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k in SPEC_KEYS and v is not None}


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        values: dict = {}
        if args.spec:
            spec_path = FsPath(args.spec)
            values = parse_spec_values(spec_path.read_text())
            if "map" in values:
                # the spec's map is relative to the spec file, --map to the cwd
                values["map"] = str(spec_path.parent / values["map"])
        values.update(_flag_values(args))
        spec = build_run_spec(values)
        metrics = run_experiment(spec, progress=_progress if args.verbose else None)
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
        # the oracle runs no algorithm, but a spec names one
        spec = build_run_spec({"algo": "wastar", **_flag_values(args)})
        _world, instances = build_instances(spec)
    except _BAD_INPUT as exc:
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
    # an unreadable file, a line that is not a run record (JSON errors are
    # ValueErrors; a missing or wrongly typed field is a KeyError or a
    # TypeError), or runs that cannot be aggregated together
    try:
        lines = FsPath(args.runs).read_text().splitlines()
        metrics = [run_metrics_from_json(line) for line in lines if line.strip()]
        summary = aggregate(metrics)
    except (OSError, ValueError, KeyError, TypeError, AggregationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in emit_outputs(summary, args.out):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anyplan",
                                     description="anytime parallel search benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec and emit outputs")
    p_run.add_argument("--spec", help="flat key=value spec file")
    p_run.add_argument("--out", default="bench_out", help="output directory")
    p_run.add_argument("--verbose", action="store_true")
    _add_spec_flags(p_run, SPEC_KEYS)
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="precompute optimal costs for sampled pairs")
    _add_spec_flags(p_oracle, INSTANCE_KEYS)
    p_oracle.add_argument("--out", required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_agg = sub.add_parser("aggregate", help="re-aggregate a runs.ndjson file")
    p_agg.add_argument("--runs", required=True)
    p_agg.add_argument("--out", default="bench_out")
    p_agg.set_defaults(func=_cmd_aggregate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
