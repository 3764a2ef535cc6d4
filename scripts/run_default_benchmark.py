#!/usr/bin/env python3
"""Run the desk-scale default experiment grid and emit the output files.

Grid: the four fixture maps (open/maze at 64 and 128), both cost models,
all five algorithms; engine algorithms sweep thread counts.  Slow-edge
cells (2 ms evaluations) on the large maps run every algorithm but
``aepase_naive``, so A-ePA*SE meets the other searches where the paper
places it.  Use --quick for a fast smoke pass.  Maps are named relative
to the repository root (``maps/<name>.map``), so no output carries the
checkout's path; the runs read them from there whatever the working
directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from anyplan.bench import aggregate, build_run_spec, emit_outputs, run_experiment  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
MAPS = [("open64.map", 4, 6), ("maze64.map", 4, 6),
        ("open128.map", 8, 12), ("maze128.map", 8, 12)]
SERIAL_ALGOS = ("wastar", "arastar")
ENGINE_ALGOS = ("epase", "aepase", "aepase_naive")


def algorithm_cells(base: dict, threads: tuple[int, ...]):
    """The serial searches at one worker, then epase (w0 = 1) and aepase
    (w0 = 50) at each worker count in ``threads``."""
    for algo in SERIAL_ALGOS:
        yield {**base, "algo": algo, "threads": 1, "w0": 1.0 if algo == "wastar" else 50.0}
    for algo in ("epase", "aepase"):
        for n in threads:
            yield {**base, "algo": algo, "threads": n, "w0": 1.0 if algo == "epase" else 50.0}


def cells(quick: bool):
    pairs = 3 if quick else 10
    maps = MAPS[:2] if quick else MAPS
    for map_name, footprint, move in maps:
        for cost in ("euclidean", "random"):
            base = {
                "map": f"maps/{map_name}", "cost": cost,
                "cost_seed": 7, "pairs": pairs, "pair_seed": 11,
                "footprint": footprint, "move": move, "w0": 50.0, "dw": 0.5,
            }
            yield from algorithm_cells(base, (4,) if quick else (1, 4, 8))
            # the restart baseline is a reference point, not a scaling study
            yield {**base, "algo": "aepase_naive", "threads": 4}
    if not quick:
        # slow-edge cells on the large maps: evaluation latency dominates.
        # No aepase_naive: with random-factor costs its restarts make
        # 140-213 thousand evaluations on 10 pairs, 5-7 minutes a cell at
        # 2 ms and one worker.
        for map_name, footprint, move in MAPS[2:]:
            for cost in ("euclidean", "random"):
                yield from algorithm_cells({
                    "map": f"maps/{map_name}", "cost": cost,
                    "cost_seed": 7, "pairs": pairs, "pair_seed": 11,
                    "footprint": footprint, "move": move, "dw": 0.5,
                    "eval_delay_us": 2000.0,
                }, (1, 4, 8))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(ROOT / "bench_out"))
    parser.add_argument("--quick", action="store_true",
                        help="3 pairs, 2 maps, single thread count, no slow-edge cell")
    args = parser.parse_args()
    out = Path(args.out).resolve()
    os.chdir(ROOT)  # the cells name their maps relative to the repository

    metrics = []
    t0 = time.monotonic()
    for values in cells(args.quick):
        spec = build_run_spec(values)
        label = (f"{Path(spec.map_path).stem}/{spec.cost.kind}/{spec.algorithm}"
                 f"/t{spec.planner.n_threads}"
                 f"{'/slow' if spec.domain.eval_delay else ''}")
        cell_t0 = time.monotonic()
        cell = run_experiment(spec)
        metrics.extend(cell)
        failed = sum(1 for m in cell if m.status == "error")
        print(f"{label}: {len(cell)} runs in {time.monotonic() - cell_t0:.1f}s"
              + (f" ({failed} FAILED)" if failed else ""), flush=True)

    summary = aggregate(metrics)
    for path in emit_outputs(summary, out):
        print(f"wrote {path}")
    print(f"total {time.monotonic() - t0:.1f}s, {len(metrics)} runs")
    return 1 if any(m.status == "error" for m in metrics) else 0


if __name__ == "__main__":
    raise SystemExit(main())
