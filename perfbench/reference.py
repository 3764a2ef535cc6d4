#!/usr/bin/env python3
"""Reference rows for README.md: per-edge cost of the serial repair search
and of the engine with 1 and 2 workers, on the C07 instances (maze128,
footprint 8, move 12, random_factor seed 5, the 6 longest of 20 pairs
sampled with seed 5), plus the 2 ms slow-edge wall times.

Run from the repository root:  python3 perfbench/reference.py

A per-edge figure is a plan call's wall time divided by the real
(non-dummy) edges it popped, summed over the instances; each row prints
the median over REPS repetitions.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

from run import SRC, WORKLOADS, build_setup

REPS = 5


def main() -> None:
    sys.path.insert(0, str(SRC))
    from anyplan import GridPlanningProblem, PlannerConfig, ara_star, plan

    setup = build_setup(WORKLOADS["maze-slow-w1"], 5)

    def row(label, planner, config, world, pairs, per_edge=True):
        figures = []
        for _ in range(REPS):
            wall = edges = 0
            for start, goal in pairs:
                problem = GridPlanningProblem(world, start, goal)
                t0 = perf_counter()
                result = planner(config, problem, problem.start)
                wall += perf_counter() - t0
                edges += sum(it.n_real_expansions for it in result.iterations)
            figures.append(1e6 * wall / edges if per_edge else wall)
        unit = "us/edge" if per_edge else "s"
        print(f"{label:48s} {statistics.median(figures):10.1f} {unit}", flush=True)

    def engine(config, problem, start):
        return plan(config, problem, start, log_events=False)

    single = dict(w0=1.0, max_iterations=1)
    anytime = dict(w0=50.0, delta_w=0.5)
    row("serial ara_star, w0=1, zero delay", ara_star, PlannerConfig(**single),
        setup.probe, setup.pairs)
    for n in (1, 2):
        row(f"engine, {n} worker(s), w0=1, zero delay", engine,
            PlannerConfig(n_threads=n, **single), setup.probe, setup.pairs)
    for n in (1, 2):
        row(f"engine, {n} worker(s), w0=50 anytime, zero delay", engine,
            PlannerConfig(n_threads=n, **anytime), setup.probe, setup.pairs)
    for n in (1, 2):
        row(f"engine, {n} worker(s), w0=1, 2 ms edges, 3 longest", engine,
            PlannerConfig(n_threads=n, **single), setup.world, setup.pairs[:3],
            per_edge=False)


if __name__ == "__main__":
    main()
