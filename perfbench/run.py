#!/usr/bin/env python3
"""Planner benchmark: closed-loop anytime planning on fixed grid instances.

Run from the repository root:

    python3 perfbench/run.py --workload maze-slow-anytime --seed 1 --seconds 40 --trace 0

Each workload plays its instances one at a time (a closed loop, one client)
through ``anyplan.plan`` with two engine workers, in whole sweeps over the
instance set for about ``--seconds``.  Every returned plan is
checked against a Dijkstra oracle and a delay-free re-walk.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``).

``--seed`` sets the order in which each sweep plays the instances;
``--pair-seed`` (default 5) picks the instances.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from bench_metrics import (
    InstanceRun,
    Publication,
    check_instance,
    count_outcomes,
    idle_per_edge_us,
    median_of_instance_medians,
    ratio,
    time_to_first,
    time_to_optimal,
    worker_util,
)
from bench_trace import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MAPS = ROOT / "maps"

N_WORKERS = 2
#: set-up is repeated at least SETUP_MIN_REPS times and until SETUP_MIN_S
#: seconds were spent on it; setup_s is the median
SETUP_MIN_REPS = 3
SETUP_MIN_S = 8.0
COST_SEED = 5
DEFAULT_PAIR_SEED = 5
WORKER_THREAD_PREFIX = "anyplan-worker"


@dataclass(frozen=True)
class Workload:
    map_file: str
    scale: int
    footprint: int
    move: int
    pairs_sampled: int
    pairs_kept: int  # the longest ones (straight-line start-goal distance)
    eval_delay: float
    w0: float
    single_pass: bool

    def planner_config(self, n_threads: int = N_WORKERS):
        from anyplan import PlannerConfig

        if self.single_pass:
            return PlannerConfig(w0=self.w0, n_threads=n_threads, max_iterations=1)
        return PlannerConfig(w0=self.w0, delta_w=0.5, n_threads=n_threads)


WORKLOADS = {
    "maze-slow-anytime": Workload("maze128.map", 1, 8, 12, 20, 6, 0.002, 50.0, False),
    "maze-slow-w1": Workload("maze128.map", 1, 8, 12, 20, 6, 0.002, 1.0, True),
    "open-fast-anytime": Workload("open128.map", 2, 4, 5, 6, 6, 0.0, 50.0, False),
}


class SetupTimes(NamedTuple):
    total_s: float
    sample_s: float
    oracle_s: float


@dataclass
class Setup:
    world: object  # GridWorld the planner runs on (with the edge delay)
    probe: object  # delay-free GridWorld for sampling, oracles and re-walks
    pairs: list
    oracles: list
    times: SetupTimes


def build_setup(wl: Workload, pair_seed: int) -> Setup:
    """Map load, world build, pair sampling and Dijkstra oracles."""
    from anyplan import (CostModel, GridDomainConfig, GridPlanningProblem, GridWorld,
                         dijkstra_oracle, load_map, sample_start_goal_pairs)

    t0 = perf_counter()
    grid = load_map(MAPS / wl.map_file, scale=wl.scale)
    motion = GridDomainConfig(footprint_side=wl.footprint, move_length=wl.move)
    cost = CostModel("random_factor", rng_seed=COST_SEED)
    probe = GridWorld(grid, motion, cost)
    world = GridWorld(grid, replace(motion, eval_delay=wl.eval_delay), cost)
    t1 = perf_counter()
    pairs = sample_start_goal_pairs(probe, wl.pairs_sampled, seed=pair_seed)
    pairs = sorted(pairs, key=lambda p: -math.hypot(p[0][0] - p[1][0],
                                                    p[0][1] - p[1][1]))[:wl.pairs_kept]
    t2 = perf_counter()
    oracles = []
    for start, goal in pairs:
        problem = GridPlanningProblem(probe, start, goal)
        oracles.append(dijkstra_oracle(problem, problem.start).cost)
    t3 = perf_counter()
    return Setup(world, probe, pairs, oracles, SetupTimes(t3 - t0, t2 - t1, t3 - t2))


def repeat_setup(wl: Workload, pair_seed: int) -> tuple[Setup | None, list[SetupTimes]]:
    """Set up at least SETUP_MIN_REPS times and for SETUP_MIN_S seconds.

    Each repetition starts from a collected heap with no earlier set-up
    alive, so every one pays the same collections.  Returns the last set-up
    and every repetition's times, or None when two set-ups differ.
    """
    times: list[SetupTimes] = []
    setup = first = None
    while len(times) < SETUP_MIN_REPS or sum(t.total_s for t in times) < SETUP_MIN_S:
        setup = None
        gc.collect()
        setup = build_setup(wl, pair_seed)
        times.append(setup.times)
        if first is None:
            first = (setup.pairs, setup.oracles)
        elif (setup.pairs, setup.oracles) != first:
            return None, times
    return setup, times


def rewalk(probe, problem, path, start, goal) -> float | None:
    """Re-sum a published path move by move on the delay-free world."""
    coords = problem.path_coords(path.states)
    if coords[0] != start or coords[-1] != goal:
        return None
    total = 0.0
    for xy, nxt, edge in zip(coords, coords[1:], path.edges):
        valid, target, cost = probe.evaluate_move(xy, edge.action)
        if not valid or target != nxt:
            return None
        total += cost
    return total


def play(setup: Setup, wl: Workload, index: int, sweep: int,
         tracer: Tracer | None = None, planner=None, config=None) -> InstanceRun:
    """Plan one instance, time it, and check every output."""
    from anyplan import STATUS_PROVED_OPTIMAL, GridPlanningProblem, plan

    planner = planner or plan
    config = config or wl.planner_config()
    kwargs = {"log_events": False} if planner is plan else {}
    start, goal = setup.pairs[index]
    problem = GridPlanningProblem(setup.world, start, goal)
    run = InstanceRun(instance=index)
    try:
        if tracer is None:
            t0 = perf_counter()
            result = planner(config, problem, problem.start, **kwargs)
            run.wall_s = perf_counter() - t0
        else:
            with tracer.recording(sweep, index):
                t0 = perf_counter()
                result = tracer.span_call("plan", planner, config, problem,
                                          problem.start, **kwargs)
                run.wall_s = perf_counter() - t0
    except Exception as exc:  # counted as a failed instance; the loop goes on
        run.error = f"{type(exc).__name__}: {exc}"
        return run
    alive = sum(t.name.startswith(WORKER_THREAD_PREFIX) for t in threading.enumerate())
    run.status = result.status
    run.real_edges = sum(it.n_real_expansions for it in result.iterations)
    if result.context is not None:
        run.evaluations = result.context.cache.misses
        run.cache_hits = result.context.cache.hits
    walked: dict[int, float | None] = {}
    for rec in result.records:
        if id(rec.path) not in walked:
            walked[id(rec.path)] = rewalk(setup.probe, problem, rec.path, start, goal)
        run.publications.append(Publication(rec.t_since_plan_start, rec.cost,
                                            rec.bound_lambda, walked[id(rec.path)]))
    run.failures = check_instance(run, setup.oracles[index], STATUS_PROVED_OPTIMAL, alive)
    # the episode's context is cyclic garbage: reclaim it now, timed, so that
    # its cost is charged to this instance rather than to a later one
    del result, problem
    t0 = perf_counter()
    gc.collect()
    run.gc_s = perf_counter() - t0
    return run


def play_sweeps(setup: Setup, wl: Workload, order_rng: random.Random, budget_s: float,
                tracer: Tracer | None = None) -> list[list[InstanceRun]]:
    """Whole sweeps over the instance set, in seeded order.

    Plays at least one sweep, and another only while it is expected (from
    the mean sweep so far) to end within ``budget_s``.
    """
    sweeps: list[list[InstanceRun]] = []
    gc.collect()  # what came before the first instance is not its garbage
    t0 = perf_counter()
    while not sweeps or (perf_counter() - t0) * (len(sweeps) + 1) / len(sweeps) <= budget_s:
        order = list(range(len(setup.pairs)))
        order_rng.shuffle(order)
        sweeps.append([play(setup, wl, i, len(sweeps), tracer) for i in order])
    return sweeps


def plan_s(sweeps: list[list[InstanceRun]]) -> float:
    """Median over sweeps of the sweep's plan calls and their garbage collection."""
    return statistics.median(sum(r.wall_s + r.gc_s for r in s) for s in sweeps)


def end_to_end(setup: Setup, setup_times: list[SetupTimes],
               sweeps: list[list[InstanceRun]]) -> dict:
    from anyplan import STATUS_PROVED_OPTIMAL

    t_first, t_opt, t_term = defaultdict(list), defaultdict(list), defaultdict(list)
    oracles = setup.oracles
    for sweep in sweeps:
        for run in sweep:
            if run.failed:
                continue
            t_first[run.instance].append(time_to_first(run.publications) * 1e3)
            topt = time_to_optimal(run.publications, oracles[run.instance])
            if topt is not None:
                t_opt[run.instance].append(topt * 1e3)
            if run.status == STATUS_PROVED_OPTIMAL:
                t_term[run.instance].append(run.wall_s * 1e3)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (statistics.median(t.total_s for t in setup_times), "s"),
        "t_first_ms": (median_of_instance_medians(t_first), "ms"),
        "t_opt_ms": (median_of_instance_medians(t_opt), "ms"),
        "t_term_ms": (median_of_instance_medians(t_term), "ms"),
        "plan_s": (plan_s(sweeps), "s"),
        "evaluations": (statistics.median(sum(r.evaluations for r in s) for s in sweeps),
                        "count"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    return {k: {"value": v if v is not None else 0.0, "unit": u} for k, (v, u) in values.items()}


def layer_figures(tracer: Tracer, sweeps: list[list[InstanceRun]]) -> list[dict]:
    """Per-layer figures of each traced sweep, from span self times and counts.

    A layer's time is its spans' self time: the time in traced calls it
    makes (a heuristic inside ``pop_independent``, an ``upsert`` inside
    ``merge_incons``) is charged to the callee's figure alone.  The pass
    time and the workers' busy time stay wall times, because utilisation is
    read against them.
    """
    counts, peaks = tracer.leaf_totals()
    dur: dict = defaultdict(float)  # wall time
    own: dict = defaultdict(float)  # self time
    calls: dict = defaultdict(int)
    notes: dict = defaultdict(int)
    for _id, name, _th, t0, t1, _parent, sweep, _inst, child, note in tracer.spans:
        dur[sweep, name] += (t1 - t0) / 1e9
        own[sweep, name] += (t1 - t0 - child) / 1e9
        calls[sweep, name] += 1
        notes[sweep, name] += note
    leaf_n: dict = defaultdict(int)
    leaf_s: dict = defaultdict(float)
    for (sweep, _inst, name), (n, ns) in counts.items():
        leaf_n[sweep, name] += n
        leaf_s[sweep, name] += ns / 1e9
    peak: dict = defaultdict(int)
    states: dict = defaultdict(int)
    for (sweep, _inst, name), value in peaks.items():
        if name == "domain.interner.states":
            states[sweep] += value
        else:
            peak[sweep, name] = max(peak[sweep, name], value)

    figures = []
    for sweep, runs in enumerate(sweeps):
        improve_s = dur[sweep, "engine.improve_path"]
        busy_s = dur[sweep, "engine.expand_edge"]
        edges = calls[sweep, "engine.expand_edge"]
        pops = calls[sweep, "structures.pop_independent"]
        passes = calls[sweep, "engine.improve_path"]
        misses = sum(r.evaluations for r in runs)
        hits = sum(r.cache_hits for r in runs)
        figures.append({
            "grid2d.evaluate_move.calls": leaf_n[sweep, "grid2d.evaluate_move"],
            "grid2d.evaluate_move.us": 1e6 * ratio(leaf_s[sweep, "grid2d.evaluate_move"],
                                                   leaf_n[sweep, "grid2d.evaluate_move"]),
            "domain.cache.misses": misses,
            "domain.cache.hit_ratio": ratio(hits, hits + misses),
            "domain.interner.states": states[sweep],
            "domain.pairwise_heuristic.calls": leaf_n[sweep, "domain.pairwise_heuristic"],
            "domain.pairwise_heuristic.us": 1e6 * ratio(
                leaf_s[sweep, "domain.pairwise_heuristic"],
                leaf_n[sweep, "domain.pairwise_heuristic"]),
            "structures.pop_independent.calls": pops,
            "structures.pop_independent.us": 1e6 * ratio(
                own[sweep, "structures.pop_independent"], pops),
            "structures.pop_independent.none_ratio": ratio(
                notes[sweep, "structures.pop_independent"], pops),
            "structures.open.peak": peak[sweep, "structures.open.peak"],
            "structures.be.peak": peak[sweep, "structures.be.peak"],
            "structures.upsert.calls": leaf_n[sweep, "structures.upsert"],
            "structures.upsert.us": 1e6 * ratio(leaf_s[sweep, "structures.upsert"],
                                                leaf_n[sweep, "structures.upsert"]),
            "engine.improve_path.s": improve_s,
            "engine.expand_edge.calls": edges,
            "engine.expand_edge.busy_s": busy_s,
            "engine.worker_util": worker_util(busy_s, N_WORKERS, improve_s),
            "engine.coordinator_self_s": own[sweep, "engine.improve_path"],
            "engine.idle_per_edge_us": idle_per_edge_us(busy_s, N_WORKERS, improve_s, edges),
            "controller.passes": passes,
            "controller.publications": sum(len(r.publications) for r in runs),
            "controller.reset_us": 1e6 * ratio(own[sweep, "controller.merge_incons"]
                                               + own[sweep, "structures.rebalance"], passes),
            "controller.backtrack_us": 1e6 * ratio(own[sweep, "controller.backtrack"],
                                                   calls[sweep, "controller.backtrack"]),
            "bench.episode_gc_ms": 1e3 * ratio(sum(r.gc_s for r in runs), len(runs)),
        })
    return figures


LAYER_UNITS = {
    "calls": "count", "misses": "count", "states": "count", "peak": "count",
    "passes": "count", "publications": "count", "us": "us", "s": "s",
    "busy_s": "s", "coordinator_self_s": "s", "plan_s": "s", "idle_per_edge_us": "us",
    "reset_us": "us", "backtrack_us": "us", "us_per_edge": "us", "sample_pairs_s": "s",
    "oracle_s": "s", "episode_gc_ms": "ms", "hit_ratio": "ratio", "none_ratio": "ratio", "worker_util": "ratio",
    "tracing_overhead": "ratio",
}


def unit_of(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[-1]]


def per_layer(setup_times: list[SetupTimes], untraced: list[list[InstanceRun]],
              tracer: Tracer, traced: list[list[InstanceRun]],
              baseline: list[InstanceRun]) -> dict:
    figures = layer_figures(tracer, traced)
    values = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    ara_s = sum(r.wall_s for r in baseline)
    values.update({
        "baselines.ara_star.plan_s": ara_s,
        "baselines.ara_star.us_per_edge": 1e6 * ratio(ara_s, sum(r.real_edges for r in baseline)),
        "bench.sample_pairs_s": statistics.median(t.sample_s for t in setup_times),
        "bench.oracle_s": statistics.median(t.oracle_s for t in setup_times),
        "bench.tracing_overhead": plan_s(traced) / plan_s(untraced),
    })
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "pair_seed": args.pair_seed,
        "seconds": args.seconds, "trace": args.trace, "workers": N_WORKERS,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="orders the instances within each sweep")
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time: whole sweeps, at least one, that fit in it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pair-seed", type=int, default=DEFAULT_PAIR_SEED,
                   help="start/goal sampling seed (held-out seed: see README)")
    p.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out",
                   help="directory for the report and the span file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "anyplan").is_dir() or not MAPS.is_dir():
        print(f"error: {SRC / 'anyplan'} and {MAPS} are needed; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from anyplan import ara_star

    wl = WORKLOADS[args.workload]
    info = stamp(args)
    print("# " + json.dumps(info), flush=True)
    setup, setup_times = repeat_setup(wl, args.pair_seed)
    if setup is None:
        print("error: set-up is not deterministic", file=sys.stderr)
        return 1
    order_rng = random.Random(args.seed)

    if not args.trace:
        sweeps = play_sweeps(setup, wl, order_rng, args.seconds)
        runs = [r for s in sweeps for r in s]
        metrics = end_to_end(setup, setup_times, sweeps)
    else:
        untraced = play_sweeps(setup, wl, order_rng, args.seconds / 3)
        serial = wl.planner_config(n_threads=1)
        baseline = [play(setup, wl, i, 0, planner=ara_star, config=serial)
                    for i in range(len(setup.pairs))]
        tracer = Tracer()
        with tracer.installed():
            sweeps = play_sweeps(setup, wl, order_rng, args.seconds / 3, tracer)
        runs = [r for s in untraced + sweeps for r in s] + baseline
        metrics = per_layer(setup_times, untraced, tracer, sweeps, baseline)

    attempted, failed, correct = count_outcomes(runs)
    for run in runs:
        if run.failed:
            print(f"# FAILED instance {run.instance}: {run.error or '; '.join(run.failures)}")
    for name, m in metrics.items():
        print(f"# {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"# sweeps={len(sweeps)} attempted={attempted} failed={failed}")

    args.out.mkdir(parents=True, exist_ok=True)
    base = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"stamp": info, "metrics": metrics, "attempted": attempted, "failed": failed,
              "instances": [{"start": s, "goal": g, "oracle": o}
                            for (s, g), o in zip(setup.pairs, setup.oracles)],
              "runs": [{"instance": r.instance, "wall_s": r.wall_s, "gc_s": r.gc_s,
                        "status": r.status,
                        "evaluations": r.evaluations, "publications": len(r.publications),
                        "error": r.error, "failures": r.failures} for r in runs]}
    Path(f"{base}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        with open(f"{base}.spans.ndjson", "w") as fp:
            tracer.write(fp, info)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
