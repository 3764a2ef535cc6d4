"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
Expensive run sets are shared across criteria through session fixtures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest

from anyplan.baselines import ara_star, dijkstra_oracle
from anyplan.bench import aggregate, build_run_spec, run_experiment
from anyplan.controller import (
    STATUS_PROVED_OPTIMAL,
    PlannerConfig,
    PlanResult,
    plan,
)
from anyplan.grid2d import (
    CostModel,
    GridDomainConfig,
    GridPlanningProblem,
    GridWorld,
    load_map,
    parse_map,
    sample_start_goal_pairs,
    serialize_map,
)

from _support import (
    assert_no_leaked_workers,
    audit_consistency,
    committed_expansion_check,
    make_world,
    published_costs,
    random_obstacle_map_text,
    segment_clear,
    sweep_collision_oracle,
)

MAPS = Path(__file__).resolve().parents[1] / "maps"

#: Desk-scale motion parameters per fixture map (footprint, move length).
DESK = [
    ("open64.map", 4, 6),
    ("maze64.map", 4, 6),
    ("open128.map", 8, 12),
    ("maze128.map", 8, 12),
]
COST_KINDS = ("euclidean", "random_factor")
PAIRS_PER_CELL = 25  # 4 maps x 2 cost models x 25 = 200 instances
THREAD_SWEEP = (1, 2, 4, 8)
REL_TOL = 1e-9


def report(cid: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE C{cid:02d} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {cid} failed: {detail}"


@dataclass
class Instance:
    map_name: str
    cost_kind: str
    world: GridWorld
    start: tuple[int, int]
    goal: tuple[int, int]
    oracle_cost: float

    def problem(self) -> GridPlanningProblem:
        return GridPlanningProblem(self.world, self.start, self.goal)


@dataclass
class SessionStats:
    plan_calls: int = 0
    shutdown_violations: list = field(default_factory=list)
    reexpansions: int = 0
    audited_edges: int = 0
    audit_failures: list = field(default_factory=list)


@pytest.fixture(scope="session")
def stats() -> SessionStats:
    return SessionStats()


def run_plan(stats: SessionStats, cfg: PlannerConfig, instance: Instance,
             log_events: bool = True) -> PlanResult:
    """plan() plus the bookkeeping the cross-cutting criteria need.  A
    logged run adds its expansions without a g drop to the session count."""
    problem = instance.problem()
    result = plan(cfg, problem, problem.start, log_events=log_events)
    stats.plan_calls += 1
    stats.reexpansions += committed_expansion_check(result.events)
    t0 = time.monotonic()
    import threading

    while any(t.name.startswith("anyplan-worker") for t in threading.enumerate()):
        if time.monotonic() - t0 > 0.05:
            stats.shutdown_violations.append((instance.map_name, cfg.n_threads))
            break
        time.sleep(0.001)
    try:
        ctx = result.context
        stats.audited_edges += audit_consistency(problem, ctx.cache, ctx.nodes, named=True)
    except AssertionError as exc:
        stats.audit_failures.append(str(exc))
    return result


@pytest.fixture(scope="session")
def instance_set() -> list[Instance]:
    t0 = time.monotonic()
    instances = []
    for mi, (map_name, footprint, move) in enumerate(DESK):
        grid = load_map(MAPS / map_name)
        for ci, cost_kind in enumerate(COST_KINDS):
            world = GridWorld(grid,
                              GridDomainConfig(footprint_side=footprint, move_length=move),
                              CostModel(cost_kind, rng_seed=1000 + mi))
            pairs = sample_start_goal_pairs(world, PAIRS_PER_CELL, seed=31 * mi + ci)
            for start, goal in pairs:
                probe = GridPlanningProblem(world, start, goal)
                oracle = dijkstra_oracle(probe, probe.start)
                assert oracle.cost < math.inf
                instances.append(Instance(map_name, cost_kind, world, start, goal,
                                          oracle.cost))
    print(f"\n[fixture] instance_set: {len(instances)} instances "
          f"in {time.monotonic() - t0:.1f}s", flush=True)
    assert len(instances) >= 200
    return instances


@pytest.fixture(scope="session")
def anytime_results(instance_set, stats):
    """The anytime engine (4 threads) and the serial repair search, both
    logged, on a 40 instance anytime subset at w0=50, dw=0.5."""
    t0 = time.monotonic()
    subset = []
    for map_name, _fp, _mv in DESK:
        for cost_kind in COST_KINDS:
            cell = [i for i in instance_set
                    if i.map_name == map_name and i.cost_kind == cost_kind]
            subset.extend(cell[:5])
    cfg = PlannerConfig(w0=50.0, delta_w=0.5, n_threads=4)
    results = []
    for instance in subset:
        engine = run_plan(stats, cfg, instance)
        serial_problem = instance.problem()
        serial = ara_star(replace(cfg, n_threads=1), serial_problem,
                          serial_problem.start, log_events=True)
        results.append((instance, engine, serial))
    print(f"\n[fixture] anytime_results: {len(results)} instances "
          f"in {time.monotonic() - t0:.1f}s", flush=True)
    return results


@pytest.fixture(scope="session")
def ordering_metrics(stats):
    """Bench runs for the anytime-ordering and metric-sanity criteria:
    random-cost instances, slow edges, all three engine-based algorithms.
    The first-solution times of ``aepase`` and ``epase`` differ by a few ms,
    so those two cells run 5 repetitions a pair to keep their means apart."""
    t0 = time.monotonic()
    metrics = []
    for map_name, footprint, move in (("open64.map", 4, 6), ("maze64.map", 4, 6)):
        for algorithm in ("aepase", "epase", "aepase_naive"):
            values = {
                "algo": algorithm, "map": str(MAPS / map_name),
                "cost": "random", "cost_seed": 9, "pairs": 2, "pair_seed": 6,
                "threads": 8, "w0": 50.0 if algorithm != "epase" else 1.0,
                "dw": 0.5, "footprint": footprint, "move": move,
                "eval_delay_us": 500.0, "reps": 1 if algorithm == "aepase_naive" else 5,
            }
            metrics.extend(run_experiment(build_run_spec(values)))
    stats.plan_calls += len(metrics)
    print(f"\n[fixture] ordering_metrics: {len(metrics)} runs "
          f"in {time.monotonic() - t0:.1f}s", flush=True)
    return metrics


def test_criterion_01_optimal_equivalence(instance_set, stats):
    t0 = time.monotonic()
    violations = []
    runs = 0
    for instance in instance_set:
        for algorithm in ("epase", "aepase"):
            for n_threads in THREAD_SWEEP:
                cfg = PlannerConfig(
                    w0=1.0, n_threads=n_threads,
                    max_iterations=1 if algorithm == "epase" else None)
                result = run_plan(stats, cfg, instance)
                runs += 1
                if result.status != STATUS_PROVED_OPTIMAL or not math.isclose(
                        result.final_cost, instance.oracle_cost, rel_tol=REL_TOL):
                    violations.append((instance.map_name, instance.cost_kind,
                                       algorithm, n_threads, result.final_cost,
                                       instance.oracle_cost))
    elapsed = time.monotonic() - t0
    report(1, "optimal equivalence at w=1",
           not violations and elapsed < 120.0,
           f"{runs} runs over {len(instance_set)} instances, "
           f"{len(violations)} cost mismatches, {elapsed:.1f}s")


def test_criterion_02_bounded_suboptimality(instance_set, stats):
    t0 = time.monotonic()
    violations = 0
    runs = 0
    for w in (1.5, 3.0, 50.0):
        for instance in instance_set:
            cfg = PlannerConfig(w0=w, n_threads=4, max_iterations=1)
            result = run_plan(stats, cfg, instance)
            runs += 1
            if result.final_cost > w * instance.oracle_cost * (1 + REL_TOL):
                violations += 1
    report(2, "bounded suboptimality cost <= w * optimal", violations == 0,
           f"{runs} runs, {violations} violations, {time.monotonic() - t0:.1f}s")


def test_criterion_03_anytime_correctness(anytime_results):
    bad = []
    for instance, engine, serial in anytime_results:
        for result in (engine, serial):
            costs = [r.cost for r in result.records]
            if any(a < b for a, b in zip(costs, costs[1:])):
                bad.append((instance.map_name, "cost increased"))
            for rec in result.records:
                if rec.cost > rec.bound_lambda * instance.oracle_cost * (1 + REL_TOL):
                    bad.append((instance.map_name, f"bound broken at w={rec.w_at_publish}"))
            if result.status != STATUS_PROVED_OPTIMAL or not math.isclose(
                    result.final_cost, instance.oracle_cost, rel_tol=REL_TOL):
                bad.append((instance.map_name, "final cost not optimal"))
    report(3, "anytime records bounded, monotone, optimal at the end",
           not bad, f"{2 * len(anytime_results)} anytime runs, issues: {bad[:3]}")


def test_criterion_04_anytime_efficiency(anytime_results, stats):
    # every logged plan() so far: the anytime engine runs, and the C01 and
    # C02 runs at 1, 2, 4 and 8 threads when the whole suite runs
    plan_violations = stats.reexpansions
    serial_violations = sum(committed_expansion_check(serial.events)
                            for _i, _e, serial in anytime_results)
    report(4, "expansions only of locally inconsistent states",
           plan_violations == 0 and serial_violations == 0,
           f"log-derived: plan={plan_violations}, serial={serial_violations}")


def test_criterion_05_at_most_once_per_pass(anytime_results):
    duplicate_dummies = 0
    duplicate_reals = 0
    for _instance, engine, _serial in anytime_results:
        dummies = set()
        reals = set()
        for ev in engine.events:
            if ev.kind == "dummy_expand":
                key = (ev.iteration, ev.state)
                duplicate_dummies += key in dummies
                dummies.add(key)
            elif ev.kind == "eval_start":
                key = (ev.iteration, ev.state, ev.action)
                duplicate_reals += key in reals
                reals.add(key)
    report(5, "no duplicate expansion within one pass",
           duplicate_dummies == 0 and duplicate_reals == 0,
           f"dummy dupes={duplicate_dummies}, real dupes={duplicate_reals}")


def test_criterion_06_serial_reduction(stats):
    t0 = time.monotonic()
    mismatches = 0
    compared = 0
    reexpansions = 0
    cfg = PlannerConfig(w0=50.0, delta_w=0.5, n_threads=1)
    seed = 0
    while compared < 20 and seed < 60:
        seed += 1
        world = make_world(random_obstacle_map_text(14, 14, 0.18, seed=seed),
                           cost="random_factor", cost_seed=seed)
        try:
            pairs = sample_start_goal_pairs(world, 1, seed=seed)
        except Exception:
            continue
        start, goal = pairs[0]
        instance = Instance("random14", "random_factor", world, start, goal,
                            oracle_cost=math.nan)
        probe = instance.problem()
        instance.oracle_cost = dijkstra_oracle(probe, probe.start).cost
        engine = run_plan(stats, cfg, instance)
        serial_problem = instance.problem()
        serial = ara_star(cfg, serial_problem, serial_problem.start, log_events=True)
        compared += 1
        if published_costs(engine) != published_costs(serial):
            mismatches += 1
        reexpansions += (committed_expansion_check(engine.events)
                         + committed_expansion_check(serial.events))
    report(6, "one-thread engine equals serial repair search",
           compared == 20 and mismatches == 0 and reexpansions == 0,
           f"{compared} instances, {mismatches} mismatching cost sequences, "
           f"{reexpansions} expansions without a g drop, {time.monotonic() - t0:.1f}s")


def test_criterion_07_parallel_speedup(stats):
    t0 = time.monotonic()
    grid = load_map(MAPS / "maze128.map")
    world = GridWorld(grid,
                      GridDomainConfig(footprint_side=8, move_length=12,
                                       eval_delay=0.002),
                      CostModel("random_factor", rng_seed=5))
    # sampling sees the same outcomes without paying the simulated latency
    probe_world = GridWorld(grid, GridDomainConfig(footprint_side=8, move_length=12),
                            CostModel("random_factor", rng_seed=5))
    pairs = sample_start_goal_pairs(probe_world, 20, seed=5)
    pairs = sorted(pairs, key=lambda p: -math.hypot(p[0][0] - p[1][0],
                                                    p[0][1] - p[1][1]))[:6]
    ratios = []
    for start, goal in pairs:
        wall = {}
        for n_threads in (1, 8):
            instance = Instance("maze128", "random_factor", world, start, goal, 0.0)
            cfg = PlannerConfig(w0=1.0, n_threads=n_threads, max_iterations=1)
            result = run_plan(stats, cfg, instance, log_events=False)
            assert result.status == STATUS_PROVED_OPTIMAL
            wall[n_threads] = result.wall_time
        ratios.append(wall[1] / wall[8])
    mean_speedup = sum(ratios) / len(ratios)
    elapsed = time.monotonic() - t0
    report(7, "8-thread speedup on slow edges >= 3.0x",
           mean_speedup >= 3.0 and elapsed < 300.0,
           f"mean={mean_speedup:.2f}x over {len(ratios)} instances, {elapsed:.1f}s")


def test_criterion_08_anytime_ordering(ordering_metrics):
    def mean(vals):
        vals = list(vals)
        return sum(vals) / len(vals)

    t_init_aepase = mean(m.t_init for m in ordering_metrics if m.algorithm == "aepase")
    t_init_epase = mean(m.t_init for m in ordering_metrics if m.algorithm == "epase")
    t_term_aepase = mean(m.t_term for m in ordering_metrics if m.algorithm == "aepase")
    t_term_naive = mean(m.t_term for m in ordering_metrics
                        if m.algorithm == "aepase_naive")
    ok = t_init_aepase < t_init_epase and t_term_aepase < t_term_naive
    report(8, "anytime orderings (first solution, proof time)", ok,
           f"t_init {t_init_aepase * 1e3:.1f}ms < {t_init_epase * 1e3:.1f}ms; "
           f"t_term {t_term_aepase * 1e3:.1f}ms < {t_term_naive * 1e3:.1f}ms")


def test_criterion_09_initial_solution_quality(anytime_results):
    ratios = [instance.oracle_cost / engine.records[0].cost
              for instance, engine, _serial in anytime_results]
    mean_ratio = sum(ratios) / len(ratios)
    report(9, "mean initial optimality ratio at w0=50 >= 0.80",
           mean_ratio >= 0.80, f"mean={mean_ratio:.3f} over {len(ratios)} runs")


def test_criterion_10_metric_sanity(ordering_metrics):
    summary = aggregate(ordering_metrics)  # hard-asserts t_init <= t_opt <= t_term
    non_monotone = 0
    for curve in summary.curves.values():
        for column in curve["columns"].values():
            if any(a > b + 1e-12 for a, b in zip(column, column[1:])):
                non_monotone += 1
    ordered = all(m.t_init <= m.t_opt + 1e-12 and m.t_opt <= m.t_term + 1e-12
                  for m in ordering_metrics
                  if m.status == STATUS_PROVED_OPTIMAL and m.t_init is not None)
    report(10, "phase times ordered and curves non-decreasing",
           ordered and non_monotone == 0,
           f"{len(ordering_metrics)} runs, non-monotone curves: {non_monotone}")


def test_criterion_11_domain_correctness(stats):
    fixtures = sorted(MAPS.glob("*.map"))
    round_trip_ok = len(fixtures) >= 5 and all(
        serialize_map(parse_map(p.read_text(), name=p.name)) == p.read_text()
        for p in fixtures)

    import random

    rng = random.Random(1234)
    collision_mismatches = 0
    for case in range(1000):
        size = rng.randint(5, 16)
        text = random_obstacle_map_text(size, size, rng.uniform(0.0, 0.4), seed=case)
        footprint = rng.randint(1, 4)
        move = max(1, size // 2)
        step = rng.randint(1, min(3, move))
        world = make_world(text, footprint=footprint, move=move,
                           collision_step=step)
        frm = (rng.randrange(size), rng.randrange(size))
        to = (rng.randrange(size), rng.randrange(size))
        if segment_clear(world, frm, to) != sweep_collision_oracle(
                world.grid, frm, to, footprint, step):
            collision_mismatches += 1

    audit_ok = stats.audited_edges > 100_000 and not stats.audit_failures
    report(11, "map round-trip, collision oracle, consistency audit",
           round_trip_ok and collision_mismatches == 0 and audit_ok,
           f"{len(fixtures)} fixtures, 1000 collision cases "
           f"({collision_mismatches} mismatches), "
           f"{stats.audited_edges} edges audited, "
           f"{len(stats.audit_failures)} audit failures")


def test_criterion_12_shutdown_liveness(stats):
    assert_no_leaked_workers()
    report(12, "all workers joined within 50ms of every plan return",
           stats.plan_calls > 2000 and not stats.shutdown_violations,
           f"{stats.plan_calls} plan calls, "
           f"{len(stats.shutdown_violations)} violations")
