"""Experiment harness: runs algorithm x map x cost-model grids, computes the
anytime metrics (time to first / optimal-in-hindsight / proved-optimal
solution, optimality-ratio curves, speedups) and emits CSV/NDJSON files."""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path as FsPath

from .baselines import ara_star, dijkstra_oracle, weighted_astar
from .controller import (
    STATUS_COMPLETED_BOUNDED,
    STATUS_PROVED_OPTIMAL,
    PlannerConfig,
    SolutionRecord,
    plan,
    plan_naive,
)
from .grid2d import (
    CostModel,
    GridDomainConfig,
    GridPlanningProblem,
    GridWorld,
    load_map,
    sample_start_goal_pairs,
)

ALGORITHMS = ("wastar", "arastar", "epase", "aepase_naive", "aepase")

#: Relative tolerance for "this published cost is the optimal one".
OPT_REL_TOL = 1e-9

#: Number of time buckets per optimality-ratio curve.
CURVE_BUCKETS = 200


class SpecError(ValueError):
    """Malformed run-spec file or inconsistent run parameters."""


class AggregationError(AssertionError):
    """A metric sanity invariant failed during aggregation."""


@dataclass(frozen=True)
class RunSpec:
    algorithm: str
    map_path: str
    map_scale: int = 1
    cost_kind: str = "euclidean"
    cost_seed: int = 0
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    domain: GridDomainConfig = field(default_factory=GridDomainConfig)
    pair_count: int = 10
    pair_seed: int = 0
    repetitions: int = 1

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise SpecError(f"unknown algorithm {self.algorithm!r}; use one of {ALGORITHMS}")
        if self.repetitions < 1:
            raise SpecError("repetitions must be >= 1")
        if self.pair_count < 0:
            raise SpecError("pair count must be >= 0")
        if self.map_scale < 1:
            raise SpecError("map scale must be >= 1")


@dataclass
class RunMetrics:
    algorithm: str
    map_name: str
    cost_kind: str
    pair_index: int
    repetition: int
    n_threads: int
    start: tuple[int, int]
    goal: tuple[int, int]
    oracle_cost: float
    status: str
    duration: float
    t_init: float | None = None
    t_opt: float | None = None
    t_term: float | None = None
    cost_init: float | None = None
    cost_final: float | None = None
    published_costs: list[float] = field(default_factory=list)
    published_times: list[float] = field(default_factory=list)
    optimality_ratio_series: list[tuple[float, float]] = field(default_factory=list)
    expansions_per_iteration: list[int] = field(default_factory=list)
    error: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))


def run_metrics_from_json(line: str) -> RunMetrics:
    d = json.loads(line)
    d["start"] = tuple(d["start"])
    d["goal"] = tuple(d["goal"])
    d["optimality_ratio_series"] = [tuple(p) for p in d["optimality_ratio_series"]]
    return RunMetrics(**d)


def _is_optimal(cost: float, oracle: float) -> bool:
    return math.isclose(cost, oracle, rel_tol=OPT_REL_TOL, abs_tol=1e-12)


def _ratio(oracle: float, cost: float) -> float:
    if cost < oracle * (1.0 - OPT_REL_TOL) - 1e-12:
        raise AggregationError(f"published cost {cost} beats the oracle {oracle}")
    return min(1.0, oracle / cost) if cost > 0 else 1.0


def _metrics_from_records(records: list[SolutionRecord], status: str, duration: float,
                          oracle: float, base: RunMetrics) -> RunMetrics:
    base.status = status
    base.duration = duration
    base.published_costs = [r.cost for r in records]
    base.published_times = [r.t_since_plan_start for r in records]
    if records:
        base.t_init = records[0].t_since_plan_start
        base.cost_init = records[0].cost
        base.cost_final = records[-1].cost
        for r in records:
            if _is_optimal(r.cost, oracle):
                base.t_opt = r.t_since_plan_start
                break
        base.optimality_ratio_series = [
            (r.t_since_plan_start, _ratio(oracle, r.cost)) for r in records]
    if status == STATUS_PROVED_OPTIMAL:
        base.t_term = duration
    return base


def _run_single(spec: RunSpec, world: GridWorld, start: tuple[int, int],
                goal: tuple[int, int], oracle: float,
                pair_index: int, repetition: int) -> RunMetrics:
    base = RunMetrics(
        algorithm=spec.algorithm, map_name=world.grid.name, cost_kind=spec.cost_kind,
        pair_index=pair_index, repetition=repetition,
        n_threads=spec.planner.n_threads, start=start, goal=goal,
        oracle_cost=oracle, status="pending", duration=0.0)
    cfg = spec.planner

    if spec.algorithm == "wastar":
        problem = GridPlanningProblem(world, start, goal)
        t0 = time.monotonic()
        res = weighted_astar(problem, problem.start, w=cfg.w0)
        duration = time.monotonic() - t0
        if res.path is None:
            base.status = "infeasible"
            base.duration = duration
            return base
        status = STATUS_PROVED_OPTIMAL if cfg.w0 == 1.0 else STATUS_COMPLETED_BOUNDED
        record = SolutionRecord(path=res.path, cost=res.cost, w_at_publish=cfg.w0,
                                bound_lambda=cfg.w0, t_since_plan_start=duration,
                                iteration_index=0)
        base.expansions_per_iteration = [res.expansions]
        return _metrics_from_records([record], status, duration, oracle, base)

    if spec.algorithm == "arastar":
        problem = GridPlanningProblem(world, start, goal)
        result = ara_star(cfg, problem, problem.start)
    elif spec.algorithm == "epase":
        problem = GridPlanningProblem(world, start, goal)
        result = plan(replace(cfg, max_iterations=1), problem, problem.start)
    elif spec.algorithm == "aepase":
        problem = GridPlanningProblem(world, start, goal)
        result = plan(cfg, problem, problem.start)
    elif spec.algorithm == "aepase_naive":
        def factory():
            fresh = GridPlanningProblem(world, start, goal)
            return fresh, fresh.start
        result = plan_naive(cfg, factory)
    else:  # pragma: no cover - guarded by RunSpec validation
        raise SpecError(f"unknown algorithm {spec.algorithm!r}")

    base.expansions_per_iteration = result.expansions_per_iteration
    return _metrics_from_records(result.records, result.status, result.wall_time,
                                 oracle, base)


def run_experiment(spec: RunSpec, progress=None) -> list[RunMetrics]:
    """Run one spec cell: every sampled pair x repetition, sequentially (the
    engine's threads own the machine while a run is timed).

    Per-run failures are recorded in the run's status; the experiment
    continues.
    """
    grid = load_map(spec.map_path, spec.map_scale)
    world = GridWorld(grid, spec.domain, CostModel(spec.cost_kind, spec.cost_seed))
    if spec.domain.eval_delay > 0:
        # sampling and oracles see identical outcomes without the simulated
        # latency; only the timed runs should pay it
        probe_world = GridWorld(grid, replace(spec.domain, eval_delay=0.0),
                                CostModel(spec.cost_kind, spec.cost_seed))
    else:
        probe_world = world
    pairs = sample_start_goal_pairs(probe_world, spec.pair_count, spec.pair_seed)
    metrics: list[RunMetrics] = []
    for pair_index, (start, goal) in enumerate(pairs):
        probe = GridPlanningProblem(probe_world, start, goal)
        oracle = dijkstra_oracle(probe, probe.start).cost
        for repetition in range(spec.repetitions):
            try:
                m = _run_single(spec, world, start, goal, oracle, pair_index, repetition)
            except Exception as exc:
                m = RunMetrics(
                    algorithm=spec.algorithm, map_name=world.grid.name,
                    cost_kind=spec.cost_kind, pair_index=pair_index,
                    repetition=repetition, n_threads=spec.planner.n_threads,
                    start=start, goal=goal, oracle_cost=oracle,
                    status="error", duration=0.0, error=f"{type(exc).__name__}: {exc}")
            metrics.append(m)
            if progress is not None:
                progress(m)
    return metrics


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


@dataclass
class Summary:
    table_rows: list[dict]
    speedup_rows: list[dict]
    curves: dict[str, dict]
    runs: list[RunMetrics]


def _algo_order(algo: str) -> int:
    return ALGORITHMS.index(algo) if algo in ALGORITHMS else len(ALGORITHMS)


def aggregate(metrics: list[RunMetrics], speedup_baselines: tuple[str, ...] = ALGORITHMS,
              speedup_target: str = "aepase") -> Summary:
    """Fold raw runs into the mean-time table, per-run-averaged speedups and
    the time-discretized best-so-far optimality curves."""
    ok = [m for m in metrics if m.status not in ("error", "infeasible")]
    for m in ok:
        if m.status == STATUS_PROVED_OPTIMAL and m.t_init is not None:
            if m.t_opt is None or not (m.t_init <= m.t_opt + 1e-12 <= m.t_term + 1e-12):
                raise AggregationError(
                    f"phase times out of order for {m.algorithm} pair {m.pair_index}: "
                    f"init={m.t_init} opt={m.t_opt} term={m.t_term}")

    table_rows = []
    keys = sorted({(m.cost_kind, m.algorithm) for m in ok},
                  key=lambda k: (k[0], _algo_order(k[1])))
    for cost_kind, algo in keys:
        runs = [m for m in ok if m.cost_kind == cost_kind and m.algorithm == algo]
        init_ratios = [m.optimality_ratio_series[0][1] for m in runs
                       if m.optimality_ratio_series]
        table_rows.append({
            "cost_kind": cost_kind,
            "algorithm": algo,
            "n_runs": len(runs),
            "mean_t_init_ms": _scale_ms(_mean([m.t_init for m in runs if m.t_init is not None])),
            "mean_init_ratio": _mean(init_ratios),
            "mean_t_opt_ms": _scale_ms(_mean([m.t_opt for m in runs if m.t_opt is not None])),
            "mean_t_term_ms": _scale_ms(_mean([m.t_term for m in runs if m.t_term is not None])),
        })

    speedup_rows = []
    cost_kinds = sorted({m.cost_kind for m in ok})
    for cost_kind in cost_kinds:
        for algo in speedup_baselines:
            if algo == speedup_target:
                continue
            rows = paired_speedups(ok, algo, speedup_target, cost_kind)
            if rows is not None:
                speedup_rows.append(rows)

    curves = {kind: _curve_for(ok, kind) for kind in cost_kinds}
    return Summary(table_rows=table_rows, speedup_rows=speedup_rows,
                   curves=curves, runs=list(metrics))


def _scale_ms(value: float | None) -> float | None:
    return None if value is None else value * 1e3


def paired_speedups(metrics: list[RunMetrics], baseline: str, target: str,
                    cost_kind: str) -> dict | None:
    """Mean of per-run baseline/target time ratios, paired on the same
    (map, pair, repetition) instance.  Ratios first, then the average."""
    def index(algo):
        return {(m.map_name, m.pair_index, m.repetition): m
                for m in metrics if m.algorithm == algo and m.cost_kind == cost_kind}

    base_runs = index(baseline)
    target_runs = index(target)
    shared = sorted(base_runs.keys() & target_runs.keys())
    if not shared:
        return None
    ratios: dict[str, list[float]] = {"init": [], "opt": [], "term": []}
    for key in shared:
        b, t = base_runs[key], target_runs[key]
        for phase, bt, tt in (("init", b.t_init, t.t_init),
                              ("opt", b.t_opt, t.t_opt),
                              ("term", b.t_term, t.t_term)):
            if bt is not None and tt is not None and tt > 0:
                ratios[phase].append(bt / tt)
    return {
        "cost_kind": cost_kind,
        "baseline": baseline,
        "target": target,
        "n_pairs": len(shared),
        "speedup_init": _mean(ratios["init"]),
        "speedup_opt": _mean(ratios["opt"]),
        "speedup_term": _mean(ratios["term"]),
    }


def _best_ratio_at(m: RunMetrics, t: float) -> float:
    """Step function of a run's best optimality ratio achieved by time t
    (0 before the first solution, so curves start pessimistic and only
    climb)."""
    best = 0.0
    for ts, ratio in m.optimality_ratio_series:
        if ts <= t and ratio > best:
            best = ratio
    return best


def _curve_for(metrics: list[RunMetrics], cost_kind: str) -> dict:
    runs = [m for m in metrics if m.cost_kind == cost_kind]
    algos = sorted({m.algorithm for m in runs}, key=_algo_order)
    horizon = max((m.t_term if m.t_term is not None else m.duration for m in runs),
                  default=0.0)
    if horizon <= 0.0:
        return {"times": [], "columns": {a: [] for a in algos}}
    width = horizon / CURVE_BUCKETS
    times = [width * (k + 1) for k in range(CURVE_BUCKETS)]
    columns = {}
    for algo in algos:
        mine = [m for m in runs if m.algorithm == algo]
        columns[algo] = [
            sum(_best_ratio_at(m, t) for m in mine) / len(mine) for t in times
        ] if mine else []
    return {"times": times, "columns": columns}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def emit_outputs(summary: Summary, out_dir: str | FsPath) -> list[FsPath]:
    """Write table1.csv, speedup.csv, one anytime curve CSV per cost model,
    and runs.ndjson; fixed column order, deterministic for identical input."""
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    table = out / "table1.csv"
    with table.open("w", newline="") as fp:
        fp.write("cost_kind,algorithm,n_runs,mean_t_init_ms,mean_init_ratio,"
                 "mean_t_opt_ms,mean_t_term_ms\n")
        for row in summary.table_rows:
            fp.write(",".join(_fmt(row[k]) for k in (
                "cost_kind", "algorithm", "n_runs", "mean_t_init_ms",
                "mean_init_ratio", "mean_t_opt_ms", "mean_t_term_ms")) + "\n")
    written.append(table)

    speedup = out / "speedup.csv"
    with speedup.open("w", newline="") as fp:
        fp.write("cost_kind,baseline,target,n_pairs,speedup_init,speedup_opt,speedup_term\n")
        for row in summary.speedup_rows:
            fp.write(",".join(_fmt(row[k]) for k in (
                "cost_kind", "baseline", "target", "n_pairs",
                "speedup_init", "speedup_opt", "speedup_term")) + "\n")
    written.append(speedup)

    for cost_kind in sorted(summary.curves):
        curve = summary.curves[cost_kind]
        path = out / f"anytime_curve_{cost_kind}.csv"
        algos = sorted(curve["columns"], key=_algo_order)
        with path.open("w", newline="") as fp:
            fp.write(",".join(["time_ms"] + [f"ratio_{a}" for a in algos]) + "\n")
            for k, t in enumerate(curve["times"]):
                cells = [_fmt(t * 1e3)]
                for a in algos:
                    col = curve["columns"][a]
                    cells.append(_fmt(col[k]) if col else "")
                fp.write(",".join(cells) + "\n")
        written.append(path)

    runs = out / "runs.ndjson"
    with runs.open("w") as fp:
        for m in summary.runs:
            fp.write(m.to_json() + "\n")
    written.append(runs)
    return written


# ---------------------------------------------------------------------------
# Flat key=value run-spec files

_SPEC_KEYS = {
    "algo": str, "map": str, "scale": int, "cost": str, "cost_seed": int,
    "pairs": int, "pair_seed": int, "reps": int, "threads": int,
    "w0": float, "dw": float, "epsilon": str, "timeout_ms": float, "seed": int,
    "max_iterations": int, "footprint": int, "move": int,
    "collision_step": int, "eval_delay_us": float,
}

_COST_ALIASES = {"euclidean": "euclidean", "random": "random_factor",
                 "random_factor": "random_factor"}


def parse_run_spec(text: str, base_dir: str | FsPath = ".") -> RunSpec:
    """Parse the flat ``key = value`` spec format ('#' comments allowed).

    Required keys: ``algo`` and ``map``.  Unknown keys are errors.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _SPEC_KEYS:
            raise SpecError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _SPEC_KEYS[key](rhs)
        except ValueError as exc:
            raise SpecError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if "algo" not in values or "map" not in values:
        raise SpecError("spec must define at least 'algo' and 'map'")
    return build_run_spec(values, base_dir)


def build_run_spec(values: dict, base_dir: str | FsPath = ".") -> RunSpec:
    cost = _COST_ALIASES.get(str(values.get("cost", "euclidean")))
    if cost is None:
        raise SpecError(f"unknown cost model {values.get('cost')!r}")
    epsilon_raw = values.get("epsilon", "w")
    if str(epsilon_raw) == "w":
        epsilon = None
    elif str(epsilon_raw) == "inf":
        epsilon = math.inf
    else:
        epsilon = float(epsilon_raw)
    timeout_ms = values.get("timeout_ms")
    try:
        planner = PlannerConfig(
            w0=float(values.get("w0", 1.0)),
            delta_w=float(values.get("dw", 0.5)),
            epsilon=epsilon,
            n_threads=int(values.get("threads", 1)),
            time_budget=math.inf if timeout_ms is None else float(timeout_ms) / 1e3,
            rng_seed=int(values.get("seed", 0)),
            max_iterations=values.get("max_iterations"),
        )
        domain = GridDomainConfig(
            footprint_side=int(values.get("footprint", 32)),
            move_length=int(values.get("move", 25)),
            collision_step=int(values.get("collision_step", 1)),
            eval_delay=float(values.get("eval_delay_us", 0.0)) / 1e6,
        )
        map_path = FsPath(base_dir) / str(values["map"])
        return RunSpec(
            algorithm=str(values["algo"]),
            map_path=str(map_path),
            map_scale=int(values.get("scale", 1)),
            cost_kind=cost,
            cost_seed=int(values.get("cost_seed", 0)),
            planner=planner,
            domain=domain,
            pair_count=int(values.get("pairs", 10)),
            pair_seed=int(values.get("pair_seed", 0)),
            repetitions=int(values.get("reps", 1)),
        )
    except (ValueError, TypeError) as exc:
        raise SpecError(str(exc)) from exc
