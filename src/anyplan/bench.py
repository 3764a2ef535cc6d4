"""Experiment harness: runs algorithm x map x cost-model grids, computes the
anytime metrics (time to first / optimal-in-hindsight / proved-optimal
solution, optimality-ratio curves, speedups) and emits CSV/NDJSON files."""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path as FsPath

from .baselines import ara_star, dijkstra_oracle, wastar
from .controller import STATUS_PROVED_OPTIMAL, PlannerConfig, PlanResult, plan, plan_naive
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

#: The algorithm every other one is paired against in ``speedup.csv``.
SPEEDUP_TARGET = "aepase"

#: The :data:`SPEC_KEYS` that place a run on its map, a column each in
#: ``table1.csv`` and ``speedup.csv``: a row never pools two maps or scales.
MAP_KEYS = ("map", "scale")

#: The other :data:`INSTANCE_KEYS` a run records (its field of the same
#: name) apart from the pairs and the cost kind, a column each too: a row
#: never pools two cost seeds or motion models, whose optima differ.
PROBLEM_KEYS = ("cost_seed", "footprint", "move", "collision_step")

#: Column order of ``table1.csv`` and ``speedup.csv``; each row is a dict
#: keyed by these names.
TABLE1_COLUMNS = ("cost_kind", *MAP_KEYS, *PROBLEM_KEYS, "algorithm", "n_threads",
                  "eval_delay_us", "n_runs", "mean_t_init_ms", "mean_init_ratio",
                  "mean_t_opt_ms", "mean_t_term_ms")
SPEEDUP_COLUMNS = ("cost_kind", *MAP_KEYS, *PROBLEM_KEYS, "baseline", "target",
                   "baseline_n_threads", "target_n_threads", "eval_delay_us", "n_pairs",
                   "speedup_init", "speedup_opt", "speedup_term")

#: What a table row and a curve column are keyed on, named as their columns
#: but with the edge delay in seconds (µs values could merge two delays).  A
#: speedup pairs two cells equal in all but the last two fields, the problem.
Cell = namedtuple("Cell", ("cost_kind", *MAP_KEYS, *PROBLEM_KEYS, "eval_delay",
                           "algorithm", "n_threads"))


class SpecError(ValueError):
    """Malformed run-spec file or inconsistent run parameters."""


class AggregationError(AssertionError):
    """A metric sanity invariant failed during aggregation."""


@dataclass(frozen=True)
class RunSpec:
    algorithm: str
    map_path: str
    map_scale: int = 1
    cost: CostModel = field(default_factory=CostModel)
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
        if self.algorithm == "wastar" and self.planner.time_budget < math.inf:
            raise SpecError("timeout_ms: wastar has no deadline; leave the key out")
        if self.algorithm == "wastar" and self.planner.epsilon is not None:
            raise SpecError("epsilon: wastar's bound is its weight w0; leave the key out")


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
    map_scale: int = 1
    eval_delay: float = 0.0  # the world's simulated edge delay, in seconds
    # the PROBLEM_KEYS; None (unknown) in a line written before they were recorded
    cost_seed: int | None = None
    footprint: int | None = None
    move: int | None = None
    collision_step: int | None = None
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


def _metrics_from_result(result: PlanResult, base: RunMetrics) -> RunMetrics:
    oracle = base.oracle_cost
    records = result.records
    base.status = result.status
    base.duration = result.wall_time
    base.expansions_per_iteration = result.expansions_per_iteration
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
    if result.status == STATUS_PROVED_OPTIMAL:
        base.t_term = result.wall_time
    return base


def build_instances(spec: RunSpec
                    ) -> tuple[GridWorld, list[tuple[tuple[int, int], tuple[int, int], float]]]:
    """Load ``spec``'s map and return the world its runs plan on and its
    sampled ``(start, goal, optimal cost)`` instances; only the
    :data:`INSTANCE_KEYS` fields of ``spec`` and its edge delay matter.

    Pairs are sampled and Dijkstra runs on a world without the edge delay:
    its outcomes are the same, and only the timed runs should pay it.  The
    two worlds share the map's tables, so the second costs microseconds.
    """
    grid = load_map(spec.map_path, spec.map_scale)
    probe = GridWorld(grid, replace(spec.domain, eval_delay=0.0), spec.cost)
    world = GridWorld(grid, spec.domain, spec.cost)
    instances = []
    for start, goal in sample_start_goal_pairs(probe, spec.pair_count, spec.pair_seed):
        problem = GridPlanningProblem(probe, start, goal)
        instances.append((start, goal, dijkstra_oracle(problem, problem.start).cost))
    return world, instances


def _run_single(spec: RunSpec, problem: GridPlanningProblem, base: RunMetrics) -> RunMetrics:
    """Run one instance and fill in ``base``, which holds its identity."""
    # looked up per call, so a driver patched on this module is the one run
    driver, overrides = {"wastar": (wastar, {}), "arastar": (ara_star, {}),
                         "epase": (plan, {"max_iterations": 1}), "aepase": (plan, {}),
                         "aepase_naive": (plan_naive, {})}[spec.algorithm]
    result = driver(replace(spec.planner, **overrides), problem, problem.start)
    return _metrics_from_result(result, base)


def run_experiment(spec: RunSpec, progress=None) -> list[RunMetrics]:
    """Run one spec cell: every sampled pair x repetition, sequentially (the
    engine's threads own the machine while a run is timed).

    Per-run failures are recorded in the run's status; the experiment
    continues.
    """
    world, instances = build_instances(spec)
    metrics: list[RunMetrics] = []
    for pair_index, (start, goal, oracle) in enumerate(instances):
        problem = GridPlanningProblem(world, start, goal)
        for repetition in range(spec.repetitions):
            identity = dict(
                algorithm=spec.algorithm, map_name=spec.map_path, cost_kind=spec.cost.kind,
                pair_index=pair_index, repetition=repetition,
                n_threads=spec.planner.n_threads, start=start, goal=goal, oracle_cost=oracle,
                map_scale=spec.map_scale, eval_delay=spec.domain.eval_delay,
                cost_seed=spec.cost.rng_seed, footprint=spec.domain.footprint_side,
                move=spec.domain.move_length, collision_step=spec.domain.collision_step)
            try:
                m = _run_single(spec, problem, RunMetrics(**identity, status="pending",
                                                          duration=0.0))
            except Exception as exc:
                m = RunMetrics(**identity, status="error", duration=0.0,
                               error=f"{type(exc).__name__}: {exc}")
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


def _cell(m: RunMetrics) -> Cell:
    return Cell(m.cost_kind, m.map_name, m.map_scale, m.cost_seed, m.footprint, m.move,
                m.collision_step, m.eval_delay, m.algorithm, m.n_threads)


def _cell_order(cell: Cell) -> tuple:
    order = ALGORITHMS.index(cell.algorithm) if cell.algorithm in ALGORITHMS else len(ALGORITHMS)
    # an unknown (None) field sorts before every known value
    return *((v is not None, v) for v in cell[:-2]), order, cell.n_threads


def aggregate(metrics: list[RunMetrics]) -> Summary:
    """Fold raw runs into the mean-time table, per-run-averaged speedups of
    :data:`SPEEDUP_TARGET` over every other algorithm and the
    time-discretized best-so-far optimality curves.  The ok runs are grouped
    once into cells (:class:`Cell`): a cell is a table row and a curve
    column, and a speedup pairs two cells that differ only in algorithm and
    workers."""
    ok = [m for m in metrics if m.status not in ("error", "infeasible")]
    for m in ok:
        if m.status == STATUS_PROVED_OPTIMAL and m.t_init is not None:
            if m.t_opt is None or not (m.t_init <= m.t_opt + 1e-12 <= m.t_term + 1e-12):
                raise AggregationError(
                    f"phase times out of order for {m.algorithm} pair {m.pair_index}: "
                    f"init={m.t_init} opt={m.t_opt} term={m.t_term}")

    groups: dict[Cell, list[RunMetrics]] = {}
    for m in ok:
        groups.setdefault(_cell(m), []).append(m)
    cells = sorted(groups.items(), key=lambda item: _cell_order(item[0]))

    table_rows = []
    for cell, runs in cells:
        init_ratios = [m.optimality_ratio_series[0][1] for m in runs
                       if m.optimality_ratio_series]
        row = {
            **cell._asdict(),
            "eval_delay_us": cell.eval_delay * 1e6,
            "n_runs": len(runs),
            "mean_t_init_ms": _scale_ms(_mean([m.t_init for m in runs if m.t_init is not None])),
            "mean_init_ratio": _mean(init_ratios),
            "mean_t_opt_ms": _scale_ms(_mean([m.t_opt for m in runs if m.t_opt is not None])),
            "mean_t_term_ms": _scale_ms(_mean([m.t_term for m in runs if m.t_term is not None])),
        }
        table_rows.append({k: row[k] for k in TABLE1_COLUMNS})

    # each target cell against every other algorithm's cell of its problem,
    # a cell less its last two fields
    speedup_rows = [row for target in cells if target[0].algorithm == SPEEDUP_TARGET
                    for base in cells if base[0][:-2] == target[0][:-2]
                    and base[0].algorithm != SPEEDUP_TARGET
                    if (row := _speedup_row(base, target)) is not None]

    curves = {kind: _curve_for([(cell, runs) for cell, runs in cells
                                if cell.cost_kind == kind])
              for kind in sorted({cell.cost_kind for cell in groups})}
    return Summary(table_rows=table_rows, speedup_rows=speedup_rows,
                   curves=curves, runs=list(metrics))


def _scale_ms(value: float | None) -> float | None:
    return None if value is None else value * 1e3


def _speedup_row(baseline: tuple[Cell, list[RunMetrics]],
                 target: tuple[Cell, list[RunMetrics]]) -> dict | None:
    """Mean of per-run baseline/target time ratios of two ``(cell, runs)``
    pairs of one problem, paired on the (start, goal, repetition) instance;
    None if no instance pairs.  Ratios first, then the average, summed in
    (pair, repetition) order.

    Two runs of one cell on one instance, or a pair with two optimal costs,
    are an :class:`AggregationError`.
    """
    b_cell, b_runs = baseline
    t_cell, t_runs = target
    b_algo, t_algo = b_cell.algorithm, t_cell.algorithm

    def by_instance(algo: str, runs: list[RunMetrics]) -> dict[tuple, RunMetrics]:
        index: dict[tuple, RunMetrics] = {}
        for m in sorted(runs, key=lambda m: (m.pair_index, m.repetition)):
            key = (m.start, m.goal, m.repetition)
            if key in index:
                raise AggregationError(
                    f"two {algo} runs on one instance {(b_cell.map, b_cell.scale, *key)}")
            index[key] = m
        return index

    t_index = by_instance(t_algo, t_runs)
    pairs = [(b, t_index[key]) for key, b in by_instance(b_algo, b_runs).items()
             if key in t_index]
    if not pairs:
        return None
    for b, t in pairs:
        if b.oracle_cost != t.oracle_cost:
            raise AggregationError(f"{b_algo}/{t_algo} pair on {b_cell.map} {b.start}->{b.goal}"
                                   f" has two optimal costs: {b.oracle_cost}, {t.oracle_cost}")
    row = {
        **b_cell._asdict(),
        "baseline": b_algo,
        "target": t_algo,
        "baseline_n_threads": b_cell.n_threads,
        "target_n_threads": t_cell.n_threads,
        "eval_delay_us": b_cell.eval_delay * 1e6,
        "n_pairs": len(pairs),
    }
    for phase in ("init", "opt", "term"):
        times = [(getattr(b, f"t_{phase}"), getattr(t, f"t_{phase}")) for b, t in pairs]
        row[f"speedup_{phase}"] = _mean([bt / tt for bt, tt in times
                                         if bt is not None and tt is not None and tt > 0])
    # the cell's algorithm and workers are the baseline's alone
    return {k: row[k] for k in SPEEDUP_COLUMNS}


def _best_ratio_at(m: RunMetrics, t: float) -> float:
    """Step function of a run's best optimality ratio achieved by time t
    (0 before the first solution, so curves start pessimistic and only
    climb)."""
    best = 0.0
    for ts, ratio in m.optimality_ratio_series:
        if ts <= t and ratio > best:
            best = ratio
    return best


def _curve_for(cells: list[tuple[Cell, list[RunMetrics]]]) -> dict:
    """Each cell's mean best-so-far optimality ratio over time, for the cells
    of one cost kind; columns are named
    ``<algorithm>_t<workers>_d<delay in us>_<map>_x<scale>``, then
    ``_s<cost seed>_f<footprint>_m<move>_c<collision step>`` with each
    unknown part left out."""
    names = [f"{c.algorithm}_t{c.n_threads}_d{_fmt(c.eval_delay * 1e6)}_{c.map}_x{c.scale}"
             + "".join(f"_{tag}{getattr(c, key)}" for tag, key in zip("sfmc", PROBLEM_KEYS)
                       if getattr(c, key) is not None)
             for c, _ in cells]
    horizon = max(m.t_term if m.t_term is not None else m.duration
                  for _, runs in cells for m in runs)
    if horizon <= 0.0:
        return {"times": [], "columns": {name: [] for name in names}}
    width = horizon / CURVE_BUCKETS
    times = [width * (k + 1) for k in range(CURVE_BUCKETS)]
    columns = {name: [sum(_best_ratio_at(m, t) for m in runs) / len(runs) for t in times]
               for name, (_, runs) in zip(names, cells)}
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

    for name, columns, rows in (("table1.csv", TABLE1_COLUMNS, summary.table_rows),
                                ("speedup.csv", SPEEDUP_COLUMNS, summary.speedup_rows)):
        path = out / name
        with path.open("w", newline="") as fp:
            fp.write(",".join(columns) + "\n")
            for row in rows:
                fp.write(",".join(_fmt(row[k]) for k in columns) + "\n")
        written.append(path)

    for cost_kind in sorted(summary.curves):
        curve = summary.curves[cost_kind]
        path = out / f"anytime_curve_{cost_kind}.csv"
        columns = curve["columns"]
        with path.open("w", newline="") as fp:
            fp.write(",".join(["time_ms"] + [f"ratio_{name}" for name in columns]) + "\n")
            for k, t in enumerate(curve["times"]):
                cells = [_fmt(t * 1e3)] + [_fmt(col[k]) for col in columns.values()]
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

#: Every run parameter: spec key -> (type, the dataclass that holds it, its
#: field there).  Spec files, ``anyplan run`` flags and the scripts all set
#: a run through these keys; an absent key keeps its dataclass default.
SPEC_KEYS = {
    "algo": (str, RunSpec, "algorithm"),
    "map": (str, RunSpec, "map_path"),
    "scale": (int, RunSpec, "map_scale"),
    "cost": (str, CostModel, "kind"),
    "cost_seed": (int, CostModel, "rng_seed"),
    "pairs": (int, RunSpec, "pair_count"),
    "pair_seed": (int, RunSpec, "pair_seed"),
    "reps": (int, RunSpec, "repetitions"),
    "threads": (int, PlannerConfig, "n_threads"),
    "w0": (float, PlannerConfig, "w0"),
    "dw": (float, PlannerConfig, "delta_w"),
    "epsilon": (str, PlannerConfig, "epsilon"),
    "timeout_ms": (float, PlannerConfig, "time_budget"),
    "max_iterations": (int, PlannerConfig, "max_iterations"),
    "footprint": (int, GridDomainConfig, "footprint_side"),
    "move": (int, GridDomainConfig, "move_length"),
    "collision_step": (int, GridDomainConfig, "collision_step"),
    "eval_delay_us": (float, GridDomainConfig, "eval_delay"),
}

#: The keys :func:`build_instances` reads: the flags of ``anyplan oracle``.
INSTANCE_KEYS = ("map", "scale", "cost", "cost_seed", "pairs", "pair_seed",
                 "footprint", "move", "collision_step")

#: Spec spellings of a :class:`CostModel` kind other than the kind itself.
COST_ALIASES = {"random": "random_factor"}


def parse_spec_values(text: str) -> dict[str, object]:
    """Parse the flat ``key = value`` spec format ('#' comments allowed)
    into values typed by :data:`SPEC_KEYS`, keyed as :func:`build_run_spec`
    reads them.  Unknown keys are errors.
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
        if key not in SPEC_KEYS:
            raise SpecError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = SPEC_KEYS[key][0](rhs)
        except ValueError as exc:
            raise SpecError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return values


def build_run_spec(values: dict) -> RunSpec:
    """Build a validated :class:`RunSpec` from spec-key values; ``algo`` and
    ``map`` are required.

    Each value is converted once by its :data:`SPEC_KEYS` type into its
    dataclass field, and an absent key keeps that field's default.  Only
    ``cost`` (an alias), ``epsilon`` (``w`` tracks the weight), ``timeout_ms``
    and ``eval_delay_us`` (to seconds) change beyond that.  A bad key or
    value is a :class:`SpecError`.
    """
    unknown = sorted(values.keys() - SPEC_KEYS.keys())
    if unknown:
        raise SpecError(f"unknown key(s): {', '.join(unknown)}")
    missing = [key for key in ("algo", "map") if key not in values]
    if missing:
        raise SpecError(f"required key(s) missing: {', '.join(missing)}")
    convert = {
        "map": lambda v: str(FsPath(v)),
        "cost": lambda v: COST_ALIASES.get(v, v),
        "epsilon": lambda v: None if v == "w" else float(v),
        "timeout_ms": lambda v: v / 1e3,
        "eval_delay_us": lambda v: v / 1e6,
    }
    fields: dict[type, dict] = {holder: {} for _, holder, _ in SPEC_KEYS.values()}
    try:
        for key, value in values.items():
            kind, holder, name = SPEC_KEYS[key]
            value = kind(value)
            fields[holder][name] = convert[key](value) if key in convert else value
        return RunSpec(**fields[RunSpec], cost=CostModel(**fields[CostModel]),
                       planner=PlannerConfig(**fields[PlannerConfig]),
                       domain=GridDomainConfig(**fields[GridDomainConfig]))
    except (ValueError, TypeError) as exc:
        raise SpecError(str(exc)) from exc
