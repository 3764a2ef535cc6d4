"""Outer anytime control loop: weight schedule, per-iteration reset, INCON
merge, OPEN rebalance, solution publication and termination.  One driver,
:func:`run_anytime`, runs the passes of :func:`plan`, :func:`plan_naive`
and the serial ``baselines.ara_star``."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from .domain import Path, SearchDomain
from .engine import EpisodeContext, improve_path, shutdown
from .search import (
    ExpansionEvent,
    ImproveOutcome,
    SearchState,
    backtrack,
    seed_open_with_start,
)
from .structures import INF, merge_incons

STATUS_PROVED_OPTIMAL = "proved_optimal"
STATUS_TIMEOUT = "timeout"
STATUS_INFEASIBLE = "infeasible"
#: Normal completion whose final pass ran with a bound above 1 (fixed
#: epsilon policy or a truncated schedule); the result is bounded, not
#: proved optimal.
STATUS_COMPLETED_BOUNDED = "completed_bounded"

_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs of one planning episode.

    ``epsilon=None`` tracks the heuristic weight each iteration (the default
    policy); a float fixes the independence relaxation instead, and
    ``math.inf`` disables the independence checks outright.
    ``max_iterations`` truncates the weight schedule; ``max_iterations=1``
    gives a single bounded-suboptimal pass at ``w0``.
    """

    w0: float = 1.0
    delta_w: float = 0.5
    epsilon: float | None = None
    n_threads: int = 1
    time_budget: float = INF
    rng_seed: int = 0
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.w0 < 1.0:
            raise ValueError(f"w0 must be >= 1, got {self.w0}")
        if self.delta_w <= 0.0:
            raise ValueError(f"delta_w must be > 0, got {self.delta_w}")
        if self.epsilon is not None and self.epsilon < 1.0:
            raise ValueError(f"epsilon must be >= 1, got {self.epsilon}")
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")
        if self.time_budget < 0.0:
            raise ValueError("time_budget must be non-negative")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1 when given")

    def epsilon_for(self, w: float) -> float:
        return w if self.epsilon is None else self.epsilon


@dataclass(frozen=True)
class SolutionRecord:
    """One published incumbent: the path, its cost, and the suboptimality
    bound max(eps, w) proved for it at publication time."""

    path: Path
    cost: float
    w_at_publish: float
    bound_lambda: float
    t_since_plan_start: float
    iteration_index: int


@dataclass(frozen=True)
class IterationStats:
    w: float
    eps: float
    n_dummy_expansions: int
    n_real_expansions: int
    n_incon_end: int
    wall_time: float
    outcome: str


@dataclass
class PlanResult:
    records: list[SolutionRecord]
    status: str
    iterations: list[IterationStats] = field(default_factory=list)
    events: list[ExpansionEvent] = field(default_factory=list)
    wall_time: float = 0.0
    unjustified_reexpansions: int = 0
    context: SearchState | None = None  # white-box access for audits
    trace: list | None = None  # pop sequence, when the caller asked for one

    @property
    def final_cost(self) -> float:
        return self.records[-1].cost if self.records else INF

    @property
    def published_costs(self) -> list[float]:
        return [r.cost for r in self.records]

    @property
    def expansions_per_iteration(self) -> list[int]:
        return [it.n_dummy_expansions + it.n_real_expansions for it in self.iterations]


def weight_schedule(w0: float, delta_w: float) -> list[float]:
    """Decreasing weights w0, w0 - delta_w, ...; the first step at or below
    1 (within float tolerance) is clamped to exactly 1 and ends the
    schedule, so a final uninflated pass always runs."""
    if w0 < 1.0:
        raise ValueError(f"w0 must be >= 1, got {w0}")
    if delta_w <= 0.0:
        raise ValueError(f"delta_w must be > 0, got {delta_w}")
    weights: list[float] = []
    k = 0
    while True:
        w = w0 - k * delta_w
        if w <= 1.0 + _CLAMP_TOL:
            weights.append(1.0)
            return weights
        weights.append(w)
        k += 1


def publish(sink, record: SolutionRecord) -> None:
    """Deliver a record to a callback or collection sink (ordered, before
    the next iteration starts).  Sinks must be fast or copy-and-defer."""
    if sink is None:
        return
    append = getattr(sink, "append", None)
    if append is not None:
        append(record)
    else:
        sink(record)


def run_anytime(config: PlannerConfig, run_pass: Callable, *, sink=None) -> PlanResult:
    """The anytime loop of :func:`plan`, :func:`plan_naive` and ``ara_star``.

    ``run_pass(index, w, eps, deadline)`` runs one pass of the (truncated)
    weight schedule and returns its :class:`ImproveOutcome`, its
    :class:`IterationStats` list and the path it found, or None when the
    incumbent stands.  Each solved pass publishes one record.
    """
    t0 = time.monotonic()
    deadline = t0 + config.time_budget
    schedule = weight_schedule(config.w0, config.delta_w)[: config.max_iterations]
    result = PlanResult(records=[], status=STATUS_TIMEOUT)
    for i, w in enumerate(schedule):
        if time.monotonic() >= deadline:
            break
        eps = config.epsilon_for(w)
        outcome, stats, path = run_pass(i, w, eps, deadline)
        result.iterations += stats
        if outcome is not ImproveOutcome.SOLVED:
            if outcome is ImproveOutcome.EXHAUSTED:
                result.status = STATUS_INFEASIBLE
            break
        if path is None or path.cost >= result.final_cost:
            path = result.records[-1].path  # the incumbent stands
        record = SolutionRecord(
            path=path, cost=path.cost, w_at_publish=w, bound_lambda=max(eps, w),
            t_since_plan_start=time.monotonic() - t0, iteration_index=i)
        result.records.append(record)
        publish(sink, record)
    else:
        last_w = schedule[-1]
        if last_w == 1.0 and config.epsilon_for(last_w) == 1.0:
            result.status = STATUS_PROVED_OPTIMAL
        else:
            result.status = STATUS_COMPLETED_BOUNDED
    result.wall_time = time.monotonic() - t0
    return result


def repair_passes(state: SearchState,
                  improve: Callable[[SearchState], ImproveOutcome]) -> Callable:
    """The passes of one search state repaired from pass to pass.

    Each pass reopens CLOSED, folds INCON into OPEN, re-keys OPEN, runs
    ``improve`` and backtracks from the goal.  A pass that expanded nothing
    changed no g and no parent, so it skips the backtrack.
    """
    def run_pass(index: int, w: float, eps: float, deadline: float):
        state.deadline = deadline
        state.begin_pass(index, w, eps)
        # merge_incons and backtrack are called by this module's names (and
        # plan passes improve_path by its name), which perfbench/bench_trace.py
        # wraps to time each layer
        merge_incons(state.open, state.incons, state.nodes, w)
        state.open.rebalance(w, state.nodes)
        t0 = time.monotonic()
        outcome = improve(state)
        n_dummy, n_real = state.iter_dummy_expansions, state.iter_real_expansions
        stats = IterationStats(w, eps, n_dummy, n_real, len(state.incons),
                               time.monotonic() - t0, outcome.value)
        path = None
        if outcome is ImproveOutcome.SOLVED and n_dummy + n_real:
            path = backtrack(state, state.goal_found)
        return outcome, [stats], path
    return run_pass


def plan(config: PlannerConfig, domain: SearchDomain, start: int, *,
         sink=None, log_events: bool = False, debug_checks: bool = False) -> PlanResult:
    """Run the anytime parallel search to completion, timeout or proof.

    Emits one :class:`SolutionRecord` per completed pass that holds a
    solution (the incumbent is kept between passes and only improved).
    Workers are joined before this function returns.  ``log_events`` keeps
    the per-event expansion log in ``PlanResult.events``; it is off by
    default because it adds about a quarter to the plan time of a large
    zero-delay instance.

    Deadline: once ``config.time_budget`` has passed, the running pass pops
    no more edges and waits for the evaluations in flight, so ``plan``
    returns within the budget plus the longest ``evaluate`` call then in
    flight (and the sink's and the coordinator's own time).  An
    ``evaluate`` that never returns keeps ``plan`` from returning.
    """
    t0 = time.monotonic()
    ctx = EpisodeContext(domain, start, config.n_threads,
                         log_enabled=log_events, debug_checks=debug_checks)
    seed_open_with_start(ctx, config.w0)
    try:
        result = run_anytime(config, repair_passes(ctx, improve_path), sink=sink)
    finally:
        shutdown(ctx)
    return replace(result, events=ctx.events, wall_time=time.monotonic() - t0,
                   unjustified_reexpansions=ctx.unjustified_reexpansions, context=ctx)


def plan_naive(config: PlannerConfig, problem_factory: Callable[[], tuple[SearchDomain, int]],
               *, sink=None) -> PlanResult:
    """Anytime-by-restart reference: run one fresh bounded-suboptimal search
    per schedule weight, without reusing any earlier search effort.

    ``problem_factory`` must build an independent episode (fresh domain
    instance and start handle) per call, so edge evaluations are not shared
    between restarts.  Publishes the best-so-far incumbent per weight.
    """
    outcomes = {STATUS_TIMEOUT: ImproveOutcome.TIMEOUT,
                STATUS_INFEASIBLE: ImproveOutcome.EXHAUSTED}

    def run_pass(index: int, w: float, eps: float, deadline: float):
        domain, start = problem_factory()
        sub = replace(config, w0=w, max_iterations=1,
                      time_budget=max(0.0, deadline - time.monotonic()))
        result = plan(sub, domain, start)
        path = result.records[0].path if result.records else None
        return outcomes.get(result.status, ImproveOutcome.SOLVED), result.iterations, path

    return run_anytime(config, run_pass, sink=sink)
