"""Outer anytime control loop: weight schedule, per-iteration reset, INCON
merge, OPEN rebalance, solution publication and termination."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from .domain import Path, SearchDomain
from .engine import (
    EpisodeContext,
    ExpansionEvent,
    ImproveOutcome,
    backtrack,
    improve_path,
    seed_open_with_start,
    shutdown,
)
from .structures import INF, merge_incons

#: The single implemented tie-break rule: equal priorities order by smaller
#: h, then smaller state handle, then smaller action id.
TIE_BREAK_RULE = "f_h_state_action"

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
    tie_break: str = TIE_BREAK_RULE
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
        if self.tie_break != TIE_BREAK_RULE:
            raise ValueError(f"unknown tie-break rule {self.tie_break!r}")
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
    context: EpisodeContext | None = None  # white-box access for audits
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


def plan(config: PlannerConfig, domain: SearchDomain, start: int, *,
         sink=None, log_events: bool = False, debug_checks: bool = False) -> PlanResult:
    """Run the anytime parallel search to completion, timeout or proof.

    Emits one :class:`SolutionRecord` per completed pass that holds a
    solution (the incumbent is kept between passes and only improved).
    Workers are joined before this function returns.  ``log_events`` keeps
    the per-event expansion log in ``PlanResult.events``; it is off by
    default because it adds about a quarter to the plan time of a large
    zero-delay instance.
    """
    t0 = time.monotonic()
    deadline = t0 + config.time_budget
    schedule = weight_schedule(config.w0, config.delta_w)
    if config.max_iterations is not None:
        schedule = schedule[: config.max_iterations]

    ctx = EpisodeContext(domain, start, config.n_threads, deadline=deadline,
                         log_enabled=log_events, debug_checks=debug_checks)
    seed_open_with_start(ctx, schedule[0])

    records: list[SolutionRecord] = []
    iterations: list[IterationStats] = []
    status: str | None = None
    best_path: Path | None = None
    best_cost = INF
    try:
        for i, w in enumerate(schedule):
            if time.monotonic() >= deadline:
                status = STATUS_TIMEOUT
                break
            eps = config.epsilon_for(w)
            _begin_iteration(ctx, i, w, eps)
            it_t0 = time.monotonic()
            outcome = improve_path(ctx)
            iterations.append(IterationStats(
                w=w, eps=eps,
                n_dummy_expansions=ctx.iter_dummy_expansions,
                n_real_expansions=ctx.iter_real_expansions,
                n_incon_end=len(ctx.incons),
                wall_time=time.monotonic() - it_t0,
                outcome=outcome.value,
            ))
            if outcome is ImproveOutcome.TIMEOUT:
                status = STATUS_TIMEOUT
                break
            if outcome is ImproveOutcome.EXHAUSTED:
                status = STATUS_INFEASIBLE
                break
            path = backtrack(ctx, ctx.goal_found)
            if path.cost < best_cost:
                best_path, best_cost = path, path.cost
            record = SolutionRecord(
                path=best_path, cost=best_cost, w_at_publish=w,
                bound_lambda=max(eps, w),
                t_since_plan_start=time.monotonic() - t0,
                iteration_index=i)
            records.append(record)
            publish(sink, record)
        else:
            last_w = schedule[-1]
            if last_w == 1.0 and config.epsilon_for(last_w) == 1.0:
                status = STATUS_PROVED_OPTIMAL
            else:
                status = STATUS_COMPLETED_BOUNDED
    finally:
        shutdown(ctx)

    return PlanResult(
        records=records, status=status or STATUS_TIMEOUT,
        iterations=iterations, events=ctx.events,
        wall_time=time.monotonic() - t0,
        unjustified_reexpansions=ctx.unjustified_reexpansions,
        context=ctx)


def _begin_iteration(ctx: EpisodeContext, index: int, w: float, eps: float) -> None:
    """Per-pass reset: clear CLOSED, fold INCON into OPEN, re-key OPEN."""
    ctx.iteration = index
    ctx.w = w
    ctx.eps = eps
    ctx.iter_dummy_expansions = 0
    ctx.iter_real_expansions = 0
    for s in ctx.closed:
        ctx.nodes[s].in_closed = False
    ctx.closed.clear()
    merge_incons(ctx.open, ctx.incons, ctx.nodes, w)
    ctx.open.rebalance(w, ctx.nodes)


def plan_naive(config: PlannerConfig, problem_factory: Callable[[], tuple[SearchDomain, int]],
               *, sink=None) -> PlanResult:
    """Anytime-by-restart reference: run one fresh bounded-suboptimal search
    per schedule weight, without reusing any earlier search effort.

    ``problem_factory`` must build an independent episode (fresh domain
    instance and start handle) per call, so edge evaluations are not shared
    between restarts.  Publishes the best-so-far incumbent per weight.
    """
    t0 = time.monotonic()
    deadline = t0 + config.time_budget
    schedule = weight_schedule(config.w0, config.delta_w)
    if config.max_iterations is not None:
        schedule = schedule[: config.max_iterations]

    records: list[SolutionRecord] = []
    iterations: list[IterationStats] = []
    status: str | None = None
    best_path: Path | None = None
    best_cost = INF
    for i, w in enumerate(schedule):
        now = time.monotonic()
        if now >= deadline:
            status = STATUS_TIMEOUT
            break
        domain, start = problem_factory()
        sub = replace(config, w0=w, epsilon=config.epsilon, max_iterations=1,
                      time_budget=deadline - now)
        result = plan(sub, domain, start)
        for it in result.iterations:
            iterations.append(it)
        if result.status == STATUS_INFEASIBLE:
            status = STATUS_INFEASIBLE
            break
        if result.status == STATUS_TIMEOUT:
            status = STATUS_TIMEOUT
            break
        fresh = result.records[0]
        if fresh.cost < best_cost:
            best_path, best_cost = fresh.path, fresh.cost
        record = SolutionRecord(
            path=best_path, cost=best_cost, w_at_publish=w,
            bound_lambda=fresh.bound_lambda,
            t_since_plan_start=time.monotonic() - t0,
            iteration_index=i)
        records.append(record)
        publish(sink, record)
    else:
        last_w = schedule[-1]
        if last_w == 1.0 and config.epsilon_for(last_w) == 1.0:
            status = STATUS_PROVED_OPTIMAL
        else:
            status = STATUS_COMPLETED_BOUNDED

    return PlanResult(records=records, status=status or STATUS_TIMEOUT,
                      iterations=iterations, wall_time=time.monotonic() - t0)
