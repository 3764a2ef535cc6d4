"""Outer anytime control loop: weight schedule, per-iteration reset, INCON
merge, OPEN rebalance, solution publication and termination.  One driver,
:func:`run_anytime`, runs the passes of :func:`plan`, :func:`plan_naive`
and the serial ``baselines.ara_star`` and ``baselines.wastar``."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Callable, Iterator

from .domain import Path, SearchDomain
from .engine import EpisodeContext, improve_path, shutdown
from .search import ExpansionEvent, ImproveOutcome, SearchState, backtrack
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
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        _check_schedule(self.w0, self.delta_w)
        if self.epsilon is not None and not self.epsilon >= 1.0:
            raise ValueError(f"epsilon must be >= 1 or inf, got {self.epsilon}")
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")
        if not self.time_budget >= 0.0:
            raise ValueError(f"time_budget must be >= 0 or inf, got {self.time_budget}")
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
    #: the anytime loop's time, on the clock of every ``t_since_plan_start``
    wall_time: float = 0.0
    context: SearchState | None = None  # white-box access for audits

    @property
    def events(self) -> list[ExpansionEvent]:
        return self.context.events if self.context is not None else []

    @property
    def final_cost(self) -> float:
        return self.records[-1].cost if self.records else INF

    @property
    def expansions_per_iteration(self) -> list[int]:
        return [it.n_dummy_expansions + it.n_real_expansions for it in self.iterations]


def _check_schedule(w0: float, delta_w: float) -> None:
    # ``not`` so that NaN fails too: with a NaN w0 or delta_w, or an
    # infinite w0, the schedule would never reach 1 and grow without end
    if not 1.0 <= w0 < INF:
        raise ValueError(f"w0 must be finite and >= 1, got {w0}")
    if not 0.0 < delta_w < INF:
        raise ValueError(f"delta_w must be finite and > 0, got {delta_w}")


def weight_schedule(w0: float, delta_w: float) -> list[float]:
    """Decreasing weights w0, w0 - delta_w, ...; the first step at or below
    1 (within float tolerance) is clamped to exactly 1 and ends the
    schedule, so a final uninflated pass always runs."""
    return list(_weights(w0, delta_w))


def _weights(w0: float, delta_w: float) -> Iterator[float]:
    _check_schedule(w0, delta_w)
    for k in count():
        w = w0 - k * delta_w
        if w <= 1.0 + _CLAMP_TOL:
            yield 1.0
            return
        yield w


def run_anytime(config: PlannerConfig, run_pass: Callable, *,
                sink: Callable[[SolutionRecord], None] | None = None,
                context: SearchState | None = None) -> PlanResult:
    """The anytime loop of every driver, and the only code that builds a
    :class:`PlanResult` or a record, reads the run clock or decides a status.

    ``run_pass(index, w, eps, deadline)`` runs one pass of the (truncated)
    weight schedule and returns its :class:`ImproveOutcome`, its
    :class:`IterationStats` and the path it found, or None when the
    incumbent stands.  Each solved pass publishes one record: ``sink``, a
    callable or None, gets it before the next pass starts, so a sink must be
    fast or copy and defer (pass ``bucket.append`` to collect the records).
    ``context``, the passes' search state, is kept on the result.
    """
    t0 = time.monotonic()
    deadline = t0 + config.time_budget
    result = PlanResult(records=[], status=STATUS_TIMEOUT, context=context)
    for i, w in enumerate(islice(_weights(config.w0, config.delta_w), config.max_iterations)):
        if time.monotonic() >= deadline:
            break
        eps = config.epsilon_for(w)
        outcome, stats, path = run_pass(i, w, eps, deadline)
        result.iterations.append(stats)
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
        if sink is not None:
            sink(record)
    else:  # the last pass ran at this w and eps
        result.status = STATUS_PROVED_OPTIMAL if w == eps == 1.0 else STATUS_COMPLETED_BOUNDED
    result.wall_time = time.monotonic() - t0
    return result


def repair_passes(state: SearchState,
                  improve: Callable[[SearchState], ImproveOutcome]) -> Callable:
    """The passes of one search state repaired from pass to pass.

    Each pass reopens CLOSED, folds INCON into OPEN (the first pass's fold
    seeds the start), re-keys OPEN, runs ``improve`` and backtracks from the
    goal.  A pass that expanded nothing changed no g and no parent, so it
    skips the backtrack.
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
        return outcome, stats, path
    return run_pass


def plan(config: PlannerConfig, domain: SearchDomain, start: int, *,
         sink=None, log_events: bool = False) -> PlanResult:
    """Run the anytime parallel search to completion, timeout or proof.

    Emits one :class:`SolutionRecord` per completed pass that holds a
    solution (the incumbent is kept between passes and only improved).
    Workers are joined before this function returns; ``wall_time``, like
    the records' times, leaves out the episode build and the join.  The
    episode build reads the start's heuristic, so a table the domain builds
    lazily on its first heuristic call (the grid's relaxed cost to the
    goal) is part of it: the call's own wall time includes it.
    ``log_events`` keeps the per-event expansion log in ``PlanResult.events``;
    it is off by default because it adds about a quarter to the plan time
    of a large zero-delay instance.

    Deadline: once ``config.time_budget`` has passed, the running pass pops
    no more edges and waits for the evaluations in flight, so ``plan``
    returns within the budget plus the longest ``evaluate`` call then in
    flight (and the sink's and the coordinator's own time).  An ``evaluate``
    still running ``engine.DRAIN_GRACE`` past the deadline is an
    ``EngineError`` naming its edge; its worker is left to stop when it
    returns.
    """
    ctx = EpisodeContext(domain, start, config.n_threads, log_enabled=log_events)
    try:
        return run_anytime(config, repair_passes(ctx, improve_path), sink=sink, context=ctx)
    finally:
        shutdown(ctx)


def plan_naive(config: PlannerConfig, domain: SearchDomain, start: int, *,
               sink=None) -> PlanResult:
    """Anytime-by-restart reference: run one fresh bounded-suboptimal search
    per schedule weight, without reusing any earlier search effort.

    Each restart is one pass on a fresh episode, with its own edge cache and
    workers, so restarts share no evaluations.  Publishes the best-so-far
    incumbent per weight.
    """
    def run_pass(index: int, w: float, eps: float, deadline: float):
        ctx = EpisodeContext(domain, start, config.n_threads)
        try:
            return repair_passes(ctx, improve_path)(index, w, eps, deadline)
        finally:
            shutdown(ctx)

    return run_anytime(config, run_pass, sink=sink)
