"""Serial reference searches: an exhaustive Dijkstra oracle, classic
weighted A* (also run as ``wastar``), and a serial anytime-repair search.

These double as experiment baselines and as correctness oracles for the
parallel engine.  Dijkstra and weighted A* share only the domain contract
(its outcome check included) and the parent walk with it, keep no edge
cache, and each publishes its own cost-to-come, so they stay independent
checks of its costs.
``ara_star`` is the serial, lock-free driver over the engine's
:class:`~anyplan.search.SearchState`: it checks the parallel machinery.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace

from .controller import IterationStats, PlannerConfig, PlanResult, repair_passes, run_anytime
from .domain import (
    Edge,
    Path,
    SearchDomain,
    SuccessorOutcome,
    checked_actions,
    checked_heuristic,
    checked_outcome,
)
from .search import ImproveOutcome, SearchState, walk_parents
from .structures import INF


@dataclass(frozen=True)
class OracleResult:
    cost: float
    path: Path | None
    expansions: int


def _dijkstra(domain: SearchDomain, start: int, is_goal
              ) -> tuple[int | None, dict[int, float], dict[int, Edge],
                         dict[Edge, SuccessorOutcome], int]:
    """Settle states in cost order from ``start`` until ``is_goal`` accepts
    one, or with ``is_goal=None`` until every reachable state is settled.

    Returns the goal settled (or None), the cost-to-come of every state
    reached (exact for the settled ones), the edge that reached each of
    them, the outcome of each such parent edge and the number of states
    settled.  A state is settled once, so each of its edges is evaluated
    once; every valid outcome is checked against the domain contract, and
    only a parent edge's is kept.
    """
    dist = {start: 0.0}
    parents: dict[int, Edge] = {}
    kept: dict[Edge, SuccessorOutcome] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, start)]
    evaluate = domain.evaluate
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        d, s = heappop(heap)
        if s in settled:
            continue
        settled.add(s)
        if is_goal is not None and is_goal(s):
            return s, dist, parents, kept, len(settled)
        for a in checked_actions(domain, s):
            outcome = checked_outcome(s, a, evaluate(s, a))
            valid, t, cost = outcome
            if not valid or t in settled:
                continue
            nd = d + cost
            if nd < dist.get(t, INF):
                dist[t] = nd
                parents[t] = edge = Edge(s, a)
                kept[edge] = outcome
                heappush(heap, (nd, t))
    return None, dist, parents, kept, len(settled)


def dijkstra_distances(domain: SearchDomain, start: int) -> dict[int, float]:
    """Exact cost-to-come of every state reachable from ``start``."""
    return _dijkstra(domain, start, None)[1]


def dijkstra_oracle(domain: SearchDomain, start: int) -> OracleResult:
    """Exhaustive uniform-cost search; the ground-truth optimal cost.

    No heuristic is consulted.  An unreachable goal region yields cost inf
    and no path.
    """
    goal, dist, parents, kept, expansions = _dijkstra(domain, start, domain.is_goal)
    if goal is None:
        return OracleResult(INF, None, expansions)
    return OracleResult(dist[goal], walk_parents(kept, parents.get, start, goal), expansions)


def weighted_astar(domain: SearchDomain, start: int, w: float = 1.0) -> OracleResult:
    """Classic state-based weighted A*: f = g + w*h, closed states are
    never re-expanded, ties break on (f, h, state).  ``w`` must be finite
    and >= 1.  As in :func:`_dijkstra`, every valid outcome is checked and
    only a parent edge's is kept."""
    if not 1.0 <= w < INF:
        raise ValueError(f"w must be finite and >= 1, got {w}")
    g = {start: 0.0}
    parents: dict[int, Edge] = {}
    kept: dict[Edge, SuccessorOutcome] = {}
    closed: set[int] = set()
    h0 = checked_heuristic(domain, start)
    heap: list[tuple[float, float, int]] = [(w * h0, h0, start)]
    # a state is expanded once, so each of its edges is evaluated once
    evaluate = domain.evaluate
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        _f, _h, s = heappop(heap)
        if s in closed:
            continue
        closed.add(s)
        if domain.is_goal(s):
            return OracleResult(g[s], walk_parents(kept, parents.get, start, s), len(closed))
        gs = g[s]
        for a in checked_actions(domain, s):
            outcome = checked_outcome(s, a, evaluate(s, a))
            valid, t, cost = outcome
            if not valid or t in closed:
                continue
            ng = gs + cost
            if ng < g.get(t, INF):
                g[t] = ng
                parents[t] = edge = Edge(s, a)
                kept[edge] = outcome
                hs = checked_heuristic(domain, t)
                heappush(heap, (ng + w * hs, hs, t))
    return OracleResult(INF, None, len(closed))


def wastar(config: PlannerConfig, domain: SearchDomain, start: int, *,
           sink=None) -> PlanResult:
    """:func:`weighted_astar` at ``config.w0`` as a one-pass anytime run,
    timed and given its status as every driver is.  A state expansion counts
    as a dummy expansion; the published cost is the goal's cost-to-come."""
    def run_pass(index: int, w: float, eps: float, deadline: float):
        t0 = time.monotonic()
        res = weighted_astar(domain, start, w)
        outcome = ImproveOutcome.EXHAUSTED if res.path is None else ImproveOutcome.SOLVED
        stats = IterationStats(w, eps, res.expansions, 0, 0, time.monotonic() - t0,
                               outcome.value)
        return outcome, stats, None if res.path is None else replace(res.path, cost=res.cost)

    return run_anytime(replace(config, max_iterations=1), run_pass, sink=sink)


def ara_star(config: PlannerConfig, domain: SearchDomain, start: int, *,
             sink=None, log_events: bool = False) -> PlanResult:
    """Serial anytime repairing search over the same edge-expansion
    discipline and anytime driver as the parallel engine, minus all
    parallel machinery: each pass pops OPEN's minimum until the incumbent's
    priority is no worse than it.  With the shared tie-break rule this
    yields the same published costs as the parallel engine at one thread,
    which is what makes it a useful cross-engine oracle.

    ``log_events`` keeps the expansion log in ``result.events``, as in
    ``plan``; a one-worker ``plan`` logs the same event sequence.
    """
    state = SearchState(domain, start, log_enabled=log_events)

    def improve(state: SearchState) -> ImproveOutcome:
        while True:
            if time.monotonic() >= state.deadline:
                return ImproveOutcome.TIMEOUT
            if state.goal_found is not None and state.goal_g() <= state.open.min_f():
                state.recollapse()
                return ImproveOutcome.SOLVED
            if state.open.min_f() == INF:
                return ImproveOutcome.EXHAUSTED
            edge = state.open.pop_min()
            if state.expand(edge, 0):
                state.land(edge, domain.evaluate(edge.state, edge.action), 0)

    return run_anytime(config, repair_passes(state, improve), sink=sink, context=state)
