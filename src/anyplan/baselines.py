"""Serial reference searches: an exhaustive Dijkstra oracle, classic
weighted A*, and a serial anytime-repair search.

These double as experiment baselines and as correctness oracles for the
parallel engine.  Dijkstra and weighted A* share only the domain contract
and the edge cache with it, so they stay independent checks of its costs.
``ara_star`` is the serial, lock-free driver over the engine's
:class:`~anyplan.search.SearchState`: it checks the parallel machinery.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from .controller import PlannerConfig, PlanResult, repair_passes, run_anytime
from .domain import DUMMY_ACTION, Edge, EdgeCache, Path, SearchDomain
from .search import ImproveOutcome, SearchState, seed_open_with_start
from .structures import INF


@dataclass(frozen=True)
class OracleResult:
    cost: float
    path: Path | None
    expansions: int


def _reconstruct(cache: EdgeCache, parents: dict[int, Edge], start: int, goal: int) -> Path:
    edges: list[Edge] = []
    states: list[int] = [goal]
    cost = 0.0
    current = goal
    while current != start:
        edge = parents[current]
        outcome = cache.get(edge)
        assert outcome is not None and outcome.valid and outcome.successor == current
        cost += outcome.cost
        edges.append(edge)
        current = edge.state
        states.append(current)
    edges.reverse()
    states.reverse()
    return Path(edges=tuple(edges), states=tuple(states), cost=cost)


def dijkstra_distances(domain: SearchDomain, start: int,
                       cache: EdgeCache | None = None) -> dict[int, float]:
    """Exact cost-to-come of every state reachable from ``start``."""
    if cache is None:
        cache = EdgeCache()
    dist = {start: 0.0}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, start)]
    while heap:
        d, s = heapq.heappop(heap)
        if s in settled:
            continue
        settled.add(s)
        for a in domain.actions(s):
            out = cache.evaluate(domain, Edge(s, a))
            if not out.valid or out.successor in settled:
                continue
            nd = d + out.cost
            if nd < dist.get(out.successor, INF):
                dist[out.successor] = nd
                heapq.heappush(heap, (nd, out.successor))
    return dist


def dijkstra_oracle(domain: SearchDomain, start: int, goal_predicate=None,
                    cache: EdgeCache | None = None) -> OracleResult:
    """Exhaustive uniform-cost search; the ground-truth optimal cost.

    No heuristic is consulted.  An unreachable goal region yields cost inf
    and no path.
    """
    goal_predicate = goal_predicate or domain.is_goal
    if cache is None:
        cache = EdgeCache()
    dist = {start: 0.0}
    parents: dict[int, Edge] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, start)]
    expansions = 0
    while heap:
        d, s = heapq.heappop(heap)
        if s in settled:
            continue
        settled.add(s)
        expansions += 1
        if goal_predicate(s):
            return OracleResult(d, _reconstruct(cache, parents, start, s), expansions)
        for a in domain.actions(s):
            out = cache.evaluate(domain, Edge(s, a))
            if not out.valid or out.successor in settled:
                continue
            nd = d + out.cost
            if nd < dist.get(out.successor, INF):
                dist[out.successor] = nd
                parents[out.successor] = Edge(s, a)
                heapq.heappush(heap, (nd, out.successor))
    return OracleResult(INF, None, expansions)


def weighted_astar(domain: SearchDomain, start: int, w: float = 1.0,
                   goal_predicate=None, cache: EdgeCache | None = None) -> OracleResult:
    """Classic state-based weighted A*: f = g + w*h, closed states are
    never re-expanded, ties break on (f, h, state)."""
    if w < 1.0:
        raise ValueError(f"w must be >= 1, got {w}")
    goal_predicate = goal_predicate or domain.is_goal
    if cache is None:
        cache = EdgeCache()
    g = {start: 0.0}
    parents: dict[int, Edge] = {}
    closed: set[int] = set()
    h0 = domain.heuristic(start)
    heap: list[tuple[float, float, int]] = [(w * h0, h0, start)]
    expansions = 0
    while heap:
        _f, _h, s = heapq.heappop(heap)
        if s in closed:
            continue
        closed.add(s)
        expansions += 1
        if goal_predicate(s):
            return OracleResult(g[s], _reconstruct(cache, parents, start, s), expansions)
        gs = g[s]
        for a in domain.actions(s):
            out = cache.evaluate(domain, Edge(s, a))
            if not out.valid or out.successor in closed:
                continue
            ng = gs + out.cost
            if ng < g.get(out.successor, INF):
                g[out.successor] = ng
                parents[out.successor] = Edge(s, a)
                hs = domain.heuristic(out.successor)
                heapq.heappush(heap, (ng + w * hs, hs, out.successor))
    return OracleResult(INF, None, expansions)


def ara_star(config: PlannerConfig, domain: SearchDomain, start: int, *,
             sink=None, collect_trace: bool = False) -> PlanResult:
    """Serial anytime repairing search over the same edge-expansion
    discipline and anytime driver as the parallel engine, minus all
    parallel machinery: each pass pops OPEN's minimum until the incumbent's
    priority is no worse than it.  With the shared tie-break rule this
    yields the same published costs as the parallel engine at one thread,
    which is what makes it a useful cross-engine oracle.

    ``collect_trace`` records every popped (iteration, state, action) in
    ``result.trace``.
    """
    state = SearchState(domain, start)
    seed_open_with_start(state, config.w0)
    trace: list[tuple[int, int, int]] | None = [] if collect_trace else None

    def improve(state: SearchState) -> ImproveOutcome:
        while True:
            if time.monotonic() >= state.deadline:
                return ImproveOutcome.TIMEOUT
            if state.goal_found is not None and state.goal_g() <= state.open.min_f():
                state.recollapse()
                return ImproveOutcome.SOLVED
            if not state.open:
                return ImproveOutcome.EXHAUSTED
            edge = state.open.pop_min()
            if trace is not None:
                trace.append((state.iteration, edge.state, edge.action))
            state.begin_expansion(edge, 0)
            if edge.action == DUMMY_ACTION:
                state.spill(edge.state, 0)
            else:
                state.relax(edge, state.cache.evaluate(domain, edge), 0)

    result = run_anytime(config, repair_passes(state, improve), sink=sink)
    result.unjustified_reexpansions = state.unjustified_reexpansions
    result.trace = trace
    return result
