import math
import re
from dataclasses import replace

import pytest

from anyplan.baselines import (
    ara_star,
    dijkstra_distances,
    dijkstra_oracle,
    wastar,
    weighted_astar,
)
from anyplan.controller import PlannerConfig, plan
from anyplan.domain import (
    DUMMY_ACTION,
    DomainError,
    Edge,
    INVALID_OUTCOME,
    EdgeCache,
    Path,
    StateInterner,
    SuccessorOutcome,
)
from anyplan.search import EVENT_DUMMY_EXPAND

from _support import (
    audit_consistency,
    CountingDomain,
    ToyGraphDomain,
    all_pairs_optimal,
    assert_no_leaked_workers,
    grid_problem,
    open_world,
    rewalk_cost,
)


def chain_domain():
    # 0 -> 1 -> 2, plus an invalid action on 0
    coords = {0: (0, 0), 1: (1, 0), 2: (2, 0)}
    edges = {0: [(1, 2.0), (None, 0.0)], 1: [(2, 3.0)], 2: []}
    return ToyGraphDomain(coords, edges, goals={2})


@pytest.mark.parametrize("action,expected", [(0, SuccessorOutcome(True, 1, 2.0)),
                                             (1, INVALID_OUTCOME)])
def test_cache_keeps_a_stored_outcome_as_one_miss(action, expected):
    # an invalid edge is an outcome like any other, not an error
    domain = chain_domain()
    cache = EdgeCache()
    edge = Edge(0, action)
    assert cache.get(edge) is None
    outcome = domain.evaluate(0, action)
    assert cache.store(domain, edge, outcome) is outcome
    assert outcome == expected
    assert cache.get(edge) is outcome and cache.get(Edge(1, 0)) is None
    assert cache.misses == 1 and cache.hits == 0
    assert cache.lookup(edge) is outcome and cache.lookup(Edge(1, 0)) is None
    assert cache.hits == 1


def test_the_domain_is_evaluated_once_per_cache_miss():
    # at cost seed 7 later passes pop again edges an earlier pass evaluated
    world = open_world(18, footprint=2, move=2, cost="random_factor", cost_seed=7)
    caches = {}
    for name, driver, n_threads in (("ara_star", ara_star, 1), ("plan-1", plan, 1),
                                    ("plan-4", plan, 4)):
        problem = grid_problem(world, (0, 0), (14, 14))
        domain = CountingDomain(problem)
        result = driver(PlannerConfig(w0=50.0, delta_w=0.5, n_threads=n_threads),
                        domain, problem.start)
        assert result.status == "proved_optimal"
        assert domain.calls == result.context.cache.misses
        caches[name] = result.context.cache
    assert caches["plan-4"].hits > 0
    # a one-worker plan replays the serial search
    assert caches["plan-1"].hits == caches["ara_star"].hits > 0
    assert_no_leaked_workers()


BAD_FIRST_EDGES = [((1, math.nan), "cost nan"), ((1, -1.0), "cost -1.0"),
                   ((1, math.inf), "cost inf"), ((1.0, 2.0), "successor 1.0")]


def bad_first_edge_domain(first_edge):
    # 0 -> 1 -> 2 with the goal reachable; only the first edge breaks the contract
    coords = {0: (0, 0), 1: (1, 0), 2: (2, 0)}
    return ToyGraphDomain(coords, {0: [first_edge], 1: [(2, 3.0)], 2: []}, goals={2})


@pytest.mark.parametrize("first_edge,what", BAD_FIRST_EDGES)
@pytest.mark.parametrize("n_threads", [1, 2])
def test_plan_names_an_outcome_outside_the_contract(first_edge, what, n_threads):
    domain = bad_first_edge_domain(first_edge)
    with pytest.raises(DomainError, match=rf"Edge\(state=0, action=0\): {what}"):
        plan(PlannerConfig(w0=1.0, n_threads=n_threads), domain, 0)
    assert_no_leaked_workers()


class BadHeuristicChain(ToyGraphDomain):
    """0 -> 1 -> 2 with the goal reachable; h(bad_state) breaks the contract."""

    def __init__(self, bad_state, h):
        super().__init__({0: (0, 0), 1: (1, 0), 2: (2, 0)},
                         {0: [(1, 2.0)], 1: [(2, 3.0)], 2: []}, goals={2})
        self.bad_state = bad_state
        self.h = h

    def heuristic(self, state):
        return self.h if state == self.bad_state else super().heuristic(state)


def run_search(search, domain, config=PlannerConfig(w0=1.0), **kwargs):
    """Run ``search`` from state 0 of ``domain``: ``plan-<n>`` is ``plan``
    at n workers; ``kwargs`` go to the repair searches."""
    if search == "dijkstra_oracle":
        return dijkstra_oracle(domain, 0)
    if search == "weighted_astar":
        return weighted_astar(domain, 0, config.w0)
    if search in ("ara_star", "wastar"):
        return {"ara_star": ara_star, "wastar": wastar}[search](config, domain, 0, **kwargs)
    return plan(replace(config, n_threads=int(search[-1])), domain, 0, **kwargs)


@pytest.mark.parametrize("h,what", [(math.nan, "nan"), (-1.0, "-1.0")])
@pytest.mark.parametrize("bad_state", [0, 1])
@pytest.mark.parametrize("planner", ["plan-1", "plan-2", "ara_star", "wastar", "weighted_astar"])
def test_a_heuristic_outside_the_contract_is_named(h, what, bad_state, planner):
    with pytest.raises(DomainError, match=rf"state {bad_state}: heuristic {what}"):
        run_search(planner, BadHeuristicChain(bad_state, h))
    assert_no_leaked_workers()


class HostileActions(ToyGraphDomain):
    """0 -> 1 -> 2 with the goal reachable; state 1 lists ``listing``."""

    def __init__(self, listing):
        super().__init__({0: (0, 0), 1: (1, 0), 2: (2, 0)},
                         {0: [(1, 2.0)], 1: [(2, 3.0)], 2: []}, goals={2})
        self.listing = listing

    def actions(self, state):
        return self.listing if state == 1 else super().actions(state)


@pytest.mark.parametrize("listing", [(0, DUMMY_ACTION), (DUMMY_ACTION,), (0, 0)])
@pytest.mark.parametrize("search", ["plan-1", "plan-2", "ara_star", "dijkstra_oracle",
                                    "weighted_astar", "wastar"])
def test_an_action_listing_outside_the_contract_is_named(listing, search):
    # a listed dummy edge re-spills itself ahead of the real edge and a
    # repeated id leaves the state one edge short of closing: either made
    # every repair search loop until its budget ran out, and the reference
    # searches returned a path through the dummy edge
    with pytest.raises(DomainError, match=rf"^state 1: actions {re.escape(repr(listing))}"
                                          r" repeat an id or list DUMMY_ACTION \(-1\)$"):
        run_search(search, HostileActions(listing), PlannerConfig(w0=1.0, time_budget=5.0))
    assert_no_leaked_workers()


class ChangingActions(ToyGraphDomain):
    """0 -> 1 -> 2 at cost 5; state 1 lists its one action on the first
    call and nothing after."""

    def __init__(self):
        super().__init__({0: (0, 0), 1: (1, 0), 2: (2, 0)},
                         {0: [(1, 2.0)], 1: [(2, 3.0)], 2: []}, goals={2})
        self.listing_1 = (0,)

    def actions(self, state):
        if state == 1:
            listing, self.listing_1 = self.listing_1, ()
            return listing
        return super().actions(state)


@pytest.mark.parametrize("search", ["plan-1", "plan-2", "ara_star"])
def test_the_first_action_listing_is_the_episodes(search):
    # a repair search that asked again when it spilled, closed or
    # recollapsed state 1 met an empty listing: plan raised
    # EngineInvariantError and ara_star returned infeasible
    oracle = dijkstra_oracle(ChangingActions(), 0).cost
    result = run_search(search, ChangingActions(), PlannerConfig(w0=1.0, time_budget=5.0))
    assert oracle == 5.0
    assert result.status == "proved_optimal" and result.final_cost == oracle
    assert_no_leaked_workers()


@pytest.mark.parametrize("search", ["plan-1", "plan-2", "ara_star"])
def test_each_state_is_listed_once_an_episode(search):
    # many passes re-expand the same states; each reads its listing once
    world = open_world(18, footprint=2, move=2, cost="random_factor", cost_seed=7)
    problem = grid_problem(world, (0, 0), (14, 14))
    domain = CountingDomain(problem)
    result = run_search(search, domain, PlannerConfig(w0=50.0, delta_w=0.5), log_events=True)
    assert result.status == "proved_optimal" and len(result.iterations) > 1
    expansions = [e.state for e in result.events if e.kind == EVENT_DUMMY_EXPAND]
    assert len(expansions) > len(set(expansions))  # some state is expanded again
    assert domain.listings_by_state == dict.fromkeys(set(expansions), 1)
    assert_no_leaked_workers()


@pytest.mark.parametrize("first_edge,what", BAD_FIRST_EDGES)
def test_dijkstra_oracle_names_an_outcome_outside_the_contract(first_edge, what):
    with pytest.raises(DomainError, match=rf"Edge\(state=0, action=0\): {what}"):
        dijkstra_oracle(bad_first_edge_domain(first_edge), 0)


BAD_DEAD_ENDS = [((0, math.nan), "cost nan"), ((0, -1.0), "cost -1.0"),
                 ((0, math.inf), "cost inf"), ((0.0, 2.0), "successor 0.0")]


@pytest.mark.parametrize("dead_end,what", BAD_DEAD_ENDS)
@pytest.mark.parametrize("search", ["dijkstra_oracle", "dijkstra_distances", "weighted_astar"])
def test_a_reference_search_names_a_bad_outcome_on_an_edge_that_is_never_a_parent(
        dead_end, what, search):
    # 0 -> 1 -> 2; edge (1, 1) leads back to the settled start (or, with a
    # NaN cost, improves nothing), so it never becomes a parent: only the
    # check on every valid outcome can name it
    coords = {0: (0, 0), 1: (1, 0), 2: (2, 0)}
    domain = ToyGraphDomain(coords, {0: [(1, 2.0)], 1: [(2, 3.0), dead_end], 2: []},
                            goals={2})
    run = {"dijkstra_oracle": dijkstra_oracle, "dijkstra_distances": dijkstra_distances,
           "weighted_astar": weighted_astar}[search]
    with pytest.raises(DomainError, match=rf"Edge\(state=1, action=1\): {what}"):
        run(domain, 0)


def test_cache_stores_no_outcome_outside_the_contract():
    domain = bad_first_edge_domain((1, -1.0))
    cache = EdgeCache()
    with pytest.raises(DomainError):
        cache.store(domain, Edge(0, 0), domain.evaluate(0, 0))
    assert cache.misses == 0 and cache.get(Edge(0, 0)) is None


def test_interner_is_bijective_and_stable():
    interner = StateInterner()
    a = interner.key_for((3, 4))
    b = interner.key_for((4, 3))
    assert a != b
    assert interner.key_for((3, 4)) == a
    assert interner.coord_of(a) == (3, 4)
    assert len(interner) == 2


def test_rewalk_cost_matches_recorded_chain():
    domain = chain_domain()
    path = Path(edges=(Edge(0, 0), Edge(1, 0)), states=(0, 1, 2), cost=5.0)
    assert rewalk_cost(domain, path) == pytest.approx(5.0)


def test_rewalk_cost_rejects_broken_chain():
    domain = chain_domain()
    bad = Path(edges=(Edge(0, 0),), states=(0, 2), cost=2.0)
    with pytest.raises(ValueError):
        rewalk_cost(domain, bad)


def test_heuristic_consistency_audit_on_grid_episode():
    world = open_world(10)
    problem = grid_problem(world, (0, 0), (9, 9))
    cache = EdgeCache()
    frontier = [problem.start]
    seen = {problem.start}
    while frontier:
        s = frontier.pop()
        for a in problem.actions(s):
            out = cache.store(problem, Edge(s, a), problem.evaluate(s, a))
            if out.valid and out.successor not in seen:
                seen.add(out.successor)
                frontier.append(out.successor)
    audited = audit_consistency(problem, cache, seen)
    assert audited > 0


def test_pairwise_heuristic_admissible_on_8x8_all_pairs():
    world = open_world(8)
    problem = grid_problem(world, (0, 0), (7, 7))
    # reach every state so handles exist
    dist = dijkstra_distances(problem, problem.start)
    states = sorted(dist)
    optimal = all_pairs_optimal(problem, states)
    for (s, t), d in optimal.items():
        assert problem.pairwise_heuristic(s, t) <= d + 1e-9
    assert all(problem.pairwise_heuristic(s, s) == 0.0 for s in states)
