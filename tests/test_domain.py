import math
import threading

import pytest

from anyplan.baselines import dijkstra_oracle
from anyplan.controller import PlannerConfig, plan
from anyplan.domain import (
    DUMMY_ACTION,
    DomainError,
    Edge,
    EdgeCache,
    Path,
    StateInterner,
    SuccessorOutcome,
    audit_consistency,
    rewalk_cost,
)

from _support import (
    CountingDomain,
    ToyGraphDomain,
    all_pairs_optimal,
    assert_no_leaked_workers,
    grid_problem,
    open_world,
)


def chain_domain():
    # 0 -> 1 -> 2, plus an invalid action on 0
    coords = {0: (0, 0), 1: (1, 0), 2: (2, 0)}
    edges = {0: [(1, 2.0), (None, 0.0)], 1: [(2, 3.0)], 2: []}
    return ToyGraphDomain(coords, edges, goals={2})


def test_cache_first_call_invokes_domain_once():
    domain = CountingDomain(chain_domain(), delay=0.002)
    cache = EdgeCache()
    out = cache.evaluate(domain, Edge(0, 0))
    assert out == SuccessorOutcome(True, 1, 2.0)
    assert domain.calls == 1
    assert cache.misses == 1


def test_cache_hit_returns_identical_outcome_without_domain_call():
    domain = CountingDomain(chain_domain())
    cache = EdgeCache()
    first = cache.evaluate(domain, Edge(0, 0))
    second = cache.evaluate(domain, Edge(0, 0))
    assert second is first
    assert domain.calls == 1
    assert cache.hits == 1


def test_cache_invalid_edges_are_outcomes_not_errors():
    domain = CountingDomain(chain_domain())
    cache = EdgeCache()
    out = cache.evaluate(domain, Edge(0, 1))
    assert not out.valid and out.successor is None and out.cost is None
    assert cache.evaluate(domain, Edge(0, 1)) is out
    assert domain.calls == 1


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


@pytest.mark.parametrize("first_edge,what", BAD_FIRST_EDGES)
def test_dijkstra_oracle_names_an_outcome_outside_the_contract(first_edge, what):
    with pytest.raises(DomainError, match=rf"Edge\(state=0, action=0\): {what}"):
        dijkstra_oracle(bad_first_edge_domain(first_edge), 0)


def test_cache_stores_no_outcome_outside_the_contract():
    cache = EdgeCache()
    with pytest.raises(DomainError):
        cache.evaluate(bad_first_edge_domain((1, -1.0)), Edge(0, 0))
    assert len(cache) == 0 and cache.get(Edge(0, 0)) is None


def test_cache_rejects_dummy_edges():
    cache = EdgeCache()
    with pytest.raises(ValueError):
        cache.evaluate(chain_domain(), Edge(0, DUMMY_ACTION))


def test_cache_concurrent_distinct_edges_one_invocation_each():
    world = open_world(12)
    problem = grid_problem(world, (0, 0), (11, 11))
    domain = CountingDomain(problem, delay=0.002)
    cache = EdgeCache()
    # force state 0's successors to exist so edges are distinct and valid
    edges = [Edge(problem.start, a) for a in range(8)]
    results = {}

    def run(edge):
        results[edge] = cache.evaluate(domain, edge)

    threads = [threading.Thread(target=run, args=(e,)) for e in edges]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert domain.calls == len(edges)
    assert all(domain.calls_by_edge[(e.state, e.action)] == 1 for e in edges)
    assert len(results) == len(edges)


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
            out = cache.evaluate(problem, Edge(s, a))
            if out.valid and out.successor not in seen:
                seen.add(out.successor)
                frontier.append(out.successor)
    audited = audit_consistency(problem, cache)
    assert audited > 0


def test_pairwise_heuristic_admissible_on_8x8_all_pairs():
    world = open_world(8)
    problem = grid_problem(world, (0, 0), (7, 7))
    # reach every state so handles exist
    from anyplan.baselines import dijkstra_distances

    dist = dijkstra_distances(problem, problem.start)
    states = sorted(dist)
    optimal = all_pairs_optimal(problem, states)
    for (s, t), d in optimal.items():
        assert problem.pairwise_heuristic(s, t) <= d + 1e-9
    assert all(problem.pairwise_heuristic(s, s) == 0.0 for s in states)
