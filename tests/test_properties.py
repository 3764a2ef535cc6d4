"""Property tests of the shared search discipline on random graphs, checked
against the independent Dijkstra oracle."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anyplan.baselines import ara_star, dijkstra_distances, dijkstra_oracle
from anyplan.controller import STATUS_INFEASIBLE, STATUS_PROVED_OPTIMAL, PlannerConfig, plan

from _support import ToyGraphDomain, assert_no_leaked_workers, published_costs


@st.composite
def euclidean_graphs(draw):
    """Random graphs on integer coordinates whose edge costs are at least the
    euclidean distance, so the euclidean heuristics are consistent."""
    n = draw(st.integers(2, 20))
    coords = {s: (draw(st.integers(0, 19)), draw(st.integers(0, 19))) for s in range(n)}
    edges = {}
    for s in range(n):
        out = draw(st.lists(st.tuples(st.integers(0, n - 1), st.floats(0.0, 10.0)),
                            min_size=2, max_size=5))
        edges[s] = [(t, math.dist(coords[s], coords[t]) + extra) for t, extra in out]
    goal = draw(st.integers(1, n - 1))
    return ToyGraphDomain(coords, edges, goals={goal})


@settings(max_examples=150, deadline=None)
@given(euclidean_graphs(), st.sampled_from([1, 2]), st.sampled_from([None, 1.0, math.inf]),
       st.floats(1.0, 8.0), st.floats(0.2, 3.0))
def test_anytime_search_keeps_its_bounds_on_random_graphs(domain, n_threads, epsilon,
                                                          w0, delta_w):
    optimum = dijkstra_oracle(domain, 0).cost
    assert min(dijkstra_distances(domain, 0).get(g, math.inf) for g in domain.goals) == optimum
    cfg = PlannerConfig(w0=w0, delta_w=delta_w, epsilon=epsilon, n_threads=n_threads)
    result = plan(cfg, domain, 0)
    assert_no_leaked_workers()
    if optimum == math.inf:
        assert result.status == STATUS_INFEASIBLE and result.records == []
        return
    costs = published_costs(result)
    assert costs
    for rec in result.records:
        assert optimum * (1 - 1e-9) <= rec.cost <= rec.bound_lambda * optimum * (1 + 1e-9)
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    if result.status == STATUS_PROVED_OPTIMAL:
        assert result.final_cost == pytest.approx(optimum, rel=1e-9)
    if n_threads == 1:
        assert published_costs(ara_star(cfg, domain, 0)) == costs


class UnnamedOutcomes(ToyGraphDomain):
    """The same graph with no outcome named before evaluation: no edge can
    be skipped, so every popped real edge is looked up or evaluated."""

    def outcome_if_valid(self, state, action):
        return None


def replayed(result):
    return ([(r.cost.hex(), r.w_at_publish, r.bound_lambda, r.iteration_index)
             for r in result.records], result.expansions_per_iteration, result.status)


@settings(max_examples=150, deadline=None)
@given(euclidean_graphs(), st.floats(1.0, 8.0), st.floats(0.2, 3.0))
# the first pass reaches 6 through 0 -> 1 -> 3, then reaches 3 more cheaply;
# the second expands 3 again, and a skip of (3, 0) by g(3) + c + w*h(5) >= G
# would leave g(5) unrepaired and the later passes with nothing to expand
@example(ToyGraphDomain({0: (0, 2), 1: (6, 2), 3: (9, 3), 5: (18, 14), 6: (12, 6)},
                        {0: [(1, 11.0), (3, 12.0)], 1: [(3, 14.0)], 3: [(5, 21.0)],
                         5: [(6, 10.0)]}, goals={6}), 3.0, 0.5)
def test_skipping_edges_changes_no_record_of_a_one_worker_run(domain, w0, delta_w):
    # both skip rules only withhold relaxations that lower nothing or queue a
    # state at a priority no pass pops, so the pops and records are the same
    cfg = PlannerConfig(w0=w0, delta_w=delta_w, n_threads=1)
    skipping = plan(cfg, domain, 0)
    evaluating = plan(cfg, UnnamedOutcomes(domain.coords, domain.edges, domain.goals), 0)
    assert replayed(skipping) == replayed(evaluating)
    assert skipping.context.cache.misses <= evaluating.context.cache.misses
