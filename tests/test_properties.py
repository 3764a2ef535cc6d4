"""Property tests of the shared search discipline on random graphs, checked
against the independent Dijkstra oracle."""

import math

import pytest
from hypothesis import given, settings
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
