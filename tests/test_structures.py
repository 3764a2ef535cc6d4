import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyplan.domain import DUMMY_ACTION, Edge
from anyplan.structures import (
    INF,
    OpenQueue,
    SearchNode,
    edge_priority,
    merge_incons,
    pop_independent,
)

from _support import ToyGraphDomain, check_no_duplicates, pop_oracle


def test_edge_priority_direct_substitution():
    assert edge_priority(10, 4, 2) == 18


def test_edge_priority_zero_case():
    assert edge_priority(0, 0, 50) == 0


def test_edge_priority_w1_reduces_to_plain_astar():
    assert edge_priority(7, 3, 1) == 10


def test_edge_priority_rejects_w_below_one():
    with pytest.raises(ValueError):
        edge_priority(1, 1, 0.99)


def test_edge_priority_rejects_negative_inputs():
    with pytest.raises(ValueError):
        edge_priority(-1, 0, 1)


def make_queue(entries):
    q = OpenQueue()
    for edge, f, h in entries:
        q.upsert(edge, f, h)
    return q


def test_open_queue_orders_by_f_then_h_then_state_then_action():
    q = make_queue([
        (Edge(3, 0), 5.0, 2.0),
        (Edge(1, 0), 5.0, 1.0),
        (Edge(1, 1), 5.0, 1.0),
        (Edge(2, 0), 4.0, 9.0),
    ])
    order = [e for e, _f in q.entries()]
    assert order == [Edge(2, 0), Edge(1, 0), Edge(1, 1), Edge(3, 0)]


def test_open_queue_upsert_repositions_single_entry():
    q = make_queue([(Edge(1, DUMMY_ACTION), 10.0, 1.0), (Edge(2, DUMMY_ACTION), 5.0, 1.0)])
    q.upsert(Edge(1, DUMMY_ACTION), 2.0, 1.0)
    assert len(q) == 2
    assert q.pop_min() == Edge(1, DUMMY_ACTION)
    check_no_duplicates(q)


def test_open_queue_min_f_and_discard():
    q = make_queue([(Edge(1, 0), 3.0, 0.0), (Edge(2, 0), 7.0, 0.0)])
    assert q.min_f() == 3.0
    assert q.discard(Edge(1, 0))
    assert not q.discard(Edge(1, 0))
    assert q.min_f() == 7.0
    assert q.discard(Edge(2, 0))
    assert q.min_f() == INF


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(-1, 3),
                          st.floats(0, 100, allow_nan=False),
                          st.floats(0, 10, allow_nan=False)),
                max_size=40))
def test_open_queue_never_duplicates_and_stays_sorted(ops):
    q = OpenQueue()
    model: dict[Edge, float] = {}
    for state, action, f, h in ops:
        edge = Edge(state, action)
        q.upsert(edge, f, h)
        model[edge] = f
        check_no_duplicates(q)
    assert len(q) == len(model)
    if model:
        assert q.min_f() == min(model.values())
    popped = []
    while q:
        popped.append(q.pop_min())
        check_no_duplicates(q)
    assert sorted(popped) == sorted(model)


def grid_for_independence(n=6):
    """A toy domain over an n x n unit grid (4-connected) for the
    independence oracle tests; coordinates give the pairwise heuristic."""
    coords = {}
    edges = {}
    for y in range(n):
        for x in range(n):
            s = y * n + x
            coords[s] = (float(x), float(y))
            out = []
            for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
                nx, ny = x + dx, y + dy
                if 0 <= nx < n and 0 <= ny < n:
                    out.append((ny * n + nx, 1.0))
            edges[s] = out
    return ToyGraphDomain(coords, edges)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pop_independent_matches_bruteforce_oracle(data):
    domain = grid_for_independence(6)
    n_states = 36
    n_open = data.draw(st.integers(1, 8))
    open_states = data.draw(st.lists(st.integers(0, n_states - 1),
                                     min_size=n_open, max_size=n_open, unique=True))
    be_states = data.draw(st.lists(st.integers(0, n_states - 1).filter(
        lambda s: s not in open_states), max_size=3, unique=True))
    eps = data.draw(st.sampled_from([1.0, 1.5, 3.0, 50.0]))
    nodes = {}
    q = OpenQueue()
    for s in open_states:
        g = data.draw(st.floats(0, 20, allow_nan=False))
        h = data.draw(st.floats(0, 10, allow_nan=False))
        nodes[s] = SearchNode(g=g, h=h)
        q.upsert(Edge(s, DUMMY_ACTION), g + eps * h, h)
    for s in be_states:
        nodes[s] = SearchNode(g=data.draw(st.floats(0, 20, allow_nan=False)))

    expected = pop_oracle(q, set(be_states), eps, nodes, domain)
    got = pop_independent(q, set(be_states), eps, nodes, domain)
    assert got == expected
    if expected is not None:
        assert expected not in dict(q.entries())


def test_pop_independent_single_edge_is_vacuously_independent():
    domain = grid_for_independence()
    nodes = {0: SearchNode(g=3.0)}
    q = make_queue([(Edge(0, DUMMY_ACTION), 3.0, 0.0)])
    assert pop_independent(q, set(), 1.0, nodes, domain) == Edge(0, DUMMY_ACTION)
    assert len(q) == 0


def test_pop_independent_direct_be_substitution():
    # g(e.s)=10 vs BE state with g=8, distance 5: 2 <= 5 -> independent
    domain = grid_for_independence()
    nodes = {0: SearchNode(g=10.0), 5: SearchNode(g=8.0)}
    q = make_queue([(Edge(0, DUMMY_ACTION), 10.0, 0.0)])
    assert pop_independent(q, {5}, 1.0, nodes, domain) == Edge(0, DUMMY_ACTION)
    # shrink the slack: distance(0, 5) = 5 cells; make the gap exceed eps*h
    nodes[5].g = 10.0 - 5.0 - 1.0
    q = make_queue([(Edge(0, DUMMY_ACTION), 10.0, 0.0)])
    assert pop_independent(q, {5}, 1.0, nodes, domain) is None
    assert len(q) == 1


def test_pop_independent_returns_none_when_nothing_qualifies():
    domain = grid_for_independence()
    # BE state right next to both open states with much smaller g
    nodes = {0: SearchNode(g=50.0), 1: SearchNode(g=49.0), 6: SearchNode(g=0.0)}
    q = make_queue([(Edge(0, DUMMY_ACTION), 50.0, 0.0), (Edge(1, DUMMY_ACTION), 51.0, 0.0)])
    assert pop_oracle(q, {6}, 1.0, nodes, domain) is None
    assert pop_independent(q, {6}, 1.0, nodes, domain) is None
    assert len(q) == 2  # nothing removed


def test_pop_independent_eps_inf_pops_min():
    domain = grid_for_independence()
    nodes = {0: SearchNode(g=50.0), 6: SearchNode(g=0.0)}
    q = make_queue([(Edge(0, DUMMY_ACTION), 50.0, 0.0)])
    assert pop_independent(q, {6}, INF, nodes, domain) == Edge(0, DUMMY_ACTION)


def test_rebalance_recomputes_keys_from_g_and_h():
    # s1: g=2,h=10 and s2: g=8,h=1. At w=50 s2 first; at w=1 keys 12 and 9,
    # s2 still first.
    nodes = {1: SearchNode(g=2.0, h=10.0), 2: SearchNode(g=8.0, h=1.0)}
    q = OpenQueue()
    for s in (1, 2):
        node = nodes[s]
        q.upsert(Edge(s, DUMMY_ACTION), edge_priority(node.g, node.h, 50.0), node.h)
    assert [e.state for e, _ in q.entries()] == [2, 1]
    assert q.min_f() == pytest.approx(58.0)
    q.rebalance(1.0, nodes)
    keys = {e.state: f for e, f in q.entries()}
    assert keys == {1: pytest.approx(12.0), 2: pytest.approx(9.0)}
    assert [e.state for e, _ in q.entries()] == [2, 1]


def test_rebalance_same_w_is_idempotent():
    nodes = {1: SearchNode(g=2.0, h=10.0), 2: SearchNode(g=8.0, h=1.0)}
    q = OpenQueue()
    for s in (1, 2):
        q.upsert(Edge(s, DUMMY_ACTION), edge_priority(nodes[s].g, nodes[s].h, 3.0), nodes[s].h)
    before = list(q.entries())
    q.rebalance(3.0, nodes)
    assert list(q.entries()) == before


def test_rebalance_empty_queue_is_noop():
    q = OpenQueue()
    q.rebalance(2.0, {})
    assert len(q) == 0


def test_merge_incons_empty_leaves_open_unchanged():
    q = make_queue([(Edge(1, DUMMY_ACTION), 4.0, 1.0)])
    before = list(q.entries())
    merge_incons(q, set(), {1: SearchNode(g=3.0, h=1.0)}, 3.0)
    assert list(q.entries()) == before


def test_merge_incons_keys_dummy_at_g_plus_wh():
    nodes = {5: SearchNode(g=4.0, h=2.0)}
    incons = set()
    incons.add(5)
    q = OpenQueue()
    merge_incons(q, incons, nodes, 3.0)
    assert dict(q.entries())[Edge(5, DUMMY_ACTION)] == pytest.approx(10.0)
    assert len(incons) == 0


def test_merge_incons_state_in_both_open_and_incon_single_entry():
    nodes = {5: SearchNode(g=4.0, h=2.0)}
    q = make_queue([(Edge(5, DUMMY_ACTION), 99.0, 2.0)])
    incons = set()
    incons.add(5)
    merge_incons(q, incons, nodes, 3.0)
    check_no_duplicates(q)
    assert len(q) == 1
    assert dict(q.entries())[Edge(5, DUMMY_ACTION)] == pytest.approx(10.0)
