import math
import threading

import pytest

from anyplan.baselines import ara_star, dijkstra_oracle
from anyplan.controller import PlannerConfig, plan
from anyplan.domain import DUMMY_ACTION, Edge, rewalk_cost
from anyplan.engine import (
    EngineInvariantError,
    EpisodeContext,
    backtrack,
    expand_edge,
    seed_open_with_start,
)
from anyplan.grid2d import sample_start_goal_pairs

from _support import (
    StarDomain,
    ToyGraphDomain,
    assert_no_leaked_workers,
    committed_expansion_check,
    engine_pop_trace,
    grid_problem,
    make_world,
    max_eval_overlap,
    open_world,
    random_obstacle_map_text,
)


def test_start_equals_goal_zero_length_path():
    problem = grid_problem(open_world(6), (2, 2), (2, 2))
    result = plan(PlannerConfig(w0=1.0), problem, problem.start, debug_checks=True)
    assert result.status == "proved_optimal"
    assert result.final_cost == 0.0
    rec = result.records[0]
    assert rec.path.edges == () and rec.path.states == (problem.start,)
    # only the start's dummy expansion ever ran
    assert result.iterations[0].n_dummy_expansions == 1
    assert result.iterations[0].n_real_expansions == 0
    assert_no_leaked_workers()


def test_optimal_on_empty_grid_matches_dijkstra_single_thread():
    problem = grid_problem(open_world(5), (0, 0), (4, 4))
    oracle = dijkstra_oracle(problem, problem.start).cost
    fresh = grid_problem(open_world(5), (0, 0), (4, 4))
    result = plan(PlannerConfig(w0=1.0, n_threads=1), fresh, fresh.start, debug_checks=True)
    assert result.status == "proved_optimal"
    assert result.final_cost == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("n_threads", [2, 4, 8])
def test_costs_thread_count_invariant_at_w1(n_threads):
    world = open_world(5)
    oracle = dijkstra_oracle(grid_problem(world, (0, 0), (4, 4)),
                             grid_problem(world, (0, 0), (4, 4)).start).cost
    for _rep in range(50):
        problem = grid_problem(world, (0, 0), (4, 4))
        result = plan(PlannerConfig(w0=1.0, n_threads=n_threads), problem, problem.start)
        assert result.status == "proved_optimal"
        assert result.final_cost == pytest.approx(oracle, rel=1e-9)
    assert_no_leaked_workers()


def test_dummy_expansion_spills_real_edges_at_g_plus_wh():
    problem = grid_problem(open_world(20, footprint=1, move=5), (10, 10), (0, 0))
    ctx = EpisodeContext(problem, problem.start, 1)
    ctx.w = 3.0
    node = ctx.nodes[problem.start]
    # simulate the pop-time bookkeeping the coordinator performs
    node.in_be = True
    ctx.be.add(problem.start)
    node.n_actions = 8
    node.n_successors_generated = 0
    expand_edge(ctx, Edge(problem.start, DUMMY_ACTION), 0)
    assert ctx.be == {problem.start}
    assert len(ctx.open) == 8
    expected_f = node.g + 3.0 * node.h
    for edge, f in ctx.open.entries():
        assert edge.state == problem.start and edge.action in range(8)
        assert f == pytest.approx(expected_f)


def test_real_edge_relaxation_routes_fresh_state_to_open():
    problem = grid_problem(open_world(20, footprint=1, move=5), (10, 10), (0, 0))
    ctx = EpisodeContext(problem, problem.start, 1)
    ctx.w = 2.0
    node = ctx.nodes[problem.start]
    node.in_be = True
    ctx.be.add(problem.start)
    node.n_actions = 8
    expand_edge(ctx, Edge(problem.start, DUMMY_ACTION), 0)
    for a in range(8):
        ctx.open.discard(Edge(problem.start, a))
        expand_edge(ctx, Edge(problem.start, a), 0)
    # all 8 successors relaxed: their dummy edges are in OPEN at g + w*h
    assert len(ctx.open) == 8
    for edge, f in ctx.open.entries():
        assert edge.action == DUMMY_ACTION
        succ = ctx.nodes[edge.state]
        assert succ.g == pytest.approx(problem.world.edge_cost(
            problem.coord_of(problem.start), problem.coord_of(edge.state)))
        assert f == pytest.approx(succ.g + 2.0 * succ.h)
        assert succ.parent.state == problem.start
    # source closed after the last real edge
    assert ctx.nodes[problem.start].in_closed
    assert problem.start in ctx.closed and problem.start not in ctx.be


def incon_toy():
    """Two routes meet at X: the first-expanded one closes X with the worse
    g, the cheaper one then relaxes X inside the same pass -> INCON."""
    coords = {0: (0.0, 0.0), 1: (2.0, 1.0), 2: (2.0, -1.0), 3: (4.0, 0.0), 4: (10.0, 0.0)}
    edges = {
        0: [(1, 2.3), (2, 9.0)],   # S -> P1 cheap, S -> P2 dear
        1: [(3, 12.0)],            # P1 -> X overpriced
        2: [(3, 2.3)],             # P2 -> X cheap
        3: [(4, 46.0)],            # X -> T
        4: [],
    }
    return ToyGraphDomain(coords, edges, goals={4})


def test_closed_state_relaxation_goes_to_incon_and_reopens_next_pass():
    domain = incon_toy()
    result = plan(PlannerConfig(w0=5.0, delta_w=0.5, n_threads=1), domain, 0,
                  log_events=True, debug_checks=True)
    assert result.status == "proved_optimal"
    first = result.iterations[0]
    assert first.n_incon_end == 1  # X deferred within the first pass
    # the goal was reached through the overpriced route: its expansion-time
    # g carries that cost, even though the parent chain is rewired by then
    t_expansions = [ev for ev in result.events
                    if ev.kind == "dummy_expand" and ev.state == 4]
    assert t_expansions[0].iteration == 0
    assert t_expansions[0].g == pytest.approx(2.3 + 12.0 + 46.0)
    # the next pass re-opens X from INCON and repairs g(T)
    x_reexpansions = [ev for ev in result.events
                      if ev.kind == "dummy_expand" and ev.state == 3
                      and ev.iteration == 1]
    assert len(x_reexpansions) == 1
    assert x_reexpansions[0].g == pytest.approx(9.0 + 2.3)
    assert result.final_cost == pytest.approx(9.0 + 2.3 + 46.0)
    assert all(c == pytest.approx(57.3) for c in result.published_costs)
    assert result.unjustified_reexpansions == 0


def test_worker_overlap_with_eight_threads_and_slow_edges():
    domain = StarDomain(64, delay=0.002)
    result = plan(PlannerConfig(w0=1.0, n_threads=8), domain, 0, log_events=True)
    assert result.status == "infeasible"  # star has no goal: exhausts
    overlap = max_eval_overlap(result.events)
    assert overlap >= 6, f"peak concurrent evaluations {overlap}"
    assert_no_leaked_workers()


def test_backtrack_rewalk_equality_on_random_grid():
    world = make_world(random_obstacle_map_text(16, 16, 0.2, seed=11))
    pairs = sample_start_goal_pairs(world, 1, seed=2)
    problem = grid_problem(world, *pairs[0])
    result = plan(PlannerConfig(w0=2.0, max_iterations=1, n_threads=2),
                  problem, problem.start)
    rec = result.records[0]
    assert rewalk_cost(problem, rec.path) == pytest.approx(rec.cost, rel=1e-12)
    assert rec.path.states[0] == problem.start
    assert problem.is_goal(rec.path.states[-1])


def test_backtrack_broken_chain_is_invariant_violation():
    problem = grid_problem(open_world(4), (0, 0), (3, 3))
    ctx = EpisodeContext(problem, problem.start, 1)
    seed_open_with_start(ctx, 1.0)
    stray = problem._interner.key_for((2, 2))
    ctx.ensure_node(stray).g = 1.0  # reachable-looking state with no parent
    with pytest.raises(EngineInvariantError):
        backtrack(ctx, stray)


def test_single_thread_trace_matches_serial_repair_search():
    for seed in range(10):
        world = make_world(random_obstacle_map_text(16, 16, 0.2, seed=seed))
        try:
            pairs = sample_start_goal_pairs(world, 1, seed=seed)
        except Exception:
            continue
        start, goal = pairs[0]
        cfg = PlannerConfig(w0=3.0, delta_w=0.5, max_iterations=1, n_threads=1)
        engine_problem = grid_problem(world, start, goal)
        engine_run = plan(cfg, engine_problem, engine_problem.start, log_events=True)
        serial_problem = grid_problem(world, start, goal)
        serial_run = ara_star(cfg, serial_problem, serial_problem.start,
                              collect_trace=True)
        assert engine_pop_trace(engine_run.events) == serial_run.trace
        assert engine_run.published_costs == serial_run.published_costs


def test_at_most_once_expansion_per_pass_from_log():
    world = open_world(18, footprint=2, move=2, cost="random_factor", cost_seed=5)
    problem = grid_problem(world, (0, 0), (14, 14))
    result = plan(PlannerConfig(w0=50.0, delta_w=0.5, n_threads=4),
                  problem, problem.start, log_events=True)
    assert result.status == "proved_optimal"
    dummies = set()
    reals = set()
    for ev in result.events:
        if ev.kind == "dummy_expand":
            key = (ev.iteration, ev.state)
            assert key not in dummies, f"dummy re-expansion within pass {key}"
            dummies.add(key)
        elif ev.kind == "eval_start":
            key = (ev.iteration, ev.state, ev.action)
            assert key not in reals, f"real edge re-expansion within pass {key}"
            reals.add(key)
    assert committed_expansion_check(result.events) == 0
    assert result.unjustified_reexpansions == 0
    # g-values never increase: relax events per state are strictly decreasing
    last_g = {}
    for ev in sorted(result.events, key=lambda e: e.t_ns):
        if ev.kind == "relax":
            assert ev.g < last_g.get(ev.state, math.inf)
            last_g[ev.state] = ev.g


def test_backtrack_three_edge_chain_sums_costs():
    coords = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0), 3: (3.0, 0.0)}
    edges = {0: [(1, 2.0)], 1: [(2, 3.0)], 2: [(3, 4.0)], 3: []}
    domain = ToyGraphDomain(coords, edges, goals={3})
    result = plan(PlannerConfig(w0=1.0), domain, 0)
    path = result.records[0].path
    assert path.cost == pytest.approx(9.0)
    assert path.states == (0, 1, 2, 3)
    assert [e.state for e in path.edges] == [0, 1, 2]


def test_expansion_log_export_round_trips_as_ndjson():
    import io
    import json

    from anyplan.engine import write_expansion_log

    problem = grid_problem(open_world(5), (0, 0), (4, 4))
    result = plan(PlannerConfig(w0=1.0), problem, problem.start, log_events=True)
    assert result.events
    buf = io.StringIO()
    write_expansion_log(result.events, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == len(result.events)
    for line, ev in zip(lines, result.events):
        record = json.loads(line)
        assert record["state"] == ev.state
        assert record["kind"] == ev.kind
        assert set(record) == {"t_ns", "iter", "worker", "state", "action",
                               "g", "f", "kind"}


def test_worker_threads_join_before_plan_returns():
    problem = grid_problem(open_world(6), (0, 0), (5, 5))
    result = plan(PlannerConfig(w0=1.0, n_threads=8), problem, problem.start)
    assert result.status == "proved_optimal"
    assert_no_leaked_workers()
    for slot in result.context.slots:
        assert slot.thread is None or not slot.thread.is_alive()


def test_worker_error_surfaces_as_engine_error():
    class ExplodingDomain(StarDomain):
        def evaluate(self, state, action):
            raise RuntimeError("domain blew up")

    from anyplan.engine import EngineError

    with pytest.raises(EngineError):
        plan(PlannerConfig(w0=1.0, n_threads=2), ExplodingDomain(4), 0)
    assert_no_leaked_workers()


def test_infeasible_instance_exhausts_cleanly():
    rows = ["..@..",
            "..@..",
            "..@..",
            "..@..",
            "..@..",
            ]
    text = "type octile\nheight 5\nwidth 5\nmap\n" + "\n".join(rows) + "\n"
    problem = grid_problem(make_world(text), (0, 0), (4, 0))
    result = plan(PlannerConfig(w0=3.0, n_threads=2), problem, problem.start)
    assert result.status == "infeasible"
    assert result.records == []
    assert_no_leaked_workers()
