import itertools
import math
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest

from anyplan import controller
from anyplan.baselines import ara_star, dijkstra_oracle
from anyplan.controller import PlannerConfig, plan
from anyplan.domain import (
    DUMMY_ACTION,
    INVALID_OUTCOME,
    DomainError,
    Edge,
    EdgeCache,
    SuccessorOutcome,
    checked_actions,
)
from anyplan.engine import EngineInvariantError, EpisodeContext
from anyplan.grid2d import (CostModel, GridDomainConfig, GridPlanningProblem, GridWorld,
                            load_map, sample_start_goal_pairs)
from anyplan.search import SearchState, backtrack

from _support import (
    CountingDomain,
    StarDomain,
    ToyGraphDomain,
    assert_no_leaked_workers,
    audit_consistency,
    audited_plan,
    committed_expansion_check,
    edge_cost,
    grid_problem,
    make_world,
    max_eval_overlap,
    open_world,
    published_costs,
    random_obstacle_map_text,
    rewalk_cost,
)

MAPS_DIR = Path(__file__).resolve().parents[1] / "maps"


def test_start_equals_goal_zero_length_path():
    problem = grid_problem(open_world(6), (2, 2), (2, 2))
    result = audited_plan(PlannerConfig(w0=1.0), problem, problem.start)
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
    result = audited_plan(PlannerConfig(w0=1.0, n_threads=1), fresh, fresh.start)
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
    ctx.be.add(problem.start)
    node.actions = checked_actions(problem, problem.start)
    assert len(node.actions) == 8
    node.n_successors_generated = 0
    ctx.spill(problem.start, 0)
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
    ctx.be.add(problem.start)
    node.actions = checked_actions(problem, problem.start)
    assert len(node.actions) == 8
    ctx.spill(problem.start, 0)
    for a in range(8):
        edge = Edge(problem.start, a)
        ctx.open.discard(edge)
        ctx.land(edge, problem.evaluate(*edge), 0)
    # all 8 successors relaxed: their dummy edges are in OPEN at g + w*h
    assert len(ctx.open) == 8
    for edge, f in ctx.open.entries():
        assert edge.action == DUMMY_ACTION
        succ = ctx.nodes[edge.state]
        assert succ.g == pytest.approx(edge_cost(
            problem.world, problem.coord_of(problem.start), problem.coord_of(edge.state)))
        assert f == pytest.approx(succ.g + 2.0 * succ.h)
        assert succ.parent.state == problem.start
    # source closed after the last real edge
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
    result = audited_plan(PlannerConfig(w0=5.0, delta_w=0.5, n_threads=1), domain, 0,
                          log_events=True)
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
    assert all(c == pytest.approx(57.3) for c in published_costs(result))
    assert committed_expansion_check(result.events) == 0


def test_worker_overlap_with_eight_threads_and_slow_edges():
    domain = StarDomain(64, delay=0.002)
    result = plan(PlannerConfig(w0=1.0, n_threads=8), domain, 0, log_events=True)
    assert result.status == "infeasible"  # star has no goal: exhausts
    overlap = max_eval_overlap(result.events)
    assert overlap >= 6, f"peak concurrent evaluations {overlap}"
    assert_no_leaked_workers()


def test_eight_workers_land_every_completion_under_fast_thread_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = audited_plan(PlannerConfig(w0=1.0, n_threads=8, time_budget=30.0),
                              StarDomain(64), 0)
    finally:
        sys.setswitchinterval(interval)
    assert result.status == "infeasible"  # exhausted well inside the budget
    ctx = result.context
    assert ctx.cache.misses == 64
    assert len(ctx.closed) == 65  # the hub closes only once all 64 relaxed
    assert all(ctx.nodes[s].g == 1.0 for s in range(1, 65))
    assert_no_leaked_workers()


def close_but_keep_in_be(self, state, node, worker):
    """A seeded fault for ``SearchState._close``: closing a state no longer
    takes it out of BE."""
    self.closed.add(state)


def test_the_audit_names_a_closed_state_that_never_leaves_be():
    # the hub closes first, once its last spoke edge is relaxed.  Left in
    # BE, it keeps every spoke from passing the independence check
    with mock.patch.object(SearchState, "_close", close_but_keep_in_be):
        with pytest.raises(EngineInvariantError,
                           match=r"^states \[0\] in BE and CLOSED at once$"):
            audited_plan(PlannerConfig(w0=1.0, n_threads=2, time_budget=2.0),
                         StarDomain(8), 0)
    assert_no_leaked_workers()


def test_a_pass_that_cannot_progress_is_a_named_error():
    # the same fault through the plain plan: no spoke can pass the
    # independence check and nothing is in flight, so the pass names the
    # stall at once instead of waiting out its budget
    budget = 2.0
    t0 = time.monotonic()
    with mock.patch.object(SearchState, "_close", close_but_keep_in_be):
        with pytest.raises(EngineInvariantError,
                           match=r"^no edge of OPEN \(8 edges\) is independent and no"
                                 r" evaluation is in flight; BE \[0\]$"):
            plan(PlannerConfig(w0=1.0, n_threads=2, time_budget=budget), StarDomain(8), 0)
    assert time.monotonic() - t0 < budget / 4
    assert_no_leaked_workers()


class ReopenEveryClosedState(EpisodeContext):
    """A seeded fault: each pass start puts every closed state into INCON,
    though its g did not drop, so the pass expands it again."""

    def begin_pass(self, index, w, eps):
        self.incons |= self.closed
        super().begin_pass(index, w, eps)


def test_the_log_check_counts_an_expansion_without_a_g_drop():
    # a maze query whose later passes expand states again: on an open map
    # the relaxed cost to the goal is nearly exact, the first pass proves
    # the optimum and the fault has nothing to re-expand
    world = GridWorld(load_map(MAPS_DIR / "maze64.map"),
                      GridDomainConfig(footprint_side=4, move_length=6),
                      CostModel("random_factor", rng_seed=5))
    problem = grid_problem(world, *sample_start_goal_pairs(world, 1, seed=5)[0])
    with mock.patch.object(controller, "EpisodeContext", ReopenEveryClosedState):
        result = controller.plan(PlannerConfig(w0=50.0, delta_w=0.5, n_threads=2),
                                 problem, problem.start, log_events=True)
    assert result.status == "proved_optimal"
    assert committed_expansion_check(result.events) > 0
    assert_no_leaked_workers()


def test_the_consistency_audit_reaches_every_cached_edge():
    world = make_world(random_obstacle_map_text(16, 16, 0.25, seed=3))
    problem = grid_problem(world, *sample_start_goal_pairs(world, 1, seed=4)[0])
    counting = CountingDomain(problem)
    result = plan(PlannerConfig(w0=3.0, n_threads=2), counting, problem.start)
    ctx = result.context
    # each edge is evaluated once an episode; re-evaluate to find the invalid
    invalid = sum(not problem.evaluate(s, a).valid for s, a in counting.calls_by_edge)
    assert invalid > 0
    assert audit_consistency(problem, ctx.cache, ctx.nodes) + invalid == ctx.cache.misses


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


def test_a_fresh_search_state_has_only_its_start_in_incons():
    # the first pass's INCON fold seeds OPEN at that pass's weight
    problem = grid_problem(open_world(4), (0, 0), (3, 3))
    state = SearchState(problem, problem.start)
    assert not state.open
    assert state.incons == {problem.start}
    assert state.nodes[problem.start].g == 0.0


def test_backtrack_broken_chain_is_invariant_violation():
    problem = grid_problem(open_world(4), (0, 0), (3, 3))
    ctx = EpisodeContext(problem, problem.start, 1)
    stray = problem.state_of((2, 2))
    ctx.ensure_node(stray).g = 1.0  # reachable-looking state with no parent
    with pytest.raises(EngineInvariantError):
        backtrack(ctx, stray)


def untimed(events):
    """The event log less the time stamps and the worker ids."""
    return [ev._replace(t_ns=0, worker=0) for ev in events]


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
                              log_events=True)
        assert engine_run.events
        assert untimed(engine_run.events) == untimed(serial_run.events)
        assert published_costs(engine_run) == published_costs(serial_run)


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


class FailingStar(StarDomain):
    """A star whose ``fail_at``-th evaluate call raises ``error``.  With
    ``hold`` set, every other call stays in flight until that failure."""

    def __init__(self, fail_at: int, hold: bool):
        super().__init__(8)
        self.fail_at = fail_at
        self.hold = hold
        self.calls = itertools.count(1)
        self.failed = threading.Event()
        self.error = RuntimeError(f"evaluate call {fail_at} failed")

    def evaluate(self, state, action):
        if next(self.calls) == self.fail_at:
            self.failed.set()
            raise self.error
        if self.hold:
            self.failed.wait(timeout=5.0)
        return super().evaluate(state, action)


@pytest.mark.parametrize("n_threads", [1, 2])
def test_evaluate_raising_on_its_kth_call_is_the_engine_error_cause(n_threads):
    from anyplan.engine import EngineError

    # at two threads the first call is still in flight when the second raises
    domain = FailingStar(fail_at=2, hold=n_threads > 1)
    with pytest.raises(EngineError) as info:
        plan(PlannerConfig(w0=1.0, n_threads=n_threads), domain, 0)
    assert info.value.__cause__ is domain.error
    assert_no_leaked_workers()


def test_evaluate_raising_after_the_deadline_is_still_the_engine_error_cause():
    from anyplan.engine import EngineError

    error = RuntimeError("evaluate failed after the deadline")

    class LateFailingStar(StarDomain):
        def evaluate(self, state, action):
            time.sleep(0.05)
            raise error

    with pytest.raises(EngineError) as info:
        plan(PlannerConfig(w0=1.0, time_budget=0.01), LateFailingStar(4), 0)
    assert info.value.__cause__ is error
    assert_no_leaked_workers()


def test_evaluate_raising_on_its_kth_call_leaves_ara_star_unchanged():
    domain = FailingStar(fail_at=2, hold=False)
    with pytest.raises(RuntimeError) as info:
        ara_star(PlannerConfig(w0=1.0), domain, 0)
    assert info.value is domain.error


@pytest.mark.parametrize("n_threads", [1, 2])
def test_sink_error_leaves_plan_unchanged(n_threads):
    error = RuntimeError("sink failed")

    def sink(record):
        raise error

    problem = grid_problem(open_world(6), (0, 0), (5, 5))
    with pytest.raises(RuntimeError) as info:
        plan(PlannerConfig(w0=3.0, n_threads=n_threads), problem, problem.start, sink=sink)
    assert info.value is error
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


class DeadEndDomain(ToyGraphDomain):
    """0 -> 1 -> 5 (the goal), whose last edge takes 50 ms to evaluate, and
    0 -> 2 -> {3, 4}, where h(2) = inf: no solution passes through 2."""

    def __init__(self):
        super().__init__({0: (0, 0), 1: (1, 0), 5: (2, 0), 2: (0, 1), 3: (0, 2), 4: (-1, 1)},
                         {0: [(1, 1.0), (2, 1.0)], 1: [(5, 1.0)], 2: [(3, 1.0), (4, 1.0)]},
                         goals={5})

    def heuristic(self, state):
        return math.inf if state == 2 else super().heuristic(state)

    def evaluate(self, state, action):
        if state == 1:
            time.sleep(0.05)
        return super().evaluate(state, action)


class UnnamedDeadEnd(DeadEndDomain):
    """DeadEndDomain naming no outcome, so no edge into 2 can be skipped."""

    def outcome_if_valid(self, state, action):
        return None


@pytest.mark.parametrize("n_threads", [1, 2, 4])
def test_no_edge_of_a_state_with_infinite_heuristic_is_evaluated(n_threads):
    # while the goal edge is in flight, OPEN's only other edges hang off
    # state 2 at infinite priority: an idle worker must wait, not take them
    domain = CountingDomain(UnnamedDeadEnd())
    result = plan(PlannerConfig(w0=1.0, n_threads=n_threads), domain, 0)
    assert result.status == "proved_optimal"
    assert not [edge for edge in domain.calls_by_edge if edge[0] == 2]
    assert result.final_cost == dijkstra_oracle(domain, 0).cost == 2.0
    assert_no_leaked_workers()


@pytest.mark.parametrize("n_threads", [1, 2, 4])
def test_no_edge_into_a_state_with_infinite_heuristic_is_evaluated(n_threads):
    # edge (0, 1) names state 2, whose h is inf: g(0) + c + h(2) is not below
    # any incumbent, not even the inf before the first goal
    domain = CountingDomain(DeadEndDomain())
    result = plan(PlannerConfig(w0=1.0, n_threads=n_threads), domain, 0)
    assert result.status == "proved_optimal" and result.final_cost == 2.0
    assert sorted(domain.calls_by_edge) == [(0, 0), (1, 0)]
    assert_no_leaked_workers()


class DetourDomain(ToyGraphDomain):
    """0 -> 1 -> 3 (the goal) costs 29; 0 -> 2 -> 3 costs 12, the optimum.
    Edge (0, 1) takes 50 ms to evaluate, so at any worker count the first
    pass, at w = 10, finds the goal through 1 before 2 has a g.  Edge (2, 0)
    costs 30: g(2) + 30 + h(4) is not below either incumbent."""

    def __init__(self):
        super().__init__({0: (0, 0), 1: (9, 0), 2: (0, 1), 3: (10, 0), 4: (0, 2)},
                         {0: [(1, 9.0), (2, 1.0)], 1: [(3, 20.0)], 2: [(4, 30.0), (3, 11.0)]},
                         goals={3})

    def evaluate(self, state, action):
        if (state, action) == (0, 1):
            time.sleep(0.05)
        return super().evaluate(state, action)


@pytest.mark.parametrize("n_threads", [1, 2, 4])
def test_an_edge_that_cannot_beat_the_incumbent_is_not_evaluated(n_threads):
    domain = CountingDomain(DetourDomain())
    result = plan(PlannerConfig(w0=10.0, delta_w=9.0, n_threads=n_threads), domain, 0,
                  log_events=True)
    assert published_costs(result) == [29.0, 12.0]
    assert result.status == "proved_optimal"
    # 2 closes in the second pass, so (2, 0) was popped there; it never started
    assert {(e.iteration, e.kind) for e in result.events
            if e.state == 2 and e.kind != "relax"} == {
        (1, "dummy_expand"), (1, "eval_start"), (1, "eval_end"), (1, "close")}
    assert not [e for e in result.events if (e.state, e.action) == (2, 0)]
    assert sorted(domain.calls_by_edge) == [(0, 0), (0, 1), (1, 0), (2, 1)]
    assert_no_leaked_workers()


@pytest.mark.parametrize("n_threads", [1, 2])
def test_only_cache_misses_reach_a_worker(n_threads, monkeypatch):
    import anyplan.engine

    handed = []
    original = anyplan.engine.expand_edge

    def recording(domain, edge):
        handed.append((edge, threading.current_thread().name))
        return original(domain, edge)

    monkeypatch.setattr(anyplan.engine, "expand_edge", recording)
    # at cost seed 7 later passes pop again on-map edges an earlier pass
    # evaluated, so both thread counts hit the cache
    world = open_world(18, footprint=2, move=2, cost="random_factor", cost_seed=7)
    problem = grid_problem(world, (0, 0), (14, 14))
    result = plan(PlannerConfig(w0=50.0, delta_w=0.5, n_threads=n_threads),
                  problem, problem.start)
    assert result.status == "proved_optimal"
    assert result.context.cache.hits > 0  # the coordinator expanded these itself
    assert all(edge.action != DUMMY_ACTION for edge, _ in handed)
    assert all(name.startswith("anyplan-worker-") for _, name in handed)
    assert len(handed) == result.context.cache.misses


def test_deadline_passing_with_evaluations_in_flight_lands_them_all():
    delay, budget = 0.05, 0.01
    t0 = time.monotonic()
    result = plan(PlannerConfig(w0=1.0, n_threads=4, time_budget=budget),
                  StarDomain(16, delay=delay), 0, log_events=True)
    elapsed = time.monotonic() - t0
    assert result.status == "timeout"
    assert result.context.be == set()
    starts = [(ev.state, ev.action) for ev in result.events if ev.kind == "eval_start"]
    ends = [(ev.state, ev.action) for ev in result.events if ev.kind == "eval_end"]
    assert starts and sorted(starts) == sorted(ends)
    assert result.context.cache.misses == len(ends)
    assert elapsed < budget + delay + 0.5
    assert_no_leaked_workers()


@pytest.mark.parametrize("n_threads", [1, 4])
def test_an_evaluate_stuck_past_the_deadline_is_a_named_engine_error(n_threads):
    from anyplan.engine import DRAIN_GRACE, EngineError

    release = threading.Event()
    stuck = []

    class StuckStar(StarDomain):
        def evaluate(self, state, action):
            stuck.append(threading.current_thread())
            release.wait(timeout=10.0)  # bounded, so a drain that never gives up fails
            return super().evaluate(state, action)

    budget = 0.05
    t0 = time.monotonic()
    try:
        with pytest.raises(EngineError, match=r"s past the deadline: Edge\(state=0") as info:
            plan(PlannerConfig(w0=1.0, n_threads=n_threads, time_budget=budget),
                 StuckStar(16), 0)
        elapsed = time.monotonic() - t0
    finally:
        release.set()
        for thread in stuck:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
    # every worker holds one stuck edge, and the error names each of them
    assert len(stuck) == n_threads
    assert str(info.value).count("Edge(") == n_threads
    assert all(f"on worker {wid}" in str(info.value) for wid in range(n_threads))
    assert budget + DRAIN_GRACE <= elapsed < budget + DRAIN_GRACE + 0.5
    assert_no_leaked_workers()


def test_only_the_calling_thread_touches_the_episode(monkeypatch):
    # workers call the domain's evaluate and nothing else: the expansion
    # step, the edge cache and the event log run on the coordinator alone
    callers = []
    for owner, name in ((SearchState, "expand"), (SearchState, "land"), (EdgeCache, "get"),
                        (EdgeCache, "store"), (SearchState, "log")):
        def wrapped(*args, _original=getattr(owner, name), **kwargs):
            callers.append(threading.get_ident())
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)
    world = open_world(18, footprint=2, move=2, cost="random_factor", cost_seed=5)
    problem = grid_problem(world, (0, 0), (14, 14))
    result = plan(PlannerConfig(w0=50.0, delta_w=0.5, n_threads=4),
                  problem, problem.start, log_events=True)
    assert result.status == "proved_optimal"
    assert sum(slot.thread is not None for slot in result.context.slots) > 1
    assert callers and set(callers) == {threading.get_ident()}


@pytest.mark.parametrize("n_threads", [1, 2])
def test_a_domain_error_raised_inside_evaluate_is_the_engine_error_cause(n_threads):
    from anyplan.engine import EngineError

    error = DomainError("the domain's own check failed")

    class StrictStar(StarDomain):
        def evaluate(self, state, action):
            raise error

    with pytest.raises(EngineError) as info:
        plan(PlannerConfig(w0=1.0, n_threads=n_threads), StrictStar(4), 0)
    assert info.value.__cause__ is error
    assert_no_leaked_workers()


def test_the_first_error_wins_over_a_rejected_cost_that_lands_after_it():
    from anyplan.engine import EngineError

    error = RuntimeError("spoke 0 failed")
    spoke_1_started = threading.Event()

    class TwoFaults(StarDomain):
        def evaluate(self, state, action):
            if action == 0:
                spoke_1_started.wait(timeout=5.0)
                raise error
            spoke_1_started.set()
            time.sleep(0.05)
            return SuccessorOutcome(True, action + 1, math.nan)

    with pytest.raises(EngineError) as info:
        plan(PlannerConfig(w0=1.0, n_threads=2), TwoFaults(2), 0)
    assert info.value.__cause__ is error
    assert_no_leaked_workers()


def test_a_rejected_cost_with_evaluations_in_flight_is_named_and_stops_every_worker():
    class NanSpoke(StarDomain):
        def evaluate(self, state, action):
            outcome = super().evaluate(state, action)
            return outcome._replace(cost=math.nan) if action == 5 else outcome

    with pytest.raises(DomainError, match=r"Edge\(state=0, action=5\): cost nan"):
        plan(PlannerConfig(w0=1.0, n_threads=4), NanSpoke(16, delay=0.02), 0)
    assert_no_leaked_workers()


class LyingHint(ToyGraphDomain):
    """0 -> 1 -> 3 and 0 -> 2 -> 3, each edge at cost 2.0, but
    ``outcome_if_valid`` names ``named`` for edge (0, 1), which reaches 2."""

    def __init__(self, named):
        coords = {0: (0.0, 0.0), 1: (1.0, 1.0), 2: (1.0, -1.0), 3: (2.0, 0.0)}
        super().__init__(coords, {0: [(1, 2.0), (2, 2.0)], 1: [(3, 2.0)], 2: [(3, 2.0)],
                                  3: []}, goals={3})
        self.named = named

    def outcome_if_valid(self, state, action):
        if (state, action) == (0, 1):
            return self.named
        return super().outcome_if_valid(state, action)


@pytest.mark.parametrize("named,what", [
    (SuccessorOutcome(True, 3, 2.0), "successor 3 at cost 2.0"),  # another state
    (SuccessorOutcome(True, 2, 1.0), "successor 2 at cost 1.0"),  # another cost
])
@pytest.mark.parametrize("driver,n_threads", [(plan, 1), (plan, 2), (ara_star, 1)])
def test_a_valid_outcome_that_is_not_the_named_outcome_is_a_domain_error(
        named, what, driver, n_threads):
    # a wrong name would make skipping the edge unsound, so the edge cache
    # rejects it where it stores the outcome
    with pytest.raises(DomainError, match=r"^edge Edge\(state=0, action=1\): successor 2 at"
                                          rf" cost 2.0 is not {what}, the outcome"
                                          r" outcome_if_valid names$"):
        driver(PlannerConfig(w0=1.0, n_threads=n_threads), LyingHint(named), 0)
    assert_no_leaked_workers()


@pytest.mark.parametrize("named,what", [
    (SuccessorOutcome(True, 2, math.nan), "cost nan is not finite and >= 0"),
    (SuccessorOutcome(True, 2, -1.0), "cost -1.0 is not finite and >= 0"),
    (INVALID_OUTCOME, "outcome_if_valid names an invalid outcome"),
])
@pytest.mark.parametrize("driver,n_threads", [(plan, 1), (plan, 2), (ara_star, 1)])
def test_a_named_outcome_outside_the_contract_is_a_domain_error(named, what, driver,
                                                                n_threads):
    # a skipped edge is never evaluated, so the skip checks the name itself:
    # a negative cost would skip edges unsoundly, a NaN one would never skip
    counting = CountingDomain(LyingHint(named))
    with pytest.raises(DomainError, match=rf"^edge Edge\(state=0, action=1\): {what}$"):
        driver(PlannerConfig(w0=1.0, n_threads=n_threads), counting, 0)
    assert (0, 1) not in counting.calls_by_edge
    assert_no_leaked_workers()


class UnnamedSuccessors(GridPlanningProblem):
    """A grid problem that names no outcome before evaluating an edge, so
    the search evaluates every real edge it pops."""

    def outcome_if_valid(self, state, action):
        return None


@pytest.mark.parametrize("map_file,footprint,move,w0,delta_w", [
    ("maze128.map", 8, 12, 1.0, 0.5),  # the C07 set's longest pair, one pass
    ("open64.map", 2, 3, 50.0, 5.0),  # eleven passes, four better costs
])
def test_skipping_useless_edges_changes_only_the_evaluations(map_file, footprint, move,
                                                             w0, delta_w, monkeypatch):
    world = GridWorld(load_map(MAPS_DIR / map_file),
                      GridDomainConfig(footprint_side=footprint, move_length=move),
                      CostModel("random_factor", rng_seed=5))
    start, goal = max(sample_start_goal_pairs(world, 20, seed=5),
                      key=lambda p: math.dist(*p))
    cfg = PlannerConfig(w0=w0, delta_w=delta_w)
    unnamed = UnnamedSuccessors(world, start, goal)
    full = plan(cfg, unnamed, unnamed.start)

    skipped = []
    skip_if_useless = SearchState.skip_if_useless

    def recording(self, edge, worker):
        g = self.nodes[edge.state].g
        if skip_if_useless(self, edge, worker):
            skipped.append((edge, g))
            return True
        return False

    monkeypatch.setattr(SearchState, "skip_if_useless", recording)
    problem = GridPlanningProblem(world, start, goal)
    pruned = plan(cfg, problem, problem.start)

    def records(result):
        return [(r.cost, r.bound_lambda, r.iteration_index) for r in result.records]

    assert pruned.status == full.status == "proved_optimal"
    assert records(pruned) == records(full)
    final_g = {s: node.g for s, node in pruned.context.nodes.items()}
    assert final_g == {s: node.g for s, node in full.context.nodes.items()}
    assert pruned.context.cache.misses < full.context.cache.misses
    # evaluated now, no skipped edge could have lowered its target's final g
    # from the g its source had when it was skipped
    valid = 0
    for edge, g in skipped:
        outcome = problem.evaluate(*edge)
        if outcome.valid:
            valid += 1
            assert final_g[outcome.successor] <= g + outcome.cost
    assert valid > 0


def longest_maze_pairs(count):
    """The perfbench maze workloads' instances without the edge delay:
    maze128, footprint 8, move 12, cost seed 5, the ``count`` longest of 20
    pairs sampled with seed 5."""
    world = GridWorld(load_map(MAPS_DIR / "maze128.map"),
                      GridDomainConfig(footprint_side=8, move_length=12),
                      CostModel("random_factor", rng_seed=5))
    pairs = sorted(sample_start_goal_pairs(world, 20, seed=5), key=lambda p: -math.dist(*p))
    return world, pairs[:count]


@pytest.mark.parametrize("n_threads", [2, 4])
def test_one_pass_at_w1_on_the_maze_is_optimal_at_every_worker_count(n_threads):
    # the independence check at eps = 1 rests on the grid's pairwise bound:
    # an inadmissible or inconsistent one could let a worker run an edge
    # early and the pass return a cost above the optimum
    world, pairs = longest_maze_pairs(3)
    cfg = PlannerConfig(w0=1.0, n_threads=n_threads, max_iterations=1)
    for start, goal in pairs:
        oracle = dijkstra_oracle(GridPlanningProblem(world, start, goal),
                                 GridPlanningProblem(world, start, goal).start).cost
        for _rep in range(10):
            problem = GridPlanningProblem(world, start, goal)
            result = plan(cfg, problem, problem.start)
            assert result.status == "proved_optimal"
            assert result.final_cost == pytest.approx(oracle, rel=1e-9), (start, goal)
    assert_no_leaked_workers()


def test_one_worker_never_reads_the_pairwise_heuristic(monkeypatch):
    # one worker pops with eps = inf, so the pairwise bound cannot move a
    # one-worker record
    def refuse(self, a, b):
        raise AssertionError(f"pairwise_heuristic({a}, {b}) read at one worker")

    monkeypatch.setattr(GridPlanningProblem, "pairwise_heuristic", refuse)
    world, [(start, goal)] = longest_maze_pairs(1)
    for cfg in (PlannerConfig(w0=1.0, n_threads=1, max_iterations=1),
                PlannerConfig(w0=50.0, delta_w=0.5, n_threads=1)):
        problem = GridPlanningProblem(world, start, goal)
        assert plan(cfg, problem, problem.start).status == "proved_optimal"
