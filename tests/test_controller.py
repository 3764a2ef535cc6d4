import ast
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyplan import controller
from anyplan.baselines import ara_star, dijkstra_oracle, wastar
from anyplan.controller import (
    STATUS_COMPLETED_BOUNDED,
    STATUS_INFEASIBLE,
    STATUS_PROVED_OPTIMAL,
    STATUS_TIMEOUT,
    IterationStats,
    PlannerConfig,
    plan,
    plan_naive,
    weight_schedule,
)
from anyplan.search import ImproveOutcome

from _support import (CountingDomain, audited_plan, grid_problem, make_world, open_world,
                      published_costs)

SRC = Path(__file__).resolve().parents[1] / "src" / "anyplan"

# -- weight schedule ----------------------------------------------------------

def test_schedule_paper_defaults_99_values():
    ws = weight_schedule(50.0, 0.5)
    assert len(ws) == 99
    assert ws[0] == 50.0 and ws[1] == 49.5 and ws[-2] == 1.5 and ws[-1] == 1.0


def test_schedule_degenerate_start_at_one():
    assert weight_schedule(1.0, 0.5) == [1.0]


def test_schedule_exact_landing():
    assert weight_schedule(3.0, 0.4) == pytest.approx([3.0, 2.6, 2.2, 1.8, 1.4, 1.0])


def test_schedule_overshoot_clamps_to_one():
    assert weight_schedule(3.0, 0.7) == pytest.approx([3.0, 2.3, 1.6, 1.0])


def test_schedule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        weight_schedule(0.9, 0.5)
    with pytest.raises(ValueError):
        weight_schedule(3.0, 0.0)


def test_run_anytime_computes_no_weight_past_max_iterations():
    # one pass at w0 = 1e6, dw = 1 needs one weight, not a million
    weights = []

    def run_pass(index, w, deadline):
        weights.append(w)
        return ImproveOutcome.EXHAUSTED, IterationStats(w, 0, 0, 0, 0.0), None

    config = PlannerConfig(w0=1e6, delta_w=1.0, max_iterations=1)
    tracemalloc.start()
    try:
        result = controller.run_anytime(config, run_pass)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert weights == [1e6] and result.status == STATUS_INFEASIBLE
    assert peak < 100_000


@settings(max_examples=200, deadline=None)
@given(st.floats(1.0, 200.0, allow_nan=False), st.floats(0.01, 10.0, allow_nan=False))
def test_schedule_properties(w0, dw):
    ws = weight_schedule(w0, dw)
    assert ws[-1] == 1.0
    assert all(w >= 1.0 for w in ws)
    assert all(a > b for a, b in zip(ws, ws[1:]))
    if len(ws) >= 2:
        assert ws[0] == w0


# -- config -------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(w0=0.5)
    with pytest.raises(ValueError):
        PlannerConfig(delta_w=0)
    with pytest.raises(ValueError):
        PlannerConfig(n_threads=0)


# -- plan ---------------------------------------------------------------------

def test_plan_w0_one_single_optimal_iteration():
    problem = grid_problem(open_world(7), (0, 0), (6, 6))
    oracle = dijkstra_oracle(problem, problem.start).cost
    fresh = grid_problem(open_world(7), (0, 0), (6, 6))
    result = plan(PlannerConfig(w0=1.0, delta_w=7.0), fresh, fresh.start)
    assert result.status == STATUS_PROVED_OPTIMAL
    assert len(result.records) == 1
    assert result.records[0].cost == pytest.approx(oracle, rel=1e-12)
    assert result.records[0].bound_lambda == 1.0


def test_plan_zero_budget_times_out_with_no_records():
    problem = grid_problem(open_world(7), (0, 0), (6, 6))
    result = plan(PlannerConfig(w0=1.0, time_budget=0.0), problem, problem.start)
    assert result.status == STATUS_TIMEOUT
    assert result.records == []


def test_plan_anytime_non_increasing_costs_and_final_optimum():
    world = open_world(21, footprint=2, move=2, cost="random_factor", cost_seed=13)
    problem = grid_problem(world, (0, 0), (18, 18))
    oracle = dijkstra_oracle(problem, problem.start).cost
    fresh = grid_problem(world, (0, 0), (18, 18))
    result = plan(PlannerConfig(w0=50.0, delta_w=0.5, n_threads=2), fresh, fresh.start)
    assert result.status == STATUS_PROVED_OPTIMAL
    costs = published_costs(result)
    assert len(costs) == 99
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert costs[-1] == pytest.approx(oracle, rel=1e-9)
    for rec in result.records:
        assert rec.cost <= rec.bound_lambda * oracle * (1 + 1e-9)
    assert [it.w for it in result.iterations] == weight_schedule(50.0, 0.5)
    # most passes reuse earlier effort and return without expanding anything
    idle = sum(1 for it in result.iterations
               if it.n_dummy_expansions + it.n_real_expansions == 0)
    assert idle > 50


def test_plan_publishes_identical_cost_iterations_unconditionally():
    # publication is per-pass, not per-improvement: passes that change
    # nothing still publish the incumbent
    problem = grid_problem(open_world(9), (0, 0), (8, 8))
    result = plan(PlannerConfig(w0=3.0, delta_w=1.0), problem, problem.start)
    assert result.status == STATUS_PROVED_OPTIMAL
    costs = published_costs(result)
    assert len(costs) == 3  # w = 3, 2, 1: one record each
    assert any(a == b for a, b in zip(costs, costs[1:]))


def test_plan_sink_receives_records_in_order_before_next_pass():
    problem = grid_problem(open_world(9), (0, 0), (8, 8))
    seen = []

    def sink(record):
        seen.append((record.iteration_index, time.monotonic_ns()))

    result = plan(PlannerConfig(w0=3.0, delta_w=1.0), problem, problem.start, sink=sink,
                  log_events=True)
    assert [i for i, _t in seen] == [0, 1, 2]
    # each delivery happened before the next pass logged its first event
    for idx, t_ns in seen[:-1]:
        nxt = [ev.t_ns for ev in result.events if ev.iteration == idx + 1]
        if nxt:
            assert t_ns <= min(nxt)


def test_plan_sink_collection_support():
    problem = grid_problem(open_world(5), (0, 0), (4, 4))
    bucket = []
    plan(PlannerConfig(w0=2.0, delta_w=1.0), problem, problem.start, sink=bucket.append)
    assert [r.iteration_index for r in bucket] == [0, 1]


def test_plan_sink_is_a_callable_not_a_collection():
    problem = grid_problem(open_world(5), (0, 0), (4, 4))
    with pytest.raises(TypeError):
        plan(PlannerConfig(w0=2.0, delta_w=1.0), problem, problem.start, sink=[])


def test_plan_max_iterations_truncates_schedule():
    problem = grid_problem(open_world(7), (0, 0), (6, 6))
    result = plan(PlannerConfig(w0=3.0, delta_w=0.5, max_iterations=2),
                  problem, problem.start)
    assert result.status == STATUS_COMPLETED_BOUNDED
    assert [it.w for it in result.iterations] == [3.0, 2.5]


def test_plan_closed_and_be_empty_at_each_pass_entry():
    # instrumented via the context: after a full run, per-pass counters exist
    # and the final context has empty BE (re-collapse ran at every exit)
    world = open_world(15, footprint=2, move=2, cost="random_factor", cost_seed=2)
    problem = grid_problem(world, (0, 0), (12, 12))
    result = audited_plan(PlannerConfig(w0=10.0, delta_w=1.0, n_threads=4),
                          problem, problem.start)
    assert result.status == STATUS_PROVED_OPTIMAL
    assert not result.context.be
    # every pass that re-expanded states saw a clean CLOSED: expansions per
    # pass never exceed the number of discovered states
    n_states = len(result.context.nodes)
    for it in result.iterations:
        assert it.n_dummy_expansions <= n_states


# -- naive anytime baseline -----------------------------------------------------

def test_plan_naive_restarts_do_not_share_evaluations():
    world = open_world(9, cost="random_factor", cost_seed=21)
    problem = CountingDomain(grid_problem(world, (0, 0), (8, 8)))
    start = problem.inner.start

    result = plan_naive(PlannerConfig(w0=2.0, delta_w=0.5, n_threads=2), problem, start)
    assert result.status == STATUS_PROVED_OPTIMAL
    assert len(result.iterations) == len(weight_schedule(2.0, 0.5))  # one restart per w
    # each restart has its own edge cache: some edge is evaluated again
    assert max(problem.calls_by_edge.values()) > 1
    oracle = dijkstra_oracle(problem.inner, start).cost
    assert result.final_cost == pytest.approx(oracle, rel=1e-9)
    costs = published_costs(result)
    assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_plan_naive_runs_each_restart_as_one_pass_of_one_anytime_loop(monkeypatch):
    # a restart is a pass on a fresh episode, not a nested planner run
    real_run_anytime = controller.run_anytime
    calls = []

    def counting_run_anytime(*args, **kwargs):
        calls.append(args[0])
        return real_run_anytime(*args, **kwargs)

    monkeypatch.setattr(controller, "run_anytime", counting_run_anytime)
    problem = grid_problem(open_world(7, cost="random_factor", cost_seed=3), (0, 0), (6, 6))
    config = PlannerConfig(w0=3.0, delta_w=1.0)
    result = plan_naive(config, problem, problem.start)
    assert calls == [config]
    assert result.status == STATUS_PROVED_OPTIMAL
    assert [it.w for it in result.iterations] == [3.0, 2.0, 1.0]
    assert [r.iteration_index for r in result.records] == [0, 1, 2]


def test_plan_naive_first_record_matches_full_anytime_first_record():
    world = open_world(15, footprint=2, move=2, cost="random_factor", cost_seed=8)

    problem = grid_problem(world, (0, 0), (12, 12))
    cfg = PlannerConfig(w0=50.0, delta_w=0.5, n_threads=1)
    naive = plan_naive(cfg, problem, problem.start)
    full = plan(cfg, problem, problem.start)
    assert naive.records[0].cost == full.records[0].cost  # same first search


# -- the shared anytime driver --------------------------------------------------

def test_pass_without_expansions_skips_backtrack_and_keeps_the_incumbent(monkeypatch):
    world = open_world(15, footprint=2, move=2, cost="random_factor", cost_seed=8)
    problem = grid_problem(world, (0, 0), (12, 12))
    real_backtrack, real_improve = controller.backtrack, controller.improve_path
    calls = []
    always = []  # the incumbent of a run that backtracks after every solved pass

    def counting_backtrack(state, goal):
        calls.append(goal)
        return real_backtrack(state, goal)

    def improve_then_backtrack(ctx):
        outcome = real_improve(ctx)
        if outcome is ImproveOutcome.SOLVED:
            path = real_backtrack(ctx, ctx.goal_found)
            always.append(path if not always or path.cost < always[-1].cost else always[-1])
        return outcome

    monkeypatch.setattr(controller, "backtrack", counting_backtrack)
    monkeypatch.setattr(controller, "improve_path", improve_then_backtrack)
    result = plan(PlannerConfig(w0=50.0, delta_w=0.5), problem, problem.start)
    assert result.status == STATUS_PROVED_OPTIMAL
    expanded = [it for it in result.iterations
                if it.n_dummy_expansions + it.n_real_expansions]
    assert 0 < len(calls) == len(expanded) < len(result.iterations)
    assert [(r.path, r.cost) for r in result.records] == [(p, p.cost) for p in always]


def test_plan_wall_time_leaves_out_the_worker_join(monkeypatch):
    # wall_time (the harness's t_term) is on the clock of the records' times
    real_shutdown = controller.shutdown

    def slow_shutdown(ctx):
        time.sleep(0.05)
        real_shutdown(ctx)

    monkeypatch.setattr(controller, "shutdown", slow_shutdown)
    problem = grid_problem(open_world(7), (0, 0), (6, 6))
    t0 = time.monotonic()
    result = plan(PlannerConfig(w0=1.0, n_threads=2), problem, problem.start)
    elapsed = time.monotonic() - t0
    assert result.status == STATUS_PROVED_OPTIMAL
    assert result.records[-1].t_since_plan_start <= result.wall_time <= elapsed - 0.05


def test_only_run_anytime_builds_results_and_records():
    # one function reads the run clock, builds the records and decides the
    # status for every driver
    builders = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "attr", None) or getattr(func, "id", None)
                    if name in ("PlanResult", "SolutionRecord"):
                        builders.add((path.name, getattr(top, "name", "<module>"), name))
    assert builders == {("controller.py", "run_anytime", "PlanResult"),
                        ("controller.py", "run_anytime", "SolutionRecord")}


def walled_off_world():
    rows = ["..@..",
            "..@..",
            "..@..",
            "..@..",
            "..@..",
            ]
    return make_world("type octile\nheight 5\nwidth 5\nmap\n" + "\n".join(rows) + "\n")


DRIVERS = {"plan": plan, "plan_naive": plan_naive, "ara_star": ara_star, "wastar": wastar}


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("case", ["zero_budget", "one_pass", "walled_off", "w0_one"])
def test_drivers_agree_on_each_terminal_status(driver, case):
    world, goal = open_world(7, cost="random_factor", cost_seed=3), (6, 6)
    cfg = PlannerConfig(w0=3.0, n_threads=2)
    if case == "zero_budget":
        cfg = PlannerConfig(w0=3.0, time_budget=0.0)
    elif case == "one_pass":
        cfg = PlannerConfig(w0=3.0, max_iterations=1)
    elif case == "walled_off":
        world, goal = walled_off_world(), (4, 0)
    else:
        cfg = PlannerConfig(w0=1.0, n_threads=2)

    problem = grid_problem(world, (0, 0), goal)
    result = DRIVERS[driver](cfg, problem, problem.start)
    if case == "zero_budget":
        assert result.status == STATUS_TIMEOUT
        assert result.records == [] and result.iterations == []
    elif case == "one_pass":
        assert result.status == STATUS_COMPLETED_BOUNDED
        assert [(r.w_at_publish, r.bound_lambda) for r in result.records] == [(3.0, 3.0)]
    elif case == "walled_off":
        assert result.status == STATUS_INFEASIBLE
        assert result.records == []
    else:
        assert result.status == STATUS_PROVED_OPTIMAL
        assert result.final_cost == pytest.approx(
            dijkstra_oracle(problem, problem.start).cost, rel=1e-12)


@pytest.mark.parametrize("driver", ["plan", "plan_naive", "ara_star"])
def test_each_record_is_bounded_by_its_own_pass_weight(driver):
    # a pass relaxes independence by its own w, so a record's bound is that w,
    # and a run is proved optimal only when its last pass ran at w = 1
    world = open_world(7, cost="random_factor", cost_seed=3)
    for max_iterations, status, last_w in ((None, STATUS_PROVED_OPTIMAL, 1.0),
                                           (2, STATUS_COMPLETED_BOUNDED, 2.0)):
        problem = grid_problem(world, (0, 0), (6, 6))
        cfg = PlannerConfig(w0=3.0, delta_w=1.0, n_threads=2, max_iterations=max_iterations)
        result = DRIVERS[driver](cfg, problem, problem.start)
        assert result.status == status and result.iterations[-1].w == last_w
        assert result.records
        assert all(r.bound_lambda == r.w_at_publish for r in result.records)
