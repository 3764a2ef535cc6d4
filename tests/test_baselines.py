import ast
import math
from pathlib import Path

import pytest

from anyplan.baselines import ara_star, dijkstra_distances, dijkstra_oracle, wastar, weighted_astar
from anyplan.controller import (
    STATUS_COMPLETED_BOUNDED,
    STATUS_INFEASIBLE,
    STATUS_PROVED_OPTIMAL,
    PlannerConfig,
)
from anyplan.search import SearchState

from _support import (committed_expansion_check, grid_problem, make_world, open_world,
                      published_costs, random_obstacle_map_text, rewalk_cost)

SQ2 = math.sqrt(2)
SRC = Path(__file__).resolve().parents[1] / "src" / "anyplan"


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name not in ("engine.py", "domain.py")))
def test_serial_search_modules_do_not_import_threading(module):
    # the one-thread replay check (C06) compares the engine against a search
    # that has no threads and no locks of its own, and only the engine's
    # workers run beside the coordinator; domain.py is left out only for
    # StateInterner's lock
    tree = ast.parse((SRC / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "threading" not in imported


def _names(tree: ast.AST) -> set[str]:
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_engine_uses_no_lock_condition_or_event():
    # the coordinator is the only thread that touches the episode; workers
    # reach it only through queues, so neither the engine nor the edge
    # cache needs a lock
    sync = {"Condition", "Lock", "RLock", "Event"}
    assert not _names(ast.parse((SRC / "engine.py").read_text())) & sync
    domain = ast.parse((SRC / "domain.py").read_text())
    cache = next(node for node in domain.body
                 if isinstance(node, ast.ClassDef) and node.name == "EdgeCache")
    assert not _names(cache) & (sync | {"threading", "_lock"})


def test_grid_problem_interns_nothing_and_locks_nothing():
    # a grid state is its raster anchor index, so the problem keeps no
    # per-episode coordinate map and its evaluate takes no lock
    tree = ast.parse((SRC / "grid2d.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not (_names(tree) | imported) & {"StateInterner", "Lock", "RLock", "threading"}


def test_dijkstra_two_diagonal_steps_on_3x3():
    problem = grid_problem(open_world(3), (0, 0), (2, 2))
    res = dijkstra_oracle(problem, problem.start)
    assert res.cost == pytest.approx(2 * SQ2)
    assert len(res.path.edges) == 2


def test_dijkstra_start_equals_goal():
    problem = grid_problem(open_world(3), (1, 1), (1, 1))
    res = dijkstra_oracle(problem, problem.start)
    assert res.cost == 0.0
    assert res.path.edges == ()
    assert res.path.states == (problem.start,)


def test_dijkstra_wall_with_gap_matches_hand_enumeration():
    # full wall at x=2 except a gap at y=4: forced detour through (2,4)
    rows = ["..@..",
            "..@..",
            "..@..",
            "..@..",
            ".....",
            ]
    text = "type octile\nheight 5\nwidth 5\nmap\n" + "\n".join(rows) + "\n"
    problem = grid_problem(make_world(text), (0, 0), (4, 0))
    res = dijkstra_oracle(problem, problem.start)
    # hand enumeration: (0,0)->(1,1)->(1,2)->(1,3)->(2,4)->(3,3)->(3,2)->(3,1)->(4,0)
    # diagonals: (0,0)-(1,1), (1,3)-(2,4), (2,4)-(3,3), (3,1)-(4,0); straights: 4
    expected = 4 * SQ2 + 4 * 1.0
    assert res.cost == pytest.approx(expected)
    assert rewalk_cost(problem, res.path) == pytest.approx(expected)


def test_dijkstra_unreachable_goal_cost_inf():
    rows = ["...@.",
            "...@.",
            "...@.",
            "...@.",
            "...@.",
            ]
    text = "type octile\nheight 5\nwidth 5\nmap\n" + "\n".join(rows) + "\n"
    problem = grid_problem(make_world(text), (0, 0), (4, 0))
    res = dijkstra_oracle(problem, problem.start)
    assert res.cost == math.inf and res.path is None


def test_wastar_w1_equals_dijkstra_on_random_grids():
    for seed in range(20):
        text = random_obstacle_map_text(16, 16, 0.25, seed=seed)
        world = make_world(text)
        # find a usable pair deterministically
        from anyplan.grid2d import sample_start_goal_pairs

        try:
            pairs = sample_start_goal_pairs(world, 1, seed=seed)
        except Exception:
            continue
        problem = grid_problem(world, *pairs[0])
        oracle = dijkstra_oracle(problem, problem.start)
        fresh = grid_problem(world, *pairs[0])
        res = weighted_astar(fresh, fresh.start, w=1.0)
        assert res.cost == pytest.approx(oracle.cost, rel=1e-12)


def test_wastar_bound_and_expansion_economy_at_w50():
    wins = 0
    total = 0
    for seed in range(12):
        world = make_world(random_obstacle_map_text(32, 32, 0.15, seed=100 + seed),
                           footprint=1, move=1, cost="random_factor", cost_seed=seed)
        from anyplan.grid2d import sample_start_goal_pairs

        pairs = sample_start_goal_pairs(world, 1, seed=seed)
        problem = grid_problem(world, *pairs[0])
        oracle = dijkstra_oracle(problem, problem.start)
        p_opt = grid_problem(world, *pairs[0])
        base = weighted_astar(p_opt, p_opt.start, w=1.0)
        p_inflated = grid_problem(world, *pairs[0])
        fast = weighted_astar(p_inflated, p_inflated.start, w=50.0)
        assert fast.cost <= 50.0 * oracle.cost * (1 + 1e-9)
        total += 1
        if fast.expansions <= base.expansions:
            wins += 1
    # harness regression threshold: inflation should pay off on >= 90%
    assert wins >= math.ceil(0.9 * total)


def test_wastar_rejects_w_below_one():
    problem = grid_problem(open_world(4), (0, 0), (3, 3))
    with pytest.raises(ValueError):
        weighted_astar(problem, problem.start, w=0.5)


@pytest.mark.parametrize("w", [math.nan, math.inf, 0.5])
def test_wastar_rejects_a_weight_that_is_not_finite_and_at_least_one(w):
    # a NaN weight once passed a ``w < 1`` check and returned a path with no
    # bound: cost 17.31 against the optimum 13.90 on this instance
    problem = grid_problem(open_world(12), (0, 0), (11, 7))
    with pytest.raises(ValueError, match="finite and >= 1"):
        weighted_astar(problem, problem.start, w=w)


@pytest.mark.parametrize("w0,goal,status", [(1.0, (9, 9), STATUS_PROVED_OPTIMAL),
                                           (2.0, (9, 9), STATUS_COMPLETED_BOUNDED),
                                           (2.0, (11, 7), STATUS_INFEASIBLE)],
                         ids=["w1", "w2", "unreachable"])
def test_wastar_driver_publishes_what_weighted_astar_finds(w0, goal, status):
    # on this instance the goal's cost-to-come and its path's re-summed
    # edge costs differ in the last bits; the driver publishes the former
    world = open_world(12, move=3, cost="random_factor", cost_seed=0)
    problem = grid_problem(world, (0, 0), goal)
    direct = weighted_astar(problem, problem.start, w=w0)
    result = wastar(PlannerConfig(w0=w0), problem, problem.start)
    assert result.status == status
    assert result.expansions_per_iteration == [direct.expansions]
    if direct.path is None:
        assert result.records == []
        return
    assert direct.path.cost != direct.cost
    (record,) = result.records
    assert record.cost.hex() == direct.cost.hex()
    assert (record.path.edges, record.path.states) == (direct.path.edges, direct.path.states)
    assert (record.w_at_publish, record.bound_lambda) == (w0, w0)
    assert record.t_since_plan_start <= result.wall_time


def test_ara_star_result_carries_its_search_state():
    problem = grid_problem(open_world(9), (0, 0), (8, 8))
    res = ara_star(PlannerConfig(w0=3.0), problem, problem.start, log_events=True)
    assert type(res.context) is SearchState
    assert res.events is res.context.events and res.events
    assert committed_expansion_check(res.events) == 0


def test_ara_w0_1_single_iteration_optimal():
    problem = grid_problem(open_world(9), (0, 0), (8, 8))
    oracle = dijkstra_oracle(problem, problem.start).cost
    fresh = grid_problem(open_world(9), (0, 0), (8, 8))
    res = ara_star(PlannerConfig(w0=1.0), fresh, fresh.start)
    assert res.status == STATUS_PROVED_OPTIMAL
    assert len(res.records) == 1
    assert res.final_cost == pytest.approx(oracle, rel=1e-12)


def test_ara_full_schedule_monotone_and_optimal():
    world = open_world(20, footprint=2, move=2, cost="random_factor", cost_seed=3)
    problem = grid_problem(world, (0, 0), (16, 16))
    oracle = dijkstra_oracle(problem, problem.start).cost
    fresh = grid_problem(world, (0, 0), (16, 16))
    res = ara_star(PlannerConfig(w0=50.0, delta_w=0.5), fresh, fresh.start, log_events=True)
    assert res.status == STATUS_PROVED_OPTIMAL
    costs = published_costs(res)
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert costs[-1] == pytest.approx(oracle, rel=1e-9)
    # every record respects its published bound
    for rec in res.records:
        assert rec.cost <= rec.bound_lambda * oracle * (1 + 1e-9)
    # anytime-efficiency: no state re-expanded without a g drop
    assert committed_expansion_check(res.events) == 0


def test_ara_infeasible_reports_empty_records():
    rows = ["...@.",
            "...@.",
            "...@.",
            "...@.",
            "...@.",
            ]
    text = "type octile\nheight 5\nwidth 5\nmap\n" + "\n".join(rows) + "\n"
    problem = grid_problem(make_world(text), (0, 0), (4, 0))
    res = ara_star(PlannerConfig(w0=3.0), problem, problem.start)
    assert res.status == STATUS_INFEASIBLE
    assert res.records == []


def test_dijkstra_distances_settles_full_component():
    problem = grid_problem(open_world(5), (0, 0), (4, 4))
    dist = dijkstra_distances(problem, problem.start)
    assert len(dist) == 25
    assert dist[problem.start] == 0.0
