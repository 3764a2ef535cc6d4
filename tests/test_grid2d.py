import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyplan.grid2d import (
    CostModel,
    GridDomainConfig,
    GridPlanningProblem,
    GridWorld,
    MapFormatError,
    SamplingError,
    build_factor_map,
    grid_successors,
    load_map,
    parse_map,
    reachable_anchors,
    sample_start_goal_pairs,
    serialize_map,
)

from _support import (
    all_pairs_optimal,
    make_world,
    open_map_text,
    open_world,
    random_obstacle_map_text,
    sweep_collision_oracle,
)

MAPS_DIR = Path(__file__).resolve().parents[1] / "maps"
FIXTURES = sorted(MAPS_DIR.glob("*.map"))


# -- parser -----------------------------------------------------------------

def test_parse_smallest_legal_map():
    grid = parse_map("type octile\nheight 2\nwidth 2\nmap\n.@\n..\n")
    assert (grid.width, grid.height) == (2, 2)
    assert grid.occupancy[0, 1] and not grid.occupancy[0, 0]
    assert not grid.occupancy[1, 0] and not grid.occupancy[1, 1]


def test_parse_missing_row_reports_line():
    with pytest.raises(MapFormatError, match="line 6"):
        parse_map("type octile\nheight 3\nwidth 2\nmap\n..\n..\n")


def test_parse_unknown_glyph_reports_line_and_col():
    with pytest.raises(MapFormatError, match="line 5, col 2"):
        parse_map("type octile\nheight 1\nwidth 3\nmap\n.x.\n")


def test_parse_row_width_mismatch():
    with pytest.raises(MapFormatError, match="line 5"):
        parse_map("type octile\nheight 2\nwidth 3\nmap\n..\n...\n")


def test_parse_bad_header():
    with pytest.raises(MapFormatError, match="height"):
        parse_map("type octile\nwidth 2\nheight 2\nmap\n..\n..\n")


def test_parse_trailing_rows_rejected():
    with pytest.raises(MapFormatError, match="trailing"):
        parse_map("type octile\nheight 1\nwidth 2\nmap\n..\n..\n")


def test_fixture_maps_round_trip_byte_exact():
    assert len(FIXTURES) >= 5
    for path in FIXTURES:
        text = path.read_text()
        grid = parse_map(text, name=path.name)
        assert serialize_map(grid) == text


def test_parse_serialize_parse_preserves_occupancy_for_foreign_glyphs():
    text = "type octile\nheight 2\nwidth 3\nmap\n.GT\nO@.\n"
    first = parse_map(text)
    second = parse_map(serialize_map(first))
    assert np.array_equal(first.occupancy, second.occupancy)


def test_load_map_scale_upsamples_nearest_neighbor(tmp_path):
    p = tmp_path / "t.map"
    p.write_text("type octile\nheight 2\nwidth 2\nmap\n.@\n..\n")
    grid = load_map(p, scale=3)
    assert (grid.width, grid.height) == (6, 6)
    assert grid.occupancy[0, 3] and grid.occupancy[2, 5]
    assert not grid.occupancy[0, 0] and not grid.occupancy[5, 5]


# -- collision checking -----------------------------------------------------

def test_adjacent_free_cells_clear_with_unit_footprint():
    world = open_world(4)
    assert world.segment_clear((0, 0), (1, 0))


def test_midpoint_obstacle_blocks_segment():
    text = "type octile\nheight 1\nwidth 5\nmap\n..@..\n"
    world = make_world(text)
    assert not world.segment_clear((0, 0), (4, 0))
    assert world.segment_clear((0, 0), (1, 0))


def test_footprint_blocks_near_obstacle():
    # 3x3 footprint near a lone obstacle: placements overlapping it fail
    text = "type octile\nheight 6\nwidth 6\nmap\n......\n......\n...@..\n......\n......\n......\n"
    world = make_world(text, footprint=3)
    assert not world.placement_free(1, 0)  # covers (1..3, 0..2) incl (3,2)
    assert world.placement_free(0, 3)


def test_collision_check_symmetric_at_unit_step():
    world = make_world(random_obstacle_map_text(16, 16, 0.2, seed=5), footprint=2)
    rng_pairs = [((1, 2), (9, 12)), ((0, 0), (13, 5)), ((3, 11), (12, 1))]
    for a, b in rng_pairs:
        assert world.segment_clear(a, b) == world.segment_clear(b, a)


def test_collision_check_agrees_with_sweep_oracle_randomized():
    import random

    rng = random.Random(0)
    n_cases = 300
    for case in range(n_cases):
        size = rng.randint(6, 18)
        text = random_obstacle_map_text(size, size, rng.uniform(0.0, 0.35), seed=case)
        footprint = rng.randint(1, 4)
        step = rng.randint(1, 3)
        world = make_world(text, footprint=footprint, move=max(1, size // 2),
                           collision_step=step)
        frm = (rng.randrange(size), rng.randrange(size))
        to = (rng.randrange(size), rng.randrange(size))
        got = world.segment_clear(frm, to)
        want = sweep_collision_oracle(world.grid, frm, to, footprint, step)
        assert got == want, (case, frm, to, footprint, step)


def test_full_scale_footprint_slide_matches_sweep_oracle():
    # paper-scale parameters: 32-cell footprint moving 25 cells diagonally
    # past an obstacle notch
    size = 90
    rows = [["."] * size for _ in range(size)]
    for y in range(40, 44):
        for x in range(40, 44):
            rows[y][x] = "@"
    text = f"type octile\nheight {size}\nwidth {size}\nmap\n" + \
        "\n".join("".join(r) for r in rows) + "\n"
    world = make_world(text, footprint=32, move=25)
    cases = [((10, 10), (35, 35)), ((2, 2), (27, 27)), ((44, 10), (44, 35)),
             ((50, 50), (25, 25)), ((5, 44), (30, 44))]
    for frm, to in cases:
        assert world.segment_clear(frm, to) == sweep_collision_oracle(
            world.grid, frm, to, 32, 1), (frm, to)


def test_zero_length_move_checks_standing_footprint():
    text = "type octile\nheight 3\nwidth 3\nmap\n...\n.@.\n...\n"
    world = make_world(text, footprint=2)
    assert not world.segment_clear((1, 1), (1, 1))
    assert world.placement_free(0, 0) is False  # footprint 2 covers (1,1)


# -- move table ---------------------------------------------------------------

def test_move_table_matches_reference_check_randomized():
    import random

    rng = random.Random(1)
    valid = 0
    for case in range(120):
        width, height = rng.randint(3, 14), rng.randint(3, 14)
        text = random_obstacle_map_text(width, height, rng.uniform(0.0, 0.3), seed=case)
        side = max(width, height)
        # mostly small footprints and moves, which leave valid moves to check;
        # some up to larger than the map and past its side
        footprint = rng.randint(1, side + 1) if case % 4 == 0 else rng.randint(1, 3)
        move = rng.randint(1, side + 2) if case % 3 == 0 else rng.randint(1, 4)
        step = rng.randint(1, min(3, move))
        world = make_world(text, footprint=footprint, move=move, collision_step=step,
                           cost="random_factor", cost_seed=case)
        for y in range(-2, height + 2):  # out-of-range and blocked anchors too
            for x in range(-2, width + 2):
                for a in range(8):
                    t = world.move_target((x, y), a)
                    want = world.placement_free(*t) and world.segment_clear((x, y), t)
                    ok, target, cost = world.evaluate_move((x, y), a)
                    assert ok == want, (case, footprint, move, step, (x, y), a)
                    if ok:
                        assert target == t and cost == world.edge_cost((x, y), t)
                        valid += 1
    assert valid > 1000


@pytest.mark.parametrize("map_name,footprint,move", [("maze64.map", 4, 6),
                                                     ("cross32.map", 4, 4)])
def test_reachable_anchors_equal_dijkstra_settled_set(map_name, footprint, move):
    import random

    from anyplan.baselines import dijkstra_distances

    world = GridWorld(load_map(MAPS_DIR / map_name),
                      GridDomainConfig(footprint_side=footprint, move_length=move))
    anchors = world.free_anchors()
    for start in random.Random(3).sample(anchors, 6):
        probe = GridPlanningProblem(world, start, start)
        dist = dijkstra_distances(probe, probe.start)
        assert reachable_anchors(world, start) == {probe.coord_of(s) for s in dist}


def test_sampled_maze128_pairs_are_pinned():
    # footprint 8 / move 12 on maze128, seed 5: the benchmark's instance
    # source; these are the pairs the Dijkstra-based sampler drew
    world = GridWorld(load_map(MAPS_DIR / "maze128.map"),
                      GridDomainConfig(footprint_side=8, move_length=12))
    assert sample_start_goal_pairs(world, 20, seed=5) == [
        ((113, 120), (65, 60)), ((20, 73), (8, 37)), ((61, 94), (49, 118)),
        ((88, 8), (28, 32)), ((113, 18), (53, 90)), ((20, 95), (56, 107)),
        ((9, 78), (117, 114)), ((4, 17), (112, 89)), ((26, 44), (2, 20)),
        ((16, 37), (88, 25)), ((25, 53), (25, 77)), ((1, 80), (25, 44)),
        ((2, 12), (26, 0)), ((9, 120), (105, 36)), ((17, 21), (5, 21)),
        ((52, 0), (4, 0)), ((70, 35), (58, 47)), ((94, 27), (46, 111)),
        ((20, 56), (68, 80)), ((24, 33), (120, 57)),
    ]


# -- successors and costs ---------------------------------------------------

def test_open_interior_has_eight_moves_with_exact_geometry():
    world = open_world(200, footprint=32, move=25)
    outcomes = grid_successors(world, (100, 100))
    assert len(outcomes) == 8
    costs = sorted(round(cost, 4) for ok, _t, cost in outcomes if ok)
    assert len(costs) == 8
    assert costs[:4] == [25.0] * 4
    assert costs[4:] == [round(25 * math.sqrt(2), 4)] * 4


def test_corner_moves_off_map_are_invalid():
    world = open_world(80, footprint=8, move=10)
    outcomes = grid_successors(world, (0, 0))
    # N, NE, NW, W, SW all leave the map; E, SE, S remain
    valid_dirs = [i for i, (ok, _t, _c) in enumerate(outcomes) if ok]
    assert valid_dirs == [2, 3, 4]


def test_factor_map_golden_value_and_determinism():
    fm = build_factor_map(42, 100, 100)
    assert fm[0, 0] == pytest.approx(74.4149229984105, abs=1e-12)
    assert fm[99, 99] == pytest.approx(39.25708239454645, abs=1e-12)
    assert np.array_equal(fm, build_factor_map(42, 100, 100))
    assert fm.min() >= 1.0 and fm.max() <= 100.0


def test_random_factor_cost_is_length_times_endpoint_mean():
    world = open_world(30, footprint=1, move=4, cost="random_factor", cost_seed=9)
    fm = world.factor_map
    ok, target, cost = world.evaluate_move((3, 3), 2)  # east
    assert ok and target == (7, 3)
    expected = 4.0 * (fm[3, 3] + fm[3, 7]) / 2.0
    assert cost == pytest.approx(expected, rel=1e-12)


def test_successors_pure_function_bit_identical():
    world = open_world(40, footprint=3, move=5, cost="random_factor", cost_seed=4)
    a = grid_successors(world, (11, 7))
    b = grid_successors(world, (11, 7))
    assert a == b


def test_eval_delay_wall_time_within_half_ms():
    world = open_world(20, footprint=1, move=1, eval_delay=0.002)
    samples = []
    for _ in range(9):
        t0 = time.perf_counter()
        world.evaluate_move((5, 5), 2)
        samples.append(time.perf_counter() - t0)
    assert all(dt >= 0.002 for dt in samples)
    # scheduler hiccups can stretch a single sleep; the typical case must
    # stay inside the half-millisecond envelope
    assert sorted(samples)[len(samples) // 2] <= 0.0025


# -- heuristics ---------------------------------------------------------------

def test_heuristic_zero_at_goal_and_345_triangle():
    world = open_world(10)
    problem = GridPlanningProblem(world, (0, 0), (3, 4))
    assert problem.heuristic(problem.start) == pytest.approx(5.0)
    goal_key = problem._interner.key_for((3, 4))
    assert problem.heuristic(goal_key) == 0.0
    assert problem.pairwise_heuristic(problem.start, problem.start) == 0.0


def test_heuristic_admissible_all_pairs_8x8():
    world = open_world(8)
    problem = GridPlanningProblem(world, (0, 0), (7, 7))
    from anyplan.baselines import dijkstra_distances

    states = sorted(dijkstra_distances(problem, problem.start))
    optimal = all_pairs_optimal(problem, states)
    for (s, t), d in optimal.items():
        assert problem.pairwise_heuristic(s, t) <= d + 1e-9


def test_heuristic_consistent_under_random_factor_costs():
    world = open_world(12, move=3, cost="random_factor", cost_seed=11)
    problem = GridPlanningProblem(world, (0, 0), (9, 9))
    from anyplan.baselines import dijkstra_distances
    from anyplan.domain import EdgeCache, audit_consistency

    cache = EdgeCache()
    dijkstra_distances(problem, problem.start, cache)
    assert audit_consistency(problem, cache) > 0


# -- start/goal sampling ------------------------------------------------------

def test_sampling_deterministic_in_seed():
    world = make_world(open_map_text(200, 200), footprint=32, move=25)
    a = sample_start_goal_pairs(world, 3, seed=7)
    b = sample_start_goal_pairs(world, 3, seed=7)
    assert a == b
    assert len(a) == 3
    assert all(s != g for s, g in a)


def test_sampling_pairs_stay_within_one_region():
    # full-height wall splits the map into two disconnected halves
    rows = []
    for _y in range(20):
        rows.append("." * 9 + "@@" + "." * 9)
    text = "type octile\nheight 20\nwidth 20\nmap\n" + "\n".join(rows) + "\n"
    world = make_world(text, footprint=2, move=2)
    pairs = sample_start_goal_pairs(world, 8, seed=3)
    for (sx, _sy), (gx, _gy) in pairs:
        assert (sx < 9) == (gx < 9)


def test_sampling_count_zero_returns_empty():
    world = open_world(10)
    assert sample_start_goal_pairs(world, 0, seed=1) == []


def test_sampling_fails_cleanly_when_no_placements():
    text = "type octile\nheight 3\nwidth 3\nmap\n@@@\n@@@\n@@@\n"
    world = make_world(text)
    with pytest.raises(SamplingError):
        sample_start_goal_pairs(world, 1, seed=1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_sampling_pairs_are_free_and_distinct(seed, count):
    world = open_world(12, footprint=2, move=3)
    pairs = sample_start_goal_pairs(world, count, seed=seed)
    assert len(pairs) == count
    for s, g in pairs:
        assert world.placement_free(*s) and world.placement_free(*g)
        assert s != g


# -- config validation --------------------------------------------------------

def test_domain_config_rejects_bad_values():
    with pytest.raises(ValueError):
        GridDomainConfig(footprint_side=0)
    with pytest.raises(ValueError):
        GridDomainConfig(collision_step=5, move_length=4)
    with pytest.raises(ValueError):
        GridDomainConfig(eval_delay=-1)
    with pytest.raises(ValueError):
        CostModel("parabolic")


def test_factor_map_export(tmp_path):
    world = open_world(6, cost="random_factor", cost_seed=1)
    out = tmp_path / "factors.txt"
    world.export_factor_map(out)
    back = np.loadtxt(out)
    assert np.allclose(back, world.factor_map, rtol=0, atol=0)
