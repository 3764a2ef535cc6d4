import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyplan.domain import INVALID_OUTCOME, SuccessorOutcome
from anyplan.grid2d import (
    COST_KINDS,
    DIRECTIONS,
    ON_RASTER_ACTIONS,
    CostModel,
    GridDomainConfig,
    GridPlanningProblem,
    GridWorld,
    MapFormatError,
    SamplingError,
    build_factor_map,
    load_map,
    parse_map,
    sample_start_goal_pairs,
    serialize_map,
)

from _support import (
    AllMovesProblem,
    all_pairs_optimal,
    assert_no_leaked_workers,
    audit_consistency,
    edge_cost,
    free_anchors,
    make_world,
    move_target,
    open_map_text,
    open_world,
    random_obstacle_map_text,
    reachable_anchors,
    segment_clear,
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


@pytest.mark.parametrize("rows,message", [
    (".x.\n..\n...\n", "m: line 5, col 2: unknown glyph 'x'"),
    ("...\n..\n.x.\n", "m: line 6: row has 2 glyphs, expected 3"),
    ("...\n.@é\n..\n", "m: line 6, col 3: unknown glyph 'é'"),
], ids=["glyph-before-short-row", "short-row-before-glyph", "non-ascii-glyph"])
def test_parse_reports_the_first_bad_row_in_row_order(rows, message):
    with pytest.raises(MapFormatError) as info:
        parse_map("type octile\nheight 3\nwidth 3\nmap\n" + rows, name="m")
    assert str(info.value) == message


def test_parse_marks_every_obstacle_glyph():
    grid = parse_map("type octile\nheight 2\nwidth 3\nmap\n.GT\nO@.\n")
    assert grid.occupancy.tolist() == [[False, False, True], [True, True, False]]


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
    assert segment_clear(world, (0, 0), (1, 0))


def test_midpoint_obstacle_blocks_segment():
    text = "type octile\nheight 1\nwidth 5\nmap\n..@..\n"
    world = make_world(text)
    assert not segment_clear(world, (0, 0), (4, 0))
    assert segment_clear(world, (0, 0), (1, 0))


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
        assert segment_clear(world, a, b) == segment_clear(world, b, a)


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
        got = segment_clear(world, frm, to)
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
        assert segment_clear(world, frm, to) == sweep_collision_oracle(
            world.grid, frm, to, 32, 1), (frm, to)


def test_zero_length_move_checks_standing_footprint():
    text = "type octile\nheight 3\nwidth 3\nmap\n...\n.@.\n...\n"
    world = make_world(text, footprint=2)
    assert not segment_clear(world, (1, 1), (1, 1))
    assert world.placement_free(0, 0) is False  # footprint 2 covers (1,1)


# -- move table ---------------------------------------------------------------

def reference_move_ok(world, xy, action):
    """A move's validity from the footprint checks alone, no move table."""
    t = move_target(world, xy, action)
    return world.placement_free(*t) and segment_clear(world, xy, t)


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
                    ok, target, cost = world.evaluate_move((x, y), a)
                    assert ok == reference_move_ok(world, (x, y), a), (
                        case, footprint, move, step, (x, y), a)
                    if ok:
                        t = move_target(world, (x, y), a)
                        assert target == t and cost == edge_cost(world, (x, y), t)
                        valid += 1
    assert valid > 1000


@pytest.mark.parametrize("map_name,footprint,move,step", [
    ("maze64.map", 4, 6, 1), ("cross32.map", 4, 4, 1),
    # samples at offsets 0, 4, 6 one way and 0, 2, 6 back: a directed graph
    ("maze64.map", 4, 6, 4),
], ids=["maze64.map-4-6", "cross32.map-4-4", "maze64.map-4-6-step4"])
def test_reachable_anchors_equal_dijkstra_settled_set(map_name, footprint, move, step):
    import random

    from anyplan.baselines import dijkstra_distances

    world = GridWorld(load_map(MAPS_DIR / map_name),
                      GridDomainConfig(footprint_side=footprint, move_length=move,
                                       collision_step=step))
    anchors = free_anchors(world)
    for start in random.Random(3).sample(anchors, 6):
        probe = GridPlanningProblem(world, start, start)
        dist = dijkstra_distances(probe, probe.start)
        assert reachable_anchors(world, start) == {probe.coord_of(s) for s in dist}


def reference_reachable_anchors(world, start):
    """The search on (x, y) tuples through :func:`reference_move_ok`."""
    seen = {start}
    frontier = [start]
    while frontier:
        xy = frontier.pop()
        for a in range(8):
            if reference_move_ok(world, xy, a):
                nxt = move_target(world, xy, a)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def test_reachable_anchors_match_reference_search_randomized():
    import random

    rng = random.Random(7)
    directed = 0
    for case in range(60):
        width, height = rng.randint(2, 12), rng.randint(2, 12)
        density = 0.0 if case % 5 == 0 else rng.uniform(0.0, 0.3)
        text = random_obstacle_map_text(width, height, density, seed=case)
        footprint = rng.randint(1, 3)
        move = rng.randint(1, 4)
        world = make_world(text, footprint=footprint, move=move,
                           collision_step=rng.randint(1, move))
        ph, pw = world.placement_ok.shape
        # every anchor in range, the last column and row among them, whether
        # blocked or free, and starts just off each side
        starts = [(x, y) for y in range(-1, ph + 1) for x in range(-1, pw + 1)]
        for start in starts:
            got = reachable_anchors(world, start)
            assert got == reference_reachable_anchors(world, start), (case, start)
            assert all(type(x) is int and type(y) is int for x, y in got)
        directed += any(reference_move_ok(world, xy, a)
                        and not reference_move_ok(world, move_target(world, xy, a), (a + 4) % 8)
                        for xy in free_anchors(world) for a in range(8))
    assert directed > 0


def test_flat_steps_never_wrap_into_the_next_row():
    # from the last column, the flat index one step E, NE or SE is a free
    # anchor of the first column, on the far side of the wall
    walled = make_world("type octile\nheight 4\nwidth 4\nmap\n..@.\n..@.\n..@.\n..@.\n")
    assert reachable_anchors(walled, (1, 0)) == {(x, y) for x in (0, 1) for y in range(4)}
    assert reachable_anchors(walled, (3, 1)) == {(3, y) for y in range(4)}


#: (map, footprint, move, collision step) -> the (start, goal, oracle cost
#: as ``float.hex``) instances that ``random_factor`` costs with seed 5 and
#: ``sample_start_goal_pairs(world, len(instances), seed=5)`` give.  The
#: first is the benchmark's instance source (``perfbench/run.py``, C07).
PINNED_INSTANCES = {
    ("maze128.map", 8, 12, 1): [
        ((113, 120), (65, 60), "0x1.5ffa70c0e1fecp+12"),
        ((20, 73), (8, 37), "0x1.7a3d0651b0e3ep+11"),
        ((61, 94), (49, 118), "0x1.9cc65733cb519p+10"),
        ((88, 8), (28, 32), "0x1.d398e1d6bf71cp+12"),
        ((113, 18), (53, 90), "0x1.2093570c10b5cp+12"),
        ((20, 95), (56, 107), "0x1.56ca43d00038cp+10"),
        ((9, 78), (117, 114), "0x1.2073da4b5d12cp+13"),
        ((4, 17), (112, 89), "0x1.79818b4d6933cp+13"),
        ((26, 44), (2, 20), "0x1.c210468d49063p+9"),
        ((16, 37), (88, 25), "0x1.7050eec172624p+12"),
        ((25, 53), (25, 77), "0x1.e5b5f728caf88p+10"),
        ((1, 80), (25, 44), "0x1.4d1ab963c3fe3p+10"),
        ((2, 12), (26, 0), "0x1.eeb3c6811c6e7p+10"),
        ((9, 120), (105, 36), "0x1.5bbc1b59f62aap+12"),
        ((17, 21), (5, 21), "0x1.93c3c88530bf6p+9"),
        ((52, 0), (4, 0), "0x1.9510f73dfd8dcp+13"),
        ((70, 35), (58, 47), "0x1.25d406f5f1aa2p+10"),
        ((94, 27), (46, 111), "0x1.05b7154e53985p+12"),
        ((20, 56), (68, 80), "0x1.4eec1f83c1084p+12"),
        ((24, 33), (120, 57), "0x1.52ad504919c18p+13"),
    ],
    # samples at offsets 0, 4, 6 one way and 0, 2, 6 back: a directed graph
    ("maze64.map", 4, 6, 4): [
        ((59, 56), (29, 38), "0x1.7a0398432e81ep+11"),
        ((55, 32), (55, 38), "0x1.af14278c3b5bap+8"),
        ((29, 2), (53, 50), "0x1.1996839afc1c2p+11"),
        ((14, 21), (2, 39), "0x1.5807339a165dcp+8"),
        ((53, 12), (11, 18), "0x1.4fc9d70744938p+11"),
        ((9, 34), (51, 58), "0x1.141043e02f4cap+12"),
        ((3, 21), (45, 3), "0x1.11c8c86afde29p+12"),
        ((24, 50), (6, 20), "0x1.9a997c176cc8ap+10"),
    ],
}


def sampled_instances(map_name, footprint, move, step, count):
    from anyplan.baselines import dijkstra_oracle

    world = GridWorld(load_map(MAPS_DIR / map_name),
                      GridDomainConfig(footprint_side=footprint, move_length=move,
                                       collision_step=step),
                      CostModel("random_factor", rng_seed=5))
    instances = []
    for start, goal in sample_start_goal_pairs(world, count, seed=5):
        problem = GridPlanningProblem(world, start, goal)
        instances.append((start, goal, dijkstra_oracle(problem, problem.start).cost.hex()))
    return instances


def test_sampled_maze128_pairs_are_pinned():
    # the benchmark's instances: any change to sampling, the move tables,
    # the cost model or the oracle that moves one of them fails here
    key = ("maze128.map", 8, 12, 1)
    assert sampled_instances(*key, 20) == PINNED_INSTANCES[key]


def test_sampled_instances_with_a_collision_step_are_pinned():
    key = ("maze64.map", 4, 6, 4)
    assert sampled_instances(*key, 8) == PINNED_INSTANCES[key]


# -- successors and costs ---------------------------------------------------

def test_open_interior_has_eight_moves_with_exact_geometry():
    world = open_world(200, footprint=32, move=25)
    outcomes = [world.evaluate_move((100, 100), a) for a in range(8)]
    assert len(outcomes) == 8
    costs = sorted(round(cost, 4) for ok, _t, cost in outcomes if ok)
    assert len(costs) == 8
    assert costs[:4] == [25.0] * 4
    assert costs[4:] == [round(25 * math.sqrt(2), 4)] * 4


def test_corner_moves_off_map_are_invalid():
    world = open_world(80, footprint=8, move=10)
    outcomes = [world.evaluate_move((0, 0), a) for a in range(8)]
    # N, NE, NW, W, SW all leave the map; E, SE, S remain
    valid_dirs = [i for i, (ok, _t, _c) in enumerate(outcomes) if ok]
    assert valid_dirs == [2, 3, 4]


# -- the action set -----------------------------------------------------------

def on_raster_moves(world, xy):
    """The actions whose target, anchor + move x direction, is an anchor of
    the placement raster, from the coordinates alone."""
    ph, pw = world.placement_ok.shape
    return tuple(a for a in range(len(DIRECTIONS))
                 if 0 <= move_target(world, xy, a)[0] < pw
                 and 0 <= move_target(world, xy, a)[1] < ph)


@pytest.mark.parametrize("width,height,footprint,move", [
    (1, 1, 1, 1),
    (5, 4, 1, 1),
    (9, 7, 2, 3),
    (12, 12, 3, 4),
    (6, 15, 2, 5),
    (16, 10, 4, 4),
    (4, 9, 2, 3),  # 3 anchors a row, narrower than one move
])
def test_a_state_lists_exactly_the_moves_whose_target_is_on_the_raster(width, height,
                                                                      footprint, move):
    # the listing reads the coordinates alone; obstacles only vary which
    # listed moves are valid
    world = make_world(random_obstacle_map_text(width, height, 0.1, seed=width * height),
                       footprint=footprint, move=move, cost="random_factor", cost_seed=3)
    ph, pw = world.placement_ok.shape
    anchors = free_anchors(world)
    problem = GridPlanningProblem(world, anchors[0], anchors[-1])
    unlisted_any = 0
    for y in range(ph):
        for x in range(pw):
            state = y * pw + x
            listed = problem.actions(state)
            assert listed == on_raster_moves(world, (x, y)), (x, y)
            assert listed in ON_RASTER_ACTIONS
            for a in set(range(len(DIRECTIONS))) - set(listed):
                assert world.evaluate_anchor(state, a) == INVALID_OUTCOME, (x, y, a)
                unlisted_any += 1
    assert unlisted_any > 0


def test_a_move_whose_flat_index_wraps_east_is_not_listed():
    world = open_world(10, footprint=2, move=3)  # 9 x 9 anchors, all free
    problem = GridPlanningProblem(world, (0, 0), (8, 8))
    east = DIRECTIONS.index((1, 0))
    state = problem.state_of((8, 4))
    # three flat steps east of the last column is the free anchor (2, 5)
    assert problem.coord_of(state + 3) == (2, 5) and world.placement_free(2, 5)
    assert problem.actions(state) == (0, 4, 5, 6, 7)  # N, S, SW, W, NW
    assert world.evaluate_anchor(state, east) == INVALID_OUTCOME


def test_a_raster_narrower_than_one_move_lists_no_horizontal_move():
    world = make_world(open_map_text(4, 12), footprint=2, move=3)  # 3 x 11 anchors
    problem = GridPlanningProblem(world, (0, 0), (2, 10))
    north, south = DIRECTIONS.index((0, -1)), DIRECTIONS.index((0, 1))
    for y in range(11):
        expected = tuple(a for a, ok in ((north, y >= 3), (south, y <= 7)) if ok)
        assert [problem.actions(problem.state_of((x, y))) for x in range(3)] == [expected] * 3


@pytest.mark.parametrize("w0,max_iterations", [(1.0, 1), (50.0, None)])
def test_listing_only_on_raster_moves_changes_only_the_evaluations(w0, max_iterations):
    from anyplan.baselines import ara_star, dijkstra_oracle
    from anyplan.controller import PlannerConfig, plan

    world = GridWorld(load_map(MAPS_DIR / "maze128.map"),
                      GridDomainConfig(footprint_side=8, move_length=12),
                      CostModel("random_factor", rng_seed=5))
    cfg = PlannerConfig(w0=w0, delta_w=0.5, n_threads=1, max_iterations=max_iterations)

    def records(result):
        assert result.status == "proved_optimal"
        return [(r.cost.hex(), r.bound_lambda, r.iteration_index, r.path.states)
                for r in result.records]

    # the three longest of the benchmark's pairs
    for start, goal in sorted(sample_start_goal_pairs(world, 20, seed=5),
                              key=lambda pair: math.dist(*pair))[-3:]:
        listed = GridPlanningProblem(world, start, goal)
        every = AllMovesProblem(world, start, goal)
        assert (dijkstra_oracle(listed, listed.start).cost
                == dijkstra_oracle(every, every.start).cost)
        for driver in (plan, ara_star):
            ours, reference = driver(cfg, listed, listed.start), driver(cfg, every, every.start)
            assert records(ours) == records(reference), (start, goal, driver.__name__)
            assert ours.context.cache.misses < reference.context.cache.misses


def test_factor_map_golden_value_and_determinism():
    fm = build_factor_map(42, 100, 100)
    assert fm[0, 0] == pytest.approx(74.4149229984105, abs=1e-12)
    assert fm[99, 99] == pytest.approx(39.25708239454645, abs=1e-12)
    assert np.array_equal(fm, build_factor_map(42, 100, 100))
    assert fm.min() >= 1.0 and fm.max() <= 100.0


def test_random_factor_cost_is_length_times_endpoint_mean():
    world = open_world(30, footprint=1, move=4, cost="random_factor", cost_seed=9)
    fm = build_factor_map(9, 30, 30)
    ok, target, cost = world.evaluate_move((3, 3), 2)  # east
    assert ok and target == (7, 3)
    expected = 4.0 * (fm[3, 3] + fm[3, 7]) / 2.0
    assert cost == pytest.approx(expected, rel=1e-12)


def test_costs_are_python_floats_through_a_random_factor_episode():
    # numpy scalars must not leak from the factor map into g, published or
    # oracle costs
    from anyplan.baselines import dijkstra_oracle
    from anyplan.controller import PlannerConfig, plan

    world = GridWorld(load_map(MAPS_DIR / "maze64.map"),
                      GridDomainConfig(footprint_side=4, move_length=6),
                      CostModel("random_factor", rng_seed=5))
    (start, goal), = sample_start_goal_pairs(world, 1, seed=1)
    ok, target, cost = next(out for out in (world.evaluate_move(start, a) for a in range(8))
                            if out[0])
    assert ok and type(cost) is float
    assert type(edge_cost(world, start, target)) is float
    problem = GridPlanningProblem(world, start, goal)
    assert type(dijkstra_oracle(problem, problem.start).cost) is float
    problem = GridPlanningProblem(world, start, goal)
    result = plan(PlannerConfig(w0=3.0, delta_w=1.0, n_threads=2), problem, problem.start)
    assert result.records and result.context.nodes
    assert all(type(node.g) is float for node in result.context.nodes.values())
    assert all(type(rec.cost) is float and type(rec.path.cost) is float
               for rec in result.records)


def test_state_of_and_coord_of_round_trip_on_every_maze128_anchor():
    world = GridWorld(load_map(MAPS_DIR / "maze128.map"),
                      GridDomainConfig(footprint_side=8, move_length=12))
    anchors = free_anchors(world)
    problem = GridPlanningProblem(world, anchors[0], anchors[-1])
    states = [problem.state_of(xy) for xy in anchors]
    assert [problem.coord_of(s) for s in states] == anchors
    # raster indices: plain ints, distinct and increasing in raster order
    assert all(type(s) is int for s in states) and states == sorted(set(states))
    assert problem.start == states[0] and problem.is_goal(states[-1])


def test_one_problem_serves_many_episodes():
    # the problem keeps no per-episode state: planning on it again gives
    # the records a fresh problem gives
    from anyplan.controller import PlannerConfig, plan

    world = GridWorld(load_map(MAPS_DIR / "maze64.map"),
                      GridDomainConfig(footprint_side=4, move_length=6),
                      CostModel("random_factor", rng_seed=5))
    (start, goal), = sample_start_goal_pairs(world, 1, seed=1)
    cfg = PlannerConfig(w0=3.0, delta_w=0.5, n_threads=1)

    def records(problem):
        result = plan(cfg, problem, problem.start)
        return [(r.path, r.cost, r.w_at_publish, r.bound_lambda, r.iteration_index)
                for r in result.records]

    fresh = records(GridPlanningProblem(world, start, goal))
    shared = GridPlanningProblem(world, start, goal)
    assert len(fresh) > 1
    assert [records(shared) for _ in range(3)] == [fresh] * 3


@pytest.mark.parametrize("cost", ["euclidean", "random_factor"])
def test_a_handle_off_the_placement_grid_has_no_valid_move(cost):
    # on an open map the last anchors have valid N, W and NW moves, so a
    # negative handle must not wrap round to them
    world = open_world(12, footprint=2, move=3, cost=cost, cost_seed=3)
    problem = GridPlanningProblem(world, (0, 0), (9, 9))
    n = world.placement_ok.size
    assert problem.evaluate(n - 1, 0).valid
    for handle in (-1, -3, n, n + 5):
        for a in range(8):
            assert problem.evaluate(handle, a) == INVALID_OUTCOME, (handle, a)


def test_problem_evaluate_equals_evaluate_move_on_every_anchor_randomized():
    import random

    rng = random.Random(5)
    valid = 0
    for case in range(48):
        # both cost models, with collision step 1 and above 1
        cost = ("euclidean", "random_factor")[case % 2]
        width, height = rng.randint(3, 14), rng.randint(3, 14)
        text = random_obstacle_map_text(width, height, rng.uniform(0.0, 0.25), seed=case)
        move = rng.randint(2, 5)
        step = 1 if case % 4 < 2 else rng.randint(2, move)
        world = make_world(text, footprint=rng.randint(1, 2), move=move, collision_step=step,
                           cost=cost, cost_seed=case)
        anchors = free_anchors(world)
        if not anchors:
            continue
        problem = GridPlanningProblem(world, anchors[0], anchors[0])
        ph, pw = world.placement_ok.shape
        for xy in [(x, y) for y in range(ph) for x in range(pw)]:
            for a in range(8):
                ok, target, cost_xy = world.evaluate_move(xy, a)
                want = (SuccessorOutcome(True, problem.state_of(target), cost_xy) if ok
                        else INVALID_OUTCOME)
                got = problem.evaluate(problem.state_of(xy), a)
                assert got == want and type(got.cost) is type(want.cost), (case, xy, a)
                if ok:
                    assert cost_xy == edge_cost(world, xy, target)
                    valid += 1
    assert valid > 1000


@pytest.mark.parametrize("cost", COST_KINDS)
@pytest.mark.parametrize("step", [1, 3])
def test_the_named_outcome_is_each_valid_moves_outcome(step, cost):
    world = GridWorld(load_map(MAPS_DIR / "maze64.map"),
                      GridDomainConfig(footprint_side=2, move_length=4, collision_step=step),
                      CostModel(cost, rng_seed=5))
    problem = GridPlanningProblem(world, *free_anchors(world)[:2])
    n = world.placement_ok.size
    valid = 0
    for i in range(n):
        for a in range(8):
            named = problem.outcome_if_valid(i, a)
            assert named is None or (named.valid and 0 <= named.successor < n)
            outcome = problem.evaluate(i, a)
            if outcome.valid:
                # exact: the cost is compared with == on the float
                assert named == outcome and type(named.cost) is float, (i, a)
                valid += 1
    assert valid > 1000
    # off the raster: north of the first anchor, south of the last
    assert problem.outcome_if_valid(0, 0) is None
    assert problem.outcome_if_valid(n - 1, 4) is None


def test_an_invalid_move_on_a_delayed_world_still_takes_the_delay():
    world = open_world(8, footprint=2, move=2, eval_delay=0.002)
    problem = GridPlanningProblem(world, (0, 0), (6, 6))
    for handle, action in ((problem.start, 0), (-1, 2), (world.placement_ok.size, 2)):
        t0 = time.perf_counter()
        assert problem.evaluate(handle, action) == INVALID_OUTCOME
        assert time.perf_counter() - t0 >= 0.002


def test_successors_pure_function_bit_identical():
    world = open_world(40, footprint=3, move=5, cost="random_factor", cost_seed=4)
    a = [world.evaluate_move((11, 7), action) for action in range(8)]
    b = [world.evaluate_move((11, 7), action) for action in range(8)]
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


# -- tables shared by the worlds of one map -----------------------------------

SHARED_MAP_TEXT = random_obstacle_map_text(12, 12, 0.2, seed=3)


def world_on(grid, footprint=2, move=3, collision_step=1, eval_delay=0.0,
             cost=CostModel("random_factor", 3)):
    return GridWorld(grid, GridDomainConfig(footprint, move, collision_step, eval_delay), cost)


def all_outcomes(world):
    return [world.evaluate_anchor(i, a)
            for i in range(world.placement_ok.size) for a in range(len(DIRECTIONS))]


def test_worlds_that_differ_only_in_delay_share_their_tables_and_outcomes():
    grid = parse_map(SHARED_MAP_TEXT)
    probe = world_on(grid)
    delayed = world_on(grid, eval_delay=1e-6)
    assert delayed.placement_ok is probe.placement_ok
    assert delayed._moves is probe._moves
    assert delayed._anchor_factors is probe._anchor_factors
    outcomes = all_outcomes(probe)
    assert 0 < sum(o.valid for o in outcomes) < len(outcomes)
    assert all_outcomes(delayed) == outcomes
    # and the shared tables are those a world on a fresh parse builds
    assert all_outcomes(world_on(parse_map(SHARED_MAP_TEXT))) == outcomes


@pytest.mark.parametrize("change,shared", [
    (dict(footprint=3), ()),
    (dict(move=2), ("placement_ok", "_anchor_factors")),
    (dict(collision_step=2), ("placement_ok", "_anchor_factors")),
    (dict(cost=CostModel("random_factor", 4)), ("placement_ok", "_moves")),
    (dict(cost=CostModel()), ("placement_ok", "_moves")),
])
def test_a_different_footprint_move_or_cost_model_builds_new_tables(change, shared):
    grid = parse_map(SHARED_MAP_TEXT)
    base = world_on(grid)
    other = world_on(grid, **change)
    for name in ("placement_ok", "_moves", "_anchor_factors"):
        assert (getattr(other, name) is getattr(base, name)) == (name in shared), name
    assert all_outcomes(other) == all_outcomes(world_on(parse_map(SHARED_MAP_TEXT), **change))


def test_worlds_on_two_loads_of_one_map_share_no_table():
    a = world_on(load_map(MAPS_DIR / "cross32.map"))
    b = world_on(load_map(MAPS_DIR / "cross32.map"))
    assert a.placement_ok is not b.placement_ok
    assert a._moves is not b._moves
    assert a._anchor_factors is not b._anchor_factors
    assert all_outcomes(a) == all_outcomes(b)


def test_a_shared_placement_table_refuses_writes():
    world = world_on(parse_map(SHARED_MAP_TEXT))
    free = tuple(np.argwhere(world.placement_ok)[0])
    with pytest.raises(ValueError):
        world.placement_ok[free] = False
    assert world.placement_ok[free]


# -- heuristics ---------------------------------------------------------------

def test_heuristic_zero_at_goal_and_345_triangle():
    world = open_world(10)
    problem = GridPlanningProblem(world, (0, 0), (3, 4))
    # the relaxed cost to the goal: three diagonal moves and one straight
    assert problem.heuristic(problem.start) == pytest.approx(3 * math.sqrt(2) + 1)
    goal_key = problem.state_of((3, 4))
    assert problem.heuristic(goal_key) == 0.0
    assert problem.pairwise_heuristic(problem.start, problem.start) == 0.0
    assert problem.pairwise_heuristic(problem.start, goal_key) == problem.heuristic(
        problem.start)


def goal_query(map_name: str, cost: str):
    """A 64x64 fixture world, footprint 4 and move 6, and a query to its
    middle free anchor: the world, the query, the free anchors, the goal."""
    world = GridWorld(load_map(MAPS_DIR / map_name),
                      GridDomainConfig(footprint_side=4, move_length=6), CostModel(cost, 5))
    anchors = free_anchors(world)
    goal = anchors[len(anchors) // 2]
    return world, GridPlanningProblem(world, anchors[0], goal), anchors, goal


class RelaxedProblem(GridPlanningProblem):
    """The query's move graph with the collision check dropped: every listed
    move is valid, at the outcome the problem names for it."""

    def evaluate(self, state, action):
        return self.outcome_if_valid(state, action)


def relaxed_cost_to_goal(world: GridWorld, goal: tuple[int, int]) -> dict[int, float]:
    """The reference relaxed cost to ``goal`` of every anchor that can reach
    it: a Dijkstra from the goal (the relaxed moves come in opposite pairs
    of equal cost)."""
    from anyplan.baselines import dijkstra_distances

    relaxed = RelaxedProblem(world, goal, goal)
    return dijkstra_distances(relaxed, relaxed.start)


@pytest.mark.parametrize("cost", COST_KINDS)
@pytest.mark.parametrize("map_name", ["maze64.map", "open64.map"])
def test_heuristic_is_the_relaxed_cost_to_the_goal(map_name, cost):
    world, problem, _, (gx, gy) = goal_query(map_name, cost)
    goal = problem.state_of((gx, gy))
    m = world.config.move_length
    table = relaxed_cost_to_goal(world, (gx, gy))
    ph, pw = world.placement_ok.shape
    # every raster anchor in the goal's class, blocked placements too
    assert len(table) == len(range(gx % m, pw, m)) * len(range(gy % m, ph, m))
    for y in range(ph):
        for x in range(pw):
            s = problem.state_of((x, y))
            h = problem.heuristic(s)
            if s not in table:  # off the goal's class: no path reaches the goal
                assert (x - gx) % m or (y - gy) % m
                assert h == math.inf
                continue
            assert h == pytest.approx(table[s], rel=1e-12)
            assert h >= world.pairwise_bound(s, goal) - 1e-9
            if cost == "euclidean":  # the lattice's octile distance
                dx, dy = sorted((abs(x - gx), abs(y - gy)))
                assert h == pytest.approx(dx * math.sqrt(2) + dy - dx, rel=1e-12)


@pytest.mark.parametrize("cost", COST_KINDS)
@pytest.mark.parametrize("map_name", ["maze64.map", "open64.map"])
def test_heuristic_is_consistent_over_every_valid_move(map_name, cost):
    _, problem, anchors, goal = goal_query(map_name, cost)
    assert problem.heuristic(problem.state_of(goal)) == 0.0
    moves = 0
    for xy in anchors:
        s = problem.state_of(xy)
        for action in problem.actions(s):
            out = problem.evaluate(s, action)
            if out.valid:
                moves += 1
                assert problem.heuristic(s) <= out.cost + problem.heuristic(out.successor) + 1e-9
    assert moves > len(anchors)


def test_heuristic_admissible_all_pairs_8x8():
    world = open_world(8)
    problem = GridPlanningProblem(world, (0, 0), (7, 7))
    from anyplan.baselines import dijkstra_distances

    states = sorted(dijkstra_distances(problem, problem.start))
    optimal = all_pairs_optimal(problem, states)
    for (s, t), d in optimal.items():
        assert problem.pairwise_heuristic(s, t) <= d + 1e-9


@pytest.mark.parametrize("footprint", [1, 2])
@pytest.mark.parametrize("move", [1, 2, 3])
@pytest.mark.parametrize("cost_seed", [3, 5, 11])
def test_pairwise_bound_is_admissible_and_consistent_under_random_factor(cost_seed, move,
                                                                        footprint):
    world = make_world(random_obstacle_map_text(12, 12, 0.05, seed=cost_seed),
                       footprint=footprint, move=move, cost="random_factor",
                       cost_seed=cost_seed)
    anchors = free_anchors(world)
    problem = GridPlanningProblem(world, anchors[0], anchors[-1])
    states = [problem.state_of(xy) for xy in anchors]
    assert all(problem.pairwise_heuristic(s, s) == 0.0 for s in states)
    optimal = all_pairs_optimal(problem, states)
    assert len(optimal) > 5 * len(states)
    for (s, t), d in optimal.items():
        assert problem.pairwise_heuristic(s, t) <= d + 1e-9
    # the goal heuristic against the Dijkstra costs to the goal
    to_goal = [(s, d) for (s, t), d in optimal.items() if t == states[-1]]
    assert len(to_goal) > 1 and all(problem.heuristic(s) <= d + 1e-9 for s, d in to_goal)
    # h(a, b) <= h(a, c) + h(c, b) over every triple, c on the middle axis
    h = np.array([[problem.pairwise_heuristic(a, b) for b in states] for a in states])
    assert (h[:, None, :] <= h[:, :, None] + h[None, :, :] + 1e-9).all()
    # anchors in different residue classes mod the move length are at inf,
    # and only they; so is every anchor off the goal's class from the goal
    apart = np.array([[bool((xa - xb) % move or (ya - yb) % move) for xb, yb in anchors]
                      for xa, ya in anchors])
    assert (np.isinf(h) == apart).all() and apart.any() == (move > 1)
    assert [problem.heuristic(s) == math.inf for s in states] == list(apart[:, -1])


@pytest.mark.parametrize("cost", COST_KINDS)
@pytest.mark.parametrize("map_name", ["maze64.map", "open64.map"])
def test_heuristic_is_consistent_over_every_on_raster_move_at_its_named_cost(map_name,
                                                                             cost):
    # blocked moves and anchors too: the table prices every on-raster move
    world, problem, _, _ = goal_query(map_name, cost)
    moves = 0
    for s in range(world.placement_ok.size):
        for action in problem.actions(s):
            named = problem.outcome_if_valid(s, action)
            moves += 1
            assert problem.heuristic(s) <= named.cost + problem.heuristic(named.successor)
    assert moves > 6 * world.placement_ok.size


@pytest.mark.parametrize("cost", COST_KINDS)
@pytest.mark.parametrize("move", [1, 3])
def test_the_pairwise_heuristic_dominates_the_endpoint_factor_bound(cost, move):
    world = make_world(random_obstacle_map_text(12, 12, 0.1, seed=5), move=move, cost=cost,
                       cost_seed=5)
    anchors = free_anchors(world)
    problem = GridPlanningProblem(world, anchors[0], anchors[-1])
    tighter = 0
    for a in range(world.placement_ok.size):
        for b in range(world.placement_ok.size):
            bound = world.pairwise_bound(a, b)
            assert problem.pairwise_heuristic(a, b) >= bound - 1e-9
            tighter += problem.pairwise_heuristic(a, b) > bound + 1e-9
    assert tighter > 0


@pytest.mark.parametrize("map_text", [open_map_text(9, 9),
                                      random_obstacle_map_text(12, 12, 0.1, seed=5)])
def test_the_euclidean_pairwise_bound_is_the_distance_bit_for_bit(map_text):
    # euclidean is the unit-factor case: its factor term adds exactly 0.0
    world = make_world(map_text, footprint=2, move=3)
    pw = world.placement_ok.shape[1]
    for a in range(world.placement_ok.size):
        for b in range(world.placement_ok.size):
            (ya, xa), (yb, xb) = divmod(a, pw), divmod(b, pw)
            assert world.pairwise_bound(a, b) == math.hypot(xa - xb, ya - yb)


@pytest.mark.parametrize("driver,n_threads", [("plan", 1), ("plan", 2), ("ara_star", 1)])
def test_a_query_across_residue_classes_is_infeasible(driver, n_threads):
    from anyplan.baselines import ara_star, dijkstra_oracle
    from anyplan.controller import PlannerConfig, plan

    world = open_world(10, move=3, cost="random_factor", cost_seed=5)
    problem = GridPlanningProblem(world, (0, 0), (4, 3))  # x differs by 4, not a multiple
    assert problem.heuristic(problem.start) == math.inf
    assert dijkstra_oracle(problem, problem.start).cost == math.inf
    run = {"plan": plan, "ara_star": ara_star}[driver]
    result = run(PlannerConfig(w0=2.0, n_threads=n_threads), problem, problem.start)
    assert result.status == "infeasible" and result.records == []
    # the start's dummy edge enters OPEN at f = inf, so no pass evaluates an edge
    assert result.context.cache.misses == 0
    assert_no_leaked_workers()


@pytest.mark.parametrize("cost", COST_KINDS)
def test_pairwise_bound_is_the_cost_of_a_single_straight_move(cost):
    world = open_world(9, footprint=2, move=3, cost=cost, cost_seed=5)
    problem = GridPlanningProblem(world, (0, 0), (7, 7))
    moves = 0
    for i in range(world.placement_ok.size):
        for action in (0, 2, 4, 6):  # N, E, S, W
            outcome = world.evaluate_anchor(i, action)
            if outcome.valid:
                moves += 1
                assert problem.pairwise_heuristic(i, outcome.successor) == pytest.approx(
                    outcome.cost, rel=0, abs=1e-9)
    assert moves == 4 * 5 * 8


@pytest.mark.parametrize("seed", [0, 3, 5, 11, 2**63 + 7])
@pytest.mark.parametrize("width,height", [(1, 1), (7, 3), (64, 64), (128, 100)])
def test_every_cost_factor_lies_in_one_to_a_hundred(seed, width, height):
    # the pairwise bound is admissible only because every factor is >= 1
    factors = build_factor_map(seed, width, height)
    assert factors.shape == (height, width)
    assert factors.min() >= 1.0 and factors.max() < 100.0
    world = make_world(open_map_text(width, height), cost="random_factor", cost_seed=seed)
    assert min(world._anchor_factors) >= 1.0


def test_heuristic_consistent_under_random_factor_costs():
    world = open_world(12, move=3, cost="random_factor", cost_seed=11)
    problem = GridPlanningProblem(world, (0, 0), (9, 9))
    from anyplan.baselines import dijkstra_distances
    from anyplan.domain import Edge, EdgeCache

    # every edge out of every reachable state
    cache = EdgeCache()
    reachable = dijkstra_distances(problem, problem.start)
    for state in reachable:
        for action in problem.actions(state):
            cache.store(problem, Edge(state, action), problem.evaluate(state, action))
    assert audit_consistency(problem, cache, reachable) > 0


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

