import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from anyplan.bench import (
    INSTANCE_KEYS,
    MAP_KEYS,
    PROBLEM_KEYS,
    SPEC_KEYS,
    SPEEDUP_COLUMNS,
    TABLE1_COLUMNS,
    AggregationError,
    RunMetrics,
    RunSpec,
    SpecError,
    _cell,
    _speedup_row,
    aggregate,
    build_instances,
    build_run_spec,
    emit_outputs,
    run_experiment,
    run_metrics_from_json,
)
from anyplan.controller import PlannerConfig, weight_schedule
from anyplan.grid2d import GridDomainConfig, GridWorld, load_map, sample_start_goal_pairs

from _support import parse_run_spec

ROOT = Path(__file__).resolve().parents[1]
MAPS = ROOT / "maps"
GOLDEN = Path(__file__).resolve().parent / "golden"


def mk_metrics(algorithm, pair_index, *, t_init, t_opt, t_term, cost_init,
               oracle=100.0, cost_kind="euclidean", status="proved_optimal"):
    duration = t_term if t_term is not None else (t_init or 0.0) * 2
    series = [(t_init, min(1.0, oracle / cost_init))]
    if t_opt is not None:
        series.append((t_opt, 1.0))
    return RunMetrics(
        algorithm=algorithm, map_name="synthetic", cost_kind=cost_kind,
        pair_index=pair_index, repetition=0, n_threads=4, start=(pair_index, 0),
        goal=(9, 9), oracle_cost=oracle, status=status, duration=duration,
        t_init=t_init, t_opt=t_opt, t_term=t_term, cost_init=cost_init,
        cost_final=oracle if t_opt is not None else cost_init,
        published_costs=[cost_init] + ([oracle] if t_opt is not None else []),
        published_times=[t_init] + ([t_opt] if t_opt is not None else []),
        optimality_ratio_series=series,
        expansions_per_iteration=[10, 5],
    )


def spec_text(**over):
    base = {
        "algo": "epase", "map": str(MAPS / "cross32.map"), "cost": "euclidean",
        "pairs": 2, "pair_seed": 1, "reps": 1, "threads": 2, "w0": 1.0,
        "footprint": 4, "move": 4,
    }
    base.update(over)
    return "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n"


# -- spec files ---------------------------------------------------------------

def test_parse_run_spec_roundtrip():
    spec = parse_run_spec(spec_text())
    assert spec.algorithm == "epase"
    assert spec.pair_count == 2
    assert spec.planner.n_threads == 2
    assert spec.domain.footprint_side == 4


def test_parse_run_spec_unknown_key():
    with pytest.raises(SpecError, match="unknown key"):
        parse_run_spec(spec_text() + "banana = 1\n")


def test_parse_run_spec_requires_algo_and_map():
    with pytest.raises(SpecError):
        parse_run_spec("pairs = 3\n")


def test_parse_run_spec_comments_and_epsilon_forms():
    text = spec_text(epsilon="w") + "# a comment\n\n"
    assert parse_run_spec(text).planner.epsilon is None
    assert parse_run_spec(spec_text(epsilon="inf")).planner.epsilon == math.inf
    assert parse_run_spec(spec_text(epsilon="2.5")).planner.epsilon == 2.5


def test_parse_run_spec_bad_algorithm():
    with pytest.raises(SpecError, match="unknown algorithm"):
        parse_run_spec(spec_text(algo="bidijkstra"))


def test_run_spec_validation():
    with pytest.raises(SpecError):
        RunSpec(algorithm="epase", map_path="x", repetitions=0)
    with pytest.raises(SpecError):
        build_run_spec({"algo": "epase", "map": "x", "cost": "manhattan"})


def test_build_run_spec_rejects_a_mistyped_key():
    with pytest.raises(SpecError, match="unknown key.*thread"):
        build_run_spec({"algo": "epase", "map": "x", "thread": 4})


def test_wastar_with_a_timeout_is_a_spec_error_naming_the_key(tmp_path):
    from anyplan.cli import main

    # weighted A* has no deadline; a budget it would ignore is refused
    with pytest.raises(SpecError, match="timeout_ms"):
        build_run_spec({"algo": "wastar", "map": "x", "timeout_ms": 100.0})
    assert build_run_spec({"algo": "arastar", "map": "x", "timeout_ms": 100.0})
    rc = main(["run", "--algo", "wastar", "--map", str(MAPS / "cross32.map"),
               "--footprint", "4", "--move", "4", "--pairs", "1", "--timeout-ms", "100",
               "--out", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "runs.ndjson").exists()


def test_wastar_with_an_epsilon_is_a_spec_error_naming_the_key(tmp_path):
    from anyplan.cli import main

    # weighted A*'s bound is its weight; a fixed epsilon would change the
    # bound and the status of its one pass
    for value in ("2.0", "inf"):
        with pytest.raises(SpecError, match="epsilon"):
            build_run_spec({"algo": "wastar", "map": "x", "epsilon": value})
    assert build_run_spec({"algo": "wastar", "map": "x", "epsilon": "w"})
    rc = main(["run", "--algo", "wastar", "--map", str(MAPS / "cross32.map"),
               "--footprint", "4", "--move", "4", "--pairs", "1", "--epsilon", "2",
               "--out", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "runs.ndjson").exists()


def test_build_run_spec_defaults_are_the_dataclass_defaults():
    assert build_run_spec({"algo": "epase", "map": "m"}) == RunSpec("epase", "m")


# -- running ------------------------------------------------------------------

def test_build_instances_with_a_delay_plans_on_a_world_with_the_probes_outcomes():
    spec = parse_run_spec(spec_text(cost="random", cost_seed=5, eval_delay_us=1.0))
    world, instances = build_instances(spec)
    assert world.config.eval_delay == 1e-6 and len(instances) == 2
    probe = GridWorld(load_map(spec.map_path), replace(spec.domain, eval_delay=0.0), spec.cost)
    for i in range(probe.placement_ok.size):
        for action in range(8):
            assert world.evaluate_anchor(i, action) == probe.evaluate_anchor(i, action)
    assert [(s, g) for s, g, _ in instances] == sample_start_goal_pairs(probe, 2, 1)


def test_run_experiment_epase_w1_phase_times_coincide():
    spec = parse_run_spec(spec_text())
    metrics = run_experiment(spec)
    assert len(metrics) == 2
    for m in metrics:
        assert m.status == "proved_optimal"
        assert m.t_init is not None
        assert m.t_init <= m.t_opt <= m.t_term
        # single-pass optimal run: one record, all three times are that pass
        assert m.t_init == m.t_opt
        assert m.t_term == m.duration
        assert math.isclose(m.cost_final, m.oracle_cost, rel_tol=1e-9)


def test_run_experiment_aepase_w0_1_degenerates_to_single_pass():
    spec = parse_run_spec(spec_text(algo="aepase", w0=1.0))
    metrics = run_experiment(spec)
    for m in metrics:
        assert m.status == "proved_optimal"
        assert len(m.published_costs) == 1
        assert m.t_init == m.t_opt


def test_run_experiment_deterministic_published_costs_single_thread():
    spec = parse_run_spec(spec_text(algo="aepase", w0=8.0, dw=1.0, threads=1,
                                    cost="random", cost_seed=5))
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert [m.published_costs for m in a] == [m.published_costs for m in b]


def test_run_experiment_naive_and_aepase_share_first_cost():
    spec_a = parse_run_spec(spec_text(algo="aepase", w0=8.0, dw=1.0, threads=1,
                                      cost="random", cost_seed=5))
    spec_n = parse_run_spec(spec_text(algo="aepase_naive", w0=8.0, dw=1.0, threads=1,
                                      cost="random", cost_seed=5))
    for ma, mn in zip(run_experiment(spec_a), run_experiment(spec_n)):
        assert ma.published_costs[0] == mn.published_costs[0]


IDENTITY_FIELDS = ("algorithm", "map_name", "cost_kind", "pair_index", "repetition",
                   "n_threads", "start", "goal", "oracle_cost", "map_scale", "eval_delay",
                   *PROBLEM_KEYS)


def test_a_run_that_raises_leaves_an_error_record(tmp_path, monkeypatch):
    import anyplan.bench as bench
    from anyplan.cli import main

    spec = parse_run_spec(spec_text(reps=2))
    good = run_experiment(spec)

    def boom(*_args, **_kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench, "plan", boom)
    failed = run_experiment(spec)
    assert len(failed) == len(good) == 4
    for bad, ok in zip(failed, good):
        identity = {k: getattr(ok, k) for k in IDENTITY_FIELDS}
        assert {k: getattr(bad, k) for k in IDENTITY_FIELDS} == identity
        assert bad == RunMetrics(**identity, status="error", duration=0.0,
                                 error="RuntimeError: boom")
    assert [(m.pair_index, m.repetition) for m in failed] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    spec_file = tmp_path / "run.spec"
    spec_file.write_text(spec_text())
    assert main(["run", "--spec", str(spec_file), "--out", str(tmp_path / "out")]) == 1


# -- aggregation --------------------------------------------------------------

def test_aggregate_single_run_means_equal_values():
    runs = [mk_metrics("aepase", 0, t_init=0.010, t_opt=0.020, t_term=0.040,
                       cost_init=125.0)]
    summary = aggregate(runs)
    row = summary.table_rows[0]
    assert row["algorithm"] == "aepase"
    assert row["mean_t_init_ms"] == pytest.approx(10.0)
    assert row["mean_t_opt_ms"] == pytest.approx(20.0)
    assert row["mean_t_term_ms"] == pytest.approx(40.0)
    assert row["mean_init_ratio"] == pytest.approx(0.8)


def test_speedup_against_itself_is_one():
    runs = [mk_metrics("aepase", i, t_init=0.01 * (i + 1), t_opt=0.02 * (i + 1),
                       t_term=0.04 * (i + 1), cost_init=120.0) for i in range(3)]
    cell = (_cell(runs[0]), runs)
    row = _speedup_row(cell, cell)
    assert (row["baseline"], row["target"], row["n_pairs"]) == ("aepase", "aepase", 3)
    assert row["speedup_init"] == 1.0
    assert row["speedup_opt"] == 1.0
    assert row["speedup_term"] == 1.0


def test_speedup_per_run_ratios_then_mean():
    # baseline t_term 40ms and 30ms vs target 10ms and 30ms -> (4 + 1)/2
    runs = [
        mk_metrics("arastar", 0, t_init=0.04, t_opt=0.04, t_term=0.040, cost_init=110.0),
        mk_metrics("arastar", 1, t_init=0.03, t_opt=0.03, t_term=0.030, cost_init=110.0),
        mk_metrics("aepase", 0, t_init=0.01, t_opt=0.01, t_term=0.010, cost_init=105.0),
        mk_metrics("aepase", 1, t_init=0.03, t_opt=0.03, t_term=0.030, cost_init=105.0),
    ]
    (row,) = aggregate(runs).speedup_rows
    assert row["n_pairs"] == 2
    assert row["speedup_term"] == pytest.approx(2.5)


def test_paired_speedups_rejects_two_runs_on_one_instance():
    runs = [mk_metrics("arastar", 0, t_init=0.04, t_opt=0.04, t_term=0.04, cost_init=110.0),
            mk_metrics("aepase", 0, t_init=0.01, t_opt=0.01, t_term=0.01, cost_init=105.0),
            mk_metrics("aepase", 0, t_init=0.02, t_opt=0.02, t_term=0.02, cost_init=105.0)]
    with pytest.raises(AggregationError, match="two aepase runs"):
        aggregate(runs)


def test_paired_speedups_pair_runs_on_the_instance_not_the_pair_index():
    # two specs whose pair seeds sampled the same instances in another order
    runs = [mk_metrics("arastar", 0, t_init=0.04, t_opt=0.04, t_term=0.04, cost_init=110.0),
            mk_metrics("aepase", 0, t_init=0.01, t_opt=0.01, t_term=0.01, cost_init=105.0),
            mk_metrics("aepase", 1, t_init=0.02, t_opt=0.02, t_term=0.02, cost_init=105.0)]
    runs[1].start, runs[2].start = runs[2].start, runs[1].start
    (row,) = aggregate(runs).speedup_rows
    assert row["n_pairs"] == 1
    assert row["speedup_term"] == pytest.approx(2.0)
    # one instance has one optimum: runs that disagree on it are not one instance
    runs[2].oracle_cost = 90.0
    with pytest.raises(AggregationError, match="two optimal costs"):
        aggregate(runs)


def test_aggregate_keys_rows_curves_and_speedups_on_workers_and_delay():
    # serial arastar at zero delay; aepase at 4 workers at zero delay and
    # at 8 workers on 2 ms edges, on the same instance
    runs = [mk_metrics("arastar", 0, t_init=0.04, t_opt=0.04, t_term=0.04, cost_init=110.0),
            mk_metrics("aepase", 0, t_init=0.02, t_opt=0.02, t_term=0.02, cost_init=105.0),
            mk_metrics("aepase", 0, t_init=0.50, t_opt=0.50, t_term=0.50, cost_init=105.0)]
    runs[0].n_threads = 1
    runs[2].n_threads, runs[2].eval_delay = 8, 0.002
    summary = aggregate(runs)
    assert [(r["algorithm"], r["n_threads"], r["eval_delay_us"], r["n_runs"])
            for r in summary.table_rows] == [("arastar", 1, 0.0, 1), ("aepase", 4, 0.0, 1),
                                             ("aepase", 8, 2000.0, 1)]
    # the slow 8-worker run has no serial partner at its delay
    (row,) = summary.speedup_rows
    assert (row["baseline_n_threads"], row["target_n_threads"], row["eval_delay_us"],
            row["n_pairs"], row["speedup_term"]) == (1, 4, 0.0, 1, pytest.approx(2.0))
    assert list(summary.curves["euclidean"]["columns"]) == [
        "arastar_t1_d0_synthetic_x1", "aepase_t4_d0_synthetic_x1",
        "aepase_t8_d2000_synthetic_x1"]


def test_an_algorithm_outside_the_list_sorts_last_and_pairs_as_a_baseline():
    # a runs file from another planner version can name any algorithm
    runs = [mk_metrics(algo, 0, t_init=t, t_opt=t, t_term=t, cost_init=110.0)
            for algo, t in (("pase_old", 0.06), ("aepase", 0.02), ("arastar", 0.04))]
    summary = aggregate(runs)
    assert [r["algorithm"] for r in summary.table_rows] == ["arastar", "aepase", "pase_old"]
    # each row holds its file's columns alone, in order
    assert {tuple(r) for r in summary.table_rows} == {TABLE1_COLUMNS}
    assert {tuple(r) for r in summary.speedup_rows} == {SPEEDUP_COLUMNS}
    assert [(r["baseline"], r["target"], r["speedup_term"]) for r in summary.speedup_rows] == [
        ("arastar", "aepase", pytest.approx(2.0)), ("pase_old", "aepase", pytest.approx(3.0))]
    assert list(summary.curves["euclidean"]["columns"]) == [
        "arastar_t4_d0_synthetic_x1", "aepase_t4_d0_synthetic_x1",
        "pase_old_t4_d0_synthetic_x1"]


def test_aggregate_keys_rows_curves_and_speedups_on_map_and_scale():
    # one algorithm pair on two maps, and on the first map at a second
    # scale: three cells per algorithm, never pooled
    runs = [mk_metrics(algo, 0, t_init=t, t_opt=t, t_term=t, cost_init=110.0)
            for algo, t in (("arastar", 0.04), ("aepase", 0.02))] * 3
    runs = [replace(m) for m in runs]
    for m in runs[2:4]:
        m.map_name = "other"
    for m in runs[4:]:
        m.map_scale = 2
    runs[4].t_term = runs[4].t_init = runs[4].t_opt = 0.08
    summary = aggregate(runs)
    assert [(r["map"], r["scale"], r["algorithm"], r["n_runs"]) for r in summary.table_rows] == [
        ("other", 1, "arastar", 1), ("other", 1, "aepase", 1),
        ("synthetic", 1, "arastar", 1), ("synthetic", 1, "aepase", 1),
        ("synthetic", 2, "arastar", 1), ("synthetic", 2, "aepase", 1)]
    assert [(r["map"], r["scale"], r["n_pairs"], r["speedup_term"])
            for r in summary.speedup_rows] == [
        ("other", 1, 1, pytest.approx(2.0)), ("synthetic", 1, 1, pytest.approx(2.0)),
        ("synthetic", 2, 1, pytest.approx(4.0))]
    assert list(summary.curves["euclidean"]["columns"]) == [
        "arastar_t4_d0_other_x1", "aepase_t4_d0_other_x1",
        "arastar_t4_d0_synthetic_x1", "aepase_t4_d0_synthetic_x1",
        "arastar_t4_d0_synthetic_x2", "aepase_t4_d0_synthetic_x2"]


@pytest.mark.parametrize("key,value", [("cost_seed", 2), ("footprint", 3), ("move", 3),
                                       ("collision_step", 2)])
def test_runs_that_differ_only_in_a_problem_key_aggregate_into_separate_cells(key, value):
    # on cross32 with random costs, cost seeds 1 and 2 give pair 0 two
    # different optima: pooling them would average two problems
    base = {"algo": "arastar", "map": str(MAPS / "cross32.map"), "footprint": 4, "move": 4,
            "collision_step": 1, "cost": "random", "cost_seed": 1, "pairs": 2,
            "pair_seed": 1, "w0": 1.0, "threads": 1}
    runs = [m for values in (base, {**base, key: value}, {**base, "algo": "aepase"})
            for m in run_experiment(build_run_spec(values))]
    assert {getattr(m, key) for m in runs} == {base[key], value}
    if key == "cost_seed":
        assert runs[0].start == runs[2].start and runs[0].oracle_cost != runs[2].oracle_cost
    summary = aggregate(runs)
    rows = [(r[key], r["algorithm"], r["n_runs"]) for r in summary.table_rows]
    assert rows == sorted([(base[key], "arastar", 2), (base[key], "aepase", 2),
                           (value, "arastar", 2)], key=lambda r: (r[0], r[1] == "aepase"))
    # only the arastar cell of aepase's problem pairs with it
    (row,) = summary.speedup_rows
    assert (row["baseline"], row[key], row["n_pairs"]) == ("arastar", base[key], 2)
    names = list(summary.curves["random_factor"]["columns"])
    assert len(set(names)) == 3
    assert all(re.search(r"_s\d+_f\d+_m\d+_c\d+$", name) for name in names)


def test_a_run_line_without_the_problem_keys_reads_them_as_unknown(tmp_path):
    # a runs.ndjson line written before the problem keys were recorded
    import json

    lines = (GOLDEN / "mixed" / "runs.ndjson").read_text().splitlines()
    old = []
    for line in lines:
        d = json.loads(line)
        assert all(d.pop(key) is None for key in PROBLEM_KEYS)
        old.append(json.dumps(d, separators=(",", ":")))
    runs = [run_metrics_from_json(line) for line in old]
    assert all(getattr(m, key) is None for m in runs for key in PROBLEM_KEYS)
    assert [m.to_json() for m in runs] == lines
    emit_outputs(aggregate(runs), tmp_path)
    assert (tmp_path / "table1.csv").read_text() == (
        GOLDEN / "mixed" / "table1.csv").read_text()


def test_problem_columns_are_the_spec_keys_the_instances_read():
    assert set(PROBLEM_KEYS) < set(INSTANCE_KEYS)
    assert set(INSTANCE_KEYS) - {*MAP_KEYS, *PROBLEM_KEYS} == {"cost", "pairs", "pair_seed"}
    assert all(key in RunMetrics.__dataclass_fields__ for key in PROBLEM_KEYS)
    assert TABLE1_COLUMNS[3:7] == SPEEDUP_COLUMNS[3:7] == PROBLEM_KEYS


def test_map_columns_are_the_spec_keys_of_the_map():
    assert [SPEC_KEYS[key][1:] for key in MAP_KEYS] == [(RunSpec, "map_path"),
                                                       (RunSpec, "map_scale")]
    assert TABLE1_COLUMNS[1:3] == SPEEDUP_COLUMNS[1:3] == MAP_KEYS


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_default_grid_names_its_maps_relative_to_the_repository(quick):
    import importlib.util

    path = ROOT / "scripts" / "run_default_benchmark.py"
    loader = importlib.util.spec_from_file_location("run_default_benchmark", path)
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    cells = list(script.cells(quick))
    names = [name for name, *_ in script.MAPS[:2 if quick else None]]
    assert sorted({values["map"] for values in cells}) == sorted(f"maps/{n}" for n in names)
    assert all((ROOT / build_run_spec(values).map_path).is_file() for values in cells)


def test_run_metrics_record_the_edge_delay():
    spec = parse_run_spec(spec_text(pairs=1, eval_delay_us=10))
    (m,) = run_experiment(spec)
    assert m.eval_delay == pytest.approx(1e-5)
    assert run_metrics_from_json(m.to_json()).eval_delay == m.eval_delay


def test_run_metrics_record_the_map_scale():
    spec = parse_run_spec(spec_text(pairs=1, scale=2))
    (m,) = run_experiment(spec)
    assert m.map_scale == 2
    assert m.map_name == spec.map_path
    assert run_metrics_from_json(m.to_json()) == m


def test_aggregate_rejects_out_of_order_phase_times():
    bad = mk_metrics("aepase", 0, t_init=0.05, t_opt=0.01, t_term=0.040,
                     cost_init=120.0)
    bad.t_opt = 0.001
    with pytest.raises(AggregationError):
        aggregate([bad])


def test_curves_are_non_decreasing_and_bucketed():
    runs = [
        mk_metrics("aepase", 0, t_init=0.01, t_opt=0.03, t_term=0.05, cost_init=125.0),
        mk_metrics("aepase", 1, t_init=0.02, t_opt=0.04, t_term=0.05, cost_init=110.0),
    ]
    summary = aggregate(runs)
    curve = summary.curves["euclidean"]
    assert len(curve["times"]) == 200
    col = curve["columns"]["aepase_t4_d0_synthetic_x1"]
    assert all(a <= b + 1e-12 for a, b in zip(col, col[1:]))
    assert col[-1] == pytest.approx(1.0)
    assert col[0] <= 0.5  # before the first publications the ratio is 0


# -- emission -----------------------------------------------------------------

def test_emit_headers_only_for_empty_summary(tmp_path):
    summary = aggregate([])
    written = emit_outputs(summary, tmp_path)
    table = (tmp_path / "table1.csv").read_text()
    assert table == ("cost_kind,map,scale,cost_seed,footprint,move,collision_step,"
                     "algorithm,n_threads,eval_delay_us,n_runs,"
                     "mean_t_init_ms,mean_init_ratio,mean_t_opt_ms,mean_t_term_ms\n")
    speedup = (tmp_path / "speedup.csv").read_text()
    assert speedup.startswith("cost_kind,map,scale,cost_seed,footprint,move,collision_step,"
                              "baseline,target,")
    assert (tmp_path / "runs.ndjson").read_text() == ""
    assert len(written) == 3  # no curves without runs


def golden_summary():
    runs = [
        mk_metrics("arastar", 0, t_init=0.040, t_opt=0.040, t_term=0.040,
                   cost_init=110.0),
        mk_metrics("aepase", 0, t_init=0.010, t_opt=0.020, t_term=0.040,
                   cost_init=125.0),
    ]
    for m in runs:
        m.cost_seed, m.footprint, m.move, m.collision_step = 7, 4, 4, 1
    return aggregate(runs)


def test_emit_golden_files(tmp_path):
    written = emit_outputs(golden_summary(), tmp_path)
    for path in written:
        golden = GOLDEN / path.name
        assert golden.exists(), f"missing golden file {golden}"
        assert path.read_bytes() == golden.read_bytes(), path.name


def test_aggregate_mixed_cells_golden(tmp_path):
    # tests/golden/mixed/runs.ndjson: two maps, both cost kinds, two edge
    # delays, 1 to 4 workers and every algorithm; each map's table and
    # speedup rows are what ``anyplan aggregate`` wrote for that map's runs
    # alone before cells were grouped once and keyed on the map
    fixture = GOLDEN / "mixed"
    runs = [run_metrics_from_json(line)
            for line in (fixture / "runs.ndjson").read_text().splitlines()]
    written = emit_outputs(aggregate(runs), tmp_path)
    assert sorted(p.name for p in written) == sorted(p.name for p in fixture.iterdir())
    for path in written:
        assert path.read_bytes() == (fixture / path.name).read_bytes(), path.name


def test_emit_overwrite_is_byte_identical(tmp_path):
    emit_outputs(golden_summary(), tmp_path)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    emit_outputs(golden_summary(), tmp_path)
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_run_metrics_ndjson_roundtrip():
    m = mk_metrics("aepase", 3, t_init=0.01, t_opt=0.02, t_term=0.04, cost_init=120.0)
    back = run_metrics_from_json(m.to_json())
    assert back == m


# -- cli ----------------------------------------------------------------------

def test_cli_run_and_aggregate(tmp_path):
    from anyplan.cli import main

    spec_file = tmp_path / "run.spec"
    spec_file.write_text(spec_text())
    out_dir = tmp_path / "out"
    assert main(["run", "--spec", str(spec_file), "--out", str(out_dir)]) == 0
    runs_file = out_dir / "runs.ndjson"
    assert runs_file.exists()
    assert (out_dir / "table1.csv").exists()
    # re-aggregate from the raw runs
    out2 = tmp_path / "out2"
    assert main(["aggregate", "--runs", str(runs_file), "--out", str(out2)]) == 0
    assert (out2 / "table1.csv").read_bytes() == (out_dir / "table1.csv").read_bytes()


def test_the_committed_results_re_aggregate_byte_for_byte(tmp_path):
    # RESULTS.md reads results/; every file there must be what aggregating
    # its own runs.ndjson writes
    from anyplan.cli import main

    results = ROOT / "results"
    assert main(["aggregate", "--runs", str(results / "runs.ndjson"),
                 "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in results.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (results / name).read_bytes(), name


def test_cli_aggregate_of_runs_that_cannot_be_paired_exits_2(tmp_path, capsys):
    from anyplan.cli import main

    # two concatenated runs.ndjson files that both hold a paired side
    runs_file = tmp_path / "runs.ndjson"
    runs_file.write_text((GOLDEN / "runs.ndjson").read_text() * 2)
    assert main(["aggregate", "--runs", str(runs_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: two ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", [None, "not json\n", "[1, 2]\n", '{"algorithm": "x"}\n',
                                     '{"start": [0, 0], "goal": [1, 1], '
                                     '"optimality_ratio_series": []}\n'],
                         ids=["missing", "not-json", "not-an-object", "no-start",
                              "missing-fields"])
def test_cli_aggregate_malformed_runs_file_exits_2(content, tmp_path, capsys):
    from anyplan.cli import main

    runs_file = tmp_path / "runs.ndjson"
    if content is not None:
        runs_file.write_text(content)
    assert main(["aggregate", "--runs", str(runs_file), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_aggregate_lets_a_program_error_through(tmp_path, monkeypatch):
    import anyplan.cli as cli

    # only a malformed file is a bad-input exit; a fault in the program is not
    def broken(line):
        raise ZeroDivisionError("a fault")

    monkeypatch.setattr(cli, "run_metrics_from_json", broken)
    with pytest.raises(ZeroDivisionError):
        cli.main(["aggregate", "--runs", str(GOLDEN / "runs.ndjson"),
                  "--out", str(tmp_path / "out")])


def test_cli_bad_spec_exits_2(tmp_path):
    from anyplan.cli import main

    spec_file = tmp_path / "bad.spec"
    spec_file.write_text("algo = epase\n")  # no map
    assert main(["run", "--spec", str(spec_file), "--out", str(tmp_path / "o")]) == 2
    spec_file.write_text(spec_text() + "nonsense = 1\n")
    assert main(["run", "--spec", str(spec_file), "--out", str(tmp_path / "o")]) == 2


def test_cli_spec_file_with_flag_overrides(tmp_path, monkeypatch):
    import anyplan.cli as cli

    specs = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda spec, progress=None: specs.append(spec) or [])
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    spec_file = spec_dir / "run.spec"
    spec_file.write_text(spec_text(map="cross32.map", threads=1, pairs=3, epsilon=2.5,
                                   timeout_ms=750, max_iterations=4, collision_step=2,
                                   eval_delay_us=30))
    out = str(tmp_path / "out")
    assert cli.main(["run", "--spec", str(spec_file), "--threads", "2", "--pairs", "1",
                     "--out", out]) == 0
    spec = specs[-1]
    assert spec.planner.n_threads == 2 and spec.pair_count == 1
    assert spec.planner.epsilon == 2.5
    assert spec.planner.time_budget == pytest.approx(0.75)
    assert spec.planner.max_iterations == 4
    assert spec.domain.collision_step == 2
    assert spec.domain.eval_delay == pytest.approx(30e-6)
    assert spec.map_path == str(spec_dir / "cross32.map")  # relative to the spec
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--spec", str(spec_file), "--map", "other.map",
                     "--out", out]) == 0
    assert specs[-1].map_path == "other.map"  # relative to the working directory
    assert specs[-1].planner.n_threads == 1 and specs[-1].pair_count == 3


def test_cli_flag_only_run(tmp_path):
    from anyplan.cli import main

    rc = main(["run", "--algo", "wastar", "--map", str(MAPS / "cross32.map"),
               "--footprint", "4", "--move", "4", "--pairs", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "runs.ndjson").read_text().splitlines()
    assert len(lines) == 1
    m = run_metrics_from_json(lines[0])
    assert m.algorithm == "wastar" and m.status == "proved_optimal"


def test_cli_oracle_writes_costs(tmp_path):
    from anyplan.cli import main

    out = tmp_path / "oracle.csv"
    rc = main(["oracle", "--map", str(MAPS / "cross32.map"), "--footprint", "4",
               "--move", "4", "--pairs", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pair_index,start_x,start_y,goal_x,goal_y,optimal_cost"
    assert len(lines) == 3


def test_cli_oracle_zero_pairs_writes_only_the_header(tmp_path):
    from anyplan.cli import main

    out = tmp_path / "oracle.csv"
    rc = main(["oracle", "--map", str(MAPS / "cross32.map"), "--footprint", "4",
               "--move", "4", "--pairs", "0", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "pair_index,start_x,start_y,goal_x,goal_y,optimal_cost\n"


def test_cli_oracle_negative_pairs_exits_2_like_run(tmp_path, capsys):
    from anyplan.cli import main

    out = tmp_path / "oracle.csv"
    rc = main(["oracle", "--map", str(MAPS / "cross32.map"), "--footprint", "4",
               "--move", "4", "--pairs", "-1", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    oracle_err = capsys.readouterr().err
    assert "pair count must be >= 0" in oracle_err
    rc = main(["run", "--algo", "wastar", "--map", str(MAPS / "cross32.map"),
               "--pairs", "-1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == oracle_err


def test_cli_oracle_costs_are_the_run_records_oracle_costs(tmp_path):
    from anyplan.cli import main

    out = tmp_path / "oracle.csv"
    rc = main(["oracle", "--map", str(MAPS / "cross32.map"), "--footprint", "4",
               "--move", "4", "--pairs", "3", "--pair-seed", "1", "--cost", "random",
               "--cost-seed", "5", "--out", str(out)])
    assert rc == 0
    spec = parse_run_spec(spec_text(algo="wastar", threads=1, pairs=3, cost="random",
                                    cost_seed=5, eval_delay_us=100))
    written = [line.split(",")[1:] for line in out.read_text().splitlines()[1:]]
    assert written == [[str(c) for c in (*m.start, *m.goal)] + [format(m.oracle_cost, ".9g")]
                       for m in run_experiment(spec)]


# -- non-finite configuration -------------------------------------------------

NAN, INF = math.nan, math.inf

NON_FINITE_ARGUMENTS = [
    (PlannerConfig, {"w0": NAN}), (PlannerConfig, {"w0": INF}),
    (PlannerConfig, {"delta_w": NAN}), (PlannerConfig, {"delta_w": INF}),
    (PlannerConfig, {"epsilon": NAN}), (PlannerConfig, {"time_budget": NAN}),
    (GridDomainConfig, {"eval_delay": NAN}), (GridDomainConfig, {"eval_delay": INF}),
    (weight_schedule, {"w0": NAN, "delta_w": 0.5}), (weight_schedule, {"w0": INF, "delta_w": 0.5}),
    (weight_schedule, {"w0": 3.0, "delta_w": NAN}), (weight_schedule, {"w0": 3.0, "delta_w": INF}),
]

NON_FINITE_SPEC_VALUES = [("w0", "nan"), ("w0", "inf"), ("dw", "nan"), ("dw", "inf"),
                          ("epsilon", "nan"), ("timeout_ms", "nan"),
                          ("eval_delay_us", "nan"), ("eval_delay_us", "inf")]


@pytest.mark.parametrize("make,kwargs", NON_FINITE_ARGUMENTS,
                         ids=[f"{make.__name__}-" + ",".join(f"{k}={v}" for k, v in kw.items())
                              for make, kw in NON_FINITE_ARGUMENTS])
def test_non_finite_configuration_raises_value_error(make, kwargs):
    with pytest.raises(ValueError):
        make(**kwargs)


@pytest.mark.parametrize("key,value", NON_FINITE_SPEC_VALUES)
def test_non_finite_spec_value_is_a_spec_error(key, value):
    with pytest.raises(SpecError):
        build_run_spec({"algo": "aepase", "map": "x", key: value})


@pytest.mark.parametrize("key,value", NON_FINITE_SPEC_VALUES)
def test_cli_run_with_a_non_finite_spec_value_exits_2(key, value, tmp_path):
    from anyplan.cli import main

    spec_file = tmp_path / "run.spec"
    spec_file.write_text(spec_text(algo="aepase", **{key: value}))
    assert main(["run", "--spec", str(spec_file), "--out", str(tmp_path / "out")]) == 2


# -- one table of run parameters ----------------------------------------------

def test_oracle_matches_run_at_a_collision_step_above_one(tmp_path):
    from anyplan.cli import main

    instance = ["--map", str(MAPS / "maze64.map"), "--footprint", "4", "--move", "6",
                "--pairs", "2", "--pair-seed", "11", "--cost", "random", "--cost-seed", "7"]
    costs = {}
    for step in ("1", "4"):
        out = tmp_path / f"oracle{step}.csv"
        assert main(["oracle", *instance, "--collision-step", step, "--out", str(out)]) == 0
        costs[step] = [line.split(",")[1:] for line in out.read_text().splitlines()[1:]]
    assert costs["1"] != costs["4"]
    spec = build_run_spec({"algo": "wastar", "map": str(MAPS / "maze64.map"), "footprint": 4,
                           "move": 6, "pairs": 2, "pair_seed": 11, "cost": "random",
                           "cost_seed": 7, "collision_step": 4})
    assert costs["4"] == [[str(c) for c in (*m.start, *m.goal)]
                          + [format(m.oracle_cost, ".9g")] for m in run_experiment(spec)]


@pytest.mark.parametrize("instance", [
    ["--map", str(MAPS / "nope.map")],
    ["--map", str(MAPS / "cross32.map"), "--footprint", "40"],
], ids=["missing-map", "no-free-placement"])
def test_run_and_oracle_report_a_bad_instance_alike(instance, tmp_path, capsys):
    from anyplan.cli import main

    assert main(["run", "--algo", "wastar", *instance, "--out", str(tmp_path / "out")]) == 2
    run_err = capsys.readouterr().err
    assert main(["oracle", *instance, "--out", str(tmp_path / "oracle.csv")]) == 2
    assert capsys.readouterr().err == run_err
    assert run_err.startswith("error: ") and run_err.count("\n") == 1
    assert not (tmp_path / "out").exists() and not (tmp_path / "oracle.csv").exists()


def test_readme_spec_table_lists_exactly_the_spec_keys():
    text = (ROOT / "README.md").read_text()
    table = text.split("| key | meaning | default |", 1)[1].split("\n\n", 1)[0]
    listed = [key for row in table.splitlines()[2:]
              for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(listed) == sorted(SPEC_KEYS)


def test_readme_names_exactly_the_cli_commands():
    import argparse

    from anyplan.cli import build_parser

    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    named = re.findall(r"^anyplan (\w+)", (ROOT / "README.md").read_text(), re.M)
    assert set(named) == set(commands)


def test_cli_flags_are_the_spec_keys_with_no_default():
    from anyplan.cli import build_parser

    parser = build_parser()
    for command, keys in (("run", SPEC_KEYS), ("oracle", INSTANCE_KEYS)):
        unset = vars(parser.parse_args([command, "--out", "o"]))
        assert {k: v for k, v in unset.items() if k in SPEC_KEYS} == dict.fromkeys(keys)
        for key in keys:
            kind = SPEC_KEYS[key][0]
            args = parser.parse_args([command, "--out", "o", "--" + key.replace("_", "-"), "3"])
            assert getattr(args, key) == kind("3") and type(getattr(args, key)) is kind
