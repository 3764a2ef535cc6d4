"""The planner keeps calling each layer through the module attribute that
the benchmark's tracer (perfbench/bench_trace.py) wraps; a layer called
any other way would vanish from ``perfbench/run.py --trace 1``."""

from pathlib import Path

from anyplan.controller import PlannerConfig, plan

from _support import grid_problem, open_world

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_plan_records_a_span_for_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from bench_trace import Tracer

    world = open_world(12, footprint=2, move=2, cost="random_factor", cost_seed=4)
    problem = grid_problem(world, (0, 0), (10, 10))
    tracer = Tracer()
    with tracer.installed(), tracer.recording(0, 0):
        result = plan(PlannerConfig(w0=5.0, delta_w=1.0, n_threads=2), problem, problem.start)
    assert result.status == "proved_optimal"
    names = {span[1] for span in tracer.spans}
    assert {"engine.improve_path", "controller.merge_incons", "controller.backtrack",
            "structures.pop_independent", "engine.expand_edge",
            "structures.rebalance"} <= names
