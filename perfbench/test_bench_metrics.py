"""Tests of the benchmark's own arithmetic on hand-built records.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math

import pytest

from bench_metrics import (
    InstanceRun,
    Publication,
    check_instance,
    count_outcomes,
    idle_per_edge_us,
    median_of_instance_medians,
    time_to_first,
    time_to_optimal,
    worker_util,
)
from bench_trace import Tracer
from run import layer_figures

PROVED = "proved_optimal"


def pubs(*items):
    """(t, cost, bound) triples whose re-walk matches the published cost."""
    return [Publication(t, c, b, c) for t, c, b in items]


def good_run(instance=0) -> InstanceRun:
    return InstanceRun(instance=instance, wall_s=0.5, status=PROVED,
                       publications=pubs((0.1, 130.0, 50.0), (0.2, 110.0, 2.0),
                                         (0.4, 100.0, 1.0)))


def test_time_to_first_and_optimal():
    run = good_run()
    assert time_to_first(run.publications) == 0.1
    assert time_to_optimal(run.publications, 100.0) == 0.4
    # a publication equal to the oracle within 1e-9 relative counts as optimal
    assert time_to_optimal(pubs((0.3, 100.0 * (1 + 1e-12), 1.0)), 100.0) == 0.3
    assert time_to_optimal(pubs((0.3, 100.1, 1.0)), 100.0) is None
    assert time_to_first([]) is None


def test_t_opt_is_first_optimal_publication_not_the_last():
    p = pubs((0.1, 120.0, 3.0), (0.2, 100.0, 2.0), (0.9, 100.0, 1.0))
    assert time_to_optimal(p, 100.0) == 0.2


def test_good_instance_passes_every_check():
    assert check_instance(good_run(), 100.0, PROVED, workers_alive=0) == []


@pytest.mark.parametrize("mutate, fragment", [
    (lambda r: setattr(r, "status", "timeout"), "status"),
    (lambda r: r.publications.__setitem__(-1, Publication(0.4, 101.0, 1.0, 101.0)),
     "final cost"),
    (lambda r: r.publications.__setitem__(1, Publication(0.2, 250.0, 2.0, 250.0)),
     "x oracle"),
    (lambda r: r.publications.__setitem__(1, Publication(0.2, 140.0, 2.0, 140.0)),
     "cost rose"),
    (lambda r: r.publications.__setitem__(0, Publication(0.1, 130.0, 50.0, 129.0)),
     "re-walk"),
    (lambda r: r.publications.__setitem__(0, Publication(0.1, 130.0, 50.0, None)),
     "re-walk"),
    (lambda r: r.publications.clear(), "no solution"),
])
def test_each_check_catches_its_fault(mutate, fragment):
    run = good_run()
    mutate(run)
    failures = check_instance(run, 100.0, PROVED, workers_alive=0)
    assert any(fragment in f for f in failures), failures


def test_live_worker_fails_the_instance():
    failures = check_instance(good_run(), 100.0, PROVED, workers_alive=1)
    assert failures == ["1 engine worker thread(s) alive after plan returned"]


def test_failure_counting():
    ok = good_run()
    raised = InstanceRun(instance=1, error="EngineError: boom")
    wrong = good_run(2)
    wrong.failures = ["final cost 101.0 != oracle 100.0"]
    assert count_outcomes([ok, ok]) == (2, 0, True)
    # a call that raised is failed, but gave no wrong output
    assert count_outcomes([ok, raised]) == (2, 1, True)
    # a wrong output is failed and makes the run incorrect
    assert count_outcomes([ok, raised, wrong]) == (3, 2, False)


def test_median_of_instance_medians():
    samples = {0: [10.0, 30.0, 20.0], 1: [5.0], 2: [100.0, 200.0], 3: []}
    # per instance: 20, 5, 150; instance 3 has no sample
    assert median_of_instance_medians(samples) == 20.0
    assert median_of_instance_medians({}) is None


def test_worker_util_and_idle_per_edge():
    # 2 workers inside a 1 s pass, busy 1.5 s in total over 1000 edges
    assert worker_util(1.5, 2, 1.0) == 0.75
    assert math.isclose(idle_per_edge_us(1.5, 2, 1.0, 1000), 500.0)


def test_layer_figures_from_hand_built_spans():
    tracer = Tracer()
    ms = 1_000_000
    # (id, name, thread, start, end, parent, sweep, instance, child_ns, note)
    tracer.spans = [
        # the pass: 30 ms in its two pops, 5 ms in untraced-span leaf calls
        (2, "engine.improve_path", 1, 0, 100 * ms, 1, 0, 0, 35 * ms, 0),
        # 4 ms of the first pop went to pairwise heuristics
        (3, "structures.pop_independent", 1, 0, 20 * ms, 2, 0, 0, 4 * ms, 0),
        (4, "structures.pop_independent", 1, 20 * ms, 30 * ms, 2, 0, 0, 0, 1),
        (5, "engine.expand_edge", 7, 0, 60 * ms, 2, 0, 0, 50 * ms, 0),
        (6, "engine.expand_edge", 8, 0, 40 * ms, 2, 0, 0, 30 * ms, 0),
        # 2 ms of merge_incons went to OPEN upserts
        (7, "controller.merge_incons", 1, 0, 3 * ms, 1, 0, 0, 2 * ms, 0),
        (8, "structures.rebalance", 1, 0, 3 * ms, 1, 0, 0, 0, 0),
        (9, "controller.backtrack", 1, 0, 2 * ms, 1, 0, 0, 0, 0),
        (1, "plan", 1, 0, 110 * ms, 0, 0, 0, 108 * ms, 0),
    ]
    run = InstanceRun(instance=0, evaluations=30, cache_hits=10, gc_s=0.004,
                      publications=pubs((0.01, 1.0, 1.0)))
    (fig,) = layer_figures(tracer, [[run]])
    # pass and busy times are wall times: utilisation is read against them
    assert fig["engine.improve_path.s"] == pytest.approx(0.1)
    assert fig["engine.expand_edge.busy_s"] == pytest.approx(0.1)
    assert fig["engine.worker_util"] == pytest.approx(0.1 / (2 * 0.1))
    assert fig["engine.idle_per_edge_us"] == pytest.approx((0.2 - 0.1) / 2 * 1e6)
    # every other time is a self time
    assert fig["engine.coordinator_self_s"] == pytest.approx(0.1 - 0.035)
    assert fig["structures.pop_independent.calls"] == 2
    assert fig["structures.pop_independent.none_ratio"] == 0.5
    assert fig["structures.pop_independent.us"] == pytest.approx((16 + 10) / 2 * 1000.0)
    assert fig["controller.passes"] == 1
    assert fig["controller.reset_us"] == pytest.approx(4_000.0)
    assert fig["controller.backtrack_us"] == pytest.approx(2_000.0)
    assert fig["domain.cache.hit_ratio"] == 0.25
    assert fig["controller.publications"] == 1
    assert fig["bench.episode_gc_ms"] == pytest.approx(4.0)


def test_tracer_charges_leaf_time_to_the_enclosing_span():
    tracer = Tracer()
    leaf = tracer.leaf_wrapper("leaf", lambda x: x + 1)
    outer = tracer.span_wrapper("outer", lambda: leaf(1) + leaf(2))
    with tracer.recording(sweep=0, instance=3):
        assert outer() == 5
    assert outer() == 5  # outside recording() nothing is recorded
    (span,) = tracer.spans
    assert span[1] == "outer" and span[6:8] == (0, 3)
    counts, _ = tracer.leaf_totals()
    assert counts[0, 3, "leaf"][0] == 2
    assert 0 < span[8] <= span[4] - span[3]
