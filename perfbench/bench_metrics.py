"""Pure metric arithmetic of the planner benchmark.

Nothing here imports the planner: every function takes plain numbers, so
the arithmetic can be tested on small hand-built record lists.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

#: Relative tolerance for "this cost equals the oracle's", as in the harness.
OPT_REL_TOL = 1e-9


def same_cost(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=OPT_REL_TOL, abs_tol=1e-12)


@dataclass(frozen=True)
class Publication:
    """One published solution: publish time (s since the plan started), its
    cost, the bound claimed for it, and its cost re-summed by a re-walk
    (None when the path could not be re-walked)."""

    t: float
    cost: float
    bound: float
    rewalk_cost: float | None


@dataclass
class InstanceRun:
    """What one closed-loop play of one instance produced."""

    instance: int
    wall_s: float = 0.0
    gc_s: float = 0.0  # the collection of the garbage the plan call left
    publications: list[Publication] = field(default_factory=list)
    status: str = ""
    real_edges: int = 0  # real (non-dummy) edges popped
    evaluations: int = 0  # edge-cache misses: distinct domain evaluations
    cache_hits: int = 0
    error: str | None = None  # the plan call raised
    failures: list[str] = field(default_factory=list)  # failed output checks

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failures)


def time_to_first(pubs: list[Publication]) -> float | None:
    return pubs[0].t if pubs else None


def time_to_optimal(pubs: list[Publication], oracle: float) -> float | None:
    """Publish time of the first solution whose cost equals the oracle."""
    for p in pubs:
        if same_cost(p.cost, oracle):
            return p.t
    return None


def check_instance(run: InstanceRun, oracle: float, proved_status: str,
                   workers_alive: int) -> list[str]:
    """Every output check of one instance; returns the failed ones.

    The final cost equals the oracle and the status is the proved one;
    every published cost is within its bound of the oracle; costs never
    increase; every path re-walks to its published cost; no engine worker
    outlives the plan call.
    """
    failures: list[str] = []
    pubs = run.publications
    if run.status != proved_status:
        failures.append(f"status {run.status!r}, expected {proved_status!r}")
    if not pubs:
        failures.append("no solution published")
    elif not same_cost(pubs[-1].cost, oracle):
        failures.append(f"final cost {pubs[-1].cost!r} != oracle {oracle!r}")
    for i, p in enumerate(pubs):
        if p.cost > p.bound * oracle * (1.0 + OPT_REL_TOL):
            failures.append(f"publication {i}: cost {p.cost!r} > {p.bound} x oracle {oracle!r}")
        if i and p.cost > pubs[i - 1].cost:
            failures.append(f"publication {i}: cost rose from {pubs[i - 1].cost!r} to {p.cost!r}")
        if p.rewalk_cost is None or not same_cost(p.rewalk_cost, p.cost):
            failures.append(f"publication {i}: re-walk gives {p.rewalk_cost!r}, published {p.cost!r}")
    if workers_alive:
        failures.append(f"{workers_alive} engine worker thread(s) alive after plan returned")
    return failures


def count_outcomes(runs: list[InstanceRun]) -> tuple[int, int, bool]:
    """(attempted, failed, correct).

    An instance fails when its plan call raised or any output check failed;
    ``correct`` is false only when a plan call that returned gave a wrong
    output.
    """
    failed = sum(1 for r in runs if r.failed)
    correct = not any(r.failures for r in runs)
    return len(runs), failed, correct


def median_of_instance_medians(samples: dict[int, list[float]]) -> float | None:
    """Median over instances of each instance's median over sweeps.

    Instances without a sample (e.g. no optimal publication) are skipped.
    """
    per_instance = [statistics.median(v) for v in samples.values() if v]
    return statistics.median(per_instance) if per_instance else None


def worker_util(busy_s: float, workers: int, improve_s: float) -> float:
    """Share of the workers' time inside ``improve_path`` spent expanding."""
    return busy_s / (workers * improve_s)


def idle_per_edge_us(busy_s: float, workers: int, improve_s: float, edges: int) -> float:
    """Worker idle time inside ``improve_path`` per expanded edge, in µs."""
    return (workers * improve_s - busy_s) / edges * 1e6


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
