"""Shared test fixtures: toy domains, instrumented wrappers, and the
brute-force oracles and independent references the package's properties
are checked against."""

from __future__ import annotations

import math
import threading
import time
from unittest import mock

from anyplan import controller
from anyplan.bench import RunSpec, build_run_spec, parse_spec_values
from anyplan.domain import (DUMMY_ACTION, INVALID_OUTCOME, Edge, EdgeCache, Path, SearchDomain,
                            SuccessorOutcome)
from anyplan.engine import EpisodeContext
from anyplan.grid2d import (
    DIRECTIONS,
    CostModel,
    GridDomainConfig,
    GridMap,
    GridPlanningProblem,
    GridWorld,
    build_factor_map,
    parse_map,
    reachable_indices,
    sample_offsets,
)
from anyplan.search import EngineInvariantError
from anyplan.structures import OpenQueue


def open_map_text(width: int, height: int) -> str:
    rows = "\n".join("." * width for _ in range(height))
    return f"type octile\nheight {height}\nwidth {width}\nmap\n{rows}\n"


def make_world(map_text: str, footprint: int = 1, move: int = 1,
               cost: str = "euclidean", cost_seed: int = 0,
               eval_delay: float = 0.0, collision_step: int = 1) -> GridWorld:
    return GridWorld(
        parse_map(map_text),
        GridDomainConfig(footprint_side=footprint, move_length=move,
                         collision_step=collision_step, eval_delay=eval_delay),
        CostModel(cost, cost_seed))


def open_world(n: int, **kwargs) -> GridWorld:
    return make_world(open_map_text(n, n), **kwargs)


def grid_problem(world: GridWorld, start, goal) -> GridPlanningProblem:
    return GridPlanningProblem(world, start, goal)


def free_anchors(world: GridWorld) -> list[tuple[int, int]]:
    """Every free footprint placement of ``world`` as ``(x, y)``, in raster
    order (row by row)."""
    ph, pw = world.placement_ok.shape
    return [(x, y) for y in range(ph) for x in range(pw) if world.placement_free(x, y)]


def random_obstacle_map_text(width: int, height: int, density: float, seed: int) -> str:
    import random

    rng = random.Random(seed)
    rows = []
    for _y in range(height):
        rows.append("".join("@" if rng.random() < density else "."
                            for _x in range(width)))
    return f"type octile\nheight {height}\nwidth {width}\nmap\n" + "\n".join(rows) + "\n"


class AllMovesProblem(GridPlanningProblem):
    """A grid problem that lists all eight moves at every state, those whose
    target is off the raster too: the reference the on-raster action set
    is checked against."""

    def actions(self, state):
        return tuple(range(len(DIRECTIONS)))


class ToyGraphDomain(SearchDomain):
    """Explicit graph: states are small ints placed at 2D coordinates, the
    heuristics are euclidean over those coordinates.  Each valid edge names
    its outcome before it is evaluated (``outcome_if_valid``)."""

    def __init__(self, coords: dict[int, tuple[float, float]],
                 edges: dict[int, list[tuple[int, float]]],
                 goals: set[int] | None = None):
        self.coords = coords
        self.edges = edges
        self.goals = goals or set()

    def actions(self, state):
        return range(len(self.edges.get(state, [])))

    def evaluate(self, state, action):
        succ, cost = self.edges[state][action]
        if succ is None:
            return INVALID_OUTCOME
        return SuccessorOutcome(True, succ, cost)

    def outcome_if_valid(self, state, action):
        succ, cost = self.edges[state][action]
        return None if succ is None else SuccessorOutcome(True, succ, cost)

    def heuristic(self, state):
        if not self.goals:
            return 0.0
        return min(self.pairwise_heuristic(state, g) for g in self.goals)

    def pairwise_heuristic(self, a, b):
        (ax, ay), (bx, by) = self.coords[a], self.coords[b]
        return math.hypot(ax - bx, ay - by)

    def is_goal(self, state):
        return state in self.goals


class StarDomain(SearchDomain):
    """One hub with ``k`` unit-cost spokes; h == 0 so every spoke edge is
    independent of every other.  No goal: searches run to exhaustion."""

    def __init__(self, k: int, delay: float = 0.0):
        self.k = k
        self.delay = delay

    def actions(self, state):
        return range(self.k) if state == 0 else []

    def evaluate(self, state, action):
        if self.delay:
            time.sleep(self.delay)
        return SuccessorOutcome(True, action + 1, 1.0)

    def heuristic(self, state):
        return 0.0

    def pairwise_heuristic(self, a, b):
        return 0.0

    def is_goal(self, state):
        return False


class CountingDomain(SearchDomain):
    """Wraps a domain and counts evaluate() invocations (thread safe) and
    actions() invocations per state; every other method is the inner
    domain's."""

    def __init__(self, inner: SearchDomain, delay: float = 0.0):
        self.inner = inner
        self.delay = delay
        self.calls = 0
        self.calls_by_edge: dict[tuple[int, int], int] = {}
        self.listings_by_state: dict[int, int] = {}
        self._lock = threading.Lock()

    def actions(self, state):
        self.listings_by_state[state] = self.listings_by_state.get(state, 0) + 1
        return self.inner.actions(state)

    def evaluate(self, state, action):
        with self._lock:
            self.calls += 1
            key = (state, action)
            self.calls_by_edge[key] = self.calls_by_edge.get(key, 0) + 1
        if self.delay:
            time.sleep(self.delay)
        return self.inner.evaluate(state, action)

    def outcome_if_valid(self, state, action):
        return self.inner.outcome_if_valid(state, action)

    def heuristic(self, state):
        return self.inner.heuristic(state)

    def pairwise_heuristic(self, a, b):
        return self.inner.pairwise_heuristic(a, b)

    def is_goal(self, state):
        return self.inner.is_goal(state)


# ---------------------------------------------------------------------------
# The per-move invariant audit


def check_no_duplicates(open_queue: OpenQueue) -> None:
    """Exhaustive scan of ``open_queue``: one entry per edge, in its index
    and in its sorted list, and the list in order."""
    entries = open_queue._entries
    assert len(entries) == len(open_queue._key)
    seen = set()
    for _f, _h, s, a in entries:
        assert (s, a) not in seen, f"duplicate entry for ({s}, {a})"
        seen.add((s, a))
    assert entries == sorted(entries)


def validate_invariants(ctx: EpisodeContext) -> None:
    """Check OPEN, BE, CLOSED, INCON and the per-state successor counts of
    ``ctx`` against each other.  A broken OPEN fails an assertion; any other
    break raises :class:`EngineInvariantError` naming its states."""
    check_no_duplicates(ctx.open)
    both = ctx.be & ctx.closed
    if both:
        raise EngineInvariantError(f"states {sorted(both)} in BE and CLOSED at once")
    in_open = {edge for edge, _f in ctx.open.entries()}
    for s in ctx.incons:
        if Edge(s, DUMMY_ACTION) in in_open:
            raise EngineInvariantError(f"state {s} in INCON and OPEN simultaneously")
    for s, node in ctx.nodes.items():
        if node.actions is None:
            if s in ctx.be or s in ctx.closed:
                raise EngineInvariantError(f"state {s} expanded without its listing")
            continue
        if node.n_successors_generated > len(node.actions):
            raise EngineInvariantError(f"state {s} over-generated successors")
        if s in ctx.closed and node.n_successors_generated != len(node.actions):
            raise EngineInvariantError(f"state {s} closed before all successors")


class AuditedContext(EpisodeContext):
    """An episode that runs :func:`validate_invariants` after every move
    that changes the search state: each pop's bookkeeping, each spill and
    each relaxation (an edge-cache hit or a landed evaluation)."""

    def begin_expansion(self, edge, worker):
        super().begin_expansion(edge, worker)
        validate_invariants(self)

    def spill(self, state, worker):
        super().spill(state, worker)
        validate_invariants(self)

    def relax(self, edge, outcome, worker):
        super().relax(edge, outcome, worker)
        validate_invariants(self)


def audited_plan(config, domain, start, **kwargs) -> controller.PlanResult:
    """The real ``controller.plan``, with every episode an :class:`AuditedContext`."""
    with mock.patch.object(controller, "EpisodeContext", AuditedContext):
        return controller.plan(config, domain, start, **kwargs)


# ---------------------------------------------------------------------------
# Brute-force oracles and independent references


def independence_oracle(edge, open_queue, be, eps, nodes, domain) -> bool:
    """Literal pairwise evaluation of the two independence inequalities over
    every lower-priority OPEN edge and every BE state, no shortcuts."""
    if eps == math.inf:
        return True
    g_e = nodes[edge.state].g
    for other, _f in open_queue.entries():  # ascending key order
        if other == edge:
            break
        if g_e - nodes[other.state].g > eps * domain.pairwise_heuristic(other.state, edge.state):
            return False
    for s in be:
        if g_e - nodes[s].g > eps * domain.pairwise_heuristic(s, edge.state):
            return False
    return True


def pop_oracle(open_queue, be, eps, nodes, domain):
    """First qualifying edge in ascending priority order, per the literal
    checks; None when nothing qualifies."""
    for edge, _f in open_queue.entries():
        if independence_oracle(edge, open_queue, be, eps, nodes, domain):
            return edge
    return None


def sweep_collision_oracle(grid: GridMap, frm, to, footprint: int, step: int) -> bool:
    """Exhaustive per-cell footprint sweep along the segment, checking every
    covered cell at every interpolation point (both endpoints included)."""

    def footprint_clear(x, y):
        for dy in range(footprint):
            for dx in range(footprint):
                cx, cy = x + dx, y + dy
                if not (0 <= cx < grid.width and 0 <= cy < grid.height):
                    return False
                if grid.occupancy[cy, cx]:
                    return False
        return True

    x0, y0 = frm
    x1, y1 = to
    dx, dy = x1 - x0, y1 - y0
    span = max(abs(dx), abs(dy))
    if span == 0:
        return footprint_clear(x0, y0)
    n = math.ceil(span / step)
    points = [(x0 + round(k * step / span * dx), y0 + round(k * step / span * dy))
              for k in range(n)]
    points.append((x1, y1))
    return all(footprint_clear(x, y) for x, y in points)


def move_target(world: GridWorld, xy: tuple[int, int], action: int) -> tuple[int, int]:
    ux, uy = DIRECTIONS[action]
    length = world.config.move_length
    return xy[0] + ux * length, xy[1] + uy * length


def segment_clear(world: GridWorld, frm: tuple[int, int], to: tuple[int, int]) -> bool:
    """Footprint collision check along the straight from->to segment.

    Samples at exact collision_step multiples of the per-axis parameter
    plus the final endpoint, both endpoints included.
    """
    x0, y0 = frm
    return all(world.placement_free(x0 + ox, y0 + oy)
               for ox, oy in sample_offsets(to[0] - x0, to[1] - y0,
                                            world.config.collision_step))


def edge_cost(world: GridWorld, frm: tuple[int, int], to: tuple[int, int]) -> float:
    """Cost of the move between two on-map anchors, as a Python ``float``:
    its euclidean length, scaled under ``random_factor`` by the mean of the
    :func:`build_factor_map` factors at its two ends."""
    length = math.hypot(to[0] - frm[0], to[1] - frm[1])
    model = world.cost_model
    if model.kind != "random_factor":
        return length
    fm = build_factor_map(model.rng_seed, world.grid.width, world.grid.height)
    return length * (float(fm[frm[1], frm[0]]) + float(fm[to[1], to[0]])) / 2.0


def reachable_anchors(world: GridWorld, start: tuple[int, int]) -> set[tuple[int, int]]:
    """``reachable_indices`` on ``(x, y)`` coordinates, ``start`` included.
    A start off the placement grid reaches only itself."""
    x, y = start
    ph, pw = world.placement_ok.shape
    if not (0 <= x < pw and 0 <= y < ph):
        return {start}
    return {(i % pw, i // pw) for i in reachable_indices(world, y * pw + x)}


def audit_consistency(domain: SearchDomain, cache: EdgeCache, states,
                      named: bool = False) -> int:
    """Check h(s) <= c(s,a) + h(s') over every valid edge in ``cache`` out
    of ``states``, which must hold the source of every cached edge (an
    episode's ``nodes``, or the states a test evaluated every edge of).
    With ``named``, a listed edge the cache holds no outcome for is audited
    at the outcome ``outcome_if_valid`` names for it, if any: the edges a
    search skipped or never popped, priced as if valid.

    Returns the number of edges audited; raises AssertionError on the first
    violation.  A slack of 1e-9 absorbs float rounding of exact-equality
    cases.
    """
    n = 0
    for s in states:
        hs = domain.heuristic(s)
        for a in domain.actions(s):
            edge = Edge(s, a)
            out = cache.get(edge)
            if out is None and named:
                out = domain.outcome_if_valid(s, a)
            if out is None or not out.valid:
                continue
            hs2 = domain.heuristic(out.successor)
            if hs > out.cost + hs2 + 1e-9:
                raise AssertionError(
                    f"inconsistent heuristic on {edge}: h={hs} > c={out.cost} + h'={hs2}"
                )
            n += 1
    return n


def parse_run_spec(text: str) -> RunSpec:
    """Parse a spec file's text into a :class:`RunSpec`."""
    return build_run_spec(parse_spec_values(text))


def all_pairs_optimal(domain, states) -> dict[tuple[int, int], float]:
    """Exhaustive Dijkstra from every state; the pairwise-heuristic
    admissibility oracle."""
    from anyplan.baselines import dijkstra_distances

    table = {}
    for s in states:
        dist = dijkstra_distances(domain, s)
        for t, d in dist.items():
            table[(s, t)] = d
    return table


def published_costs(result: controller.PlanResult) -> list[float]:
    """The cost of each record ``result`` published, in order."""
    return [r.cost for r in result.records]


def committed_expansion_check(events) -> int:
    """Re-derive the local-inconsistency-at-expansion property from a log.

    A dummy expansion of s counts as committed once a close event for s
    follows it (before s's next dummy expansion).  Every dummy expansion of
    a previously committed state must observe a strictly lower g than that
    previous committed expansion recorded.  Returns the violation count.
    """
    by_time = sorted(events, key=lambda ev: ev.t_ns)
    committed_g: dict[int, float] = {}
    pending_g: dict[int, float] = {}
    violations = 0
    for ev in by_time:
        if ev.kind == "dummy_expand":
            prev = committed_g.get(ev.state)
            if prev is not None and not ev.g < prev:
                violations += 1
            pending_g[ev.state] = ev.g
        elif ev.kind == "close" and ev.state in pending_g:
            committed_g[ev.state] = pending_g.pop(ev.state)
    return violations


def max_eval_overlap(events) -> int:
    """Peak number of concurrently running evaluations in a log."""
    points = []
    for ev in events:
        if ev.kind == "eval_start":
            points.append((ev.t_ns, 1))
        elif ev.kind == "eval_end":
            points.append((ev.t_ns, -1))
    points.sort()
    peak = cur = 0
    for _t, delta in points:
        cur += delta
        peak = max(peak, cur)
    return peak


def rewalk_cost(domain: SearchDomain, path: Path) -> float:
    """Re-evaluate every edge of ``path`` through the domain and re-sum.

    Raises if any edge is invalid or does not chain to the recorded states.
    """
    total = 0.0
    for i, edge in enumerate(path.edges):
        if edge.state != path.states[i]:
            raise ValueError(f"edge {i} does not start at the recorded state")
        out = domain.evaluate(edge.state, edge.action)
        if not out.valid:
            raise ValueError(f"edge {i} is invalid on re-evaluation")
        if out.successor != path.states[i + 1]:
            raise ValueError(f"edge {i} reaches {out.successor}, recorded {path.states[i + 1]}")
        total += out.cost
    return total


def assert_no_leaked_workers():
    alive = [t for t in threading.enumerate() if t.name.startswith("anyplan-worker")]
    assert not alive, f"leaked worker threads: {[t.name for t in alive]}"
