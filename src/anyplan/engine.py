"""Parallel edge-expansion engine.

One coordinator thread runs the search loop: it pops the lowest-priority
independent edge from OPEN and hands it to an idle edge-expansion worker.
Up to ``n_threads`` workers evaluate edges concurrently; every mutation of
shared search state happens inside one exclusive critical section, and the
slow domain evaluation is the only work performed outside it.

Deviations from a naive reading of the handoff protocol, both required for
correctness (see tests):

* a dummy-popped state enters BE atomically with the pop, so a concurrent
  independence check can never miss an expansion that is on its way to a
  worker but has not locked yet;
* the coordinator pops only when an idle worker exists, so a popped edge is
  assigned immediately and ``n_threads=1`` degenerates to the serial search.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import IO, NamedTuple

from .domain import DUMMY_ACTION, DomainError, Edge, EdgeCache, Path, SearchDomain
from .structures import (
    INF,
    InconsistentSet,
    OpenQueue,
    SearchNode,
    edge_priority,
    pop_independent,
)

#: Timed fallback for every blocking wait; bounds staleness at shutdown and
#: after missed notifications (seconds).
WAIT_SLICE = 1e-4

EVENT_DUMMY_EXPAND = "dummy_expand"
EVENT_EVAL_START = "eval_start"
EVENT_EVAL_END = "eval_end"
EVENT_RELAX = "relax"
EVENT_CLOSE = "close"


class ExpansionEvent(NamedTuple):
    t_ns: int
    iteration: int
    worker: int
    state: int
    action: int
    g: float
    f: float
    kind: str


class ImproveOutcome(Enum):
    SOLVED = "solved"
    EXHAUSTED = "exhausted"
    TIMEOUT = "timeout"


class EngineError(RuntimeError):
    """A worker raised, or the engine was driven outside its contract."""


class EngineInvariantError(AssertionError):
    """Internal search-state invariant violated; the episode is unusable."""


@dataclass(slots=True)
class _WorkerSlot:
    thread: threading.Thread | None = None
    pending: Edge | None = None
    busy: bool = False


class EpisodeContext:
    """All shared state of one planning episode.

    Owned by the coordinator (the thread that calls :func:`improve_path`);
    shared with the workers.  Everything except ``terminate``, the event
    list and the edge cache is guarded by ``cv``'s lock.
    """

    def __init__(self, domain: SearchDomain, start: int, n_threads: int, *,
                 deadline: float = INF, log_enabled: bool = True,
                 debug_checks: bool = False) -> None:
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        self.domain = domain
        self.start = start
        self.cache = EdgeCache()
        self.open = OpenQueue()
        self.be: set[int] = set()
        self.closed: set[int] = set()
        self.incons = InconsistentSet()
        self.nodes: dict[int, SearchNode] = {}
        self.w = 1.0
        self.eps = 1.0
        self.goal_found: int | None = None
        self.iteration = 0
        self.deadline = deadline
        self.cv = threading.Condition()
        self.slots = [_WorkerSlot() for _ in range(n_threads)]
        self.terminate = threading.Event()
        self.worker_error: BaseException | None = None
        self.log_enabled = log_enabled
        self.debug_checks = debug_checks
        self.events: list[ExpansionEvent] = []
        self.iter_dummy_expansions = 0
        self.iter_real_expansions = 0
        #: dummy expansions of a state whose g did not drop since its last
        #: completed expansion (anytime-efficiency property; must stay 0)
        self.unjustified_reexpansions = 0

        node = self.ensure_node(start)
        node.g = 0.0

    def ensure_node(self, state: int) -> SearchNode:
        node = self.nodes.get(state)
        if node is None:
            node = SearchNode(h=self.domain.heuristic(state))
            self.nodes[state] = node
        return node

    def goal_g(self) -> float:
        """Current f of the best goal seen (h of a goal state is 0)."""
        if self.goal_found is None:
            return INF
        return self.nodes[self.goal_found].g

    def log(self, kind: str, worker: int, edge: Edge, g: float) -> None:
        if not self.log_enabled:
            return
        h = self.nodes[edge.state].h
        self.events.append(ExpansionEvent(
            time.monotonic_ns(), self.iteration, worker, edge.state,
            edge.action, g, g + self.w * h, kind))


def seed_open_with_start(ctx: EpisodeContext, w: float) -> None:
    """Insert the start state's dummy edge; the episode's only seed."""
    node = ctx.nodes[ctx.start]
    ctx.open.upsert(Edge(ctx.start, DUMMY_ACTION),
                    edge_priority(node.g, node.h, w), node.h)


def improve_path(ctx: EpisodeContext) -> ImproveOutcome:
    """One bounded-suboptimal search pass at the context's current w/eps.

    Loops while the incumbent goal priority exceeds OPEN's minimum; pops the
    cheapest independent edge and hands it to an idle worker, blocking when
    none qualifies or none is idle.  On exit, in-flight expansions are
    drained and partially expanded states are collapsed back to dummy edges
    so BE is empty between passes.
    """
    cv = ctx.cv
    with cv:
        while True:
            if ctx.worker_error is not None:
                _drain_locked(ctx)
                if isinstance(ctx.worker_error, DomainError):
                    raise ctx.worker_error  # the domain's fault, named as such
                raise EngineError("edge-expansion worker failed") from ctx.worker_error
            if time.monotonic() >= ctx.deadline:
                _drain_locked(ctx)
                _recollapse_locked(ctx)
                return ImproveOutcome.TIMEOUT
            goal_g = ctx.goal_g()
            if ctx.goal_found is not None and goal_g <= ctx.open.min_f():
                # Declare termination only at a quiescent instant: an
                # in-flight expansion may still push an edge under the
                # incumbent's priority, so let it land and re-check.  This
                # is what makes one-thread runs replay the serial search.
                if any(slot.busy for slot in ctx.slots):
                    cv.wait(WAIT_SLICE)
                    continue
                _recollapse_locked(ctx)
                return ImproveOutcome.SOLVED
            if not ctx.open and not ctx.be:
                # BE empty implies no expansion in flight: truly exhausted.
                return ImproveOutcome.EXHAUSTED
            wid = _find_idle_slot(ctx)
            if wid is None:
                cv.wait(WAIT_SLICE)
                continue
            # With a single gated worker no expansion is ever concurrent
            # with a pop, so the independence filter adds no guarantee;
            # popping the minimum replays the serial repair search exactly.
            eps = ctx.eps if len(ctx.slots) > 1 else INF
            edge = pop_independent(ctx.open, ctx.be, eps, ctx.nodes, ctx.domain)
            if edge is None:
                cv.wait(WAIT_SLICE)
                continue
            node = ctx.nodes[edge.state]
            if edge.action == DUMMY_ACTION:
                if node.g >= node.g_expanded:
                    ctx.unjustified_reexpansions += 1
                node._g_expanded_prev = node.g_expanded
                node.g_expanded = node.g
                node.in_be = True
                ctx.be.add(edge.state)
                node.n_actions = len(ctx.domain.actions(edge.state))
                node.n_successors_generated = 0
                ctx.iter_dummy_expansions += 1
                ctx.log(EVENT_DUMMY_EXPAND, wid, edge, node.g)
            else:
                ctx.iter_real_expansions += 1
            if node.g < goal_g and ctx.domain.is_goal(edge.state):
                ctx.goal_found = edge.state
            _assign_locked(ctx, wid, edge)
            if ctx.debug_checks:
                validate_invariants(ctx)


def _find_idle_slot(ctx: EpisodeContext) -> int | None:
    for i, slot in enumerate(ctx.slots):
        if not slot.busy:
            return i
    return None


def _assign_locked(ctx: EpisodeContext, wid: int, edge: Edge) -> None:
    slot = ctx.slots[wid]
    if slot.busy or slot.pending is not None:
        raise EngineInvariantError(f"worker {wid} assigned while busy")
    slot.busy = True
    slot.pending = edge
    if slot.thread is None:  # spawned lazily on first assignment
        slot.thread = threading.Thread(
            target=_worker_loop, args=(ctx, wid),
            name=f"anyplan-worker-{wid}", daemon=True)
        slot.thread.start()
    ctx.cv.notify_all()


def _drain_locked(ctx: EpisodeContext) -> None:
    """Wait (holding cv) until no expansion is in flight."""
    while any(slot.busy for slot in ctx.slots):
        ctx.cv.wait(WAIT_SLICE)


def _recollapse_locked(ctx: EpisodeContext) -> None:
    """Fold interrupted expansions back into dummy edges.

    States left in BE when a pass exits have unexpanded real edges in OPEN;
    those edges are withdrawn and each state is re-queued as a dummy edge
    (unless deferred to INCON), so the next pass redoes the expansion from
    cached evaluations.  The interrupted expansion does not count as one:
    its recorded expansion g-value is rolled back.
    """
    for s in sorted(ctx.be):
        node = ctx.nodes[s]
        for a in ctx.domain.actions(s):
            ctx.open.discard(Edge(s, a))
        node.n_successors_generated = 0
        node.n_actions = -1
        node.in_be = False
        node.g_expanded = node._g_expanded_prev
        if not node.in_incon:
            ctx.open.upsert(Edge(s, DUMMY_ACTION),
                            edge_priority(node.g, node.h, ctx.w), node.h)
    ctx.be.clear()


def _worker_loop(ctx: EpisodeContext, wid: int) -> None:
    """Body of one edge-expansion thread (spawned lazily)."""
    slot = ctx.slots[wid]
    cv = ctx.cv
    while True:
        with cv:
            while slot.pending is None and not ctx.terminate.is_set():
                cv.wait(WAIT_SLICE)
            edge = slot.pending
        if edge is None:
            return
        try:
            expand_edge(ctx, edge, wid)
        except BaseException as exc:  # surfaced to the coordinator
            with cv:
                ctx.worker_error = exc
        finally:
            with cv:
                slot.pending = None
                slot.busy = False
                cv.notify_all()


def expand_edge(ctx: EpisodeContext, edge: Edge, wid: int) -> None:
    """Expand one popped edge (runs on a worker thread, unlocked on entry).

    Dummy edges spill the state's real edges into OPEN.  Real edges evaluate
    outside the critical section, then relax the successor: its dummy edge
    goes to OPEN, or to INCON when the successor is already closed or under
    expansion.  The source state closes once all its real edges finished.
    """
    s = edge.state
    if edge.action == DUMMY_ACTION:
        with ctx.cv:
            node = ctx.nodes[s]
            f = edge_priority(node.g, node.h, ctx.w)
            for a in ctx.domain.actions(s):
                ctx.open.upsert(Edge(s, a), f, node.h)
            if node.n_actions == 0:  # nothing to expand: close right away
                node.in_be = False
                ctx.be.discard(s)
                node.in_closed = True
                ctx.closed.add(s)
                ctx.log(EVENT_CLOSE, wid, Edge(s, DUMMY_ACTION), node.g)
            if ctx.debug_checks:
                validate_invariants(ctx)
            ctx.cv.notify_all()
        return

    node = ctx.nodes[s]
    ctx.log(EVENT_EVAL_START, wid, edge, node.g)
    outcome = ctx.cache.evaluate(ctx.domain, edge)  # the slow part, unlocked
    ctx.log(EVENT_EVAL_END, wid, edge, node.g)
    with ctx.cv:
        if outcome.valid:
            succ_key = outcome.successor
            succ = ctx.ensure_node(succ_key)
            new_g = node.g + outcome.cost
            if succ.g > new_g:
                succ.g = new_g
                succ.parent = edge
                if not succ.in_closed and not succ.in_be:
                    ctx.open.upsert(Edge(succ_key, DUMMY_ACTION),
                                    edge_priority(new_g, succ.h, ctx.w), succ.h)
                else:
                    succ.in_incon = True
                    ctx.incons.add(succ_key)
                ctx.log(EVENT_RELAX, wid, Edge(succ_key, DUMMY_ACTION), new_g)
        node.n_successors_generated += 1
        if node.n_successors_generated == node.n_actions:
            if not node.in_be:
                raise EngineInvariantError(f"state {s} completed while not in BE")
            node.in_be = False
            ctx.be.discard(s)
            node.in_closed = True
            ctx.closed.add(s)
            ctx.log(EVENT_CLOSE, wid, Edge(s, DUMMY_ACTION), node.g)
        if ctx.debug_checks:
            validate_invariants(ctx)
        ctx.cv.notify_all()


def backtrack(ctx: EpisodeContext, state: int) -> Path:
    """Rebuild the parent chain from ``state`` back to the episode start.

    The cost is the re-summed cost of the chain's edges (all of them are in
    the edge cache).  A broken chain aborts the episode.
    """
    edges: list[Edge] = []
    states: list[int] = [state]
    cost = 0.0
    seen = {state}
    current = state
    while current != ctx.start:
        node = ctx.nodes.get(current)
        if node is None or node.parent is None:
            raise EngineInvariantError(f"broken parent chain at state {current}")
        parent_edge = node.parent
        outcome = ctx.cache.get(parent_edge)
        if outcome is None or not outcome.valid or outcome.successor != current:
            raise EngineInvariantError(f"parent edge {parent_edge} does not reach {current}")
        cost += outcome.cost
        edges.append(parent_edge)
        current = parent_edge.state
        if current in seen:
            raise EngineInvariantError(f"parent chain cycles at state {current}")
        seen.add(current)
        states.append(current)
    edges.reverse()
    states.reverse()
    return Path(edges=tuple(edges), states=tuple(states), cost=cost)


def shutdown(ctx: EpisodeContext, join_timeout: float = 5.0) -> None:
    """Set the terminate flag once and join every spawned worker."""
    ctx.terminate.set()
    with ctx.cv:
        ctx.cv.notify_all()
    for slot in ctx.slots:
        if slot.thread is not None:
            slot.thread.join(timeout=join_timeout)
            if slot.thread.is_alive():
                raise EngineError(f"worker {slot.thread.name} failed to stop")


def validate_invariants(ctx: EpisodeContext) -> None:
    """Debug-mode consistency audit; call while holding the lock."""
    ctx.open.check_no_duplicates()
    for s, node in ctx.nodes.items():
        if node.in_be and node.in_closed:
            raise EngineInvariantError(f"state {s} in BE and CLOSED at once")
        if node.in_be != (s in ctx.be) or node.in_closed != (s in ctx.closed):
            raise EngineInvariantError(f"membership flags out of sync for state {s}")
        if node.in_incon != (s in ctx.incons):
            raise EngineInvariantError(f"INCON flag out of sync for state {s}")
        if node.n_actions >= 0:
            if node.n_successors_generated > node.n_actions:
                raise EngineInvariantError(f"state {s} over-generated successors")
            if node.in_closed and node.n_successors_generated != node.n_actions:
                raise EngineInvariantError(f"state {s} closed before all successors")
        if node.in_incon and Edge(s, DUMMY_ACTION) in ctx.open:
            raise EngineInvariantError(f"state {s} in INCON and OPEN simultaneously")


def write_expansion_log(events: list[ExpansionEvent], fp: IO[str]) -> None:
    """Dump expansion events as newline-delimited JSON records."""
    for ev in events:
        fp.write(json.dumps({
            "t_ns": ev.t_ns, "iter": ev.iteration, "worker": ev.worker,
            "state": ev.state, "action": ev.action, "g": ev.g, "f": ev.f,
            "kind": ev.kind,
        }, separators=(",", ":")))
        fp.write("\n")
