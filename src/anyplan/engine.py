"""Parallel edge-expansion engine.

One coordinator thread runs the search loop: it pops the lowest-priority
independent edge from OPEN and hands it to an idle edge-expansion worker.
Up to ``n_threads`` workers evaluate edges concurrently; every move on the
shared :class:`~anyplan.search.SearchState` happens inside one exclusive
critical section, and the slow domain evaluation is the only work performed
outside it.

Deviations from a naive reading of the handoff protocol, both required for
correctness (see tests):

* a dummy-popped state enters BE atomically with the pop, so a concurrent
  independence check can never miss an expansion that is on its way to a
  worker but has not locked yet;
* the coordinator pops only when an idle worker exists, so a popped edge is
  assigned immediately and ``n_threads=1`` degenerates to the serial search.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from .domain import DUMMY_ACTION, DomainError, Edge, SearchDomain
from .search import EngineInvariantError, ImproveOutcome, SearchState
# The engine's callers also reach these through this module.
from .search import backtrack, seed_open_with_start, write_expansion_log  # noqa: F401
from .structures import INF, pop_independent

#: Timed fallback for every blocking wait; bounds staleness at shutdown and
#: after missed notifications (seconds).
WAIT_SLICE = 1e-4


class EngineError(RuntimeError):
    """A worker raised, or the engine was driven outside its contract."""


@dataclass(slots=True)
class _WorkerSlot:
    """A worker thread and the edge it is expanding (None while idle)."""

    thread: threading.Thread | None = None
    pending: Edge | None = None


class EpisodeContext(SearchState):
    """All shared state of one planning episode.

    Owned by the coordinator (the thread that calls :func:`improve_path`);
    shared with the workers.  Everything except ``terminate``, the event
    list and the edge cache is guarded by ``cv``'s lock.
    """

    def __init__(self, domain: SearchDomain, start: int, n_threads: int, *,
                 log_enabled: bool = True, debug_checks: bool = False) -> None:
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        super().__init__(domain, start, log_enabled=log_enabled)
        self.cv = threading.Condition()
        self.slots = [_WorkerSlot() for _ in range(n_threads)]
        self.terminate = threading.Event()
        self.worker_error: BaseException | None = None
        self.debug_checks = debug_checks


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
                ctx.recollapse()
                return ImproveOutcome.TIMEOUT
            if ctx.goal_found is not None and ctx.goal_g() <= ctx.open.min_f():
                # Declare termination only at a quiescent instant: an
                # in-flight expansion may still push an edge under the
                # incumbent's priority, so let it land and re-check.  This
                # is what makes one-thread runs replay the serial search.
                if any(slot.pending is not None for slot in ctx.slots):
                    cv.wait(WAIT_SLICE)
                    continue
                ctx.recollapse()
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
            ctx.begin_expansion(edge, wid)
            _assign_locked(ctx, wid, edge)
            if ctx.debug_checks:
                validate_invariants(ctx)


def _find_idle_slot(ctx: EpisodeContext) -> int | None:
    for i, slot in enumerate(ctx.slots):
        if slot.pending is None:
            return i
    return None


def _assign_locked(ctx: EpisodeContext, wid: int, edge: Edge) -> None:
    slot = ctx.slots[wid]
    if slot.pending is not None:
        raise EngineInvariantError(f"worker {wid} assigned {edge} while expanding {slot.pending}")
    slot.pending = edge
    if slot.thread is None:  # spawned lazily on first assignment
        slot.thread = threading.Thread(
            target=_worker_loop, args=(ctx, wid),
            name=f"anyplan-worker-{wid}", daemon=True)
        slot.thread.start()
    ctx.cv.notify_all()


def _drain_locked(ctx: EpisodeContext) -> None:
    """Wait (holding cv) until no expansion is in flight."""
    while any(slot.pending is not None for slot in ctx.slots):
        ctx.cv.wait(WAIT_SLICE)


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
                cv.notify_all()


def expand_edge(ctx: EpisodeContext, edge: Edge, wid: int) -> None:
    """Expand one popped edge (runs on a worker thread, unlocked on entry).

    Dummy edges spill the state's real edges into OPEN.  Real edges evaluate
    outside the critical section, then relax their successor under the lock
    (see :meth:`SearchState.relax`).
    """
    if edge.action == DUMMY_ACTION:
        with ctx.cv:
            ctx.spill(edge.state, wid)
            if ctx.debug_checks:
                validate_invariants(ctx)
            ctx.cv.notify_all()
        return

    outcome = ctx.evaluate(edge, wid)  # the slow part, unlocked
    with ctx.cv:
        ctx.relax(edge, outcome, wid)
        if ctx.debug_checks:
            validate_invariants(ctx)
        ctx.cv.notify_all()


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
    both = ctx.be & ctx.closed
    if both:
        raise EngineInvariantError(f"states {sorted(both)} in BE and CLOSED at once")
    for s in ctx.incons:
        if Edge(s, DUMMY_ACTION) in ctx.open:
            raise EngineInvariantError(f"state {s} in INCON and OPEN simultaneously")
    for s, node in ctx.nodes.items():
        if node.n_actions >= 0:
            if node.n_successors_generated > node.n_actions:
                raise EngineInvariantError(f"state {s} over-generated successors")
            if s in ctx.closed and node.n_successors_generated != node.n_actions:
                raise EngineInvariantError(f"state {s} closed before all successors")
