"""Parallel edge-expansion engine: a single-writer coordinator and
evaluation-only workers.

Only the coordinator, the thread in :func:`improve_path`, touches the
episode: its :class:`~anyplan.search.SearchState`, edge cache and event log.
It pops independent edges and expands each with ``SearchState.expand``, as
the serial search does.  It hands each edge-cache miss to an idle worker,
which calls ``domain.evaluate`` and nothing else and puts the outcome on one
completion queue, and lands the outcome with ``SearchState.land``.  It pops
only when an idle worker exists, so a popped edge never waits and
``n_threads=1`` replays the serial search.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from .domain import Edge, SearchDomain, SuccessorOutcome
from .search import EngineInvariantError, ImproveOutcome, SearchState
from .structures import INF, pop_independent

#: How long the coordinator waits for a completion before it re-checks the
#: deadline and OPEN (seconds).  A wait with no timeout measured slower at
#: one worker on 2 ms edges: with no thread polling, the host woke the
#: sleeping workers later.
WAIT_SLICE = 1e-4

#: How long past the deadline the coordinator waits for the evaluations in
#: flight before it gives up on them and raises (seconds).
DRAIN_GRACE = 1.0


class EngineError(RuntimeError):
    """A worker raised, or the engine was driven outside its contract."""


@dataclass(slots=True)
class _WorkerSlot:
    """A worker thread, its inbox and the edge it evaluates (None while idle)."""

    thread: threading.Thread | None = None
    pending: Edge | None = None
    inbox: queue.SimpleQueue = field(default_factory=queue.SimpleQueue)


class EpisodeContext(SearchState):
    """All state of one planning episode, touched only by the coordinator.
    A worker gets the domain, its inbox and the completion queue ``done``."""

    def __init__(self, domain: SearchDomain, start: int, n_threads: int, *,
                 log_enabled: bool = False) -> None:
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        super().__init__(domain, start, log_enabled=log_enabled)
        self.slots = [_WorkerSlot() for _ in range(n_threads)]
        self.done: queue.SimpleQueue = queue.SimpleQueue()
        self.worker_error: BaseException | None = None


def improve_path(ctx: EpisodeContext) -> ImproveOutcome:
    """One bounded-suboptimal search pass at the context's current w/eps.

    Runs on the coordinator, which owns the state; workers only evaluate.
    Loops while the incumbent goal priority exceeds OPEN's minimum: lands
    completed evaluations, pops the cheapest independent edge and expands
    it.  On exit, in-flight evaluations are landed and partially expanded
    states are collapsed back to dummy edges so BE is empty between passes.
    A pass that cannot progress, with an idle worker, no independent edge
    and no evaluation in flight, raises :class:`EngineInvariantError`.
    """
    while True:
        _land(ctx, wait=False)
        if ctx.worker_error is not None or time.monotonic() >= ctx.deadline:
            _drain(ctx)  # a worker's error may land here too: it is raised
            if ctx.worker_error is None:
                ctx.recollapse()
                return ImproveOutcome.TIMEOUT
            raise EngineError("edge-expansion worker failed") from ctx.worker_error
        if ctx.goal_found is not None and ctx.goal_g() <= ctx.open.min_f():
            # Declare termination only at a quiescent instant: an in-flight
            # evaluation may still push an edge under the incumbent's
            # priority, so land it and re-check.  This is what makes
            # one-thread runs replay the serial search.  Nor may BE carry
            # into the next pass: a state popped here has a g bounded only at
            # this pass's larger eps, which would break the next pass's bound.
            if _busy(ctx):
                _land(ctx, wait=True)
                continue
            ctx.recollapse()
            return ImproveOutcome.SOLVED
        if ctx.open.min_f() == INF and not _busy(ctx):
            # no edge left can reach a goal and none in flight can add one
            return ImproveOutcome.EXHAUSTED
        wid = _find_idle_slot(ctx)
        # With a single worker no evaluation is ever in flight during a pop,
        # so the independence filter adds no guarantee; popping the minimum
        # replays the serial repair search exactly.
        eps = ctx.eps if len(ctx.slots) > 1 else INF
        edge = None if wid is None else pop_independent(
            ctx.open, ctx.be, eps, ctx.nodes, ctx.domain)
        if edge is None:
            if wid is not None and not _busy(ctx):
                # nothing in flight can change OPEN or BE: no later pop can succeed
                raise EngineInvariantError(
                    f"no edge of OPEN ({len(ctx.open)} edges) is independent and no"
                    f" evaluation is in flight; BE {sorted(ctx.be)}")
            _land(ctx, wait=True)
            continue
        if ctx.expand(edge, wid):
            _assign(ctx, wid, edge)


def _find_idle_slot(ctx: EpisodeContext) -> int | None:
    for i, slot in enumerate(ctx.slots):
        if slot.pending is None:
            return i
    return None


def _busy(ctx: EpisodeContext) -> bool:
    return any(slot.pending is not None for slot in ctx.slots)


def _assign(ctx: EpisodeContext, wid: int, edge: Edge) -> None:
    slot = ctx.slots[wid]
    if slot.pending is not None:
        raise EngineInvariantError(f"worker {wid} assigned {edge} while expanding {slot.pending}")
    slot.pending = edge
    if slot.thread is None:  # spawned lazily on first assignment
        slot.thread = threading.Thread(
            target=_worker_loop, args=(ctx.domain, slot.inbox, ctx.done, wid),
            name=f"anyplan-worker-{wid}", daemon=True)
        slot.thread.start()
    slot.inbox.put(edge)


def _land(ctx: EpisodeContext, wait: bool) -> None:
    """Land every completed evaluation already queued; with ``wait``, first
    wait up to WAIT_SLICE for one.  An outcome is landed with
    ``SearchState.land`` (a rejected one raises at once).  A worker's
    exception is kept in ``worker_error``; after it, landing only frees the
    slot, so the first error wins."""
    try:
        item = ctx.done.get(wait, WAIT_SLICE)
        while True:
            wid, edge, result = item
            ctx.slots[wid].pending = None
            if isinstance(result, BaseException):
                if ctx.worker_error is None:
                    ctx.worker_error = result
            elif ctx.worker_error is None:
                ctx.land(edge, result, wid)
            item = ctx.done.get_nowait()
    except queue.Empty:
        pass


def _drain(ctx: EpisodeContext) -> None:
    """Land completions until no evaluation is in flight.  One still in
    flight DRAIN_GRACE past the deadline is an :class:`EngineError` naming
    it; its worker, a daemon thread, is told to stop once its ``evaluate``
    returns, and :func:`shutdown` no longer waits for it."""
    while _busy(ctx):
        _land(ctx, wait=True)
        overrun = time.monotonic() - ctx.deadline
        if overrun >= DRAIN_GRACE and _busy(ctx):
            stuck = [(wid, slot) for wid, slot in enumerate(ctx.slots) if slot.pending is not None]
            for _, slot in stuck:
                slot.inbox.put(None)
                slot.thread = None
            raise EngineError(
                f"evaluate still running {overrun:.3f} s past the deadline: "
                + ", ".join(f"{slot.pending} on worker {wid}" for wid, slot in stuck)
            ) from ctx.worker_error


def _worker_loop(domain: SearchDomain, inbox: queue.SimpleQueue,
                 done: queue.SimpleQueue, wid: int) -> None:
    """Body of one evaluation thread (spawned lazily); None stops it."""
    while (edge := inbox.get()) is not None:
        try:
            result = expand_edge(domain, edge)
        except BaseException as exc:  # re-raised on the coordinator
            result = exc
        done.put((wid, edge, result))


def expand_edge(domain: SearchDomain, edge: Edge) -> SuccessorOutcome:
    """Evaluate one real edge, an edge-cache miss, on a worker.  The
    coordinator checks, stores and relaxes the outcome when it lands."""
    return domain.evaluate(edge.state, edge.action)


def shutdown(ctx: EpisodeContext) -> None:
    """Stop and join every spawned worker that :func:`_drain` has not given
    up on, waiting up to 5 s for each."""
    spawned = [slot for slot in ctx.slots if slot.thread is not None]
    for slot in spawned:
        slot.inbox.put(None)
    for slot in spawned:
        slot.thread.join(timeout=5.0)
        if slot.thread.is_alive():
            raise EngineError(f"worker {slot.thread.name} failed to stop")
