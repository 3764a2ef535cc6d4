"""Outside-in tracing of the planner's layers.

The tracer wraps public functions of ``anyplan``'s modules for the length
of a ``with tracer.installed():`` block and restores them afterwards; the
planner itself is not changed.  Two kinds of wrapper:

* span wrappers record one span per call: (id, name, thread, start, end,
  parent span, sweep, instance, time covered by child calls on the same
  thread, note).  A call made on an engine worker, which has no open
  span of its own, takes the coordinator's current ``improve_path`` span
  as its parent, because that pass handed it the edge.
* leaf wrappers, for calls too frequent to keep a span each (edge
  evaluation, pairwise heuristic, OPEN upsert, interning), add a count and
  a duration to per-thread totals and charge the duration to the
  enclosing span as child time, so self times stay exact.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

SPAN_FIELDS = ("id", "name", "thread", "start_ns", "end_ns", "parent", "sweep",
               "instance", "child_ns", "note")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.active = False
        self.sweep = -1
        self.instance = -1
        self.pass_span = 0  # the coordinator's open improve_path span
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_totals: list[tuple[dict, dict]] = []

    # -- per-thread state -------------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.stack, local.counts, local.peaks
        except AttributeError:
            local.stack = []
            local.counts = defaultdict(lambda: [0, 0])
            local.peaks = {}
            self._thread_totals.append((local.counts, local.peaks))
            return local.stack, local.counts, local.peaks

    def _key(self, name: str) -> tuple:
        return (self.sweep, self.instance, name)

    def peak(self, name: str, value: int) -> None:
        peaks = self._state()[2]
        key = self._key(name)
        if value > peaks.get(key, -1):
            peaks[key] = value

    # -- wrappers ---------------------------------------------------------
    def span_call(self, name: str, fn, *args, note_of=None, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._state()[0]
        sid = next(self._ids)
        parent = stack[-1][0] if stack else self.pass_span
        frame = [sid, 0]
        stack.append(frame)
        is_pass = name == "engine.improve_path"
        if is_pass:
            self.pass_span = sid
        result = None
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            if stack:
                stack[-1][1] += t1 - t0
            if is_pass:
                self.pass_span = 0
            note = note_of(result) if note_of is not None else 0
            self.spans.append((sid, name, threading.get_ident(), t0, t1, parent,
                               self.sweep, self.instance, frame[1], note))

    def span_wrapper(self, name: str, fn, note_of=None, before=None):
        def wrapped(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, *args)
            return self.span_call(name, fn, *args, note_of=note_of, **kwargs)
        return wrapped

    def leaf_wrapper(self, name: str, fn, after=None):
        def wrapped(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            dt = perf_counter_ns() - t0
            stack, counts, _ = self._state()
            if stack:
                stack[-1][1] += dt
            total = counts[self._key(name)]
            total[0] += 1
            total[1] += dt
            if after is not None:
                after(self, result)
            return result
        return wrapped

    # -- installation -----------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap the traced layer calls; restore the originals on exit."""
        from anyplan import controller, domain, engine, grid2d, structures

        def open_be_peaks(tracer, open_queue, be, *_rest):
            tracer.peak("structures.open.peak", len(open_queue))
            tracer.peak("structures.be.peak", len(be))

        def interner_peak(tracer, handle):
            tracer.peak("domain.interner.states", handle + 1)

        patches = [
            (controller, "improve_path",
             self.span_wrapper("engine.improve_path", controller.improve_path)),
            (controller, "merge_incons",
             self.span_wrapper("controller.merge_incons", controller.merge_incons)),
            (controller, "backtrack",
             self.span_wrapper("controller.backtrack", controller.backtrack)),
            (engine, "pop_independent",
             self.span_wrapper("structures.pop_independent", engine.pop_independent,
                               note_of=lambda edge: int(edge is None),
                               before=open_be_peaks)),
            (engine, "expand_edge",
             self.span_wrapper("engine.expand_edge", engine.expand_edge)),
            (structures.OpenQueue, "rebalance",
             self.span_wrapper("structures.rebalance", structures.OpenQueue.rebalance)),
            (structures.OpenQueue, "upsert",
             self.leaf_wrapper("structures.upsert", structures.OpenQueue.upsert)),
            (grid2d.GridWorld, "evaluate_move",
             self.leaf_wrapper("grid2d.evaluate_move", grid2d.GridWorld.evaluate_move)),
            (grid2d.GridPlanningProblem, "pairwise_heuristic",
             self.leaf_wrapper("domain.pairwise_heuristic",
                               grid2d.GridPlanningProblem.pairwise_heuristic)),
            (domain.StateInterner, "key_for",
             self.leaf_wrapper("domain.interner.key_for", domain.StateInterner.key_for,
                               after=interner_peak)),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapped in patches:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    @contextmanager
    def recording(self, sweep: int, instance: int):
        """Record the wrapped calls made until exit, as one instance's."""
        self.sweep, self.instance = sweep, instance
        self.active = True
        try:
            yield
        finally:
            self.active = False

    # -- read-out ---------------------------------------------------------
    def leaf_totals(self) -> tuple[dict, dict]:
        """Merged per-thread (counts, peaks), keyed (sweep, instance, name)."""
        counts: dict = defaultdict(lambda: [0, 0])
        peaks: dict = {}
        for thread_counts, thread_peaks in self._thread_totals:
            for key, (n, ns) in list(thread_counts.items()):
                counts[key][0] += n
                counts[key][1] += ns
            for key, value in list(thread_peaks.items()):
                peaks[key] = max(peaks.get(key, -1), value)
        return counts, peaks

    def write(self, fp, header: dict) -> None:
        """One header line, then one JSON array per span, in SPAN_FIELDS order."""
        fp.write(json.dumps({"header": header, "span_fields": SPAN_FIELDS}) + "\n")
        for span in self.spans:
            fp.write(json.dumps(span, separators=(",", ":")))
            fp.write("\n")
