"""The state of one repair search and every move of the edge-expansion
discipline on it, without locks.  The serial repair search
(``baselines.ara_star``) makes these moves from one thread; the parallel
engine subclasses the state and makes them inside its critical section."""

from __future__ import annotations

import json
import time
from enum import Enum
from typing import IO, NamedTuple

from .domain import DUMMY_ACTION, Edge, EdgeCache, Path, SearchDomain, SuccessorOutcome
from .structures import INF, InconsistentSet, OpenQueue, SearchNode, edge_priority

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


class EngineInvariantError(AssertionError):
    """Internal search-state invariant violated; the episode is unusable."""


class SearchState:
    """All search state of one planning episode.  OPEN stays empty until
    :func:`seed_open_with_start`."""

    def __init__(self, domain: SearchDomain, start: int, *,
                 log_enabled: bool = False) -> None:
        self.domain = domain
        self.start = start
        self.deadline = INF
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
        self.log_enabled = log_enabled
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

    def begin_pass(self, index: int, w: float, eps: float) -> None:
        """Zero the pass counters and reopen CLOSED; the caller then folds
        INCON into OPEN and re-keys OPEN at ``w``."""
        self.iteration = index
        self.w = w
        self.eps = eps
        self.iter_dummy_expansions = 0
        self.iter_real_expansions = 0
        for s in self.closed:
            self.nodes[s].in_closed = False
        self.closed.clear()

    def begin_expansion(self, edge: Edge, worker: int) -> None:
        """Pop-time bookkeeping of ``edge``, just taken off OPEN.  A dummy
        edge's state enters BE at once, so no independence check can miss
        an expansion on its way to a worker."""
        node = self.nodes[edge.state]
        if edge.action == DUMMY_ACTION:
            if node.g >= node.g_expanded:
                self.unjustified_reexpansions += 1
            node._g_expanded_prev = node.g_expanded
            node.g_expanded = node.g
            node.in_be = True
            self.be.add(edge.state)
            node.n_actions = len(self.domain.actions(edge.state))
            node.n_successors_generated = 0
            self.iter_dummy_expansions += 1
            self.log(EVENT_DUMMY_EXPAND, worker, edge, node.g)
        else:
            self.iter_real_expansions += 1
        if node.g < self.goal_g() and self.domain.is_goal(edge.state):
            self.goal_found = edge.state

    def spill(self, state: int, worker: int) -> None:
        """Expand a dummy edge: put the state's real edges into OPEN at its
        own priority, and close it at once if it has none."""
        node = self.nodes[state]
        f = edge_priority(node.g, node.h, self.w)
        for a in self.domain.actions(state):
            self.open.upsert(Edge(state, a), f, node.h)
        if node.n_actions == 0:
            self._close(state, node, worker)

    def relax(self, edge: Edge, outcome: SuccessorOutcome, worker: int) -> None:
        """Relax the successor of an evaluated real edge: its dummy edge goes
        to OPEN, or to INCON when it is closed or under expansion.  The
        source closes once all of its real edges are done."""
        s = edge.state
        node = self.nodes[s]
        if outcome.valid:
            succ_key = outcome.successor
            succ = self.ensure_node(succ_key)
            new_g = node.g + outcome.cost
            if succ.g > new_g:
                succ.g = new_g
                succ.parent = edge
                if not succ.in_closed and not succ.in_be:
                    self.open.upsert(Edge(succ_key, DUMMY_ACTION),
                                     edge_priority(new_g, succ.h, self.w), succ.h)
                else:
                    succ.in_incon = True
                    self.incons.add(succ_key)
                self.log(EVENT_RELAX, worker, Edge(succ_key, DUMMY_ACTION), new_g)
        node.n_successors_generated += 1
        if node.n_successors_generated == node.n_actions:
            if not node.in_be:
                raise EngineInvariantError(f"state {s} completed while not in BE")
            self._close(s, node, worker)

    def _close(self, state: int, node: SearchNode, worker: int) -> None:
        node.in_be = False
        self.be.discard(state)
        node.in_closed = True
        self.closed.add(state)
        self.log(EVENT_CLOSE, worker, Edge(state, DUMMY_ACTION), node.g)

    def recollapse(self) -> None:
        """Fold interrupted expansions back into dummy edges.

        States left in BE when a pass exits have unexpanded real edges in
        OPEN; those edges are withdrawn and each state is re-queued as a
        dummy edge (unless deferred to INCON), so the next pass redoes the
        expansion from cached evaluations.  The interrupted expansion does
        not count as one: its recorded expansion g-value is rolled back.
        """
        for s in sorted(self.be):
            node = self.nodes[s]
            for a in self.domain.actions(s):
                self.open.discard(Edge(s, a))
            node.n_successors_generated = 0
            node.n_actions = -1
            node.in_be = False
            node.g_expanded = node._g_expanded_prev
            if not node.in_incon:
                self.open.upsert(Edge(s, DUMMY_ACTION),
                                 edge_priority(node.g, node.h, self.w), node.h)
        self.be.clear()


def seed_open_with_start(state: SearchState, w: float) -> None:
    """Insert the start state's dummy edge; the episode's only seed."""
    node = state.nodes[state.start]
    state.open.upsert(Edge(state.start, DUMMY_ACTION),
                      edge_priority(node.g, node.h, w), node.h)


def backtrack(state: SearchState, goal: int) -> Path:
    """Rebuild the parent chain from ``goal`` back to the episode start.

    The cost is the re-summed cost of the chain's edges (all of them are in
    the edge cache).  A broken chain aborts the episode.
    """
    edges: list[Edge] = []
    states: list[int] = [goal]
    cost = 0.0
    seen = {goal}
    current = goal
    while current != state.start:
        node = state.nodes.get(current)
        if node is None or node.parent is None:
            raise EngineInvariantError(f"broken parent chain at state {current}")
        parent_edge = node.parent
        outcome = state.cache.get(parent_edge)
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


def write_expansion_log(events: list[ExpansionEvent], fp: IO[str]) -> None:
    """Dump expansion events as newline-delimited JSON records."""
    for ev in events:
        fp.write(json.dumps({
            "t_ns": ev.t_ns, "iter": ev.iteration, "worker": ev.worker,
            "state": ev.state, "action": ev.action, "g": ev.g, "f": ev.f,
            "kind": ev.kind,
        }, separators=(",", ":")))
        fp.write("\n")
