"""The state of one repair search and every move of the edge-expansion
discipline on it, without locks.  Both drivers expand a popped edge with
:meth:`SearchState.expand` and land a cache miss's outcome with
:meth:`SearchState.land`; they differ only in where the miss is evaluated.
The serial repair search (``baselines.ara_star``) evaluates it inline.  The
parallel engine's coordinator, which owns the state, hands it to a worker,
which only calls the domain's ``evaluate``."""

from __future__ import annotations

import time
from enum import Enum
from typing import Callable, Mapping, NamedTuple

from .domain import (DUMMY_ACTION, INVALID_OUTCOME, DomainError, Edge, EdgeCache, Path,
                     SearchDomain, SuccessorOutcome, checked_actions, checked_heuristic,
                     checked_outcome)
from .structures import INF, OpenQueue, SearchNode, edge_priority

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
    """All search state of one planning episode.  BE, CLOSED and INCON are
    sets of states.  A fresh state has an empty OPEN and the start, at g 0,
    in INCON: the first pass's INCON fold puts its dummy edge into OPEN at
    that pass's weight, so the episode seeds itself."""

    def __init__(self, domain: SearchDomain, start: int, *,
                 log_enabled: bool = False) -> None:
        self.domain = domain
        self.start = start
        self.deadline = INF
        self.cache = EdgeCache()
        self.open = OpenQueue()
        self.be: set[int] = set()
        self.closed: set[int] = set()
        self.incons: set[int] = {start}
        self.nodes: dict[int, SearchNode] = {}
        self.w = 1.0
        self.goal_found: int | None = None
        self.iteration = 0
        self.log_enabled = log_enabled
        self.events: list[ExpansionEvent] = []
        self.iter_dummy_expansions = 0
        self.iter_real_expansions = 0

        node = self.ensure_node(start)
        node.g = 0.0

    def ensure_node(self, state: int) -> SearchNode:
        node = self.nodes.get(state)
        if node is None:
            node = SearchNode(h=checked_heuristic(self.domain, state))
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

    def begin_pass(self, index: int, w: float) -> None:
        """Zero the pass counters and reopen CLOSED; the caller then folds
        INCON into OPEN and re-keys OPEN at ``w``."""
        self.iteration = index
        self.w = w
        self.iter_dummy_expansions = 0
        self.iter_real_expansions = 0
        self.closed.clear()

    def begin_expansion(self, edge: Edge, worker: int) -> None:
        """Pop-time bookkeeping of ``edge``, just taken off OPEN.  A dummy
        edge's state enters BE here and stays there until its last real
        edge is relaxed, so the independence check sees it throughout.  Its
        first pop in an episode reads its listing (:func:`checked_actions`)."""
        node = self.nodes[edge.state]
        if edge.action == DUMMY_ACTION:
            self.be.add(edge.state)
            if node.actions is None:
                node.actions = checked_actions(self.domain, edge.state)
            node.n_successors_generated = 0
            self.iter_dummy_expansions += 1
            self.log(EVENT_DUMMY_EXPAND, worker, edge, node.g)
        else:
            self.iter_real_expansions += 1
        if node.g < self.goal_g() and self.domain.is_goal(edge.state):
            self.goal_found = edge.state

    def expand(self, edge: Edge, worker: int) -> bool:
        """Expand ``edge``, just popped off OPEN: the pop-time bookkeeping,
        then spill a dummy edge, relax a real edge that cannot lower a g or
        beat the incumbent as invalid (:meth:`skip_if_useless`), or relax an
        edge-cache hit.  A real edge that is not skipped logs ``eval_start``
        here.  Return True only for an edge-cache miss: the caller evaluates
        it and hands the outcome to :meth:`land`."""
        self.begin_expansion(edge, worker)
        if edge.action == DUMMY_ACTION:
            self.spill(edge.state, worker)
            return False
        if self.skip_if_useless(edge, worker):
            return False
        g = self.nodes[edge.state].g
        self.log(EVENT_EVAL_START, worker, edge, g)
        outcome = self.cache.lookup(edge)
        if outcome is None:
            return True
        self.log(EVENT_EVAL_END, worker, edge, g)
        self.relax(edge, outcome, worker)
        return False

    def land(self, edge: Edge, outcome: SuccessorOutcome, worker: int) -> None:
        """Land the outcome of an edge :meth:`expand` found missing from the
        edge cache: log ``eval_end``, check and store the outcome
        (:meth:`EdgeCache.store`, which raises on a rejected one) and relax
        it."""
        self.log(EVENT_EVAL_END, worker, edge, self.nodes[edge.state].g)
        self.relax(edge, self.cache.store(self.domain, edge, outcome), worker)

    def spill(self, state: int, worker: int) -> None:
        """Expand a dummy edge: put the state's real edges into OPEN at its
        own priority, and close it at once if it has none."""
        node = self.nodes[state]
        f = edge_priority(node.g, node.h, self.w)
        for a in node.actions:
            self.open.upsert(Edge(state, a), f, node.h)
        if not node.actions:
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
                if succ_key not in self.closed and succ_key not in self.be:
                    self.open.upsert(Edge(succ_key, DUMMY_ACTION),
                                     edge_priority(new_g, succ.h, self.w), succ.h)
                else:
                    self.incons.add(succ_key)
                self.log(EVENT_RELAX, worker, Edge(succ_key, DUMMY_ACTION), new_g)
        node.n_successors_generated += 1
        if node.n_successors_generated == len(node.actions):
            if s not in self.be:
                raise EngineInvariantError(f"state {s} completed while not in BE")
            self._close(s, node, worker)

    def skip_if_useless(self, edge: Edge, worker: int) -> bool:
        """Relax a popped real edge (s, a) as invalid, without evaluating it,
        when it provably cannot help, and say whether it did.  The domain
        must name the outcome the edge has if valid (``outcome_if_valid``):
        target t at cost c.  The edge is skipped when either

        - g(t) <= g(s) + c: relaxing the named outcome would lower nothing;
        - g(s) + c + h(t) >= G, the incumbent's cost (:meth:`goal_g`), with
          the unweighted h(t): h is admissible, so no path through the edge
          beats the incumbent.  Before any goal is found G is inf, so this
          skips only edges into a state whose h is inf.

        An invalid edge lowers nothing either, so the skip relaxes it as
        one.  Both rules stay true while g(t) and G fall, so a skipped edge
        stays skippable until g(s) falls; then s is queued again and its
        edges are popped again.  That is why nothing is cached, and why
        w*h(t) in place of h(t) would be unsound: it bounds no cost to the
        goal, and w falls from pass to pass, so a skip made at a larger w
        would not stay true.  The second rule keeps each pass's bound lam:
        if it cuts an optimal path, of cost C*, at its edge (s, t) with
        g(s) <= lam * g*(s), then G <= g(s) + c + h(t)
        <= lam * (g*(s) + c + h(t)) <= lam * C*.

        A named outcome that is not valid, or fails :func:`checked_outcome`,
        is a :class:`DomainError` naming the edge, since a skipped edge is
        never evaluated and so never checked where it is stored.
        :meth:`expand` calls this on each popped real edge before the edge
        cache, for both drivers."""
        s, a = edge
        named = self.domain.outcome_if_valid(s, a)
        if named is None:
            return False
        if not named.valid:
            raise DomainError(f"edge {edge}: outcome_if_valid names an invalid outcome")
        checked_outcome(s, a, named)
        new_g = self.nodes[s].g + named.cost
        succ = self.nodes.get(named.successor)
        if succ is None or succ.g > new_g:
            h_t = checked_heuristic(self.domain, named.successor) if succ is None else succ.h
            if new_g + h_t < self.goal_g():
                return False
        self.relax(edge, INVALID_OUTCOME, worker)
        return True

    def _close(self, state: int, node: SearchNode, worker: int) -> None:
        self.be.discard(state)
        self.closed.add(state)
        self.log(EVENT_CLOSE, worker, Edge(state, DUMMY_ACTION), node.g)

    def recollapse(self) -> None:
        """Fold interrupted expansions back into dummy edges.

        States left in BE when a pass exits have unexpanded real edges in
        OPEN; those edges are withdrawn and each state is re-queued as a
        dummy edge (unless deferred to INCON), so the next pass redoes the
        expansion from cached evaluations.
        """
        for s in sorted(self.be):
            node = self.nodes[s]
            for a in node.actions:
                self.open.discard(Edge(s, a))
            if s not in self.incons:
                self.open.upsert(Edge(s, DUMMY_ACTION),
                                 edge_priority(node.g, node.h, self.w), node.h)
        self.be.clear()


def walk_parents(outcomes: Mapping[Edge, SuccessorOutcome] | EdgeCache,
                 parent_of: Callable[[int], Edge | None], start: int, goal: int) -> Path:
    """Rebuild the path from ``start`` to ``goal`` along ``parent_of``, the
    edge that reached each state.

    The cost is the re-summed cost of the chain's edges, whose outcomes
    ``outcomes`` must hold; only its ``get`` is read.  It is the episode's
    edge cache, or the reference searches' ``{Edge: outcome}`` dict of
    parent edges.  A broken chain, an edge that does not reach the state it
    is the parent of, or a cycle raises :class:`EngineInvariantError`.
    """
    edges: list[Edge] = []
    states: list[int] = [goal]
    cost = 0.0
    seen = {goal}
    current = goal
    while current != start:
        parent_edge = parent_of(current)
        if parent_edge is None:
            raise EngineInvariantError(f"broken parent chain at state {current}")
        outcome = outcomes.get(parent_edge)
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


def backtrack(state: SearchState, goal: int) -> Path:
    """Rebuild the parent chain from ``goal`` back to the episode start.
    A broken chain aborts the episode."""
    def parent_of(s: int) -> Edge | None:
        node = state.nodes.get(s)
        return None if node is None else node.parent
    return walk_parents(state.cache, parent_of, state.start, goal)
