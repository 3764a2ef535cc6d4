"""Shared mutable search state: OPEN queue of edges, BE/CLOSED/INCON sets,
per-state records, and the independence-filtered pop.

None of these structures are thread safe on their own; the engine mutates
them only inside its single exclusive critical section.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterator

from .domain import DUMMY_ACTION, Edge, SearchDomain

INF = math.inf


@dataclass(slots=True)
class SearchNode:
    """Per-state search record for one planning episode.

    ``g`` only ever decreases.  ``g_expanded`` is the g-value at the state's
    most recent *committed* dummy expansion (inf if never expanded, or if the
    expansion was interrupted and rolled back); it backs the local-
    inconsistency assertions.
    """

    g: float = INF
    h: float = 0.0
    parent: Edge | None = None
    in_be: bool = False
    in_closed: bool = False
    in_incon: bool = False
    n_successors_generated: int = 0
    n_actions: int = -1
    g_expanded: float = INF
    _g_expanded_prev: float = INF


def edge_priority(g: float, h: float, w: float) -> float:
    """Inflated edge priority f = g + w*h."""
    if w < 1.0:
        raise ValueError(f"heuristic weight must be >= 1, got {w}")
    if g < 0.0 or h < 0.0:
        raise ValueError("g and h must be non-negative")
    return g + w * h


class OpenQueue:
    """Priority queue of edges with deterministic ordering and upsert.

    Entries are ordered by (f, h, state, action): ties on f break toward the
    smaller h, then the smaller state handle, then the smaller action id.
    At most one entry exists per (state, action) pair.  Backed by a sorted
    list, which keeps the ascending scan of the independence filter cheap.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[float, float, int, int]] = []
        self._key: dict[Edge, tuple[float, float, int, int]] = {}

    def __len__(self) -> int:
        return len(self._key)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self._key

    def __bool__(self) -> bool:
        return bool(self._key)

    def key_of(self, edge: Edge) -> tuple[float, float, int, int] | None:
        return self._key.get(edge)

    def upsert(self, edge: Edge, f: float, h: float) -> None:
        """Insert ``edge`` at priority ``f``, or reposition it if present."""
        entry = (f, h, edge.state, edge.action)
        old = self._key.get(edge)
        if old == entry:
            return
        if old is not None:
            self._remove_entry(old)
        insort(self._entries, entry)
        self._key[edge] = entry

    def discard(self, edge: Edge) -> bool:
        old = self._key.pop(edge, None)
        if old is None:
            return False
        self._remove_entry(old)
        return True

    def _remove_entry(self, entry: tuple[float, float, int, int]) -> None:
        i = bisect_left(self._entries, entry)
        assert self._entries[i] == entry, "queue index out of sync"
        del self._entries[i]

    def min_f(self) -> float:
        return self._entries[0][0] if self._entries else INF

    def pop_min(self) -> Edge:
        entry = self._entries.pop(0)
        edge = Edge(entry[2], entry[3])
        del self._key[edge]
        return edge

    def entries(self) -> Iterator[tuple[Edge, float]]:
        """Yield (edge, f) in ascending priority order."""
        for f, _h, s, a in list(self._entries):
            yield Edge(s, a), f

    def rebalance(self, w: float, nodes: dict[int, SearchNode]) -> None:
        """Recompute every key as g(state) + w*h(state) and restore order."""
        if w < 1.0:
            raise ValueError(f"heuristic weight must be >= 1, got {w}")
        fresh = []
        key = {}
        for edge in self._key:
            node = nodes[edge.state]
            entry = (node.g + w * node.h, node.h, edge.state, edge.action)
            fresh.append(entry)
            key[edge] = entry
        fresh.sort()
        self._entries = fresh
        self._key = key

    def check_no_duplicates(self) -> None:
        """Exhaustive invariant scan used by tests."""
        assert len(self._entries) == len(self._key)
        seen = set()
        for _f, _h, s, a in self._entries:
            assert (s, a) not in seen, f"duplicate entry for ({s}, {a})"
            seen.add((s, a))
        assert self._entries == sorted(self._entries)


class InconsistentSet:
    """States whose dummy edge was deferred to the next search iteration."""

    def __init__(self) -> None:
        self._states: set[int] = set()

    def add(self, state: int) -> None:
        self._states.add(state)

    def __contains__(self, state: int) -> bool:
        return state in self._states

    def __len__(self) -> int:
        return len(self._states)

    def __bool__(self) -> bool:
        return bool(self._states)

    def sorted_states(self) -> list[int]:
        return sorted(self._states)

    def clear(self) -> None:
        self._states.clear()


def _passes_pair(g_e: float, g_other: float, eps: float,
                 domain: SearchDomain, other: int, target: int) -> bool:
    # g differences <= 0 satisfy the inequality for any eps, h >= 0.
    diff = g_e - g_other
    if diff <= 0.0:
        return True
    return diff <= eps * domain.pairwise_heuristic(other, target)


def is_independent(edge: Edge, open_queue: OpenQueue, be: set[int], eps: float,
                   nodes: dict[int, SearchNode], domain: SearchDomain) -> bool:
    """Whether no lower-priority OPEN edge or in-progress expansion can
    reduce g(edge.state).

    Checks every OPEN entry strictly ahead of ``edge`` in the tie-break
    order, then every state under expansion.  ``eps=inf`` disables the
    checks entirely.
    """
    if eps == INF:
        return True
    key = open_queue.key_of(edge)
    if key is None:
        raise ValueError(f"{edge} is not in OPEN")
    g_e = nodes[edge.state].g
    for entry in open_queue._entries:
        if entry >= key:
            break
        if not _passes_pair(g_e, nodes[entry[2]].g, eps, domain, entry[2], edge.state):
            return False
    for s in be:
        if not _passes_pair(g_e, nodes[s].g, eps, domain, s, edge.state):
            return False
    return True


def pop_independent(open_queue: OpenQueue, be: set[int], eps: float,
                    nodes: dict[int, SearchNode], domain: SearchDomain) -> Edge | None:
    """Remove and return the lowest-priority independent edge, or None.

    Scans in ascending order; the k-th candidate is checked against the k-1
    lower-priority edges skipped so far and against every state in BE.
    """
    if not open_queue:
        return None
    if eps == INF:
        return open_queue.pop_min()
    prefix: list[int] = []
    prefix_seen: set[int] = set()
    for candidate, _f in open_queue.entries():
        g_e = nodes[candidate.state].g
        ok = True
        for s in be:
            if not _passes_pair(g_e, nodes[s].g, eps, domain, s, candidate.state):
                ok = False
                break
        if ok:
            for s in prefix:
                if not _passes_pair(g_e, nodes[s].g, eps, domain, s, candidate.state):
                    ok = False
                    break
        if ok:
            open_queue.discard(candidate)
            return candidate
        if candidate.state not in prefix_seen:
            prefix_seen.add(candidate.state)
            prefix.append(candidate.state)
    return None


def merge_incons(open_queue: OpenQueue, incons: InconsistentSet,
                 nodes: dict[int, SearchNode], w: float) -> None:
    """Move every deferred state's dummy edge into OPEN, keyed g + w*h."""
    for s in incons.sorted_states():
        node = nodes[s]
        open_queue.upsert(Edge(s, DUMMY_ACTION), edge_priority(node.g, node.h, w), node.h)
        node.in_incon = False
    incons.clear()
