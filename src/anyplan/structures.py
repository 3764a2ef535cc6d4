"""Shared mutable search state: OPEN queue of edges, per-state records, the
independence-filtered pop and the INCON fold.

None of these structures are thread safe; in the engine only the
coordinator, which owns the state, changes them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .domain import DUMMY_ACTION, Edge, SearchDomain

INF = math.inf


@dataclass(slots=True)
class SearchNode:
    """One state's search record for an episode: ``g`` only ever decreases;
    ``actions`` is the checked listing read at its first dummy-edge pop."""

    g: float = INF
    h: float = 0.0
    parent: Edge | None = None
    n_successors_generated: int = 0
    actions: tuple[int, ...] | None = None


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

    def upsert(self, edge: Edge, f: float, h: float) -> None:
        """Insert ``edge`` at priority ``f``, or reposition it if present."""
        entry = (f, h, edge.state, edge.action)
        old = self._key.get(edge)
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
        """Yield (edge, f) in ascending priority order, straight off the
        sorted list: do not change the queue while iterating."""
        for f, _h, s, a in self._entries:
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


def _passes_pair(g_e: float, g_other: float, eps: float,
                 domain: SearchDomain, other: int, target: int) -> bool:
    # g differences <= 0 satisfy the inequality for any eps, h >= 0.
    diff = g_e - g_other
    if diff <= 0.0:
        return True
    return diff <= eps * domain.pairwise_heuristic(other, target)


def pop_independent(open_queue: OpenQueue, be: set[int], eps: float,
                    nodes: dict[int, SearchNode], domain: SearchDomain) -> Edge | None:
    """Remove and return the lowest-priority independent edge, or None.

    Scans in ascending order and stops at the first infinite priority, an
    edge no solution can use; the k-th candidate is checked against the k-1
    lower-priority edges skipped so far and against every state in BE.  It
    discards only the edge it returns, so it never resumes the scan of a
    queue it changed.
    """
    if open_queue.min_f() == INF:  # empty, or every edge is of infinite priority
        return None
    if eps == INF:
        return open_queue.pop_min()
    prefix: list[int] = []
    prefix_seen: set[int] = set()
    for candidate, f in open_queue.entries():
        if f == INF:
            return None
        g_e = nodes[candidate.state].g
        for s in chain(be, prefix):
            if not _passes_pair(g_e, nodes[s].g, eps, domain, s, candidate.state):
                break
        else:
            open_queue.discard(candidate)
            return candidate
        if candidate.state not in prefix_seen:
            prefix_seen.add(candidate.state)
            prefix.append(candidate.state)
    return None


def merge_incons(open_queue: OpenQueue, incons: set[int],
                 nodes: dict[int, SearchNode], w: float) -> None:
    """Move every deferred state's dummy edge into OPEN, keyed g + w*h."""
    for s in sorted(incons):
        node = nodes[s]
        open_queue.upsert(Edge(s, DUMMY_ACTION), edge_priority(node.g, node.h, w), node.h)
    incons.clear()
