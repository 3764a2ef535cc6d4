"""Planning-domain contract shared by every search engine in this package.

A domain exposes a lazily generated graph: states are dense integer handles,
each state has a small ordered action set, and evaluating a (state, action)
edge may be arbitrarily slow (simulation, collision checking, ...).  The
engines never touch domain coordinates directly; interning coordinates into
handles is the domain's job (see :class:`StateInterner`).
"""

from __future__ import annotations

import math
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, NamedTuple, Sequence

#: Sentinel action id: the dummy edge (s, DUMMY_ACTION) stands in for every
#: not-yet-generated outgoing edge of s.  Never returned by ``actions()``.
DUMMY_ACTION = -1


class Edge(NamedTuple):
    """A (state, action) pair; the unit of search work."""

    state: int
    action: int

    @property
    def is_dummy(self) -> bool:
        return self.action == DUMMY_ACTION


class SuccessorOutcome(NamedTuple):
    """Result of evaluating one real edge.

    Invalid outcomes carry no successor and no cost; valid ones carry a
    non-negative cost.
    """

    valid: bool
    successor: int | None = None
    cost: float | None = None


INVALID_OUTCOME = SuccessorOutcome(False)


class DomainError(Exception):
    """A domain returned an outcome outside the contract: a valid outcome
    whose cost is not finite and non-negative, or whose successor is not an
    int state handle."""


class SearchDomain(ABC):
    """Abstract planning domain.

    Implementations must be safe for concurrent ``evaluate`` calls on
    distinct edges; ``heuristic``/``pairwise_heuristic`` must be cheap (they
    run inside the engine's critical section).
    """

    @abstractmethod
    def actions(self, state: int) -> Sequence[int]:
        """Ordered action ids applicable at ``state`` (dummy excluded)."""

    @abstractmethod
    def evaluate(self, state: int, action: int) -> SuccessorOutcome:
        """Generate the successor of (state, action).  May be slow."""

    @abstractmethod
    def heuristic(self, state: int) -> float:
        """Consistent estimate of the remaining cost from ``state``."""

    @abstractmethod
    def pairwise_heuristic(self, a: int, b: int) -> float:
        """Forward-backward consistent estimate of the cost from a to b."""

    @abstractmethod
    def is_goal(self, state: int) -> bool:
        """Whether ``state`` lies in the goal region."""


class StateInterner:
    """Bijective coordinate <-> dense-handle map, stable for one episode.

    Handles are allocated on first sight and never reused or remapped while
    the episode lives.  Thread safe: workers intern successors concurrently.
    """

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._coords: list[Hashable] = []
        self._lock = threading.Lock()

    def key_for(self, coord: Hashable) -> int:
        with self._lock:
            key = self._ids.get(coord)
            if key is None:
                key = len(self._coords)
                self._ids[coord] = key
                self._coords.append(coord)
            return key

    def coord_of(self, key: int) -> Hashable:
        return self._coords[key]

    def __len__(self) -> int:
        return len(self._coords)


class EdgeCache:
    """Per-episode memo of edge evaluations.

    Guarantees at most one domain evaluation per distinct edge per episode,
    and checks each new outcome against the domain contract once, raising
    :class:`DomainError` before it is stored.
    Concurrent callers must present distinct edges (the engine pops each edge
    exactly once), so no per-key blocking is needed; the lock only protects
    the dict itself.
    """

    def __init__(self) -> None:
        self._data: dict[Edge, SuccessorOutcome] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def evaluate(self, domain: SearchDomain, edge: Edge) -> SuccessorOutcome:
        if edge.action == DUMMY_ACTION:
            raise ValueError("dummy edges are never evaluated")
        with self._lock:
            cached = self._data.get(edge)
            if cached is not None:
                self.hits += 1
                return cached
        outcome = domain.evaluate(edge.state, edge.action)
        if outcome.valid:
            successor, cost = outcome.successor, outcome.cost
            if not isinstance(successor, int):
                raise DomainError(f"edge {edge}: successor {successor!r} is not an int handle")
            if not isinstance(cost, (int, float)) or not 0.0 <= cost < math.inf:
                raise DomainError(f"edge {edge}: cost {cost!r} is not finite and >= 0")
        with self._lock:
            self._data[edge] = outcome
            self.misses += 1
        return outcome

    def get(self, edge: Edge) -> SuccessorOutcome | None:
        with self._lock:
            return self._data.get(edge)

    def items(self) -> list[tuple[Edge, SuccessorOutcome]]:
        with self._lock:
            return list(self._data.items())

    def __len__(self) -> int:
        return len(self._data)


@dataclass(frozen=True)
class Path:
    """An ordered edge sequence from the start state to a goal state.

    ``states`` lists the visited states start..goal, so
    ``len(states) == len(edges) + 1``; a zero-length path has one state.
    """

    edges: tuple[Edge, ...]
    states: tuple[int, ...]
    cost: float

    def __len__(self) -> int:
        return len(self.edges)


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


def audit_consistency(domain: SearchDomain, cache: EdgeCache, slack: float = 1e-9) -> int:
    """Check h(s) <= c(s,a) + h(s') over every evaluated edge in ``cache``.

    Returns the number of edges audited; raises AssertionError on the first
    violation.  ``slack`` absorbs float rounding of exact-equality cases.
    """
    n = 0
    for edge, out in cache.items():
        if not out.valid:
            continue
        hs = domain.heuristic(edge.state)
        hs2 = domain.heuristic(out.successor)
        if hs > out.cost + hs2 + slack:
            raise AssertionError(
                f"inconsistent heuristic on {edge}: h={hs} > c={out.cost} + h'={hs2}"
            )
        n += 1
    return n


def euclidean(ax: float, ay: float, bx: float, by: float) -> float:
    return math.hypot(ax - bx, ay - by)
