"""Planning-domain contract shared by every search engine in this package.

A domain exposes a lazily generated graph: states are integer handles, each
state has a small ordered action set, and evaluating a (state, action) edge
may be arbitrarily slow (simulation, collision checking, ...).  The engines
never touch domain coordinates directly; mapping coordinates to handles is
the domain's job.  A domain with a dense index uses it (a grid state is its
raster anchor index); one without interns its coordinates with
:class:`StateInterner`.
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
    """The planner rejected a value a domain gave it: a valid outcome whose
    cost is not finite and non-negative, whose successor is not an int
    state handle, or which is not the outcome ``outcome_if_valid`` named;
    a named outcome that is not valid or fails the same check; a
    heuristic that is negative or NaN; or an action listing that repeats
    an id or lists ``DUMMY_ACTION``."""


class SearchDomain(ABC):
    """Abstract planning domain.

    Implementations must be safe for concurrent ``evaluate`` calls on
    distinct edges, the one call the engine's workers make; the rest runs
    on the coordinator, and heuristics must be cheap.  An exception raised
    inside ``evaluate`` (a :class:`DomainError` too) reaches the engine's
    caller as the ``__cause__`` of its ``EngineError``.
    """

    @abstractmethod
    def actions(self, state: int) -> Sequence[int]:
        """Ordered, distinct action ids applicable at ``state``, never
        ``DUMMY_ACTION`` (the search raises :class:`DomainError` otherwise),
        read once per state per episode: the first answer is the episode's.
        Every listed edge costs an ``evaluate``, so do not list a move known
        invalid without its expensive check (one leaving the map, say)."""

    @abstractmethod
    def evaluate(self, state: int, action: int) -> SuccessorOutcome:
        """Generate the successor of (state, action).  May be slow."""

    @abstractmethod
    def heuristic(self, state: int) -> float:
        """Consistent estimate of the remaining cost from ``state``: inf
        is allowed, and means no path from ``state`` reaches a goal."""

    @abstractmethod
    def pairwise_heuristic(self, a: int, b: int) -> float:
        """A bound h(a, b) on the cost from a to b with h(a, a) = 0,
        h(a, b) <= c*(a, b) (admissible) and h(a, b) <= h(a, c) + h(c, b)
        (forward-backward consistent).  Only the independence filter reads
        it, and only at more than one worker: a popped edge from s runs
        beside s' when g(s) - g(s') <= eps * h(s', s), so a tighter bound
        lets more popped edges run at once."""

    @abstractmethod
    def is_goal(self, state: int) -> bool:
        """Whether ``state`` lies in the goal region."""

    def outcome_if_valid(self, state: int, action: int) -> SuccessorOutcome | None:
        """The outcome edge (state, action) has if it is valid, successor and
        cost, when the domain knows it without the expensive part of
        ``evaluate``; None (the default) when it does not.  Validity stays
        unknown until ``evaluate``.  The search skips evaluating a popped
        edge whose named outcome would lower no g or could not beat the
        incumbent (``SearchState.skip_if_useless``).  A named outcome that is
        not valid or fails :func:`checked_outcome` is a DomainError; so is
        a valid outcome that differs from the named one in successor or
        cost."""
        return None


def checked_outcome(state: int, action: int, outcome: SuccessorOutcome) -> SuccessorOutcome:
    """``outcome``, the result of evaluating edge (state, action), or
    :class:`DomainError` naming the edge when it is valid but its successor
    is not an int handle or its cost is not finite and >= 0.  Every driver
    checks each new outcome through here once: the engine's cache when it
    stores one, the reference searches as they evaluate."""
    if outcome.valid:
        successor, cost = outcome.successor, outcome.cost
        if not isinstance(successor, int):
            raise DomainError(f"edge {Edge(state, action)}: successor {successor!r}"
                              " is not an int handle")
        if not isinstance(cost, (int, float)) or not 0.0 <= cost < math.inf:
            raise DomainError(f"edge {Edge(state, action)}: cost {cost!r} is not finite and >= 0")
    return outcome


def checked_heuristic(domain: SearchDomain, state: int) -> float:
    """``domain.heuristic(state)``, or :class:`DomainError` naming the state
    and the value when it is negative or NaN."""
    h = domain.heuristic(state)
    if not h >= 0.0:  # also catches NaN
        raise DomainError(f"state {state}: heuristic {h!r} is not >= 0")
    return h


def checked_actions(domain: SearchDomain, state: int) -> tuple[int, ...]:
    """``domain.actions(state)`` as a tuple, or :class:`DomainError` naming
    the state when the listing repeats an id or lists ``DUMMY_ACTION``: the
    dummy edge would re-spill itself, and a repeated id would leave the
    state one edge short of closing, so either makes a pass loop forever."""
    actions = tuple(domain.actions(state))
    if DUMMY_ACTION in actions or len(set(actions)) != len(actions):
        raise DomainError(f"state {state}: actions {actions!r} repeat an id"
                          f" or list DUMMY_ACTION ({DUMMY_ACTION})")
    return actions


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
    """Per-episode memo of edge evaluations; single-threaded.

    Guarantees at most one domain evaluation per distinct edge per episode.
    :meth:`store` checks each new outcome against the domain contract once
    (:func:`checked_outcome`, and the outcome the domain named for the
    edge), raising :class:`DomainError` before it is kept.  The cache
    evaluates nothing: ``SearchState.expand`` reads it with :meth:`lookup`,
    which counts ``hits``, and ``SearchState.land`` stores each miss's
    outcome.  In the engine only the coordinator calls it.
    """

    def __init__(self) -> None:
        self._data: dict[Edge, SuccessorOutcome] = {}
        self.hits = 0

    @property
    def misses(self) -> int:
        """Domain evaluations made for this episode: one per stored outcome."""
        return len(self._data)

    def store(self, domain: SearchDomain, edge: Edge,
              outcome: SuccessorOutcome) -> SuccessorOutcome:
        """Check a new outcome against the domain contract
        (:func:`checked_outcome`) and against the outcome
        ``domain.outcome_if_valid`` names for the edge, and keep it."""
        state, action = edge
        checked_outcome(state, action, outcome)
        if outcome.valid:
            named = domain.outcome_if_valid(state, action)
            if named is not None and named != outcome:
                raise DomainError(f"edge {edge}: successor {outcome.successor} at cost"
                                  f" {outcome.cost!r} is not successor {named.successor}"
                                  f" at cost {named.cost!r}, the outcome outcome_if_valid"
                                  " names")
        self._data[edge] = outcome
        return outcome

    def get(self, edge: Edge) -> SuccessorOutcome | None:
        return self._data.get(edge)

    def lookup(self, edge: Edge) -> SuccessorOutcome | None:
        """:meth:`get` for an expansion: a stored outcome counts as a hit."""
        outcome = self._data.get(edge)
        if outcome is not None:
            self.hits += 1
        return outcome


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
