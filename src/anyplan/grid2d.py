"""2D gridmap benchmark domain.

MovingAI-format maps, a square-footprint agent, 8-connected long-range moves
with interpolated collision checking, two cost models (euclidean and
random-factor), and optional simulated edge-evaluation latency.

Conventions: states are (x, y) cells with x the column and y the row; row 0
is the first map row, so "north" decreases y.  A state anchors the
footprint's minimum corner: the footprint covers
[x, x+side) x [y, y+side).
"""

from __future__ import annotations

import heapq
import math
import random
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Callable, Sequence, TypeVar

import numpy as np

from .domain import INVALID_OUTCOME, SearchDomain, SuccessorOutcome

FREE_GLYPHS = frozenset(".G")
OBSTACLE_GLYPHS = frozenset("@OT")
MAP_GLYPHS = FREE_GLYPHS | OBSTACLE_GLYPHS

#: Compass-ordered unit moves (dx, dy): N, NE, E, SE, S, SW, W, NW.
DIRECTIONS: tuple[tuple[int, int], ...] = (
    (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1),
)

#: The actions whose target stays on the raster, indexed by a 4-bit mask of
#: the raster borders within one move of the anchor: bit 0 north, bit 1
#: east, bit 2 south, bit 3 west (the order of ``DIRECTIONS[::2]``).  A move
#: is dropped when it steps toward a border in the mask.
ON_RASTER_ACTIONS: tuple[tuple[int, ...], ...] = tuple(
    tuple(a for a, (dx, dy) in enumerate(DIRECTIONS)
          if not any(mask >> bit & 1 and dx * bx + dy * by > 0
                     for bit, (bx, by) in enumerate(DIRECTIONS[::2])))
    for mask in range(16)
)

COST_KINDS = ("euclidean", "random_factor")


class MapFormatError(ValueError):
    """Raised on malformed map text, naming the offending line/column."""


class SamplingError(RuntimeError):
    """Raised when start/goal rejection sampling exhausts its attempt budget."""


@dataclass(frozen=True, eq=False)
class GridMap:
    """Occupancy grid; True cells are obstacles.  Out of bounds is solid.

    The worlds built on one map share the tables they derive from it
    (``tables``, keyed by what each depends on), so the occupancy must not
    change once a world is built on the map.
    """

    width: int
    height: int
    occupancy: np.ndarray  # bool, shape (height, width), indexed [y, x]
    name: str = "<memory>"
    tables: dict = field(default_factory=dict, init=False, repr=False)


def parse_map(text: str, name: str = "<memory>") -> GridMap:
    """Parse MovingAI ``.map`` text.

    Expected layout: ``type ...`` / ``height H`` / ``width W`` / ``map``,
    then H rows of exactly W glyphs.  ``.``/``G`` are free, ``@``/``O``/``T``
    are obstacles; anything else is an error.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    def header(i: int, key: str) -> str:
        if i >= len(lines):
            raise MapFormatError(f"{name}: line {i + 1}: missing '{key}' header")
        parts = lines[i].split()
        if not parts or parts[0] != key:
            raise MapFormatError(f"{name}: line {i + 1}: expected '{key}' header, got {lines[i]!r}")
        return parts[1] if len(parts) > 1 else ""

    header(0, "type")
    try:
        height = int(header(1, "height"))
        width = int(header(2, "width"))
    except ValueError as exc:
        raise MapFormatError(f"{name}: bad height/width header: {exc}") from exc
    if height <= 0 or width <= 0:
        raise MapFormatError(f"{name}: non-positive dimensions {width}x{height}")
    if header(3, "map") != "":
        raise MapFormatError(f"{name}: line 4: 'map' header takes no value")

    rows = lines[4:]
    if len(rows) < height:
        raise MapFormatError(
            f"{name}: line {4 + len(rows)}: expected {height} map rows, found {len(rows)}"
        )
    if len(rows) > height:
        raise MapFormatError(f"{name}: line {5 + height}: trailing content after map rows")

    for y, row in enumerate(rows):
        if len(row) != width:
            raise MapFormatError(
                f"{name}: line {5 + y}: row has {len(row)} glyphs, expected {width}"
            )
        if not MAP_GLYPHS.issuperset(row):
            x, glyph = next((x, g) for x, g in enumerate(row) if g not in MAP_GLYPHS)
            raise MapFormatError(
                f"{name}: line {5 + y}, col {x + 1}: unknown glyph {glyph!r}"
            )
    # every glyph is now one ASCII byte: look each up in a byte -> obstacle table
    is_obstacle = np.zeros(128, dtype=bool)
    is_obstacle[[ord(glyph) for glyph in OBSTACLE_GLYPHS]] = True
    cells = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    occupancy = is_obstacle[cells].reshape(height, width)
    return GridMap(width=width, height=height, occupancy=occupancy, name=name)


def serialize_map(grid: GridMap) -> str:
    """Render a map back to MovingAI text ('.' free, '@' obstacle)."""
    # one byte per cell and a newline ending each row, in one array pass
    glyphs = np.full((grid.height, grid.width + 1), ord("\n"), dtype=np.uint8)
    glyphs[:, :-1] = np.where(grid.occupancy, ord("@"), ord("."))
    head = f"type octile\nheight {grid.height}\nwidth {grid.width}\nmap\n"
    return head + glyphs.tobytes().decode("ascii")


def load_map(path: str | FsPath, scale: int = 1) -> GridMap:
    """Read a ``.map`` file, optionally nearest-neighbor upscaled; the map
    is named by its path at every scale."""
    path = FsPath(path)
    grid = parse_map(path.read_text(), name=str(path))
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    if scale == 1:
        return grid
    occ = np.repeat(np.repeat(grid.occupancy, scale, axis=0), scale, axis=1)
    return GridMap(width=grid.width * scale, height=grid.height * scale,
                   occupancy=occ, name=grid.name)


@dataclass(frozen=True)
class GridDomainConfig:
    """Motion parameters: footprint side, move length, interpolation step
    (all in cells) and the simulated per-evaluation delay in seconds."""

    footprint_side: int = 32
    move_length: int = 25
    collision_step: int = 1
    eval_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.footprint_side < 1 or self.move_length < 1 or self.collision_step < 1:
            raise ValueError("footprint_side, move_length and collision_step must be >= 1")
        if self.collision_step > self.move_length:
            raise ValueError("collision_step must not exceed move_length")
        if not 0.0 <= self.eval_delay < math.inf:
            raise ValueError(f"eval_delay must be finite and >= 0, got {self.eval_delay}")


@dataclass(frozen=True)
class CostModel:
    """Edge-cost model: plain euclidean length, or length scaled by the mean
    of a per-cell random factor in [1, 100) at the move's two endpoints."""

    kind: str = "euclidean"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in COST_KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}; use one of {COST_KINDS}")


def build_factor_map(seed: int, width: int, height: int) -> np.ndarray:
    """Deterministic per-cell factors, uniform in [1, 100).

    Recipe (pinned for cross-run reproducibility): for the cell with
    row-major index i, mix z = seed + (i + 1) * 0x9E3779B97F4A7C15 through
    the splitmix64 finalizer, take the top 53 bits as a uniform u in [0, 1),
    and return 1 + 99 * u.
    """
    idx = np.arange(width * height, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (idx + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    return (1.0 + 99.0 * u).reshape(height, width)


def sample_offsets(dx: int, dy: int, step: int) -> list[tuple[int, int]]:
    """Where a (dx, dy) move is collision-checked, as offsets from its start:
    at exact ``step`` multiples of the per-axis parameter strictly inside
    the move, then the endpoint.  A zero move checks its start alone."""
    span = max(abs(dx), abs(dy))
    offsets = []
    for k in range(math.ceil(span / step)):
        t = k * step / span
        offsets.append((round(t * dx), round(t * dy)))
    offsets.append((dx, dy))
    return offsets


_Table = TypeVar("_Table")


def _shared(grid: GridMap, key: tuple, build: Callable[[], _Table]) -> _Table:
    """The table ``key`` of ``grid``'s memo, built by ``build`` on first use."""
    table = grid.tables.get(key)
    if table is None:
        table = grid.tables[key] = build()
    return table


def _placement_table(grid: GridMap, side: int) -> np.ndarray:
    """Read-only ``ok[y, x]``: the side x side window at (x, y) fits in
    bounds and contains no obstacle cell (an integral-image sum)."""
    ph = grid.height - side + 1
    pw = grid.width - side + 1
    if ph <= 0 or pw <= 0:
        ok = np.zeros((0, 0), dtype=bool)
    else:
        integral = np.zeros((grid.height + 1, grid.width + 1), dtype=np.int64)
        integral[1:, 1:] = grid.occupancy.astype(np.int32).cumsum(axis=0).cumsum(axis=1)
        window = (integral[side:, side:] - integral[:ph, side:]
                  - integral[side:, :pw] + integral[:ph, :pw])
        ok = window == 0
    ok.flags.writeable = False
    return ok


class GridWorld:
    """Immutable map + motion/cost parameters with precomputed placement
    and move validity.  Read-only after construction; safe for concurrent
    callers.

    The per-edge path works on flat anchor indices ``y * pw + x`` and plain
    Python values (:meth:`evaluate_anchor`): move validity is a lookup in a
    per-action byte table, the target is the index plus a per-action step,
    and a cost reads the ``float`` factor of each end from one per-anchor
    array.  Both cost models share one formula: ``euclidean`` is its
    unit-factor case, every factor 1.

    The tables come from the map's memo (:attr:`GridMap.tables`), keyed by
    what each depends on: placements by footprint, move tables by
    footprint, move length and collision step, anchor factors by footprint,
    cost kind and seed.  So worlds on one map that differ only in edge
    delay share every table, and building the second costs microseconds.
    """

    def __init__(self, grid: GridMap, config: GridDomainConfig | None = None,
                 cost_model: CostModel | None = None) -> None:
        self.grid = grid
        self.config = config or GridDomainConfig()
        self.cost_model = cost_model or CostModel()
        side, m, step = (self.config.footprint_side, self.config.move_length,
                         self.config.collision_step)
        self.placement_ok = _shared(grid, ("placement", side),
                                    lambda: _placement_table(grid, side))
        self._ph, self._pw = self.placement_ok.shape
        self._moves = _shared(grid, ("moves", side, m, step), self._build_moves)
        kind, seed = self.cost_model.kind, self.cost_model.rng_seed
        self._anchor_factors = _shared(grid, ("factors", side, kind, seed),
                                       lambda: self._build_anchor_factors(kind, seed))

    def _build_anchor_factors(self, kind: str, seed: int) -> array:
        """An anchor's factor is its corner cell's under ``random_factor``
        and 1 under ``euclidean``; indexing the array yields a float, not a
        numpy scalar."""
        if kind == "euclidean":
            return array("d", [1.0]) * (self._ph * self._pw)
        factors = build_factor_map(seed, self.grid.width, self.grid.height)
        return array("d", factors[:self._ph, :self._pw].tobytes())

    def _build_moves(self) -> tuple[tuple[bytes, int, tuple[int, int], float], ...]:
        """One row per action: its move table, its flat step, its (dx, dy)
        and its euclidean length.

        The move table holds one byte per anchor in raster order: 1 iff the
        footprint is on a free placement at each of the move's
        :func:`sample_offsets` from that anchor, the endpoint included.  It
        is ``placement_ok`` ANDed over those offsets, with out of bounds
        solid.  A set byte means the target is on the placement grid, so the
        flat step never wraps into another row.
        """
        ph, pw = self._ph, self._pw
        m = self.config.move_length  # no sample lies further from the anchor
        padded = np.zeros((ph + 2 * m, pw + 2 * m), dtype=bool)
        padded[m:m + ph, m:m + pw] = self.placement_ok
        moves = []
        for ux, uy in DIRECTIONS:
            table = np.ones((ph, pw), dtype=bool)
            for ox, oy in set(sample_offsets(ux * m, uy * m, self.config.collision_step)):
                table &= padded[m + oy:m + oy + ph, m + ox:m + ox + pw]
            moves.append((table.tobytes(), (uy * pw + ux) * m, (ux * m, uy * m),
                          math.hypot(ux * m, uy * m)))
        return tuple(moves)

    def placement_free(self, x: int, y: int) -> bool:
        ok = self.placement_ok
        return 0 <= y < ok.shape[0] and 0 <= x < ok.shape[1] and bool(ok[y, x])

    def evaluate_anchor(self, i: int, action: int) -> SuccessorOutcome:
        """Evaluate one move from the anchor with raster index ``i``
        (``y * pw + x``), sleeping eval_delay first to simulate a slow edge.
        A valid move's outcome is :meth:`valid_outcome`.  An index off the
        placement grid has no valid move.  Pure given (map, config, cost
        model)."""
        if self.config.eval_delay > 0:
            time.sleep(self.config.eval_delay)
        table = self._moves[action][0]
        if not (0 <= i < len(table) and table[i]):
            return INVALID_OUTCOME
        return self.valid_outcome(i, action)

    def valid_outcome(self, i: int, action: int) -> SuccessorOutcome:
        """The outcome the move from anchor ``i`` has if it is valid, with
        no collision check and no delay: target ``i`` plus the action's flat
        step, at its euclidean length scaled by the mean of the factors at
        its two ends (both 1 under ``euclidean``, which leaves the length
        bit for bit).  Both ends must be on the raster."""
        _, step, _, length = self._moves[action]
        j = i + step
        f = self._anchor_factors
        return SuccessorOutcome(True, j, length * (f[i] + f[j]) / 2.0)

    def pairwise_bound(self, i: int, j: int) -> float:
        """A lower bound on the cost of any path from anchor ``i`` to anchor
        ``j`` (raster indices): 0 when ``i == j``, else the euclidean distance
        between them plus ``m/2 * (f - 1)`` for the factor f at each end (m
        the move length).  The pairwise heuristic of a
        :class:`GridPlanningProblem` reads it (:meth:`GridPlanningProblem._bound`).

        A path from i to j != i has a first and a last move, each at least m
        long, every factor is >= 1, and a move s -> s' of length len >= m
        costs ``len * (f_s + f_s') / 2 = len + len/2 * (f_s - 1) + len/2 *
        (f_s' - 1)``.  So the bound to a fixed anchor t is consistent: it is
        0 at t, and bound(s, t) - bound(s', t) is at most len (the euclidean
        triangle inequality) plus ``m/2 * (f - 1)`` at each end of the move.
        Between two bounds through a third anchor c the slack is
        ``m * (f[c] - 1)``.  Under ``euclidean`` costs every factor is 1, so
        the added term is 0.0 and the bound is the distance alone, bit for
        bit.
        """
        if i == j:
            return 0.0
        yi, xi = divmod(i, self._pw)
        yj, xj = divmod(j, self._pw)
        f = self._anchor_factors
        return (math.hypot(xi - xj, yi - yj)
                + self.config.move_length * (f[i] + f[j] - 2.0) / 2.0)

    def evaluate_move(self, xy: tuple[int, int], action: int
                      ) -> tuple[bool, tuple[int, int] | None, float | None]:
        """:meth:`evaluate_anchor` on ``(x, y)`` coordinates."""
        x, y = xy
        # an off-grid anchor must not alias the raster index of an on-grid one
        on_grid = 0 <= x < self._pw and 0 <= y < self._ph
        out = self.evaluate_anchor(y * self._pw + x if on_grid else -1, action)
        if not out.valid:
            return False, None, None
        dx, dy = self._moves[action][2]
        return True, (x + dx, y + dy), out.cost


class GridPlanningProblem(SearchDomain):
    """One start/goal query on a :class:`GridWorld`.

    A state's handle is its anchor's raster index ``y * pw + x`` on the
    placement grid (``pw`` placements per row).  A state lists only the
    moves whose target is on the raster (:data:`ON_RASTER_ACTIONS`): a move
    off the raster is invalid from its coordinates alone, and a listed move
    costs an evaluation.  The problem holds no per-episode state, so one
    problem serves any number of episodes.  Its one table, the relaxed cost
    to the goal that both heuristics read (:meth:`_bound`), is built on the
    first heuristic call and kept for every later episode.
    """

    def __init__(self, world: GridWorld, start: tuple[int, int], goal: tuple[int, int]) -> None:
        if not world.placement_free(*start):
            raise ValueError(f"start {start} is not a free footprint placement")
        if not world.placement_free(*goal):
            raise ValueError(f"goal {goal} is not a free footprint placement")
        self.world = world
        self._pw = world._pw
        self._goal = self.state_of((int(goal[0]), int(goal[1])))
        self.start = self.state_of((int(start[0]), int(start[1])))
        self._ph = world._ph
        self._move = world.config.move_length
        self._steps = tuple(step for _, step, _, _ in world._moves)
        self._n_anchors = world._ph * world._pw
        self._to_goal: dict[int, float] | None = None  # built on first use

    def state_of(self, xy: tuple[int, int]) -> int:
        """The handle of an on-map anchor; the inverse of :meth:`coord_of`."""
        return xy[1] * self._pw + xy[0]

    def coord_of(self, state: int) -> tuple[int, int]:
        y, x = divmod(state, self._pw)
        return x, y

    def actions(self, state: int) -> Sequence[int]:
        return self._on_raster_actions(state)

    def _on_raster_actions(self, state: int) -> tuple[int, ...]:
        y, x = divmod(state, self._pw)
        m = self._move
        return ON_RASTER_ACTIONS[(y < m) | (x + m >= self._pw) << 1
                                 | (y + m >= self._ph) << 2 | (x < m) << 3]

    def evaluate(self, state: int, action: int) -> SuccessorOutcome:
        return self.world.evaluate_anchor(state, action)

    def outcome_if_valid(self, state: int, action: int) -> SuccessorOutcome | None:
        """The move's outcome if valid (:meth:`GridWorld.valid_outcome`),
        priced from its two ends without the collision check or the delay;
        None when either end is off the raster.  A valid move's target,
        the anchor plus the action's flat step, never wraps into another
        row."""
        n = self._n_anchors
        if not (0 <= state < n and 0 <= state + self._steps[action] < n):
            return None
        return self.world.valid_outcome(state, action)

    def heuristic(self, state: int) -> float:
        return self._bound(state, self._goal)

    def pairwise_heuristic(self, a: int, b: int) -> float:
        return self._bound(a, b)

    def _bound(self, a: int, b: int) -> float:
        """The bound both heuristics read: h(a, b) = 0 when a == b; inf when
        a and b lie in different residue classes mod the move length m (a
        move shifts x and y by multiples of m, so no path joins them); else
        ``pairwise_bound(a, b)``, raised to |D(a) - D(b)| when both lie in
        the goal's class, for D the relaxed cost to the goal
        (:meth:`_cost_to_goal`).  The goal heuristic is h(s, goal) = D(s)
        itself.

        D is the exact shortest-path cost to the goal on the goal's move
        lattice with the collision check dropped, every move priced at its
        valid outcome.  That graph holds every on-raster move the goal's
        class can make, at the same float cost, and its moves come in
        opposite pairs of equal cost.  So D(a) <= c(a, b) + D(b) for every
        move a -> b and, by symmetry, |D(a) - D(b)| <= c*(a, b) for every
        path: the goal heuristic is admissible and consistent over every
        on-raster move, and the pairwise bound stays admissible and keeps
        h(a, b) <= h(a, c) + h(c, b), as the max of two bounds that each
        keep it.  In float, D(a) <= c(a, b) + D(b) holds exactly, since the
        Dijkstra relaxed every move with that very sum.  ``pairwise_bound``
        lower-bounds every relaxed path too, so D dominates it (to
        rounding).  Under ``euclidean`` costs D is the lattice's octile
        distance.
        """
        if a == b:
            return 0.0
        m, pw = self._move, self._pw
        if (a % pw - b % pw) % m or (a // pw - b // pw) % m:
            return math.inf
        to_goal = self._to_goal
        if to_goal is None:
            to_goal = self._to_goal = self._cost_to_goal()
        d_a = to_goal.get(a)
        if d_a is None:  # off the goal's class
            return self.world.pairwise_bound(a, b)
        if b == self._goal:  # D(a) as the Dijkstra summed it: consistent bit for bit
            return d_a
        return max(self.world.pairwise_bound(a, b), abs(d_a - to_goal[b]))

    def _cost_to_goal(self) -> dict[int, float]:
        """The relaxed cost to the goal, D, of every anchor in the goal's
        class: a Dijkstra from the goal over the raster anchors whose
        offsets from it are multiples of the move length, along the
        on-raster moves (:data:`ON_RASTER_ACTIONS`, not :meth:`actions`,
        which a subclass may widen), each priced by
        :meth:`GridWorld.valid_outcome` with no collision table read.  A
        neighbor j of the settled anchor i gets D(i) plus the cost of j's own
        move into i, so D(j) <= c(j, i) + D(i) is the very sum made here.
        Built per query on first use, never on the map's memo."""
        valid_outcome, steps = self.world.valid_outcome, self._steps
        dist = {self._goal: 0.0}
        heap = [(0.0, self._goal)]
        while heap:
            d, i = heapq.heappop(heap)
            if d > dist[i]:
                continue
            for a in self._on_raster_actions(i):
                j = i + steps[a]
                # DIRECTIONS is compass-ordered: action a + 4 is a's opposite
                nd = d + valid_outcome(j, (a + 4) % 8).cost
                if nd < dist.get(j, math.inf):
                    dist[j] = nd
                    heapq.heappush(heap, (nd, j))
        return dist

    def is_goal(self, state: int) -> bool:
        return state == self._goal

    def path_coords(self, states: Sequence[int]) -> list[tuple[int, int]]:
        return [self.coord_of(s) for s in states]


#: Start draws per sampled pair before :func:`sample_start_goal_pairs` gives up.
MAX_ATTEMPTS_PER_PAIR = 10_000


def sample_start_goal_pairs(world: GridWorld, count: int, seed: int
                            ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Sample ``count`` connected start/goal pairs, deterministic in ``seed``.

    A start anchor is drawn uniformly from the free placements in raster
    order; the goal is drawn uniformly from the start's reachable set (a
    graph search over the move graph) in ``(x, y)`` order, which guarantees
    connectivity.  Starts whose reachable set is empty are rejected, up to
    :data:`MAX_ATTEMPTS_PER_PAIR` draws per pair.  A negative ``count`` is
    a :class:`ValueError`.
    """
    if count < 0:
        raise ValueError("pair count must be >= 0")
    anchors = np.flatnonzero(world.placement_ok)
    if anchors.size < 2:
        raise SamplingError("map has fewer than two free footprint placements")
    pw, ph = world._pw, world._ph
    rng = random.Random(seed)
    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for _ in range(count):
        for attempt in range(MAX_ATTEMPTS_PER_PAIR):
            start = int(anchors[rng.randrange(anchors.size)])
            # (x, y) order is ascending x * ph + y
            others = sorted(reachable_indices(world, start)[1:],
                            key=lambda i: i % pw * ph + i // pw)
            if others:
                goal = others[rng.randrange(len(others))]
                pairs.append(((start % pw, start // pw), (goal % pw, goal // pw)))
                break
        else:
            raise SamplingError(
                f"no connected pair found within {MAX_ATTEMPTS_PER_PAIR} attempts"
            )
    return pairs


def reachable_indices(world: GridWorld, first: int) -> list[int]:
    """Raster indices ``y * pw + x`` of every anchor reachable by valid moves
    from the on-grid anchor ``first``, ``first`` first, in search order.

    A move is valid iff its byte in the per-action move table is set, and
    its target is the index plus a per-action step.  A blocked anchor has no
    valid move and reaches only itself.
    """
    moves = [(table, step) for table, step, _, _ in world._moves]
    seen = bytearray(world._pw * world._ph)
    seen[first] = 1
    found = [first]
    for i in found:  # visits each index appended below, in turn
        for table, step in moves:
            if table[i]:
                j = i + step
                if not seen[j]:
                    seen[j] = 1
                    found.append(j)
    return found
