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

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Sequence

import numpy as np

from .domain import (
    INVALID_OUTCOME,
    SearchDomain,
    StateInterner,
    SuccessorOutcome,
)

FREE_GLYPHS = frozenset(".G")
OBSTACLE_GLYPHS = frozenset("@OT")

#: Compass-ordered unit moves (dx, dy): N, NE, E, SE, S, SW, W, NW.
DIRECTIONS: tuple[tuple[int, int], ...] = (
    (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1),
)

COST_KINDS = ("euclidean", "random_factor")


class MapFormatError(ValueError):
    """Raised on malformed map text, naming the offending line/column."""


class SamplingError(RuntimeError):
    """Raised when start/goal rejection sampling exhausts its attempt budget."""


@dataclass(frozen=True, eq=False)
class GridMap:
    """Occupancy grid; True cells are obstacles.  Out of bounds is solid."""

    width: int
    height: int
    occupancy: np.ndarray  # bool, shape (height, width), indexed [y, x]
    name: str = "<memory>"


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

    occupancy = np.zeros((height, width), dtype=bool)
    for y, row in enumerate(rows):
        if len(row) != width:
            raise MapFormatError(
                f"{name}: line {5 + y}: row has {len(row)} glyphs, expected {width}"
            )
        for x, glyph in enumerate(row):
            if glyph in OBSTACLE_GLYPHS:
                occupancy[y, x] = True
            elif glyph not in FREE_GLYPHS:
                raise MapFormatError(
                    f"{name}: line {5 + y}, col {x + 1}: unknown glyph {glyph!r}"
                )
    return GridMap(width=width, height=height, occupancy=occupancy, name=name)


def serialize_map(grid: GridMap) -> str:
    """Render a map back to MovingAI text ('.' free, '@' obstacle)."""
    rows = ["".join("@" if grid.occupancy[y, x] else "." for x in range(grid.width))
            for y in range(grid.height)]
    head = f"type octile\nheight {grid.height}\nwidth {grid.width}\nmap\n"
    return head + "\n".join(rows) + "\n"


def load_map(path: str | FsPath, scale: int = 1) -> GridMap:
    """Read a ``.map`` file, optionally nearest-neighbor upscaled."""
    path = FsPath(path)
    grid = parse_map(path.read_text(), name=str(path))
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    if scale == 1:
        return grid
    occ = np.repeat(np.repeat(grid.occupancy, scale, axis=0), scale, axis=1)
    return GridMap(width=grid.width * scale, height=grid.height * scale,
                   occupancy=occ, name=f"{grid.name}@x{scale}")


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
        if self.eval_delay < 0:
            raise ValueError("eval_delay must be non-negative")


@dataclass(frozen=True)
class CostModel:
    """Edge-cost model: plain euclidean length, or length scaled by the mean
    of a per-cell random factor in [1, 100] at the move's two endpoints."""

    kind: str = "euclidean"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in COST_KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}; use one of {COST_KINDS}")


def build_factor_map(seed: int, width: int, height: int) -> np.ndarray:
    """Deterministic per-cell factors, uniform in [1, 100].

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
    if span == 0:
        return [(0, 0)]
    offsets = []
    for k in range(math.ceil(span / step)):
        t = k * step / span
        offsets.append((round(t * dx), round(t * dy)))
    offsets.append((dx, dy))
    return offsets


class GridWorld:
    """Immutable map + motion/cost parameters with precomputed placement
    and move validity.  Read-only after construction; safe for concurrent
    callers."""

    def __init__(self, grid: GridMap, config: GridDomainConfig | None = None,
                 cost_model: CostModel | None = None) -> None:
        self.grid = grid
        self.config = config or GridDomainConfig()
        self.cost_model = cost_model or CostModel()
        side = self.config.footprint_side
        occ = grid.occupancy.astype(np.int32)
        # Integral image: placement_ok[y, x] iff the side x side window at
        # (x, y) fits in bounds and contains no obstacle cell.
        ph = grid.height - side + 1
        pw = grid.width - side + 1
        if ph <= 0 or pw <= 0:
            self.placement_ok = np.zeros((0, 0), dtype=bool)
        else:
            integral = np.zeros((grid.height + 1, grid.width + 1), dtype=np.int64)
            integral[1:, 1:] = occ.cumsum(axis=0).cumsum(axis=1)
            window = (integral[side:, side:] - integral[:ph, side:]
                      - integral[side:, :pw] + integral[:ph, :pw])
            self.placement_ok = window == 0
        self._move_tables = self._build_move_tables()
        if self.cost_model.kind == "random_factor":
            self.factor_map = build_factor_map(self.cost_model.rng_seed, grid.width, grid.height)
        else:
            self.factor_map = None

    def _build_move_tables(self) -> tuple[bytes, ...]:
        """Per action, one byte per anchor in raster order: 1 iff the move
        from that anchor passes :meth:`segment_clear` and ends on a free
        placement.  Each table is ``placement_ok`` ANDed over the move's
        sample offsets, with out of bounds solid."""
        ph, pw = self.placement_ok.shape
        m = self.config.move_length  # no sample lies further from the anchor
        padded = np.zeros((ph + 2 * m, pw + 2 * m), dtype=bool)
        padded[m:m + ph, m:m + pw] = self.placement_ok
        tables = []
        for ux, uy in DIRECTIONS:
            table = np.ones((ph, pw), dtype=bool)
            for ox, oy in set(sample_offsets(ux * m, uy * m, self.config.collision_step)):
                table &= padded[m + oy:m + oy + ph, m + ox:m + ox + pw]
            tables.append(table.tobytes())
        return tuple(tables)

    def placement_free(self, x: int, y: int) -> bool:
        ok = self.placement_ok
        return 0 <= y < ok.shape[0] and 0 <= x < ok.shape[1] and bool(ok[y, x])

    def free_anchors(self) -> list[tuple[int, int]]:
        """All collision-free footprint placements, in (x, y) raster order."""
        ys, xs = np.nonzero(self.placement_ok)
        return [(int(x), int(y)) for y, x in sorted(zip(ys.tolist(), xs.tolist()))]

    def segment_clear(self, frm: tuple[int, int], to: tuple[int, int]) -> bool:
        """Footprint collision check along the straight from->to segment.

        Samples at exact collision_step multiples of the per-axis parameter
        plus the final endpoint, both endpoints included.
        """
        x0, y0 = frm
        return all(self.placement_free(x0 + ox, y0 + oy)
                   for ox, oy in sample_offsets(to[0] - x0, to[1] - y0,
                                                self.config.collision_step))

    def move_ok(self, xy: tuple[int, int], action: int) -> bool:
        """Whether the move is valid: a lookup in the table built at
        construction, equal to ``placement_free(target) and
        segment_clear(xy, target)``.  No delay."""
        x, y = xy
        ph, pw = self.placement_ok.shape
        return 0 <= x < pw and 0 <= y < ph and self._move_tables[action][y * pw + x] == 1

    def move_target(self, xy: tuple[int, int], action: int) -> tuple[int, int]:
        ux, uy = DIRECTIONS[action]
        length = self.config.move_length
        return xy[0] + ux * length, xy[1] + uy * length

    def edge_cost(self, frm: tuple[int, int], to: tuple[int, int]) -> float:
        length = math.hypot(to[0] - frm[0], to[1] - frm[1])
        if self.factor_map is None:
            return length
        f0 = self.factor_map[frm[1], frm[0]]
        f1 = self.factor_map[to[1], to[0]]
        return length * (f0 + f1) / 2.0

    def evaluate_move(self, xy: tuple[int, int], action: int
                      ) -> tuple[bool, tuple[int, int] | None, float | None]:
        """Evaluate one move, sleeping eval_delay first to simulate a slow
        edge.  Pure given (map, config, cost model): repeat calls agree."""
        if self.config.eval_delay > 0:
            time.sleep(self.config.eval_delay)
        if not self.move_ok(xy, action):
            return False, None, None
        target = self.move_target(xy, action)
        return True, target, self.edge_cost(xy, target)

    def heuristic_between(self, a: tuple[int, int], b: tuple[int, int]) -> float:
        return math.hypot(a[0] - b[0], a[1] - b[1])

    def export_factor_map(self, path: str | FsPath) -> None:
        """Dump the factor grid as whitespace-separated text for debugging."""
        if self.factor_map is None:
            raise ValueError("euclidean cost model has no factor map")
        np.savetxt(path, self.factor_map, fmt="%.17g")


def grid_successors(world: GridWorld, xy: tuple[int, int]
                    ) -> list[tuple[bool, tuple[int, int] | None, float | None]]:
    """Outcomes of all 8 moves from ``xy`` in compass order."""
    return [world.evaluate_move(xy, a) for a in range(len(DIRECTIONS))]


class GridPlanningProblem(SearchDomain):
    """One start/goal planning episode on a :class:`GridWorld`.

    Owns the state interner, so handles are stable for the episode; build a
    fresh problem per independent run.
    """

    def __init__(self, world: GridWorld, start: tuple[int, int], goal: tuple[int, int]) -> None:
        if not world.placement_free(*start):
            raise ValueError(f"start {start} is not a free footprint placement")
        if not world.placement_free(*goal):
            raise ValueError(f"goal {goal} is not a free footprint placement")
        self.world = world
        self.goal_xy = (int(goal[0]), int(goal[1]))
        self._interner = StateInterner()
        self.start = self._interner.key_for((int(start[0]), int(start[1])))
        self._action_ids = tuple(range(len(DIRECTIONS)))

    def coord_of(self, state: int) -> tuple[int, int]:
        return self._interner.coord_of(state)

    def actions(self, state: int) -> Sequence[int]:
        return self._action_ids

    def evaluate(self, state: int, action: int) -> SuccessorOutcome:
        valid, target, cost = self.world.evaluate_move(self.coord_of(state), action)
        if not valid:
            return INVALID_OUTCOME
        return SuccessorOutcome(True, self._interner.key_for(target), cost)

    def heuristic(self, state: int) -> float:
        return self.world.heuristic_between(self.coord_of(state), self.goal_xy)

    def pairwise_heuristic(self, a: int, b: int) -> float:
        return self.world.heuristic_between(self.coord_of(a), self.coord_of(b))

    def is_goal(self, state: int) -> bool:
        return self.coord_of(state) == self.goal_xy

    def path_coords(self, states: Sequence[int]) -> list[tuple[int, int]]:
        return [self.coord_of(s) for s in states]


def sample_start_goal_pairs(world: GridWorld, count: int, seed: int,
                            max_attempts_per_pair: int = 10_000
                            ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Sample ``count`` connected start/goal pairs, deterministic in ``seed``.

    A start anchor is drawn uniformly from the free placements; the goal is
    drawn uniformly from the start's reachable set (a graph search over the
    move graph), which guarantees connectivity.  Starts whose reachable set
    is empty are rejected, up to ``max_attempts_per_pair`` draws per pair.
    """
    anchors = world.free_anchors()
    if len(anchors) < 2:
        raise SamplingError("map has fewer than two free footprint placements")
    rng = random.Random(seed)
    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []
    reachable_cache: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for _ in range(count):
        for attempt in range(max_attempts_per_pair):
            start = anchors[rng.randrange(len(anchors))]
            others = reachable_cache.get(start)
            if others is None:
                others = sorted(reachable_anchors(world, start) - {start})
                reachable_cache[start] = others
            if others:
                pairs.append((start, others[rng.randrange(len(others))]))
                break
        else:
            raise SamplingError(
                f"no connected pair found within {max_attempts_per_pair} attempts"
            )
    return pairs


def reachable_anchors(world: GridWorld, start: tuple[int, int]) -> set[tuple[int, int]]:
    """Every anchor reachable from ``start`` by valid moves, ``start`` included."""
    seen = {start}
    frontier = [start]
    actions = range(len(DIRECTIONS))
    while frontier:
        xy = frontier.pop()
        for a in actions:
            if world.move_ok(xy, a):
                nxt = world.move_target(xy, a)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen
