"""Parallel anytime heuristic search over edge-expensive graphs."""

from .baselines import OracleResult, ara_star, dijkstra_distances, dijkstra_oracle, weighted_astar
from .controller import (
    STATUS_COMPLETED_BOUNDED,
    STATUS_INFEASIBLE,
    STATUS_PROVED_OPTIMAL,
    STATUS_TIMEOUT,
    PlannerConfig,
    PlanResult,
    SolutionRecord,
    plan,
    plan_naive,
    weight_schedule,
)
from .domain import (
    DUMMY_ACTION,
    DomainError,
    Edge,
    EdgeCache,
    Path,
    SearchDomain,
    StateInterner,
    SuccessorOutcome,
)
from .engine import EpisodeContext, improve_path
from .grid2d import (
    CostModel,
    GridDomainConfig,
    GridMap,
    GridPlanningProblem,
    GridWorld,
    load_map,
    parse_map,
    sample_start_goal_pairs,
    serialize_map,
)
from .search import ImproveOutcome
from .structures import OpenQueue, SearchNode, edge_priority, pop_independent

__version__ = "0.1.0"
