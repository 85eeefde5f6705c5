"""Pick-n-swap rearrangement planning on 1D and 2D lattices.

Objects live one per cell on a small grid; a robot with k hand buffers
rearranges them into the identity labeling, where each stop may deposit
one held object and pick up the cell's occupant in the same motion.
The package provides planners from cheap greedy tours to exact
searches, plan validation and pricing, and a benchmark harness.
"""

from .errors import (
    InvalidArrangement,
    InvalidConfig,
    InvalidPlanStructure,
    LatticeSwapError,
    MergeStateLimit,
    MissingBaseline,
    PlanningTimeout,
    SizeLimitExceeded,
)
from .lattice import (
    EMPTY,
    Arrangement,
    Cycle,
    CycleGroup,
    CycleStatistics,
    Lattice,
    cycle_statistics,
    decompose_cycles,
    group_cycles,
    nontrivial_cycles,
    random_arrangement,
)
from .mcts import MctsConfig, plan_mcts
from .multi_buffer import (
    PipelineConfig,
    assign_cycles,
    merge_task_sequences,
    plan_multi_buffer_dp,
)
from .oracle import OracleLimits, plan_optimal, plan_optimal_unrestricted
from .plan import (
    CostParams,
    CostReport,
    Instance,
    PickNSwap,
    Plan,
    evaluate_cost,
    min_swap_count,
    simulate,
    travel_distance,
)
from .search import SearchLimits, min_swap_astar
from .single_buffer import (
    cycle_group_switching,
    plan_cycle_following,
    plan_cycle_switching,
    plan_single_buffer_2d,
    plan_single_buffer_exact,
    splice_actions,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "Arrangement",
    "CostParams",
    "CostReport",
    "Cycle",
    "CycleGroup",
    "CycleStatistics",
    "Instance",
    "InvalidArrangement",
    "InvalidConfig",
    "InvalidPlanStructure",
    "Lattice",
    "LatticeSwapError",
    "MctsConfig",
    "MergeStateLimit",
    "MissingBaseline",
    "OracleLimits",
    "PickNSwap",
    "PipelineConfig",
    "Plan",
    "PlanningTimeout",
    "SearchLimits",
    "SizeLimitExceeded",
    "assign_cycles",
    "cycle_group_switching",
    "cycle_statistics",
    "decompose_cycles",
    "evaluate_cost",
    "group_cycles",
    "merge_task_sequences",
    "min_swap_astar",
    "min_swap_count",
    "nontrivial_cycles",
    "plan_cycle_following",
    "plan_cycle_switching",
    "plan_single_buffer_2d",
    "plan_mcts",
    "plan_multi_buffer_dp",
    "plan_optimal",
    "plan_optimal_unrestricted",
    "plan_single_buffer_exact",
    "random_arrangement",
    "simulate",
    "splice_actions",
    "travel_distance",
    "__version__",
]
