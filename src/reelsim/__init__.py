"""Power-struggle simulator.

Agents hold power, allocate signed fractions of it at each other, and
the update rule amplifies help less than harm. On top of that one-step
dynamic sit sampled stage games, a folk-style rationality filter over
Monte Carlo lines of play, and probability trees of future states.
"""

import types as _types

from .core import (
    EPS_SUM,
    ModelParams,
    State,
    TacticMatrixError,
    build_multiplier_matrix,
    evolve,
    normalize_sizes,
    step_update,
    update_sizes,
    validate_tactic_matrix,
)
from .equilibrium import (
    DEFAULT_CANDIDATES,
    DEFAULT_MAX_PROFILES,
    StageGame,
    payoff_tensor,
    profile_matrix,
    solve_stage_game,
    stage_game,
)
from .exports import (
    export_frames_json,
    export_reel_table_csv,
    export_reels_json,
    export_sizes_csv,
    export_state_dot,
    export_tree_dot,
)
from .frames import (
    BLOCK_WORDS,
    Frame,
    FrameDistribution,
    LineBlock,
    SimSettings,
    TransitionDiagnostics,
    cluster_first_moves,
    folk_filter,
    generate_line,
    generate_lines,
    line_weights,
    transition_distribution,
)
from .reels import (
    LEAF_ALL_DEAD,
    LEAF_EMPTY,
    LEAF_MAX_DEPTH,
    LEAF_PRUNED,
    Reel,
    ReelEdge,
    ReelNode,
    build_reel_tree,
    enumerate_reels,
)
from .sampling import (
    CANDIDATE_STREAM,
    LINE_STREAM,
    NODE_STREAM,
    PROFILE_STREAM,
    SamplerConfig,
    round_tactic_matrix,
    sample_candidates,
    sample_tactic_matrices,
    stream_key,
    substream,
)
from .scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    serialize_scenario,
    with_seed,
)
from .utility import (
    expected_utility,
    inertia_probability,
    intertemporal_utility,
    positional_utility,
    tactical_distance,
)

__version__ = "0.1.0"

# The public names are those the imports above bind, the submodules aside.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
