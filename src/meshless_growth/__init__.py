"""Meshless solver for a spatial capital-technology growth system.

Generalized finite differences on scattered node clouds: per-node stars,
weighted Taylor-fit stencils, an explicit scheme for the coupled
capital/technology equations with zero-flux boundaries, and a per-star
step-bound analyzer for the explicit update.
"""

from .cloud import (
    NodeCloud,
    generate_jittered,
    generate_regular,
    load_cloud,
    select_star,
)
from .errors import (
    CloudError,
    DegenerateBoundaryStarError,
    DegenerateStarError,
    DivergenceError,
    InsufficientNodesError,
    NoAdmissibleTimeStepError,
    ScenarioError,
)
from .harness import (
    ConvergenceResult,
    ExactnessResult,
    convergence_study,
    fd_equivalence,
    manufactured_solution,
    polynomial_exactness,
    regular_refinement,
    temporal_convergence_study,
)
from .model import (
    GrowthSpec,
    ModelParams,
    production,
    production_derivative,
    tech_rate_field,
)
from .scenario import (
    CloudSpec,
    FieldSpec,
    InitialSpec,
    PRESET_NAMES,
    Scenario,
    StarSpec,
    get_preset,
    parse_scenario,
    parse_scenario_text,
    preset_text,
)
from .scheme import (
    LogRecord,
    NeumannOperator,
    SchemeConfig,
    Snapshot,
    StabilityEvent,
    State,
    Trajectory,
    run,
    step,
)
from .stability import (
    StabilityReport,
    dt_bound,
)
from .stencil import (
    StencilTable,
    build_all_stencils,
    compute_stencil,
)

__version__ = "0.1.0"
