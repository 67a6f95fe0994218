"""Synergistic hybrid feedback: switching supervisors, smoothing by
tracker states, integrator backstepping, and a planar obstacle-avoidance
construction with a simulation harness."""

from .backstepping import (
    BacksteppingParams,
    backstep_control,
    backstep_lyapunov,
    backstepped_quadruple,
    validate_backstepping_params,
)
from .engine import (
    FlowSegment,
    HybridArc,
    HybridSystemSpec,
    JumpEvent,
    SimConfig,
    apply_jump,
    locate_boundary,
    simulate,
    step_flow,
)
from .errors import (
    CoverageViolation,
    DimensionMismatch,
    EmptyJumpSet,
    GainValidation,
    NonFiniteState,
    NonPositiveDistance,
    NoRootBracketed,
    NoSignChange,
    NotInJumpSet,
    OutsideFreeSpace,
    ParamBoundViolation,
    ParseError,
    SynconError,
    ValidationError,
)
from .harness import (
    ConsistencyReport,
    RunRecord,
    ScenarioConfig,
    check_scenario,
    load_config,
    parse_config,
    run_scenario,
    write_csv,
    write_svg,
)
from .navigation import (
    NavGains,
    NavigationWorld,
    backstep_closed_loop,
    barrier,
    barrier_grad,
    barrier_hess,
    decomposed_feedback,
    find_critical_point,
    gradient_closed_loop,
    hybrid_closed_loop,
    max_synergy_gap,
    nav_gradient,
    nav_hessian,
    nav_potential,
    nominal_controller,
    obstacle_distance,
    rotation_rate_bound,
    smooth_closed_loop,
    switch_offset,
    switch_offset_bound,
    switched_potential,
    validate_gains,
)
from .smoothing import (
    DecomposedFeedback,
    SmoothedParams,
    smoothed_quadruple,
    tracked_feedback,
    tracker_control,
    tracking_lyapunov,
    validate_smoothed_params,
)
from .synergy import (
    AffinePlant,
    SynergisticQuadruple,
    assemble_closed_loop,
    audit_quadruple,
    switch_candidates,
    v_excess,
)

__version__ = "0.1.0"
