"""Capacity-bound engine for the carbon-copying-onto-dirty-paper channel
with statistically equivalent states: closed-form inner/outer bounds,
constant-gap certification sweeps, and Monte Carlo cross-checks.
"""

from .bounds import (
    APPENDIX_FORM,
    APPENDIX_LOOSENED,
    RAW,
    THEOREM,
    BoundResult,
    PowerSplit,
    alpha_star,
    awgn_capacity,
    baseline_inner_2,
    baseline_outer_2,
    baseline_outer_m,
    ccdp2_inner,
    ccdp2_outer,
    ccdp_es_inner,
    ccdp_es_outer,
    ccdp_m_inner,
    ccdp_m_inner_raw,
    ccdp_m_outer,
    delta_conditional_variances,
    es_effective_gain,
)
from .errors import (
    CcdpError,
    DegenerateCovariance,
    DomainError,
    InfeasibleRho,
    InvalidGain,
    InvalidM,
    InvalidPower,
    InvalidSplit,
    WrongModel,
)
from .gaps import (
    GapReport,
    GapRow,
    MonotonicityViolation,
    SweepGrid,
    certify_theorem,
    fig3_curve,
    monotonicity_audit,
    run_sweep,
    standard_grid,
    theorem_grid,
)
from .mc import (
    MIEstimate,
    SchemeRateReport,
    SimulationConfig,
    estimate_gp_rate,
    estimate_san_rate,
    gaussian_mi,
    gp_rate_closed_form,
    gp_rate_lambda_profile,
    verify_decomposition_stats,
    verify_scheme_rate,
)
from .model import (
    ChannelParams,
    StateCovariance,
    StateDecomposition,
    decompose_states,
    rho_range,
    sample_states,
    state_covariance,
)

__version__ = "0.1.0"
