"""Difference equations on exponentially weighted sequence spaces.

Library plus batch CLI for the operator view of ``u_{n+1} = F(u)_n`` over
Z with state space C^d: weighted sequence norms, the sampled Z-transform,
causal and split resolvents of ``tau - A``, Riesz spectral projections,
contraction fixed-point solvers, exponential-stability classification, and
stable-manifold computation by the Lyapunov-Perron method.
"""

from .errors import (
    AdmissibilityError,
    AliasingError,
    CausalityRequired,
    DimensionMismatch,
    EigenSolverFailure,
    IndeterminateHyperbolic,
    IndeterminateStability,
    InputError,
    InternalInconsistency,
    NoConvergence,
    NormOverflow,
    NotCausalRegime,
    NotContractive,
    PreconditionViolation,
    QuadratureError,
    RangeViolation,
    SpecseqError,
    SpectrumHit,
    SpectrumOnCircle,
    WindowTooWide,
)
from .manifold import (
    ManifoldProblem,
    lp_apply,
    lp_fixed_point,
    manifold_sweep,
    spectrum_escape_check,
    stable_manifold_point,
)
from .operators import (
    GAP_TOL,
    BoundedOperator,
    SpectralSplit,
    circle_sup_resolvent,
    is_hyperbolic,
    operator_norm,
    resolvent_at,
    riesz_split,
    spectral_radius,
)
from .resolvent import (
    SERIES_TOL,
    ResolventPlan,
    apply_resolvent_causal,
    apply_resolvent_frequency,
    apply_resolvent_split,
    causality_probe,
    equation_residual,
)
from .sequences import (
    Weight,
    WindowedSequence,
    embed_one_sided,
    impulse,
    inner_product,
    max_abs_diff,
    shift,
    support,
    support_subset_geq,
    truncate,
    weighted_norm,
    zero_sequence,
)
from .solver import (
    StencilMap,
    implicit_euler_map,
    linear_map,
    lipschitz_probe,
    polynomial_map,
    saturation_map,
    solve_contraction,
    solve_ivp,
    solve_ivp_all,
    stability_classify,
    zero_map,
)
from .ztransform import (
    CircleFunction,
    inverse_ztransform,
    multiplication_equiv_check,
    parseval_check,
    positive_support_hardy_check,
    ztransform,
)

__version__ = "0.1.0"
