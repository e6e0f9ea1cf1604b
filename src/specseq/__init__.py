"""Difference equations on exponentially weighted sequence spaces.

Library plus batch CLI for the operator view of ``u_{n+1} = F(u)_n`` over
Z with state space C^d: weighted sequence norms, the sampled Z-transform,
causal and split resolvents of ``tau - A``, Riesz spectral projections,
contraction fixed-point solvers, exponential-stability classification, and
stable-manifold computation by the Lyapunov-Perron method.

The names of ``errors``, ``sequences`` and ``ztransform`` load with the
package; those of ``operators``, ``resolvent``, ``solver`` and ``manifold``
load on first access (PEP 562), so a process that never uses them does not
compile those modules.  ``ztransform`` stays eager because the package
exports the function under the submodule's name: loading the submodule
later would rebind ``specseq.ztransform`` to the module.
"""

import importlib
import types

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
from .sequences import (
    Weight,
    WindowedSequence,
    impulse,
    inner_product,
    shift,
    support,
    support_subset_geq,
    truncate,
    weighted_norm,
    zero_sequence,
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

#: name -> the submodule that defines it, for the names loaded on first access
_LAZY = {
    **dict.fromkeys(
        (
            "ManifoldProblem",
            "lp_fixed_point",
            "manifold_sweep",
            "stable_manifold_point",
        ),
        "manifold",
    ),
    **dict.fromkeys(
        (
            "GAP_TOL",
            "BoundedOperator",
            "SpectralSplit",
            "circle_sup_resolvent",
            "is_hyperbolic",
            "operator_norm",
            "resolvent_at",
            "riesz_split",
            "spectral_radius",
        ),
        "operators",
    ),
    **dict.fromkeys(
        (
            "SERIES_TOL",
            "ResolventPlan",
            "apply_resolvent_causal",
            "apply_resolvent_frequency",
            "apply_resolvent_split",
            "causality_probe",
            "equation_residual",
            "spectrum_escape_check",
            "stability_classify",
        ),
        "resolvent",
    ),
    **dict.fromkeys(
        (
            "StencilMap",
            "implicit_euler_map",
            "linear_map",
            "polynomial_map",
            "saturation_map",
            "solve_contraction",
            "solve_ivp",
            "solve_ivp_all",
            "zero_map",
        ),
        "solver",
    ),
}

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
] + list(_LAZY)


def __getattr__(name):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _LAZY.values():  # the submodule itself, bound on import as before
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
