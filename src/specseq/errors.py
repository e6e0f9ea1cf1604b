"""Exception types shared across the toolkit.

Every error carries a stable machine-readable ``code`` (surfaced by the CLI
in structured stderr diagnostics) and a distinct process ``exit_status``.
"""


class SpecseqError(Exception):
    """Base class for all toolkit errors."""

    code = "error"
    exit_status = 1


class InputError(SpecseqError):
    """Malformed file, value, or argument."""

    code = "invalid-input"
    exit_status = 3


class DimensionMismatch(SpecseqError):
    """Operands live in different state-space dimensions."""

    code = "dimension-mismatch"
    exit_status = 4


class NormOverflow(SpecseqError):
    """A weighted norm overflowed; raised instead of returning Inf."""

    code = "norm-overflow"
    exit_status = 5


class EigenSolverFailure(SpecseqError):
    """The dense eigenvalue solver did not converge."""

    code = "eigen-solver-failure"
    exit_status = 6


class SpectrumHit(SpecseqError):
    """A resolvent was requested at a point too close to the spectrum."""

    code = "spectrum-hit"
    exit_status = 7


class SpectrumOnCircle(SpecseqError):
    """An eigenvalue modulus lies within ``GAP_TOL`` of the circle radius, or
    the resolvent norm on the circle is too large to certify a bound."""

    code = "spectrum-on-circle"
    exit_status = 8


class QuadratureError(SpecseqError):
    """The sign iteration of a Riesz split gave no projection that passes its gates."""

    code = "riesz-quadrature"
    exit_status = 9


class IndeterminateHyperbolic(SpecseqError):
    """Hyperbolicity cannot be decided: spectrum within ``GAP_TOL`` of S_1."""

    code = "indeterminate-hyperbolic"
    exit_status = 10


class NotCausalRegime(SpecseqError):
    """Causal resolvent application requested with rho <= r(A) + GAP_TOL."""

    code = "not-causal-regime"
    exit_status = 11


class NotContractive(SpecseqError):
    """A declared Lipschitz bound violates the contraction precondition."""

    code = "not-contractive"
    exit_status = 12


class NoConvergence(SpecseqError):
    """A fixed-point iteration exhausted ``max_iter``."""

    code = "no-convergence"
    exit_status = 13


class CausalityRequired(SpecseqError):
    """An initial value problem was posed with a non-causal stencil."""

    code = "causality-required"
    exit_status = 14


class IndeterminateStability(SpecseqError):
    """Spectral radius within ``GAP_TOL`` of 1; stability undecidable."""

    code = "indeterminate-stability"
    exit_status = 15


class AliasingError(SpecseqError):
    """Sample count too small for the sequence window (spectral aliasing)."""

    code = "aliasing"
    exit_status = 16


class WindowTooWide(SpecseqError):
    """Requested reconstruction window exceeds the available sample count."""

    code = "window-too-wide"
    exit_status = 17


class RangeViolation(SpecseqError):
    """A vector does not lie in the required projection range."""

    code = "range-violation"
    exit_status = 18


class AdmissibilityError(SpecseqError):
    """Lipschitz bounds violate the smallness conditions of the problem."""

    code = "not-admissible"
    exit_status = 19


class PreconditionViolation(SpecseqError):
    """A documented numerical precondition does not hold."""

    code = "precondition-violated"
    exit_status = 20


class InternalInconsistency(SpecseqError):
    """A certified internal identity failed beyond tolerance."""

    code = "internal-inconsistency"
    exit_status = 21


def all_error_types():
    """All concrete error classes, for diagnostics and registry tests."""
    return SpecseqError.__subclasses__()
