"""Exception types shared across the toolkit.

Every error carries a stable machine-readable ``code`` (surfaced by the CLI
in structured stderr diagnostics) and a distinct process ``exit_status``.
The scalar checks ``_number`` and ``_integer``, which raise
:class:`InputError`, live here too: the solver, the manifold problem and
the JSON reader all use them.
"""

import cmath
import numbers

import numpy as np


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


def _shown(value) -> str:
    """``repr(value)``; an int too long for the interpreter's limit on
    integer text (``sys.set_int_max_str_digits``) is described by its size."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _number(value, what: str, kind: type = float):
    """``value`` as a finite ``kind``, float or complex; a boolean, text,
    other non-number or non-finite value is :class:`InputError` naming
    ``what``."""
    try:
        x = None if isinstance(value, (bool, np.bool_, str, bytes)) else kind(value)
    except (TypeError, ValueError, OverflowError):
        x = None
    if x is None:
        raise InputError(f"{what} must be a number, got {_shown(value)}")
    if not cmath.isfinite(x):
        raise InputError(f"{what} must be finite, got {value!r}")
    return x


def _integer(value, what: str) -> int:
    """``value`` as an int: an integer, or an integral float such as
    ``50.0``; booleans, fractions, infinities and non-numbers are
    :class:`InputError`."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise InputError(f"{what} must be an integer, got {value!r}")
