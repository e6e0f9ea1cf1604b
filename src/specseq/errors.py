"""Exception types shared across the toolkit.

Every error carries a stable machine-readable ``code`` (surfaced by the CLI
in structured stderr diagnostics) and a distinct process ``exit_status``.

The argument policy of the whole library lives here too, one reader per
kind: ``_number`` (a finite real or complex scalar), ``_positive`` (a
positive one, such as every weight ``rho``), ``_integer`` (an index, a
count or a dimension, within inclusive bounds where it has them),
``_window`` (a window ``(lo, hi)`` of Z with ``lo <= hi``), ``_choice``
(a name from a fixed set: a route, a method, a kernel, a field),
``_array`` (a complex array of finite numbers), ``_vector`` (one of them
flattened to a state vector of a given dimension) and ``_square`` (a d x d
matrix, d >= 1).  Every public entry reads its arguments through them,
once per call, so the same bad value is the same :class:`InputError`,
naming the parameter, wherever it is passed: booleans and text are never
numbers, NaN and infinity never finite, and a fraction never an index.
``_same_dim`` is the one :class:`DimensionMismatch` between an operand and
the dimension it must have, and ``_vector`` raises it.  The JSON reader
decodes and leaves the checks to them.
"""

import cmath
import math
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


def _shown(value) -> str:
    """``repr(value)``; a number whose digits pass the interpreter's limit
    on integer text (``sys.set_int_max_str_digits``) is described by type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to show"


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


def _positive(value, what: str) -> float:
    """:func:`_number` of a real above 0."""
    x = _number(value, what)
    if not x > 0:
        raise InputError(f"{what} must be positive, got {x!r}")
    return x


def _integer(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int: an integer, or an integral real such as
    ``50.0``, decided exactly, within the inclusive bounds ``low`` and
    ``high`` that are given; booleans, fractions, infinities, non-numbers
    and values out of bounds are :class:`InputError`."""
    n = None
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            n = int(value) if isinstance(value, numbers.Integral) else math.floor(value)
        except (OverflowError, ValueError):  # an infinity or a NaN
            pass
    if n is None or n != value:
        raise InputError(f"{what} must be an integer, got {_shown(value)}")
    if (low is not None and n < low) or (high is not None and n > high):
        ends = [f">= {low}"] * (low is not None) + [f"<= {high}"] * (high is not None)
        raise InputError(f"{what} must be an integer {' and '.join(ends)}, got {_shown(n)}")
    return n


def _window(value, what: str) -> tuple[int, int]:
    """``value`` as a window ``(lo, hi)`` of Z: a pair of integers, read by
    :func:`_integer` as ``{what} lo`` and ``{what} hi``, with ``lo <= hi``."""
    try:
        lo, hi = value
    except (TypeError, ValueError):  # not a pair
        raise InputError(f"{what} must be a pair (lo, hi), got {_shown(value)}") from None
    lo, hi = _integer(lo, f"{what} lo"), _integer(hi, f"{what} hi")
    if hi < lo:
        raise InputError(f"{what} must be a pair with lo <= hi, got {_shown((lo, hi))}")
    return lo, hi


def _choice(value, what: str, options) -> str:
    """``value`` if it is text and one of ``options``, else :class:`InputError`."""
    if not isinstance(value, str) or value not in options:
        raise InputError(f"{what} must be one of {sorted(options)}, got {_shown(value)}")
    return value


def _array(value, what: str) -> np.ndarray:
    """``value`` as a complex array of finite numbers; a ragged nest, text,
    booleans, NaN or infinity is :class:`InputError` naming ``what``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nest
        arr = None
    if arr is None or arr.dtype.kind not in "iufc":
        raise InputError(f"{what} must be an array of numbers")
    arr = arr.astype(np.complex128, copy=False)
    if not np.isfinite(arr).all():
        raise InputError(f"{what} must be finite")
    return arr


def _square(value, what: str) -> np.ndarray:
    """:func:`_array` of a d x d matrix, d >= 1."""
    mat = _array(value, what)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise InputError(f"{what} must be square, got shape {mat.shape}")
    return mat


def _same_dim(n: int, dim: int, what: str) -> None:
    """:class:`DimensionMismatch` unless ``what``, of dimension ``n``, has ``dim``."""
    if n != dim:
        raise DimensionMismatch(f"{what} has dimension {n}, expected {dim}")


def _vector(value, what: str, dim: int) -> np.ndarray:
    """:func:`_array` flattened to a vector of ``dim`` entries (else
    :class:`DimensionMismatch`)."""
    vec = _array(value, what).reshape(-1)
    _same_dim(vec.size, dim, what)
    return vec
