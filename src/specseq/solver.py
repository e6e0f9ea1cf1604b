"""Contraction solvers for ``tau u = F(u)`` and initial value problems.

Nonlinearities are finite stencils ``F(u)_n = g(u_{n-m}, ..., u_{n+r})``
drawn from a closed kernel registry, so each carries an analytic Lipschitz
bound (a contraction hypothesis must be checkable, not trusted):

``zero``
    F(u) = 0.
``linear``
    F(u)_n = B u_n for a fixed matrix B; bound ||B||.
``scaled_bounded_saturation``
    F(u)_n = eps * sat(roll(u_n)), a smooth, bounded, odd map with slope
    at most 1 applied to the cyclically rotated component vector (the
    rotation couples components); bound eps.
``polynomial_clipped``
    componentwise polynomial (powers >= 1) composed with the 1-Lipschitz
    radial clip to |v| <= R; bound sum_k k |c_k| R^(k-1).
``implicit_euler``
    F(u)_n = u_n + h * f(u_{n+1}) with f from a small field table; the
    lookahead makes this non-causal.  Bound 1 + h L_f rho on ell_{2,rho}.

Each kernel is one entry of ``_KERNELS``: its evaluation function, its
lookahead, a check per parameter and its bound.  ``StencilMap`` runs the
checks on construction, so the library and the JSON wire format refuse the
same values: a missing parameter, a boolean or text where a number belongs,
a non-finite number, an eps, h or clip_radius that is not positive, an
empty coefficient list or a matrix that is not square are
:class:`InputError` naming the parameter.  A bound that overflows is
``inf``, which every gate refuses.

An optional additive ``forcing`` sequence folds affine terms into F; it
does not change the Lipschitz bound.

Kernels act on rows of component vectors and write into a given output
array.  Dense inputs may carry a column axis, ``(rows, G, d)``: every column
is evaluated by the same kernel call, so many sequences share one evaluation
and one fixed-point loop.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    CausalityRequired,
    DimensionMismatch,
    IndeterminateStability,
    InputError,
    NoConvergence,
    NormOverflow,
    NotCausalRegime,
    NotContractive,
    PreconditionViolation,
)
from .operators import (
    GAP_TOL,
    BoundedOperator,
    _decide,
    _SupBracket,
    operator_norm,
    spectral_radius,
)
from .resolvent import CERT_CAP, ResolventPlan, apply_resolvent_window, decay_steps
from .sequences import (
    Weight,
    WindowedSequence,
    column_norms,
    dense_rows,
    support_subset_geq,
    weighted_norm,
)
from .workspace import Workspace

FP_TOL = 1e-10
MAX_ITER = 10000

IVP_METHODS = ("recursion", "variation_of_constants", "impulse")


def _csat(z: np.ndarray) -> np.ndarray:
    # Componentwise bounded-slope smooth saturation of a complex array,
    # acting separately on real and imaginary parts.
    return np.tanh(z.real) + 1j * np.tanh(z.imag)


#: Pointwise vector fields usable inside the implicit Euler stencil,
#: as name -> (callable, Lipschitz constant).
FIELD_TABLE = {
    "linear_decay": (lambda v: -v, 1.0),
    "saturating_decay": (lambda v: -_csat(v), 1.0),
}


def _kernel_zero(args, params, out):
    out.fill(0)
    return out


def _kernel_linear(args, params, out):
    return np.matmul(args[0], params["matrix"].T, out=out)


def _kernel_saturation(args, params, out):
    # eps * _csat(a rolled left by one component), for any leading shape: one
    # rotated copy (a take, which unlike a concatenate copies many short
    # rows as fast as one long one), and one tanh over its float64 view, the
    # (re, im) pairs side by side.  The complex sum in _csat gives
    # re + copysign(0, im) and im + 0.0 (a real -0.0 stays only where the
    # imaginary part has its sign bit set; an imaginary -0.0 becomes +0.0);
    # the two adds repeat that.  eps stays the first operand of one complex
    # product, as in eps * _csat, since a fused complex product rounds an
    # underflow to a signed zero by operand order.  The output is the same
    # bit for bit.  The take writes straight into out: mode "wrap" (the
    # indices are in range) keeps it from copying through a buffer, which
    # mode "raise" does whenever out is given.
    a = args[0].astype(np.complex128, copy=False)
    turn = np.arange(1, a.shape[-1] + 1)
    turn[-1] = 0
    a.take(turn, axis=-1, out=out, mode="wrap")
    parts = out.view(np.float64)
    np.tanh(parts, out=parts)
    re, im = parts[..., 0::2], parts[..., 1::2]
    re += np.copysign(0.0, im)
    im += 0.0
    return np.multiply(params["eps"], out, out=out)


def _kernel_polynomial(args, params, out):
    coeffs = params["coeffs"]
    radius = params["clip_radius"]
    a = args[0]
    mag = np.abs(a)
    clipped = a * np.minimum(1.0, radius / np.maximum(mag, 1e-300))
    # Horner for c_1 s + ... + c_K s^K in place, clipped the first operand of
    # every product, so an entry rounds alike whatever the size of the call:
    # in the expression clipped * (acc + c) numpy reuses the temporary
    # acc + c from 256 KiB on, which swaps the operands of the fused complex
    # product
    out.fill(0)
    for c in reversed(coeffs):
        np.add(out, c, out=out)
        np.multiply(clipped, out, out=out)
    return out


def _kernel_implicit_euler(args, params, out):
    fn, _ = FIELD_TABLE[params["field"]]
    return np.add(args[0], params["h"] * fn(args[1]), out=out)


def _number(value, what: str, kind: type = float):
    """``value`` as a finite ``kind``, float or complex; a boolean, text,
    other non-number or non-finite value is :class:`InputError` naming
    ``what``."""
    try:
        x = None if isinstance(value, (bool, np.bool_, str, bytes)) else kind(value)
    except (TypeError, ValueError, OverflowError):
        x = None
    if x is None:
        raise InputError(f"{what} must be a number, got {value!r}")
    if not cmath.isfinite(x):
        raise InputError(f"{what} must be finite, got {value!r}")
    return x


def _positive(value, what: str) -> float:
    x = _number(value, what)
    if not x > 0:
        raise InputError(f"{what} must be positive, got {x!r}")
    return x


def _integer(value, what: str) -> int:
    """``value`` as an int: an integer, or an integral float such as
    ``50.0``; booleans, fractions, infinities and non-numbers are
    :class:`InputError`."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise InputError(f"{what} must be an integer, got {value!r}")


def _matrix(value, what: str) -> np.ndarray:
    try:
        mat = np.asarray(value)
    except ValueError as exc:  # a ragged nest
        raise InputError(f"{what} is malformed: {exc}") from None
    if mat.dtype.kind not in "iufc" or mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InputError(f"{what} must be a square array of numbers")
    if not np.isfinite(mat).all():
        raise InputError(f"{what} must be finite")
    return mat.astype(np.complex128, copy=False)


def _coefficients(value, what: str) -> list[complex]:
    if not isinstance(value, (list, tuple)) or not value:
        raise InputError(f"{what} must be a nonempty list (powers from 1), got {value!r}")
    return [_number(c, what, complex) for c in value]


def _field(value, what: str) -> str:
    if not isinstance(value, str) or value not in FIELD_TABLE:
        raise InputError(f"{what} must be one of {sorted(FIELD_TABLE)}, got {value!r}")
    return value


def _polynomial_bound(p, rho):
    # sum_k k |c_k| R^(k-1) over the coefficients c_k of s^k: a zero
    # coefficient adds 0, and a power that overflows makes the bound inf
    radius = p["clip_radius"]
    try:
        return sum(((k + 1) * abs(c) * radius**k for k, c in enumerate(p["coeffs"]) if c), 0.0)
    except OverflowError:
        return math.inf


_KERNELS = {
    # name: (fn, lookahead, {parameter: check (value, what) -> value kept},
    #        Lipschitz bound (params, rho) -> sum_j L_j rho^j on ell_{2,rho})
    "zero": (_kernel_zero, 0, {}, lambda p, rho: 0.0),
    "linear": (_kernel_linear, 0, {"matrix": _matrix}, lambda p, rho: operator_norm(p["matrix"])),
    "scaled_bounded_saturation": (_kernel_saturation, 0, {"eps": _positive}, lambda p, rho: p["eps"]),
    "polynomial_clipped": (
        _kernel_polynomial, 0, {"coeffs": _coefficients, "clip_radius": _positive}, _polynomial_bound
    ),
    # offset 0 of the implicit Euler step has L_0 = 1, offset 1 has h L_f
    "implicit_euler": (
        _kernel_implicit_euler, 1, {"h": _positive, "field": _field},
        lambda p, rho: 1.0 + p["h"] * FIELD_TABLE[p["field"]][1] * rho,
    ),
}


@dataclass(eq=False)
class StencilMap:
    """Finite-stencil nonlinearity from the closed kernel registry.  A
    missing, non-numeric (booleans and text included), non-finite or
    out-of-range parameter is :class:`InputError` naming it."""

    kernel: str
    params: dict = field(default_factory=dict)
    forcing: WindowedSequence | None = None

    def __post_init__(self):
        if not isinstance(self.kernel, str) or self.kernel not in _KERNELS:
            raise InputError(f"unknown kernel {self.kernel!r}; known: {sorted(_KERNELS)}")
        if not isinstance(self.params, dict):
            raise InputError(f"stencil params must be a mapping, got {self.params!r}")
        p = dict(self.params)
        for name, check in _KERNELS[self.kernel][2].items():
            if name not in p:
                raise InputError(f"stencil {name} is missing: kernel {self.kernel!r} needs it")
            p[name] = check(p[name], f"stencil {name}")
        self.params = p
        if self.forcing is not None:
            self.check_dim(self.forcing.dim, "its forcing")

    @property
    def dim(self) -> int | None:
        """The state dimension the stencil fixes: that of its matrix or of its
        forcing, None when it has neither."""
        if self.kernel == "linear":
            return self.params["matrix"].shape[0]
        return None if self.forcing is None else self.forcing.dim

    def check_dim(self, dim: int, of: str = "the state") -> None:
        """Raise :class:`DimensionMismatch` unless the stencil can act on
        sequences of dimension ``dim``, that of ``of``."""
        if self.dim is not None and self.dim != dim:
            raise DimensionMismatch(
                f"stencil {self.kernel!r} acts on dimension {self.dim}, {of} has dimension {dim}"
            )

    @property
    def lookahead(self) -> int:
        return _KERNELS[self.kernel][1]

    @property
    def causal(self) -> bool:
        return self.lookahead == 0

    @property
    def fixes_zero(self) -> bool:
        """True when F(0) = 0; every registry kernel sends 0 to 0, so this
        only fails in the presence of forcing."""
        return self.forcing is None or self.forcing.is_zero

    def lip_bound(self, rho: float) -> float:
        """Declared Lipschitz bound on ell_{2,rho}: ``sum_j L_j rho^j`` over the
        pointwise Lipschitz constants ``L_j`` of the stencil offsets ``j``;
        ``inf`` where it overflows."""
        return _KERNELS[self.kernel][3](self.params, rho)

    def apply(self, u: WindowedSequence) -> WindowedSequence:
        """Evaluate F(u) on its exact output window."""
        self.check_dim(u.dim)
        lo, hi = u.lo - self.lookahead, u.hi
        if self.forcing is not None:
            lo, hi = min(lo, self.forcing.lo), max(hi, self.forcing.hi)
        return WindowedSequence(lo, self.apply_rows(u.values, u.lo, lo, hi))

    def apply_rows(
        self, vals: np.ndarray, lo: int, out_lo: int, out_hi: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Rows ``[out_lo, out_hi]`` of F(u) for ``u`` given by the rows ``vals``
        from index ``lo`` (zero elsewhere).

        ``vals`` is ``(width, d)`` or ``(width, G, d)``; the forcing is added
        to every column.  The rows are written into ``out``, a C-contiguous
        complex array of their shape (a new one when None).
        """
        fn, r, _, _ = _KERNELS[self.kernel]
        args = [dense_rows(vals, lo, out_lo + j, out_hi + j) for j in range(r + 1)]
        shape = args[0].shape
        if out is None:
            out = np.empty(shape, dtype=np.complex128)
        fn([a.reshape(-1, shape[-1]) for a in args], self.params, out.reshape(-1, shape[-1]))
        if self.forcing is not None:
            forcing = dense_rows(self.forcing.values, self.forcing.lo, out_lo, out_hi)
            out += forcing.reshape((len(out),) + (1,) * (out.ndim - 2) + forcing.shape[1:])
        return out


def _causal_row(F: StencilMap, n: int, row: np.ndarray) -> np.ndarray:
    """Entry F(u)_n of a causal stencil, which reads only ``u_n = row``
    (a vector, or a ``(G, d)`` stack of them): one kernel call on the row."""
    val = _KERNELS[F.kernel][0]([row], F.params, np.empty(row.shape, dtype=np.complex128))
    if F.forcing is not None:
        val += F.forcing.at(n)
    return val


def zero_map(forcing: WindowedSequence | None = None) -> StencilMap:
    return StencilMap("zero", {}, forcing)


def linear_map(matrix, forcing: WindowedSequence | None = None) -> StencilMap:
    return StencilMap("linear", {"matrix": matrix}, forcing)


def saturation_map(eps: float, forcing: WindowedSequence | None = None) -> StencilMap:
    return StencilMap("scaled_bounded_saturation", {"eps": eps}, forcing)


def polynomial_map(coeffs, clip_radius: float, forcing=None) -> StencilMap:
    return StencilMap(
        "polynomial_clipped", {"coeffs": list(coeffs), "clip_radius": clip_radius}, forcing
    )


def implicit_euler_map(h: float, field_name: str, forcing=None) -> StencilMap:
    return StencilMap("implicit_euler", {"h": h, "field": field_name}, forcing)


@dataclass
class SolveReport:
    """Outcome of a converged contraction iteration."""

    solution: WindowedSequence
    iterations: int
    final_residual: float
    contraction_estimate: float


@dataclass
class StackedReport:
    """Outcome of a column-stacked Banach iteration, one entry per column.

    ``solution`` has the shape of the start, ``(rows, G, d)``; ``errors``
    holds ``None`` for a converged column and otherwise the typed error
    that stopped it: :class:`NoConvergence`, or :class:`InputError` for a
    non-finite iterate and :class:`NormOverflow` for an increment whose norm
    overflows.
    """

    solution: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    contraction_estimate: np.ndarray
    errors: list


def check_iteration_limits(fp_tol: float, max_iter: int) -> tuple[float, int]:
    """``(fp_tol, max_iter)`` as a float and an int; :class:`InputError`
    unless ``fp_tol`` is a positive finite number and ``max_iter`` an
    integer (or an integral float such as ``50.0``) of at least 1."""
    fp_tol, max_iter = _positive(fp_tol, "fp_tol"), _integer(max_iter, "max_iter")
    if max_iter < 1:
        raise InputError(f"max_iter must be at least 1, got {max_iter!r}")
    return fp_tol, max_iter


def fixed_point(
    step: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    u0: np.ndarray,
    lo: int,
    w: Weight,
    fp_tol: float,
    max_iter: int,
    ws: Workspace | None = None,
) -> StackedReport:
    """Banach iteration ``u <- step(u)`` from ``u0``, column by column.

    ``u0`` holds the rows ``lo, lo + 1, ...`` of G sequences side by side,
    ``(rows, G, d)``.  ``step(u, cols, out)`` writes the images of the
    iterates of the columns ``cols`` (``u`` is ``(rows, len(cols), d)``)
    into ``out``, of the same shape, and returns it.  A column stops, and is
    no longer stepped, once consecutive iterates differ by at most
    ``fp_tol`` in the norm of ``w``, or when an iterate is not finite.
    Its contraction estimate is the largest ratio of consecutive increments,
    counting only increments above the roundoff floor
    ``max(10 fp_tol, 1e-13 (1 + |u|_w))``.  A column that does not reach
    ``fp_tol`` within ``max_iter`` steps records :class:`NoConvergence`.

    The iterates of the stepped columns alternate between two arrays lent by
    ``ws`` (a fresh :class:`Workspace` when None), which the step may also
    take its scratch arrays from.  ``u0`` is never written, and the returned
    solution is never lent again: it is the iterate at which the first
    column stopped (or the last one), with each later-stopping column's last
    iterate written into it.
    """
    fp_tol, max_iter = check_iteration_limits(fp_tol, max_iter)
    ws = Workspace() if ws is None else ws
    u0 = np.asarray(u0, dtype=np.complex128)
    cols = u0.shape[1]
    deltas: list[list[float]] = [[] for _ in range(cols)]
    errors: list = [None] * cols
    for c in np.flatnonzero(~np.isfinite(u0).all(axis=(0, 2))):
        errors[c] = InputError("sequence contains non-finite entries")
    active = np.flatnonzero([e is None for e in errors])
    solution = None if active.size == cols else u0.copy()
    u = ws.take((len(u0), active.size) + u0.shape[2:])
    np.take(u0, active, axis=1, out=u, mode="wrap")
    del u0  # held only as u, so it is freed once copied
    for _ in range(max_iter):
        if not active.size:
            break
        v = step(u, active, ws.take(u.shape))
        with np.errstate(invalid="ignore", over="ignore"):
            delta = column_norms(v, lo, w, minus=u, ws=ws)
        ws.give(u)
        u = v
        for c, dc in zip(active, delta):
            deltas[c].append(float(dc))
        finite = np.isfinite(delta)
        for j in np.flatnonzero(~finite):
            errors[active[j]] = (
                NormOverflow(f"ell_({w.p},{w.rho}) norm overflowed on window [{lo}, {lo + len(u) - 1}]")
                if np.isfinite(u[:, j]).all()
                else InputError("sequence contains non-finite entries")
            )
        keep = finite & (delta > fp_tol)
        if keep.all():
            continue
        if solution is None:  # every column so far: u is the whole state
            solution = u
        else:
            for j in np.flatnonzero(~keep):
                solution[:, active[j]] = u[:, j]
        active = active[keep]
        if active.size:  # the narrower steps that follow get buffers of their size
            ws.clear()
        kept = ws.take((len(u), active.size) + u.shape[2:])
        np.take(u, np.flatnonzero(keep), axis=1, out=kept, mode="wrap")
        if u is not solution:
            ws.give(u)
        u = kept
    if solution is None:
        solution = u
    else:
        solution[:, active] = u
        ws.give(u)
    for c in active:
        errors[c] = NoConvergence(f"no convergence within {max_iter} iterations")
    floors = np.maximum(10.0 * fp_tol, 1e-13 * (1.0 + column_norms(solution, lo, w, ws=ws)))
    estimates = [
        max([b / a for a, b in zip(d, d[1:]) if a > floor], default=0.0)
        for d, floor in zip(deltas, floors)
    ]
    return StackedReport(
        solution,
        np.array([len(d) for d in deltas]),
        np.array([d[-1] if d else math.nan for d in deltas]),
        np.array(estimates),
        errors,
    )


def _one_column(stack: StackedReport, lo: int) -> SolveReport:
    # The report of a one-column iteration, or the column's error raised.
    if stack.errors[0] is not None:
        raise stack.errors[0]
    return SolveReport(
        WindowedSequence(lo, stack.solution[:, 0]),
        int(stack.iterations[0]),
        float(stack.residual[0]),
        float(stack.contraction_estimate[0]),
    )


def solve_contraction(
    F: StencilMap,
    w: Weight,
    window: tuple[int, int],
    fp_tol: float = FP_TOL,
    max_iter: int = MAX_ITER,
    dim: int | None = None,
) -> SolveReport:
    """Unique solution of ``tau u = F(u)`` on ell_{2,rho} by Banach iteration.

    Requires the declared bound ``|F|_Lip < rho``; iterates
    ``u <- truncate(tau^{-1} F(u))`` from u = 0 and stops when consecutive
    iterates differ by at most ``fp_tol`` in the solve norm.  The reported
    contraction estimate is the largest measured increment ratio, which
    stays within 0.05 of ``lip_bound / rho``.  The state dimension is
    ``dim``, or ``F.dim`` when None (:class:`InputError` when neither gives
    one or it is below 1, :class:`DimensionMismatch` when they disagree).
    """
    if w.p != 2.0:
        raise InputError("the contraction solver iterates in an ell_{2,rho} norm")
    lip = F.lip_bound(w.rho)
    if not lip < w.rho:
        raise NotContractive(
            f"declared Lipschitz bound {lip:.6g} is not below rho = {w.rho}"
        )
    lo, hi = _integer(window[0], "window lo"), _integer(window[1], "window hi")
    if hi < lo:
        raise InputError("solve window is empty")
    dim = F.dim if dim is None else dim
    if dim is None:
        raise InputError(
            "cannot infer state dimension: pass dim= or attach forcing to the stencil"
        )
    if dim < 1:
        raise InputError(f"state dimension must be at least 1, got {dim}")
    F.check_dim(dim)
    # rows [lo, hi] of tau^{-1} F(u) are the rows [lo - 1, hi - 1] of F(u)
    stack = fixed_point(
        lambda u, cols, out: F.apply_rows(u, lo, lo - 1, hi - 1, out),
        np.zeros((hi - lo + 1, 1, dim), dtype=np.complex128),
        lo,
        w,
        fp_tol,
        max_iter,
    )
    return _one_column(stack, lo)


def solve_ivp(
    A: BoundedOperator,
    F: StencilMap,
    x,
    horizon: int,
    method: str = "recursion",
    rho: float | None = None,
    fp_tol: float = FP_TOL,
    max_iter: int = MAX_ITER,
) -> WindowedSequence:
    """Solve ``u_{n+1} = A u_n + F(u)_n`` with ``u_0 = x`` on [0, horizon].

    Three equivalent formulations are implemented:

    * ``recursion``: direct forward recurrence;
    * ``variation_of_constants``: ``u_n = A^n x + sum_{k<n} A^{n-1-k} F(u)_k``
      with a self-consistent forward fill (causality makes this explicit);
    * ``impulse``: fixed point of ``u -> (tau - A)^{-1} (F(u) + delta_{-1} x)``
      on ell_{2,rho} with rho > r(A), which additionally requires the
      smallness condition ``|F|_Lip < 1 / M_rho``.
    """
    if not F.causal:
        raise CausalityRequired(f"kernel {F.kernel!r} has lookahead {F.lookahead}")
    if F.forcing is not None and not support_subset_geq(F.forcing, 0):
        raise InputError("initial value problems need forcing supported in Z_{>=0}")
    if method not in IVP_METHODS:
        raise InputError(f"method must be one of {IVP_METHODS}, got {method!r}")
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.size != A.dim:
        raise DimensionMismatch(f"initial value has dimension {x.size}, operator {A.dim}")
    F.check_dim(A.dim)
    horizon = _integer(horizon, "horizon")
    if horizon < 0:
        raise InputError("horizon must be nonnegative")

    if method == "recursion":
        return WindowedSequence(0, forward_orbit(A, F, x, horizon))
    if method == "variation_of_constants":
        return _ivp_variation_of_constants(A, F, x, horizon)
    return _ivp_impulse(A, F, x, horizon, rho, fp_tol, max_iter)


def forward_orbit(A: BoundedOperator, F: StencilMap, x: np.ndarray, horizon: int) -> np.ndarray:
    """Rows ``u_0 .. u_horizon`` of ``u_{n+1} = A u_n + F(u)_n`` from ``u_0 = x``.

    ``F`` must be causal.  ``x`` is a vector, or a ``(G, d)`` stack of
    initial values run side by side.
    """
    vals = np.zeros((horizon + 1,) + x.shape, dtype=np.complex128)
    vals[0] = x
    at = A.entries.T  # v @ A.T is A v for every row of v
    for n in range(horizon):
        row = vals[n + 1]  # each product lands in its row
        np.matmul(vals[n], at, out=row)
        row += _causal_row(F, n, vals[n])
    return vals


def _ivp_variation_of_constants(A, F, x, horizon):
    a = A.entries
    vals = np.zeros((horizon + 1, A.dim), dtype=np.complex128)
    vals[0] = x
    power_x = vals.copy()  # rows A^n x
    conv = np.zeros_like(vals)  # rows sum_{k<n} A^{n-1-k} F(u)_k
    for n in range(horizon):
        np.matmul(a, conv[n], out=conv[n + 1])
        conv[n + 1] += _causal_row(F, n, vals[n])
        np.matmul(a, power_x[n], out=power_x[n + 1])
        np.add(power_x[n + 1], conv[n + 1], out=vals[n + 1])
    return WindowedSequence(0, vals)


def impulse_image(
    plan: ResolventPlan,
    F: StencilMap,
    xis: np.ndarray,
    u: np.ndarray,
    hi: int,
    out: np.ndarray | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Rows ``[0, hi]`` of ``(tau - A)^{-1} (F(u) + delta_{-1} xi)`` for the
    columns of ``u``, ``(hi + 1, G, d)``, and ``xis``, ``(G, d)``: the impulse
    method's map in a causal plan, the Lyapunov-Perron map in a split one.

    The rows go into ``out`` (a new array when None); the data ``xi, F(u)``
    and the rows of each resolvent branch go into arrays lent by ``ws`` (a
    fresh :class:`Workspace` when None)."""
    ws = Workspace() if ws is None else ws
    f = ws.take((hi + 2,) + u.shape[1:])
    f[0] = xis
    F.apply_rows(u, 0, 0, hi, out=f[1:])
    out = apply_resolvent_window(plan, f, -1, 0, hi, out, ws)
    ws.give(f)
    return out


def impulse_fixed_point(
    plan: ResolventPlan,
    F: StencilMap,
    xis: np.ndarray,
    hi: int,
    fp_tol: float,
    max_iter: int,
    ws: Workspace | None = None,
) -> StackedReport:
    """Fixed points of :func:`impulse_image`, one column per row of ``xis``.

    Iterates in ell_{2,rho} at the plan's rho from the image of ``F = 0``,
    exact when ``F = 0``: ``A^n xi`` in a causal plan, ``(PAP)^n xi`` in a
    split one, which unlike ``A^n`` does not amplify the roundoff part of
    ``xi`` in range(Q) on long horizons.  Every step runs in arrays lent by
    ``ws`` (a fresh :class:`Workspace` when None).
    """
    ws = Workspace() if ws is None else ws
    return fixed_point(
        lambda u, cols, out: impulse_image(plan, F, xis[cols], u, hi, out, ws),
        apply_resolvent_window(plan, xis[None], -1, 0, hi, ws=ws),
        0,
        Weight(plan.rho, 2.0),
        fp_tol,
        max_iter,
        ws,
    )


def smallness_gate(
    A: BoundedOperator, F: StencilMap, rho: float, error, sup: _SupBracket | None = None
) -> float:
    """``F``'s Lipschitz bound ``lip`` on ell_{2,rho}; raises ``error`` unless
    ``lip < 1/M_rho``, for the certified ``M_rho = sup_{|z| = rho} ||(z - A)^{-1}||``.

    The answer is read from a bracket on ``M_rho`` (see
    :func:`~specseq.operators.circle_sup_resolvent`), refined only until it
    proves ``lip < 1/M_rho`` or ``lip >= 1/M_rho``; where it proves
    neither, the full supremum decides.  A failed gate names the interval
    its bracket holds ``1/M_rho`` in.  ``sup`` is a bracket the caller
    keeps for the value (``ManifoldProblem``'s ``M_1``), by default a
    fresh one.
    """
    lip = F.lip_bound(rho)
    sup = _SupBracket(A, rho) if sup is None else sup
    if not _decide(lambda m: lip < 1.0 / m, sup):
        raise error(
            f"lip bound {lip:.6g} on ell_(2,rho) is not below 1/M_{rho:g}, which lies in "
            f"[{1.0 / sup.high:.6g}, {1.0 / sup.low:.6g}] at rho = {rho!r}"
        )
    return lip


def _ivp_impulse(A, F, x, horizon, rho, fp_tol, max_iter):
    radius = spectral_radius(A)
    if rho is None:
        rho = radius + 1.0
    if rho <= radius + GAP_TOL:
        raise NotCausalRegime(f"impulse method needs rho > r(A) = {radius}, got {rho}")
    smallness_gate(A, F, rho, NotContractive)
    plan = ResolventPlan(A, rho, "causal")
    # row n of the impulse map reads rows before n only, so [0, horizon] is exact
    stack = impulse_fixed_point(plan, F, x[None], horizon, fp_tol, max_iter)
    return _one_column(stack, 0).solution


def solve_ivp_all(A, F, x, horizon, rho=None, fp_tol=FP_TOL, max_iter=MAX_ITER):
    """All three formulations plus pairwise deviations on [0, horizon].

    Deviations are ell_{inf,rho_c} norms, suprema of ``|diff_n| rho_c^{-n}``,
    with ``rho_c`` the impulse method's rho (by default ``r(A) + 1``).
    """
    sols = {
        "recursion": solve_ivp(A, F, x, horizon, "recursion"),
        "variation_of_constants": solve_ivp(A, F, x, horizon, "variation_of_constants"),
        "impulse": solve_ivp(A, F, x, horizon, "impulse", rho, fp_tol, max_iter),
    }
    w = Weight(rho if rho is not None else spectral_radius(A) + 1.0, math.inf)
    names = list(sols)
    devs = {
        f"{a}_vs_{b}": weighted_norm(sols[a] - sols[b], w)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }
    return sols, devs


@dataclass
class StabilityReport:
    """Verdict of the exponential-stability classifier.

    ``probes_consistent`` is True exactly when the verdict carries a
    certificate: for ``not_stable`` the eigenvalue of largest modulus, for
    ``exponentially_stable`` the envelope ``||A^n|| <= probe_bound *
    rho_star^n`` for every ``n >= 0``.  ``probe_bound`` is 0.0 without one.
    """

    verdict: str
    r: float
    rho_star: float | None
    probes_consistent: bool
    probe_bound: float


def stability_classify(A: BoundedOperator) -> StabilityReport:
    """Classify ``u_{n+1} = A u_n`` as exponentially stable or not.

    The verdict is ``r(A) < 1``.  When stable, ``rho_star = (1 + r) / 2``
    and the power search finds the first ``K`` with ``||A^K|| <= rho_star^K
    / 2`` and a bound ``M >= ||A^n|| rho_star^{-n}`` for ``n < K``; writing
    ``n = qK + j`` gives ``||A^n|| <= M 2^{-q} rho_star^n`` for every ``n``.
    A search the spectral radius alone puts past ``CERT_CAP`` steps is not
    run, and then, as when the search itself passes the cap, the spectral
    verdict stands without a certificate.
    """
    r = spectral_radius(A)
    if abs(r - 1.0) <= GAP_TOL:
        raise IndeterminateStability(f"spectral radius {r} within {GAP_TOL} of 1")
    if r > 1.0:
        return StabilityReport("not_stable", r, None, True, 0.0)
    rho_star = (1.0 + r) / 2.0
    try:
        _, bound = decay_steps(A.entries, r, 1.0 / rho_star, 0.5, CERT_CAP, "stability certificate")
    except PreconditionViolation:
        return StabilityReport("exponentially_stable", r, rho_star, False, 0.0)
    return StabilityReport("exponentially_stable", r, rho_star, True, bound)
