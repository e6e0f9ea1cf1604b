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

An optional additive ``forcing`` sequence folds affine terms into F; it
does not change the Lipschitz bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    CausalityRequired,
    DimensionMismatch,
    IndeterminateStability,
    InputError,
    NoConvergence,
    NotCausalRegime,
    NotContractive,
)
from .operators import GAP_TOL, BoundedOperator, circle_sup_resolvent, operator_norm, spectral_radius
from .resolvent import ResolventPlan, apply_resolvent_causal
from .sequences import (
    Weight,
    WindowedSequence,
    impulse,
    shift,
    support_subset_geq,
    truncate,
    weighted_norm,
    zero_sequence,
)

FP_TOL = 1e-10
MAX_ITER = 10000

IVP_METHODS = ("recursion", "variation_of_constants", "impulse")


def _csat(z: np.ndarray) -> np.ndarray:
    # Componentwise bounded-slope smooth saturation of a complex array,
    # acting separately on real and imaginary parts.
    return np.tanh(z.real) + 1j * np.tanh(z.imag)


def _roll_components(a: np.ndarray) -> np.ndarray:
    return np.roll(a, -1, axis=1) if a.shape[1] > 1 else a


#: Pointwise vector fields usable inside the implicit Euler stencil,
#: as name -> (callable, Lipschitz constant).
FIELD_TABLE = {
    "linear_decay": (lambda v: -v, 1.0),
    "saturating_decay": (lambda v: -_csat(v), 1.0),
}


def _kernel_zero(args, params):
    return np.zeros_like(args[0])


def _kernel_linear(args, params):
    mat = params["matrix"]
    if args[0].shape[1] != mat.shape[0]:
        raise DimensionMismatch(
            f"linear kernel matrix is {mat.shape[0]}x{mat.shape[1]} but sequences "
            f"have dimension {args[0].shape[1]}"
        )
    return args[0] @ mat.T


def _kernel_saturation(args, params):
    return params["eps"] * _csat(_roll_components(args[0]))


def _kernel_polynomial(args, params):
    coeffs = params["coeffs"]
    radius = params["clip_radius"]
    a = args[0]
    mag = np.abs(a)
    clipped = a * np.minimum(1.0, radius / np.maximum(mag, 1e-300))
    out = np.zeros_like(a)
    for c in reversed(coeffs):  # Horner for c_1 s + ... + c_K s^K
        out = clipped * (out + c)
    return out


def _kernel_implicit_euler(args, params):
    fn, _ = FIELD_TABLE[params["field"]]
    return args[0] + params["h"] * fn(args[1])


_KERNELS = {
    # name: (fn, lookahead)
    "zero": (_kernel_zero, 0),
    "linear": (_kernel_linear, 0),
    "scaled_bounded_saturation": (_kernel_saturation, 0),
    "polynomial_clipped": (_kernel_polynomial, 0),
    "implicit_euler": (_kernel_implicit_euler, 1),
}


@dataclass(eq=False)
class StencilMap:
    """Finite-stencil nonlinearity from the closed kernel registry."""

    kernel: str
    params: dict = field(default_factory=dict)
    forcing: WindowedSequence | None = None

    def __post_init__(self):
        if self.kernel not in _KERNELS:
            raise InputError(f"unknown kernel {self.kernel!r}; known: {sorted(_KERNELS)}")
        p = dict(self.params)
        if self.kernel == "linear":
            if "matrix" not in p:
                raise InputError("linear kernel needs a 'matrix' parameter")
            mat = np.asarray(p["matrix"], dtype=np.complex128)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise InputError("linear kernel matrix must be square")
            p["matrix"] = mat
        elif self.kernel == "scaled_bounded_saturation":
            eps = float(p.get("eps", 0.0))
            if not (math.isfinite(eps) and eps > 0):
                raise InputError("saturation kernel needs eps > 0")
            p["eps"] = eps
        elif self.kernel == "polynomial_clipped":
            coeffs = [complex(c) for c in p.get("coeffs", [])]
            radius = float(p.get("clip_radius", 0.0))
            if not coeffs:
                raise InputError("polynomial kernel needs nonempty 'coeffs' (powers from 1)")
            if not (math.isfinite(radius) and radius > 0):
                raise InputError("polynomial kernel needs clip_radius > 0")
            p["coeffs"] = coeffs
            p["clip_radius"] = radius
        elif self.kernel == "implicit_euler":
            h = float(p.get("h", 0.0))
            if not (math.isfinite(h) and h > 0):
                raise InputError("implicit Euler kernel needs step h > 0")
            if p.get("field") not in FIELD_TABLE:
                raise InputError(
                    f"implicit Euler field must be one of {sorted(FIELD_TABLE)}"
                )
            p["h"] = h
        self.params = p

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

    def pointwise_lipschitz(self) -> dict[int, float]:
        """Pointwise Lipschitz constant per stencil offset."""
        if self.kernel == "zero":
            return {}
        if self.kernel == "linear":
            return {0: operator_norm(self.params["matrix"])}
        if self.kernel == "scaled_bounded_saturation":
            return {0: self.params["eps"]}
        if self.kernel == "polynomial_clipped":
            radius = self.params["clip_radius"]
            bound = sum(
                (k + 1) * abs(c) * radius**k for k, c in enumerate(self.params["coeffs"])
            )
            return {0: bound}
        h = self.params["h"]
        l_field = FIELD_TABLE[self.params["field"]][1]
        return {0: 1.0, 1: h * l_field}

    def lip_bound(self, rho: float) -> float:
        """Declared Lipschitz bound on ell_{2,rho}: sum_j L_j rho^j."""
        return sum(l * rho**j for j, l in self.pointwise_lipschitz().items())

    def apply(self, u: WindowedSequence) -> WindowedSequence:
        """Evaluate F(u) on its exact output window."""
        fn, r = _KERNELS[self.kernel]
        out_lo = u.lo - r
        args = {j: u.dense(out_lo + j, u.hi + j) for j in range(r + 1)}
        out = WindowedSequence(out_lo, fn(args, self.params))
        if self.forcing is not None:
            out = out + self.forcing
        return out


def _causal_row(F: StencilMap, n: int, row: np.ndarray) -> np.ndarray:
    """Entry F(u)_n of a causal stencil, which reads only ``u_n = row``."""
    val = _KERNELS[F.kernel][0]({0: row.reshape(1, -1)}, F.params)[0]
    if F.forcing is not None:
        val = val + F.forcing.at(n)
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
    """Outcome of a contraction iteration."""

    solution: WindowedSequence
    iterations: int
    final_residual: float
    contraction_estimate: float
    converged: bool


def check_iteration_limits(fp_tol: float, max_iter: int) -> None:
    """Raise :class:`InputError` unless ``fp_tol`` is positive and finite
    and ``max_iter >= 1``."""
    if not (math.isfinite(fp_tol) and fp_tol > 0):
        raise InputError(f"fp_tol must be positive and finite, got {fp_tol!r}")
    if max_iter < 1:
        raise InputError(f"max_iter must be at least 1, got {max_iter!r}")


def fixed_point(
    step: Callable[[WindowedSequence], WindowedSequence],
    u0: WindowedSequence,
    w: Weight,
    fp_tol: float,
    max_iter: int,
) -> SolveReport:
    """Banach iteration ``u <- step(u)`` from ``u0``.

    Stops once consecutive iterates differ by at most ``fp_tol`` in the norm
    of ``w``.  The contraction estimate is the largest ratio of consecutive
    increments, counting only increments above the roundoff floor
    ``max(10 fp_tol, 1e-13 (1 + |u|_w))``.  Raises :class:`NoConvergence`
    carrying the report when ``max_iter`` steps do not reach ``fp_tol``.
    """
    check_iteration_limits(fp_tol, max_iter)
    u = u0
    deltas: list[float] = []
    for _ in range(max_iter):
        v = step(u)
        deltas.append(weighted_norm(v - u, w))
        u = v
        if deltas[-1] <= fp_tol:
            break
    floor = max(10.0 * fp_tol, 1e-13 * (1.0 + weighted_norm(u, w)))
    ratios = [b / a for a, b in zip(deltas, deltas[1:]) if a > floor]
    converged = deltas[-1] <= fp_tol
    report = SolveReport(u, len(deltas), deltas[-1], max(ratios, default=0.0), converged)
    if not converged:
        raise NoConvergence(f"no convergence within {max_iter} iterations", report)
    return report


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
    stays within 0.05 of ``lip_bound / rho``.
    """
    if w.p != 2.0:
        raise InputError("the contraction solver iterates in an ell_{2,rho} norm")
    lip = F.lip_bound(w.rho)
    if lip >= w.rho:
        raise NotContractive(
            f"declared Lipschitz bound {lip:.6g} is not below rho = {w.rho}"
        )
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        raise InputError("solve window is empty")
    if dim is None:
        dim = _infer_dim(F)
    return fixed_point(
        lambda u: truncate(shift(F.apply(u), -1), lo, hi), zero_sequence(dim), w, fp_tol, max_iter
    )


def _infer_dim(F: StencilMap) -> int:
    if F.forcing is not None:
        return F.forcing.dim
    if F.kernel == "linear":
        return F.params["matrix"].shape[0]
    raise InputError(
        "cannot infer state dimension: pass dim= or attach forcing to the stencil"
    )


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
    horizon = int(horizon)
    if horizon < 0:
        raise InputError("horizon must be nonnegative")

    if method == "recursion":
        return _ivp_recursion(A, F, x, horizon)
    if method == "variation_of_constants":
        return _ivp_variation_of_constants(A, F, x, horizon)
    return _ivp_impulse(A, F, x, horizon, rho, fp_tol, max_iter)


def _ivp_recursion(A, F, x, horizon):
    vals = np.zeros((horizon + 1, A.dim), dtype=np.complex128)
    vals[0] = x
    for n in range(horizon):
        vals[n + 1] = A.entries @ vals[n] + _causal_row(F, n, vals[n])
    return WindowedSequence(0, vals)


def _ivp_variation_of_constants(A, F, x, horizon):
    vals = np.zeros((horizon + 1, A.dim), dtype=np.complex128)
    vals[0] = x
    power_x = x.copy()  # A^n x
    conv = np.zeros(A.dim, dtype=np.complex128)  # sum_{k<n} A^{n-1-k} F(u)_k
    for n in range(horizon):
        conv = A.entries @ conv + _causal_row(F, n, vals[n])
        power_x = A.entries @ power_x
        vals[n + 1] = power_x + conv
    return WindowedSequence(0, vals)


def _ivp_impulse(A, F, x, horizon, rho, fp_tol, max_iter):
    radius = spectral_radius(A)
    if rho is None:
        rho = radius + 1.0
    if rho <= radius + GAP_TOL:
        raise NotCausalRegime(f"impulse method needs rho > r(A) = {radius}, got {rho}")
    m_rho = circle_sup_resolvent(A, rho, samples=512)
    lip = F.lip_bound(rho)
    if lip >= 1.0 / m_rho:
        raise NotContractive(
            f"impulse-method smallness fails: lip {lip:.6g} >= 1/M_rho = {1.0 / m_rho:.6g}"
        )
    plan = ResolventPlan(A, rho, "causal")
    pulse = impulse(-1, x)
    cap = horizon + plan.tail_cut
    report = fixed_point(
        lambda u: truncate(apply_resolvent_causal(plan, F.apply(u) + pulse), None, cap),
        zero_sequence(A.dim),
        Weight(rho, 2.0),
        fp_tol,
        max_iter,
    )
    return truncate(report.solution, 0, horizon)


def solve_ivp_all(A, F, x, horizon, rho=None, fp_tol=FP_TOL, max_iter=MAX_ITER):
    """All three formulations plus pairwise deviations on [0, horizon].

    Deviations are suprema of ``|diff_n| rho_c^{-n}`` with ``rho_c`` the
    comparison weight (the impulse method's rho when supplied, else 1).
    """
    sols = {
        "recursion": solve_ivp(A, F, x, horizon, "recursion"),
        "variation_of_constants": solve_ivp(A, F, x, horizon, "variation_of_constants"),
        "impulse": solve_ivp(A, F, x, horizon, "impulse", rho, fp_tol, max_iter),
    }
    rho_c = rho if rho is not None else max(1.0, spectral_radius(A) + 1.0)
    devs = {}
    names = list(sols)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            diff = sols[a] - sols[b]
            mags = np.linalg.norm(diff.values, axis=1)
            k = np.arange(diff.lo, diff.hi + 1, dtype=np.float64)
            devs[f"{a}_vs_{b}"] = float(np.max(mags * rho_c ** (-k))) if mags.size else 0.0
    return sols, devs


@dataclass
class StabilityReport:
    """Verdict of the exponential-stability classifier."""

    verdict: str
    r: float
    rho_star: float | None
    probes_consistent: bool
    probe_bound: float
    horizon: int
    probe_count: int


def stability_classify(
    A: BoundedOperator,
    horizon: int = 100,
    probe_count: int = 8,
    seed: int = 0,
) -> StabilityReport:
    """Classify ``u_{n+1} = A u_n`` as exponentially stable or not.

    The verdict is ``r(A) < 1``.  When stable, ``rho_star = (1 + r) / 2``
    and random impulse orbits are checked for membership evidence in
    ell_{2,rho*} and for the pointwise bound ``|u_n| <= M rho_star^n``;
    when unstable, orbits are checked for growth past 10x their start.
    Raises :class:`InputError` unless ``horizon`` and ``probe_count`` are
    at least 1: no probe is no evidence.
    """
    if probe_count < 1 or horizon < 1:
        raise InputError(
            f"stability needs probe_count >= 1 and horizon >= 1, "
            f"got {probe_count} and {horizon}"
        )
    r = spectral_radius(A)
    if abs(r - 1.0) <= GAP_TOL:
        raise IndeterminateStability(f"spectral radius {r} within {GAP_TOL} of 1")
    rng = np.random.default_rng(seed)
    stable = r < 1.0
    rho_star = (1.0 + r) / 2.0 if stable else None
    consistent = True
    probe_bound = 0.0
    for _ in range(probe_count):
        x = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
        x /= np.linalg.norm(x)
        if stable:
            steps = max(horizon, math.ceil(math.log(1e-3) / math.log(r / rho_star)) if r > 0 else horizon)
            steps = min(steps, 100000)
            y = x.copy()
            weighted = [1.0]
            for n in range(1, steps + 1):
                y = A.entries @ y
                weighted.append(float(np.linalg.norm(y)) * rho_star ** (-n))
            arr = np.array(weighted)
            probe_bound = max(probe_bound, float(np.max(arr)))
            sq = arr * arr
            tail_ok = float(np.sum(sq[len(sq) // 2 :])) <= 1e-3 * float(np.sum(sq)) + 1e-300
            decay_ok = arr[-1] <= 1e-2 * float(np.max(arr)) + 1e-300
            consistent = consistent and tail_ok and decay_ok
        else:
            target = 10.0
            steps = max(horizon, math.ceil(math.log(target * 1e3) / math.log(r)))
            steps = min(steps, 100000)
            y = x.copy()
            grew = False
            for _n in range(steps):
                y = A.entries @ y
                nrm = float(np.linalg.norm(y))
                if nrm >= target:
                    grew = True
                    break
            consistent = consistent and grew
    return StabilityReport(
        verdict="exponentially_stable" if stable else "not_stable",
        r=r,
        rho_star=rho_star,
        probes_consistent=bool(consistent),
        probe_bound=probe_bound,
        horizon=horizon,
        probe_count=probe_count,
    )


def lipschitz_probe(
    F: StencilMap,
    w: Weight,
    trials: int = 32,
    seed: int = 0,
    window: tuple[int, int] = (-6, 6),
    dim: int = 1,
) -> float:
    """Empirical lower bound on the Lipschitz constant of F on ell_{p,rho}.

    Maximizes ``|F(u) - F(v)| / |u - v|`` over random pairs; sanity-checks
    the declared ``lip_bound`` from below.
    """
    if trials < 1:
        raise InputError("need at least one trial")
    rng = np.random.default_rng(seed)
    lo, hi = window
    best = 0.0
    for _ in range(trials):
        shape = (hi - lo + 1, dim)
        u = WindowedSequence(lo, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        v = WindowedSequence(lo, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        denom = weighted_norm(u - v, w)
        if denom == 0.0:
            continue
        best = max(best, weighted_norm(F.apply(u) - F.apply(v), w) / denom)
    return best
