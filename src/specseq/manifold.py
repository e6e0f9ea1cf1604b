"""Stable manifolds of ``tau u = A u + F(u)`` at the fixed point 0.

For hyperbolic ``A`` (no spectrum on the unit circle) and a causal
nonlinearity with ``F(0) = 0`` that is small in two Lipschitz senses
(below ``1/M_1`` on ell_2 and below ``1/M_rho`` on ell_{2,rho} with
``rho > r(A)``), the orbit through a stable-range vector ``xi`` is the
fixed point ``T(xi)`` of the cut-off map

    u  |->  chi_{Z >= 0} (tau - A)^{-1} (F(u) + delta_{-1} xi),

a contraction with factor ``M_1 * |F|_Lip``.  The stable manifold is the
graph of ``w_s(xi) = Q T(xi)_0`` over range(P); points off the graph
escape along the unstable range.

Infinite sums are truncated at certified lengths; ell_2 membership is
reported as tail-decay evidence, never as exact membership (a finite
window cannot certify an infinite sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AdmissibilityError,
    InputError,
    InternalInconsistency,
    PreconditionViolation,
    RangeViolation,
)
from .operators import (
    GAP_TOL,
    BoundedOperator,
    SpectralSplit,
    circle_sup_resolvent,
    is_hyperbolic,
    spectral_radius,
)
from .resolvent import SERIES_TOL, ResolventPlan, apply_resolvent_split, linear_recurrence
from .sequences import Weight, WindowedSequence, impulse, truncate
from .solver import StencilMap, check_iteration_limits, fixed_point, solve_ivp


@dataclass
class ManifoldProblem:
    """A stable-manifold computation instance.

    ``A`` must be hyperbolic and ``F`` causal with ``F(0) = 0``; the two
    admissibility bounds are validated at construction.  ``rho`` is the
    weight of the outer solution operator (any value above ``r(A)`` gives
    the same projections, so the default just steps past the radius).
    ``split`` is the Riesz splitting of the split-mode ``plan`` at the unit circle.
    """

    A: BoundedOperator
    F: StencilMap
    rho: float | None = None
    fp_tol: float = 1e-10
    max_iter: int = 200
    horizon: int | None = None
    split: SpectralSplit = field(init=False)

    def __post_init__(self):
        check_iteration_limits(self.fp_tol, self.max_iter)
        if self.horizon is not None and self.horizon < 0:
            raise InputError(f"horizon must be nonnegative, got {self.horizon}")
        is_hyperbolic(self.A)
        if not self.F.causal:
            raise AdmissibilityError(f"kernel {self.F.kernel!r} is not causal")
        if not self.F.fixes_zero:
            raise AdmissibilityError("the manifold nonlinearity must satisfy F(0) = 0")
        self.plan = ResolventPlan(self.A, 1.0, "split")
        self.split = self.plan.split
        radius = spectral_radius(self.A)
        if self.rho is None:
            self.rho = radius + 0.5
        if self.rho <= radius + GAP_TOL:
            raise AdmissibilityError(
                f"outer weight rho = {self.rho} must exceed r(A) = {radius}"
            )
        self.m_one = circle_sup_resolvent(self.A, 1.0, samples=1024)
        self.m_rho = circle_sup_resolvent(self.A, self.rho, samples=1024)
        lip_one = self.F.lip_bound(1.0)
        lip_rho = self.F.lip_bound(self.rho)
        if lip_one >= 1.0 / self.m_one:
            raise AdmissibilityError(
                f"lip bound {lip_one:.6g} on ell_2 is not below 1/M_1 = {1.0 / self.m_one:.6g}"
            )
        if lip_rho >= 1.0 / self.m_rho:
            raise AdmissibilityError(
                f"lip bound {lip_rho:.6g} on ell_(2,rho) is not below "
                f"1/M_rho = {1.0 / self.m_rho:.6g}"
            )
        self.contraction_factor = self.m_one * lip_one
        r_in = self.split.r_inside
        if self.horizon is None:
            if r_in > 0.0:
                self.horizon = 2 * math.ceil(math.log(SERIES_TOL) / math.log(r_in))
            else:
                self.horizon = 2 * self.A.dim + 4
            self.horizon = int(min(max(self.horizon, 32), 1024))

    def check_stable_range(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=np.complex128).reshape(-1)
        if xi.size != self.A.dim:
            raise InputError(f"xi has dimension {xi.size}, expected {self.A.dim}")
        defect = float(np.linalg.norm(self.split.proj_stable @ xi - xi))
        if defect > 1e-8 * (1.0 + float(np.linalg.norm(xi))):
            raise RangeViolation(f"xi is not in the stable range (defect {defect:.3e})")
        return xi


@dataclass
class ManifoldPoint:
    """Converged orbit data for one stable-range vector."""

    xi: np.ndarray
    eta: np.ndarray
    orbit: WindowedSequence
    decay_rate_estimate: float
    iterations: int
    residual: float
    contraction_estimate: float


def lp_apply(prob: ManifoldProblem, xi, u: WindowedSequence) -> WindowedSequence:
    """One application of the cut-off resolvent map at weight 1.

    Contraction in ``u`` with factor at most ``M_1 * |F|_Lip``; the cutoff
    to nonnegative indices and the horizon truncation are norm-nonexpansive.
    """
    xi = prob.check_stable_range(xi)
    g = prob.F.apply(u) + impulse(-1, xi)
    v = apply_resolvent_split(prob.plan, g)
    return truncate(v, 0, prob.horizon)


def _linear_profile(prob: ManifoldProblem, xi: np.ndarray) -> WindowedSequence:
    # u_n = A^n xi on [0, horizon]: the recurrence driven by g_0 = xi alone.
    g = np.zeros((prob.horizon + 1, prob.A.dim), dtype=np.complex128)
    g[0] = xi
    return WindowedSequence(0, linear_recurrence(prob.A.entries, g))


def _characterization_defects(prob: ManifoldProblem, xi, u: WindowedSequence):
    # On [0, horizon], P u and Q u must match the P- and Q-parts of
    # (tau - A)^{-1} (F(u) + delta_{-1} xi): the causal sum
    # (PAP)^n xi + sum_{k<n} (PAP)^{n-1-k} P F(u)_k and the anticausal sum
    # -sum_{k>=n} (QAQ)^{n-1-k} Q F(u)_k.
    v = apply_resolvent_split(prob.plan, prob.F.apply(u) + impulse(-1, xi))
    diff = (u - v).dense(0, prob.horizon)
    split = prob.split
    defect_p = float(np.max(np.linalg.norm(diff @ split.proj_stable.T, axis=1)))
    defect_q = float(np.max(np.linalg.norm(diff @ split.proj_unstable.T, axis=1)))
    return defect_p, defect_q


def lp_fixed_point(prob: ManifoldProblem, xi) -> ManifoldPoint:
    """Fixed point ``T(xi)`` of the cut-off map, with identity certification.

    Starts from the linear profile ``A^n xi`` on Z_{>=0} (already exact for
    F = 0) and iterates to ``fp_tol`` in the ell_2 norm.  The converged
    orbit is certified against both characterization sums to
    ``10 * fp_tol``.
    """
    xi = prob.check_stable_range(xi)
    report = fixed_point(
        lambda u: lp_apply(prob, xi, u),
        _linear_profile(prob, xi),
        Weight(1.0, 2.0),
        prob.fp_tol,
        prob.max_iter,
    )
    u = report.solution
    defect_p, defect_q = _characterization_defects(prob, xi, u)
    bound = 10.0 * prob.fp_tol
    if max(defect_p, defect_q) > bound:
        raise InternalInconsistency(
            f"characterization sums defect {max(defect_p, defect_q):.3e} above {bound:.3e}"
        )
    return ManifoldPoint(
        xi=xi,
        eta=prob.split.proj_unstable @ u.at(0),
        orbit=u,
        decay_rate_estimate=_decay_rate(u),
        iterations=report.iterations,
        residual=report.final_residual,
        contraction_estimate=report.contraction_estimate,
    )


def _decay_rate(u: WindowedSequence) -> float:
    mags = np.linalg.norm(u.values, axis=1)
    top = float(np.max(mags)) if mags.size else 0.0
    if top == 0.0:
        return 0.0
    idx = np.flatnonzero(mags > 1e-13 * top)
    if idx.size < 3:
        return 0.0
    n = np.arange(u.lo, u.hi + 1)[idx]
    slope = np.polyfit(n.astype(float), np.log(mags[idx]), 1)[0]
    return float(np.exp(slope))


def _forward_agreement_window(prob: ManifoldProblem, residual: float) -> int:
    # A forward orbit from xi + eta amplifies the eta error like r(A)^n;
    # only the prefix where that growth stays below the 1e-8 target is
    # comparable against the fixed point.
    growth = spectral_radius(prob.A)
    if growth <= 1.0:
        return prob.horizon
    err0 = max(residual, 10.0 * SERIES_TOL)
    n = int(math.log(1e-8 / (10.0 * err0)) / math.log(growth)) if err0 < 1e-9 else 1
    return max(1, min(prob.horizon, n))


def stable_manifold_point(prob: ManifoldProblem, xi) -> tuple[np.ndarray, ManifoldPoint]:
    """Graph value ``eta = w_s(xi)`` plus the converged orbit.

    Verifies that the forward solution through ``xi + eta`` reproduces the
    fixed-point orbit on the error-safe prefix and that the orbit carries
    ell_2 tail-decay evidence.
    """
    point = lp_fixed_point(prob, xi)
    x = point.xi + point.eta
    fwd = solve_ivp(prob.A, prob.F, x, prob.horizon, method="recursion")
    n_cmp = _forward_agreement_window(prob, point.residual)
    dev = 0.0
    for n in range(n_cmp + 1):
        dev = max(dev, float(np.linalg.norm(fwd.at(n) - point.orbit.at(n))))
    if dev > 1e-8:
        raise InternalInconsistency(
            f"forward orbit deviates by {dev:.3e} from the fixed point on [0, {n_cmp}]"
        )
    mags = np.linalg.norm(point.orbit.dense(0, prob.horizon), axis=1) ** 2
    total = float(np.sum(mags))
    if total > 0.0:
        tail = float(np.sum(mags[prob.horizon // 2 :]))
        if tail > 1e-6 * total:
            raise InternalInconsistency(
                f"orbit tail mass {tail:.3e} exceeds decay evidence threshold"
            )
    return point.eta, point


@dataclass
class SweepRow:
    """One grid entry of a manifold sweep."""

    index: int
    xi: np.ndarray
    eta: np.ndarray | None
    decay_rate: float
    iterations: int
    residual: float
    error: str | None = None


def manifold_sweep(prob: ManifoldProblem, xi_grid) -> list[SweepRow]:
    """Tabulate ``(xi, eta, decay rate)`` over a grid of stable-range vectors.

    Rows are independent; per-row failures are recorded in the ``error``
    field and the sweep continues.  Output order follows the grid.
    """
    grid = [np.asarray(x, dtype=np.complex128).reshape(-1) for x in xi_grid]

    def run(item):
        i, xi = item
        try:
            eta, point = stable_manifold_point(prob, xi)
            return SweepRow(
                index=i,
                xi=xi,
                eta=eta,
                decay_rate=point.decay_rate_estimate,
                iterations=point.iterations,
                residual=point.residual,
            )
        except Exception as exc:  # per-row isolation
            code = getattr(exc, "code", "error")
            return SweepRow(
                index=i,
                xi=xi,
                eta=None,
                decay_rate=float("nan"),
                iterations=0,
                residual=float("nan"),
                error=f"{code}: {exc}",
            )

    return [run(item) for item in enumerate(grid)]


def spectrum_escape_check(A: BoundedOperator, x, horizon: int = 50) -> bool:
    """Numerical rendering of: spectrum outside the closed unit disk forces
    every square-summable orbit to start at 0.

    Requires all eigenvalue moduli above ``1 + GAP_TOL``.  Returns True
    when ``x`` is (numerically) zero or the partial sums of ``|A^n x|^2``
    show monotone growth; either way the orbit cannot be square-summable
    unless ``x = 0``.  Raises :class:`InputError` when ``horizon < 1``.
    """
    if horizon < 1:
        raise InputError(f"escape check needs horizon >= 1, got {horizon}")
    moduli = np.abs(A.eigenvalues)
    if float(np.min(moduli)) <= 1.0 + GAP_TOL:
        raise PreconditionViolation(
            f"escape check requires all eigenvalue moduli above 1 + {GAP_TOL}"
        )
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.size != A.dim:
        raise InputError(f"vector has dimension {x.size}, expected {A.dim}")
    if float(np.linalg.norm(x)) <= 1e-12:
        return True
    norms = [float(np.linalg.norm(x))]
    y = x.copy()
    for _ in range(int(horizon)):
        y = A.entries @ y
        nrm = float(np.linalg.norm(y))
        norms.append(nrm)
        if nrm > 1e100:
            return True
    window = max(3, len(norms) // 4)
    recent = norms[-window:]
    increasing = all(b > a for a, b in zip(recent, recent[1:]))
    return increasing and norms[-1] > norms[0]
