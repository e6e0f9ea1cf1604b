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

The map is the same for every ``xi``, so a grid of G vectors is one
fixed-point problem with G columns: its state holds the rows ``[0, horizon]``
of every orbit side by side, ``(horizon + 1, G, d)``, and a row stops
iterating once it converges.  A single point is the case G = 1 of the same
code.
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
from .resolvent import (
    CERT_CAP,
    SERIES_TOL,
    TAIL_CAP,
    ResolventPlan,
    _decay_steps,
    apply_resolvent_window,
)
from .sequences import Weight, WindowedSequence
from .solver import StencilMap, check_iteration_limits, fixed_point, forward_orbit


@dataclass
class ManifoldProblem:
    """A stable-manifold computation instance.

    ``A`` must be hyperbolic and ``F`` causal with ``F(0) = 0``; the two
    admissibility bounds, against certified upper bounds on ``M_1`` and
    ``M_rho``, are validated at construction before the split plan is built.  ``rho`` is the
    weight of the outer solution operator (any value above ``r(A)`` gives
    the same projections, so the default just steps past the radius).
    ``split`` is the Riesz splitting of the split-mode ``plan`` at the unit circle.
    A supplied ``horizon`` must lie in ``[0, TAIL_CAP]``; by default it is
    twice the certified decay length of the stable range, within [32, TAIL_CAP].
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
        if self.horizon is not None and not 0 <= self.horizon <= TAIL_CAP:
            raise InputError(f"horizon must lie in [0, {TAIL_CAP}], got {self.horizon}")
        is_hyperbolic(self.A)
        if not self.F.causal:
            raise AdmissibilityError(f"kernel {self.F.kernel!r} is not causal")
        if not self.F.fixes_zero:
            raise AdmissibilityError("the manifold nonlinearity must satisfy F(0) = 0")
        radius = spectral_radius(self.A)
        if self.rho is None:
            self.rho = radius + 0.5
        if self.rho <= radius + GAP_TOL:
            raise AdmissibilityError(
                f"outer weight rho = {self.rho} must exceed r(A) = {radius}"
            )
        self.m_one = circle_sup_resolvent(self.A, 1.0)
        self.m_rho = circle_sup_resolvent(self.A, self.rho)
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
        self.plan = ResolventPlan(self.A, 1.0, "split")
        self.split = self.plan.split
        r_in = self.split.r_inside
        if self.horizon is None:
            if r_in > 0.0:
                self.horizon = 2 * math.ceil(math.log(SERIES_TOL) / math.log(r_in))
            else:
                self.horizon = 2 * self.A.dim + 4
            self.horizon = int(min(max(self.horizon, 32), TAIL_CAP))

    def check_stable_range(self, xi) -> np.ndarray:
        """``xi`` as a vector; raises :class:`RangeViolation` unless
        ``||P xi - xi|| <= 1e-8 ||xi||``."""
        xi = np.asarray(xi, dtype=np.complex128).reshape(-1)
        if xi.size != self.A.dim:
            raise InputError(f"xi has dimension {xi.size}, expected {self.A.dim}")
        # xi is scaled to a largest entry of 1 so no square overflows
        scale = float(np.max(np.abs(xi)))
        if scale == 0.0:
            return xi
        x = xi / scale
        defect = float(np.linalg.norm(self.split.proj_stable @ x - x) / np.linalg.norm(x))
        if not defect <= 1e-8:
            raise RangeViolation(f"xi is not in the stable range (relative defect {defect:.3e})")
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

    The map acts on sequences over ``[0, horizon]``, the space the iteration
    lives in, so ``u`` is read there.  Contraction in ``u`` with factor at
    most ``M_1 * |F|_Lip``; the cutoff to nonnegative indices and the
    horizon truncation are norm-nonexpansive.
    """
    xi = prob.check_stable_range(xi)
    return WindowedSequence(0, _lp_image(prob, xi[None], u.dense(0, prob.horizon)[:, None])[:, 0])


def _lp_image(prob: ManifoldProblem, xis: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Rows [0, horizon] of (tau - A)^{-1} (F(u) + delta_{-1} xi) for the
    # columns of u, (horizon + 1, G, d), and xis, (G, d); they read the
    # data on [-1, horizon].
    h = prob.horizon
    g = np.concatenate([xis[None], prob.F.apply_rows(u, 0, 0, h)])
    return apply_resolvent_window(prob.plan, g, -1, 0, h)


def _linear_profile(prob: ManifoldProblem, xis: np.ndarray) -> np.ndarray:
    # u_n = (PAP)^n xi, which is A^n xi for xi in range(P), on [0, horizon]:
    # the image of delta_{-1} xi alone.  Unlike A, PAP does not amplify the
    # roundoff part of xi in range(Q), which overflows on long horizons.
    return apply_resolvent_window(prob.plan, xis[None], -1, 0, prob.horizon)


def _characterization_defects(prob: ManifoldProblem, xis: np.ndarray, u: np.ndarray):
    # On [0, horizon], P u and Q u must match the P- and Q-parts of
    # (tau - A)^{-1} (F(u) + delta_{-1} xi): the causal sum
    # (PAP)^n xi + sum_{k<n} (PAP)^{n-1-k} P F(u)_k and the anticausal sum
    # -sum_{k>=n} (QAQ)^{n-1-k} Q F(u)_k.  One largest defect per column.
    diff = u - _lp_image(prob, xis, u)
    rows = diff.reshape(-1, diff.shape[-1])
    split = prob.split
    return tuple(
        np.max(np.linalg.norm((rows @ proj.T).reshape(diff.shape), axis=-1), axis=0)
        for proj in (split.proj_stable, split.proj_unstable)
    )


def _decay_rate(u: WindowedSequence, fp_tol: float) -> float:
    # Least-squares slope of log |u_n| over the entries an iteration stopped
    # at fp_tol resolves: those above 1e3 fp_tol times the peak.
    mags = np.linalg.norm(u.values, axis=1)
    top = float(np.max(mags)) if mags.size else 0.0
    if top == 0.0:
        return 0.0
    idx = np.flatnonzero(mags > 1e3 * fp_tol * top)
    if idx.size < 3:
        return 0.0
    n = np.arange(u.lo, u.hi + 1)[idx]
    slope = np.polyfit(n.astype(float), np.log(mags[idx]), 1)[0]
    return float(np.exp(slope))


def _forward_agreement_window(prob: ManifoldProblem, residual: float, scale: float) -> int:
    # A forward orbit from xi + eta amplifies the eta error like r(A)^n;
    # only the prefix where that growth stays below the target of 1e-8
    # times scale = max(1, |xi|) is comparable against the fixed point.
    growth = spectral_radius(prob.A)
    if growth <= 1.0:
        return prob.horizon
    err0 = max(residual / scale, 10.0 * SERIES_TOL)
    n = int(math.log(1e-8 / (10.0 * err0)) / math.log(growth)) if err0 < 1e-9 else 1
    return max(1, min(prob.horizon, n))


def _manifold_points(prob: ManifoldProblem, xis: np.ndarray, check_orbit: bool) -> list:
    """Certified fixed points ``T(xi)`` for the stable-range rows of ``xis``.

    One stacked iteration runs every row from its linear profile to
    ``fp_tol``.  Each converged orbit is certified against both
    characterization sums to ``10 * fp_tol``; with ``check_orbit`` the
    forward solution through ``xi + eta`` must also reproduce it to
    ``1e-8 max(1, |xi|)`` on the error-safe prefix (computed only that far),
    and the orbit must carry
    ell_2 tail-decay evidence.  Returns one entry per row: its
    :class:`ManifoldPoint`, or the typed error that stopped that row.
    """
    h = prob.horizon
    stack = fixed_point(
        lambda u, cols: _lp_image(prob, xis[cols], u),
        _linear_profile(prob, xis),
        0,
        Weight(1.0, 2.0),
        prob.fp_tol,
        prob.max_iter,
    )
    results = list(stack.errors)
    ok = np.flatnonzero([e is None for e in results])
    if not ok.size:
        return results
    u = stack.solution if ok.size == len(results) else stack.solution[:, ok]
    defect = np.maximum(*_characterization_defects(prob, xis[ok], u))
    etas = u[0] @ prob.split.proj_unstable.T
    if check_orbit:
        scale = np.maximum(1.0, np.linalg.norm(xis[ok], axis=1))
        n_cmp = np.array(
            [_forward_agreement_window(prob, stack.residual[c], scale[j]) for j, c in enumerate(ok)]
        )
        fwd = forward_orbit(prob.A, prob.F, xis[ok] + etas, int(np.max(n_cmp)))
        dist = np.linalg.norm(fwd - u[: len(fwd)], axis=-1)
        in_window = np.arange(len(fwd))[:, None] <= n_cmp
        dev = np.max(np.where(in_window, dist, 0.0), axis=0)
        mags = np.linalg.norm(u, axis=-1) ** 2
        total, tail = np.sum(mags, axis=0), np.sum(mags[h // 2 :], axis=0)
    bound = 10.0 * prob.fp_tol
    for j, c in enumerate(ok):
        if defect[j] > bound:
            results[c] = InternalInconsistency(
                f"characterization sums defect {defect[j]:.3e} above {bound:.3e}"
            )
        elif check_orbit and dev[j] > 1e-8 * scale[j]:
            results[c] = InternalInconsistency(
                f"forward orbit deviates by {dev[j]:.3e} from the fixed point on [0, {n_cmp[j]}]"
            )
        elif check_orbit and total[j] > 0.0 and tail[j] > 1e-6 * total[j]:
            results[c] = InternalInconsistency(
                f"orbit tail mass {tail[j]:.3e} exceeds decay evidence threshold"
            )
        else:
            orbit = WindowedSequence(0, u[:, j])
            results[c] = ManifoldPoint(
                xi=xis[c],
                eta=etas[j],
                orbit=orbit,
                decay_rate_estimate=_decay_rate(orbit, prob.fp_tol),
                iterations=int(stack.iterations[c]),
                residual=float(stack.residual[c]),
                contraction_estimate=float(stack.contraction_estimate[c]),
            )
    return results


def _one_point(prob: ManifoldProblem, xi, check_orbit: bool) -> ManifoldPoint:
    xi = prob.check_stable_range(xi)
    result = _manifold_points(prob, xi[None], check_orbit)[0]
    if not isinstance(result, ManifoldPoint):
        raise result
    return result


def lp_fixed_point(prob: ManifoldProblem, xi) -> ManifoldPoint:
    """Fixed point ``T(xi)`` of the cut-off map, with identity certification.

    Starts from the linear profile ``(PAP)^n xi = A^n xi`` on Z_{>=0}
    (already exact for F = 0) and iterates to ``fp_tol`` in the ell_2
    norm.  The converged orbit is certified against both characterization
    sums to ``10 * fp_tol``.  This is the one-row case of the stacked sweep.
    """
    return _one_point(prob, xi, check_orbit=False)


def stable_manifold_point(prob: ManifoldProblem, xi) -> tuple[np.ndarray, ManifoldPoint]:
    """Graph value ``eta = w_s(xi)`` plus the converged orbit.

    Verifies that the forward solution through ``xi + eta`` reproduces the
    fixed-point orbit on the error-safe prefix and that the orbit carries
    ell_2 tail-decay evidence.  This is the one-row case of the stacked
    sweep.
    """
    point = _one_point(prob, xi, check_orbit=True)
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


def _block_points(prob: ManifoldProblem, xis: np.ndarray) -> list:
    try:
        return _manifold_points(prob, xis, check_orbit=True)
    except Exception as exc:  # not attributable to one row: run the rows alone
        if len(xis) == 1:
            return [exc]
        return [result for xi in xis for result in _block_points(prob, xi[None])]


def manifold_sweep(prob: ManifoldProblem, xi_grid) -> list[SweepRow]:
    """Tabulate ``(xi, eta, decay rate)`` over a grid of stable-range vectors.

    The grid is one stacked Lyapunov-Perron iteration, with the same checks
    per row as :func:`stable_manifold_point`: rows converge and stop
    independently.  Rows go in blocks of ``max(1, 2**15 // ((horizon + 1) d))``,
    so a stacked array holds about 2**15 complex entries (or one row), which
    bounds peak memory whatever the grid size, while each step of the
    recurrence spreads its fixed Python overhead over several rows.
    Rows are independent; per-row failures (a vector off the stable range,
    no convergence, a failed certificate, a non-finite iterate) are recorded
    in the ``error`` field with the same code and message as a one-row run,
    and the other rows are unaffected.  Output order follows the grid.
    """
    grid = [np.asarray(x, dtype=np.complex128).reshape(-1) for x in xi_grid]
    results: list = [None] * len(grid)
    valid = []
    for i, xi in enumerate(grid):
        try:
            prob.check_stable_range(xi)
            valid.append(i)
        except Exception as exc:  # per-row isolation
            results[i] = exc
    block = max(1, 2**15 // ((prob.horizon + 1) * prob.A.dim))
    for start in range(0, len(valid), block):
        rows = valid[start : start + block]
        for i, result in zip(rows, _block_points(prob, np.array([grid[i] for i in rows]))):
            results[i] = result
    return [_sweep_row(i, xi, result) for i, (xi, result) in enumerate(zip(grid, results))]


def _sweep_row(index: int, xi: np.ndarray, result) -> SweepRow:
    if isinstance(result, ManifoldPoint):
        return SweepRow(
            index=index,
            xi=xi,
            eta=result.eta,
            decay_rate=result.decay_rate_estimate,
            iterations=result.iterations,
            residual=result.residual,
        )
    code = getattr(result, "code", "error")
    return SweepRow(
        index=index,
        xi=xi,
        eta=None,
        decay_rate=float("nan"),
        iterations=0,
        residual=float("nan"),
        error=f"{code}: {result}",
    )


def spectrum_escape_check(A: BoundedOperator, x) -> bool:
    """Numerical rendering of: spectrum outside the closed unit disk forces
    every square-summable orbit to start at 0.

    Requires all eigenvalue moduli above ``1 + GAP_TOL``.  The power search
    on ``A^{-1}`` finds an ``n`` with ``||A^{-n}|| <= 1/2``, so that
    ``|A^{qn} x| >= 2^q |x|`` for every ``x``: no orbit but the zero one is
    square-summable, and the answer is True.  Without such an ``n`` within
    ``CERT_CAP`` steps it raises :class:`PreconditionViolation`, at once
    when the spectral radius of ``A^{-1}`` alone rules the cap out.
    """
    moduli = np.abs(A.eigenvalues)
    if float(np.min(moduli)) <= 1.0 + GAP_TOL:
        raise PreconditionViolation(
            f"escape check requires all eigenvalue moduli above 1 + {GAP_TOL}"
        )
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.size != A.dim:
        raise InputError(f"vector has dimension {x.size}, expected {A.dim}")
    _decay_steps(np.linalg.inv(A.entries), 1.0, 0.5, CERT_CAP, "escape certificate")
    return True
