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

Infinite sums are truncated at certified lengths.  The orbit is cut at a
horizon certified on a weighted space ell_{2,mu}, ``mu < 1``, where the
same map contracts: that proves the orbit square-summable and bounds what
the cut drops (see :class:`ManifoldProblem`).

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
    SpecseqError,
)
from .operators import (
    GAP_TOL,
    BoundedOperator,
    SpectralSplit,
    circle_sup_resolvent,
    is_hyperbolic,
    spectral_radius,
)
from .resolvent import CERT_CAP, SERIES_TOL, TAIL_CAP, ResolventPlan, decay_steps
from .sequences import WindowedSequence, entry_norms
from .solver import (
    StencilMap,
    check_iteration_limits,
    forward_orbit,
    impulse_fixed_point,
    impulse_image,
    smallness_gate,
)
from .workspace import Workspace


def _first_horizon(lead: float, mu: float) -> int:
    # the first h >= 0 with E(h) = lead mu^(h+2) <= SERIES_TOL, TAIL_CAP + 1
    # standing for any h past the cap; the logarithm places it to a row or two
    h = 0
    if lead * mu**2 > SERIES_TOL:
        h = min(max(0, math.ceil(math.log(SERIES_TOL / lead) / math.log(mu)) - 2), TAIL_CAP + 1)
    while h <= TAIL_CAP and lead * mu ** (h + 2) > SERIES_TOL:
        h += 1
    while h > 0 and lead * mu ** (h + 1) <= SERIES_TOL:
        h -= 1
    return h


@dataclass
class ManifoldProblem:
    """A stable-manifold computation instance.

    ``A`` must be hyperbolic and ``F`` causal with ``F(0) = 0`` and, where
    it fixes a dimension, ``A``'s (else :class:`DimensionMismatch`); the two
    admissibility bounds, against certified upper bounds on ``M_1`` and
    ``M_rho``, are validated at construction before the split plan is built.  ``rho`` is the
    weight of the outer solution operator (any value above ``r(A)`` gives
    the same projections, so the default just steps past the radius).
    ``split`` is the Riesz splitting of the split-mode ``plan`` at the unit circle.

    The horizon is certified.  Take a weight ``mu`` in ``(r_inside, 1)``:
    no eigenvalue lies in the annulus ``mu <= |z| <= 1``, so the split at
    ``mu`` is the one at 1 and the cut-off map is the same map on
    ``ell_{2,mu}`` (norm ``(sum |u_n|^2 mu^(-2n))^(1/2)``), where it
    contracts by ``q_mu = M_mu lip < 1``, with ``M_mu`` the certified
    ``sup_{|z| = mu} ||(z - A)^{-1}||`` and ``lip`` the Lipschitz bound of
    ``F``.  ``F`` is pointwise (every causal registry kernel is) with
    ``F(0) = 0``, so that bound holds row by row.  Hence:

    * the fixed point ``u = T(xi)`` lies in ``ell_{2,mu}``, a subspace of
      ell_2, with ``||u||_{2,mu} <= mu M_mu |xi| / (1 - q_mu)``, since the
      impulse ``delta_{-1} xi`` has norm ``mu |xi|`` there;
    * so ``||chi_{>h} u||_2 <= mu^(h+1) ||u||_{2,mu}``;
    * the rows ``[0, h]`` of ``u`` are a fixed point of the truncated map,
      which drops the data ``F(u)_k``, ``k > h``, up to a defect of at most
      ``M_1 lip ||chi_{>h} u||_2``.  The truncated map contracts on ell_2
      by ``q_1 = M_1 lip``, so the computed rows lie within
      ``M_1 lip ||chi_{>h} u||_2 / (1 - q_1)`` of them.

    Together: the truncation error on ``[0, h]`` is at most ``E(h) |xi|``
    with ``E(h) = M_1 lip M_mu mu^(h+2) / ((1 - q_1)(1 - q_mu))``.  That is
    also why the orbit needs no tail-decay evidence: its membership in
    ell_2, and the size of its dropped tail, are proved, not observed.

    ``mu`` starts at ``max(r_inside^(7/8), SERIES_TOL^(1/32))`` (the
    second term is the weight whose decay alone reaches ``SERIES_TOL``
    over the 32-row floor below) and steps to ``sqrt(mu)`` while
    ``q_mu > 1/2`` (so also while the gate ``q_mu < 1`` fails), as long as
    a step shortens the horizon: a smaller ``mu`` decays faster, a larger
    one sees a smaller ``M_mu``.  The default ``horizon`` is the first ``h`` with
    ``E(h) <= SERIES_TOL``, at least 32.  A supplied ``horizon`` must lie
    in ``[0, TAIL_CAP]``, else :class:`InputError`; one below the first
    certified ``h``, or a certified ``h`` above ``TAIL_CAP``, raises
    :class:`PreconditionViolation`.  ``mu`` and ``m_mu`` (``M_mu``) are
    read-only.
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
        self.F.check_dim(self.A.dim)
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
        self.m_one, lip_one = smallness_gate(self.A, self.F, 1.0, AdmissibilityError)
        smallness_gate(self.A, self.F, self.rho, AdmissibilityError)
        self.contraction_factor = self.m_one * lip_one
        self.plan = ResolventPlan(self.A, 1.0, "split")
        self.split = self.plan.split
        self._mu, self._m_mu, certified = self._certify_horizon(lip_one)
        if certified > TAIL_CAP:
            raise PreconditionViolation(
                f"the certified horizon exceeds TAIL_CAP = {TAIL_CAP} rows (mu = {self._mu:.6g})"
            )
        if self.horizon is None:
            self.horizon = max(certified, 32)
        elif self.horizon < certified:
            raise PreconditionViolation(
                f"horizon {self.horizon} is below the certified {certified} rows "
                f"(mu = {self._mu:.6g}, M_mu = {self._m_mu:.6g})"
            )

    def _certify_horizon(self, lip: float) -> tuple[float, float, int]:
        # (mu, M_mu, first certified h) along the sqrt steps of the docstring
        q_one = self.contraction_factor
        mu = max(self.split.r_inside ** 0.875, SERIES_TOL ** (1.0 / 32.0))
        best = None
        while mu < 1.0:
            m_mu = circle_sup_resolvent(self.A, mu)
            q_mu = m_mu * lip
            if q_mu < 1.0:
                h = _first_horizon(q_one * m_mu / ((1.0 - q_one) * (1.0 - q_mu)), mu)
                if best is not None and h >= best[2]:
                    break
                best = (mu, m_mu, h)
                if q_mu <= 0.5:
                    break
            mu = math.sqrt(mu)
        if best is None:
            raise PreconditionViolation(
                f"no weight mu in (r_inside, 1) has lip {lip:.6g} below 1/M_mu"
            )
        return best

    @property
    def mu(self) -> float:
        """The weight of the horizon certificate, in ``(r_inside, 1)``."""
        return self._mu

    @property
    def m_mu(self) -> float:
        """``M_mu``, the certified ``sup_{|z| = mu} ||(z - A)^{-1}||``."""
        return self._m_mu

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
    h = prob.horizon
    image = impulse_image(prob.plan, prob.F, xi[None], u.dense(0, h)[:, None], h)
    return WindowedSequence(0, image[:, 0])


def _characterization_defects(
    prob: ManifoldProblem, xis: np.ndarray, u: np.ndarray, ws: Workspace
):
    # On [0, horizon], P u and Q u must match the P- and Q-parts of
    # (tau - A)^{-1} (F(u) + delta_{-1} xi): the causal sum
    # (PAP)^n xi + sum_{k<n} (PAP)^{n-1-k} P F(u)_k and the anticausal sum
    # -sum_{k>=n} (QAQ)^{n-1-k} Q F(u)_k.  One largest defect per column.
    diff = impulse_image(prob.plan, prob.F, xis, u, prob.horizon, ws.take(u.shape), ws)
    np.subtract(u, diff, out=diff)
    rows = diff.reshape(-1, diff.shape[-1])
    part = ws.take(rows.shape)
    defects = []
    for proj in (prob.split.proj_stable, prob.split.proj_unstable):
        np.matmul(rows, proj.T, out=part)
        defects.append(np.max(entry_norms(part.reshape(diff.shape), ws=ws), axis=0))
    ws.give(part)
    ws.give(diff)
    return tuple(defects)


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
    ``1e-8 max(1, |xi|)`` on the error-safe prefix (computed only that far).
    Returns one entry per row: its :class:`ManifoldPoint`, or the typed
    error that stopped that row.
    """
    h = prob.horizon
    ws = Workspace()  # every LP step and check of the block runs in its arrays
    stack = impulse_fixed_point(prob.plan, prob.F, xis, h, prob.fp_tol, prob.max_iter, ws)
    results = list(stack.errors)
    ok = np.flatnonzero([e is None for e in results])
    if not ok.size:
        return results
    u = stack.solution if ok.size == len(results) else stack.solution[:, ok]
    defect = np.maximum(*_characterization_defects(prob, xis[ok], u, ws))
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
    del ws  # its arrays go before the orbits below copy the columns of u
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
    """Fixed point ``T(xi)`` of the cut-off map on ``[0, horizon]``.

    Starts from the linear profile ``(PAP)^n xi = A^n xi`` on Z_{>=0}
    (already exact for F = 0) and iterates to ``fp_tol`` in the ell_2
    norm.  The converged rows are checked against both characterization
    sums of the truncated map to ``10 * fp_tol``; that check cannot see
    the truncation, which the problem's certified horizon bounds by
    ``SERIES_TOL |xi|``.  This is the one-row case of the stacked sweep.
    """
    return _one_point(prob, xi, check_orbit=False)


def stable_manifold_point(prob: ManifoldProblem, xi) -> tuple[np.ndarray, ManifoldPoint]:
    """Graph value ``eta = w_s(xi)`` plus the converged orbit.

    Verifies that the forward solution through ``xi + eta`` reproduces the
    fixed-point orbit on the error-safe prefix.  This is the one-row case
    of the stacked sweep.
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


def _block_width(prob: ManifoldProblem) -> int:
    # the rows per stacked block of manifold_sweep (see its docstring)
    return max(1, 2**15 // ((prob.horizon + 1) * prob.A.dim))


def manifold_sweep(prob: ManifoldProblem, xi_grid) -> list[SweepRow]:
    """Tabulate ``(xi, eta, decay rate)`` over a grid of stable-range vectors.

    The grid is one stacked Lyapunov-Perron iteration, with the same checks
    per row as :func:`stable_manifold_point`: rows converge and stop
    independently.  Rows go in blocks of ``max(1, 2**15 // ((horizon + 1) d))``,
    so a stacked array holds about 2**15 complex entries (or one row), which
    bounds peak memory whatever the grid size, while each step of the
    recurrence spreads its fixed Python overhead over several rows.  A
    block runs in one :class:`Workspace`, whose arrays its first steps
    allocate and every later step and certificate reuses; its peak is about
    4.5 stacked arrays at d = 32 (horizon 79, 12 columns), and each point
    becomes its row before the next block runs, so the sweep peaks there.
    Rows are independent; per-row failures (a vector off the stable range,
    no convergence, a failed certificate, a non-finite iterate) are recorded
    in the ``error`` field with the same code and message as a one-row run,
    and the other rows are unaffected.  Output order follows the grid.
    """
    grid = [np.asarray(x, dtype=np.complex128).reshape(-1) for x in xi_grid]
    table: list = [None] * len(grid)
    valid = []
    for i, xi in enumerate(grid):
        try:
            prob.check_stable_range(xi)
            valid.append(i)
        except SpecseqError as exc:  # per-row isolation
            table[i] = _sweep_row(i, xi, exc)
    block = _block_width(prob)
    for start in range(0, len(valid), block):
        rows = valid[start : start + block]
        points = _manifold_points(prob, np.array([grid[i] for i in rows]), check_orbit=True)
        for i in rows:  # each point becomes its row, and its orbit goes, before the next block
            table[i] = _sweep_row(i, grid[i], points.pop(0))
    return table


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
    return SweepRow(
        index=index,
        xi=xi,
        eta=None,
        decay_rate=float("nan"),
        iterations=0,
        residual=float("nan"),
        error=f"{result.code}: {result}",
    )


def spectrum_escape_check(A: BoundedOperator, x) -> bool:
    """Numerical rendering of: spectrum outside the closed unit disk forces
    every square-summable orbit to start at 0.

    Requires all eigenvalue moduli above ``1 + GAP_TOL``.  The power search
    on ``A^{-1}`` finds an ``n`` with ``||A^{-n}|| <= 1/2``, so that
    ``|A^{qn} x| >= 2^q |x|`` for every ``x``: no orbit but the zero one is
    square-summable, and the answer is True.  Without such an ``n`` within
    ``CERT_CAP`` steps it raises :class:`PreconditionViolation`, at once
    when the spectral radius ``1 / min |lambda|`` of ``A^{-1}`` alone rules
    the cap out.
    """
    least = float(np.min(np.abs(A.eigenvalues)))
    if least <= 1.0 + GAP_TOL:
        raise PreconditionViolation(
            f"escape check requires all eigenvalue moduli above 1 + {GAP_TOL}"
        )
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.size != A.dim:
        raise InputError(f"vector has dimension {x.size}, expected {A.dim}")
    decay_steps(np.linalg.inv(A.entries), 1.0 / least, 1.0, 0.5, CERT_CAP, "escape certificate")
    return True
