"""Stable manifolds of ``tau u = A u + F(u)`` at the fixed point 0.

For hyperbolic ``A`` (no spectrum on the unit circle) and a causal
pointwise nonlinearity with ``F(0) = 0`` and ``|F|_Lip < 1/M_1``, the
orbit through a stable-range vector ``xi`` is the fixed point ``T(xi)`` of
the cut-off map

    u  |->  chi_{Z >= 0} (tau - A)^{-1} (F(u) + delta_{-1} xi),

a contraction on ell_2 with factor ``M_1 * |F|_Lip``.  The stable manifold
is the graph of ``w_s(xi) = Q T(xi)_0`` over range(P), and that one bound
makes it the whole stable manifold.  If the forward solution ``u`` from
``x`` lies in ell_2(Z >= 0), then ``v = chi_{Z >= 0} u`` solves
``(tau - A) v = F(v) + delta_{-1} x`` in ell_2 (``F`` is causal and
pointwise, so ``F(v)_n = F(u)_n`` for ``n >= 0`` and ``0`` before).  The
``Q x`` part of that impulse reaches, through the anticausal branch of
``(tau - A)^{-1}`` (the inverse on ell_2, which hyperbolicity makes
unique), only the rows ``n <= -1``, which the cut drops, so
``v`` is a fixed point of the cut-off map at ``xi = P x``.  It is the only
one, as the map contracts, so ``Q x = Q v_0 = w_s(P x)``: points off the
graph escape.

Infinite sums are truncated at certified lengths.  The orbit is cut at a
horizon certified on two weighted spaces where the same map contracts:
on ell_{2,mu}, ``mu < 1``, which proves the orbit square-summable and
bounds the tail the cut drops, and on ell_{2,nu}, ``nu >= 1``, which
measures the cut's effect with the weight ``nu^(-n)``.  Row ``n`` of a
computed orbit is then within ``nu^n E_nu(h) |xi|`` of the true one, and
row 0, the one ``eta`` reads, within ``E_nu(h) |xi| <= SERIES_TOL |xi|``
(proof in :class:`ManifoldProblem`).

The map is the same for every ``xi``, so a grid of G vectors is one
fixed-point problem with G columns: its state holds the rows ``[0, horizon]``
of every orbit side by side, ``(horizon + 1, G, d)``, and a row stops
iterating once it converges.  A single point is the case G = 1 of the same
code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    AdmissibilityError,
    InternalInconsistency,
    PreconditionViolation,
    RangeViolation,
    SpecseqError,
    _array,
    _integer,
    _vector,
)
from .operators import (
    BoundedOperator,
    SpectralSplit,
    _decide,
    _SupBracket,
    is_hyperbolic,
    spectral_radius,
)
from .resolvent import SERIES_TOL, TAIL_CAP, ResolventPlan
from .sequences import WindowedSequence, entry_norms
from .solver import (
    FP_TOL,
    StackedReport,
    StencilMap,
    check_iteration_limits,
    forward_orbit,
    impulse_fixed_point,
    impulse_image,
    smallness_gate,
)
from .workspace import Workspace


def _first_horizon(lead: float, mu: float, nu: float) -> int:
    # the first h >= 0 with E(h) = lead mu^(h+2) / nu^(h+1) <= SERIES_TOL,
    # TAIL_CAP + 1 standing for any h past the cap; the logarithm places it
    # to a row or two.  At nu = 1 the division is exact, so E_1 is the
    # single-weight bound bit for bit
    def bound(h: int) -> float:
        return lead * mu ** (h + 2) / nu ** (h + 1)

    h = 0
    if bound(0) > SERIES_TOL:
        guess = math.ceil(math.log(SERIES_TOL / (lead * mu)) / math.log(mu / nu)) - 1
        h = min(max(0, guess), TAIL_CAP + 1)
    while h <= TAIL_CAP and bound(h) > SERIES_TOL:
        h += 1
    while h > 0 and bound(h - 1) <= SERIES_TOL:
        h -= 1
    return h


@dataclass
class ManifoldProblem:
    """A stable-manifold computation instance.

    ``A`` must be hyperbolic and ``F`` causal with ``F(0) = 0`` and, where
    it fixes a dimension, ``A``'s (else :class:`DimensionMismatch`); the
    one admissibility bound ``lip < 1/M_1`` is validated at construction
    before the split plan is built, by
    :func:`~specseq.solver.smallness_gate` from a bracket on ``M_1`` that
    refines only until it decides.  It makes the cut-off map contract, and
    so also makes the graph the whole stable manifold (see the module
    docstring).  ``split`` is the Riesz splitting of the split-mode
    ``plan`` at the unit circle.

    The horizon is certified on two weighted spaces ``ell_{2,w}``, with
    norm ``(sum |u_n|^2 w^(-2n))^(1/2)``: one of weight ``mu`` in
    ``(r_inside, 1)`` and one of weight ``nu`` in ``[1, r_outside)``.  No
    eigenvalue lies between either weight and 1, so the split at ``w`` is
    the one at 1 and the cut-off map is the same map on ``ell_{2,w}``,
    where it contracts by ``q_w = M_w lip < 1``, with ``M_w`` the certified
    ``sup_{|z| = w} ||(z - A)^{-1}||`` and ``lip`` the Lipschitz bound of
    ``F``.  ``F`` is pointwise (every causal registry kernel is) with
    ``F(0) = 0``, so that bound holds row by row.  Hence:

    * the fixed point ``u = T(xi)`` lies in ``ell_{2,mu}``, a subspace of
      ell_2, with ``||u||_{2,mu} <= mu M_mu |xi| / (1 - q_mu)``, since the
      impulse ``delta_{-1} xi`` has norm ``mu |xi|`` there;
    * so ``||chi_{>h} u||_{2,nu} <= (mu/nu)^(h+1) ||u||_{2,mu}``, as
      ``nu^(-n) = mu^(-n) (mu/nu)^n``;
    * the rows ``[0, h]`` of ``u`` are a fixed point of the truncated map,
      which drops the data ``F(u)_k``, ``k > h``, up to a defect of at most
      ``M_nu lip ||chi_{>h} u||_{2,nu}`` in ``ell_{2,nu}``.  The truncated
      map contracts there by ``q_nu``, so the computed rows lie within
      ``M_nu lip ||chi_{>h} u||_{2,nu} / (1 - q_nu)`` of them in that norm.

    Together: the computed rows ``[0, h]`` lie within ``E_nu(h) |xi|`` of
    the true ones in ``ell_{2,nu}``, with
    ``E_nu(h) = M_nu lip M_mu mu (mu/nu)^(h+1) / ((1 - q_nu)(1 - q_mu))``.
    Row ``n`` has weight ``nu^(-n)`` in that norm, so it lies within
    ``nu^n E_nu(h) |xi|`` of the true row, and row 0, which gives
    ``eta = Q u_0``, within ``E_nu(h) |xi|``.  At ``nu = 1`` this is the
    bound ``E_1(h)`` on the whole window; a ``nu > 1`` gives up the late
    rows, which nothing reports as certified, for the faster rate
    ``mu/nu``.  That is also why the orbit needs no tail-decay evidence:
    its membership in ell_2, and the size of its dropped tail, are proved,
    not observed.  Without unstable spectrum (``rank_unstable = 0``) the
    map is causal: row ``n`` of its image reads only the rows before
    ``n``, so the cut drops nothing, the computed rows are the true ones,
    the certified horizon is 0, and no weight is certified (``mu``,
    ``nu``, ``m_mu`` and ``m_nu`` are None).

    ``mu`` starts at ``max(r_inside^(7/8), SERIES_TOL^(1/32))`` (the
    second term is the weight whose decay alone reaches ``SERIES_TOL``
    over the 32-row floor below) and steps to ``sqrt(mu)`` while
    ``q_mu > 1/2`` (so also while the gate ``q_mu < 1`` fails), as long as
    a step shortens the horizon of ``E_1``: that is the single-weight rule,
    and a smaller ``mu`` decays faster, a larger one sees a smaller
    ``M_mu``.  With that ``mu``, ``nu`` starts at ``r_outside^(7/8)`` and
    takes the same steps towards 1 by the horizon of ``E_nu``; the ``nu``
    reached is kept only if it certifies fewer rows than ``E_1``, else
    ``nu = 1``.  So no horizon is longer than the single-weight one: no
    problem that rule admits is refused, and one it refuses for more than
    ``TAIL_CAP`` rows is admitted where ``E_nu`` certifies fewer.  The default ``horizon`` is the
    first ``h`` with ``E_nu(h) <= SERIES_TOL``, at least 32.  A supplied
    ``horizon`` must be an integer (an integral float such as ``64.0``
    counts) in ``[0, TAIL_CAP]``, as ``max_iter`` must be one of at least
    1, else :class:`InputError`;
    one below the first certified ``h``, or a certified ``h`` above
    ``TAIL_CAP``, raises :class:`PreconditionViolation`.

    The horizon reads integers, not ``M_1``, ``M_mu`` or ``M_nu``.  These
    are brackets that refine in the rounds of
    :func:`~specseq.operators.circle_sup_resolvent`, the widest first,
    until a test gives one answer at their low and at their high ends:
    ``E_nu(h)`` grows with each supremum, so the ``h`` the ends agree on is
    the one the exact suprema certify, and likewise whether ``E_1`` needs
    more rows than ``E_nu``.  Where the ends never agree, the finished
    suprema decide, as they always did.  The tests ``q_w < 1`` and
    ``q_w <= 1/2`` are decided the same way, and a horizon is decided only
    where two steps are compared or the result is read.  The gate at 1
    decides on the same bracket on ``M_1``.  ``mu``, ``nu``,
    ``m_mu`` (``M_mu``), ``m_nu`` (``M_nu``), ``m_one`` (``M_1``) and
    ``contraction_factor`` (``q_1``) are read-only; the last four finish
    their bracket to ``SUP_REL_TOL`` on first read, so ``m_mu`` is
    ``circle_sup_resolvent(A, mu)`` bit for bit, and a read raises the
    :class:`SpectrumOnCircle` that finishing it may raise.
    """

    A: BoundedOperator
    F: StencilMap
    fp_tol: float = FP_TOL
    max_iter: int = 200
    horizon: int | None = None
    split: SpectralSplit = field(init=False)

    def __post_init__(self):
        self.fp_tol, self.max_iter = check_iteration_limits(self.fp_tol, self.max_iter)
        if self.horizon is not None:
            self.horizon = _integer(self.horizon, "horizon", low=0, high=TAIL_CAP)
        self.F.check_dim(self.A.dim)
        is_hyperbolic(self.A)
        if not self.F.causal:
            raise AdmissibilityError(f"kernel {self.F.kernel!r} is not causal")
        if not self.F.fixes_zero:
            raise AdmissibilityError("the manifold nonlinearity must satisfy F(0) = 0")
        self._m_one = _SupBracket(self.A, 1.0)
        self._lip = smallness_gate(self.A, self.F, 1.0, AdmissibilityError, self._m_one)
        self.plan = ResolventPlan(self.A, 1.0, "split")
        self.split = self.plan.split
        self._mu = self._nu = self._m_mu = self._m_nu = None
        certified = 0
        if self.split.rank_unstable:
            self._mu, self._nu, self._m_mu, self._m_nu, certified = self._certify_horizon()
        if certified > TAIL_CAP:
            raise PreconditionViolation(
                f"the certified horizon exceeds TAIL_CAP = {TAIL_CAP} rows "
                f"(mu = {self._mu:.6g}, nu = {self._nu:.6g})"
            )
        if self.horizon is None:
            self.horizon = max(certified, 32)
        elif self.horizon < certified:
            raise PreconditionViolation(
                f"horizon {self.horizon} is below the certified {certified} rows "
                f"(mu = {self._mu:.6g}, nu = {self._nu:.6g}, M_mu = {self.m_mu:.6g}, "
                f"M_nu = {self.m_nu:.6g})"
            )

    def _certify_horizon(self) -> tuple[float, float, _SupBracket, _SupBracket, int]:
        # (mu, nu, the brackets on M_mu and M_nu, first certified h) along the
        # square-root steps of the docstring, each test decided by brackets
        lip = self._lip
        sup = functools.cache(lambda w: self._m_one if w == 1.0 else _SupBracket(self.A, w))

        def first(mu: float, nu: float):
            def h(m_mu: float, m_nu: float) -> int:
                # TAIL_CAP + 1 (any h past the cap) where a bracket end does not contract
                q_mu, q_nu = m_mu * lip, m_nu * lip
                if q_mu >= 1.0 or q_nu >= 1.0:
                    return TAIL_CAP + 1
                return _first_horizon(q_nu * m_mu / ((1.0 - q_nu) * (1.0 - q_mu)), mu, nu)

            return h

        horizon = functools.cache(lambda mu, nu: _decide(first(mu, nu), sup(mu), sup(nu)))

        def walk(w: float, horizon_at) -> float | None:
            # the best step from w towards 1, None if none contracts; a horizon
            # is decided only where two steps are compared
            best = None
            while w != 1.0:
                if _decide(lambda m: m * lip < 1.0, sup(w)):
                    if best is not None and horizon_at(w) >= horizon_at(best):
                        break
                    best = w
                    if _decide(lambda m: m * lip <= 0.5, sup(w)):
                        break
                w = math.sqrt(w)
            return best

        # mu by the single-weight rule (nu = 1), then a nu > 1 only where it
        # certifies fewer rows than that rule, so no horizon grows
        mu = max(self.split.r_inside**0.875, SERIES_TOL ** (1.0 / 32.0))
        mu = walk(mu, lambda w: horizon(w, 1.0))
        if mu is None:
            raise PreconditionViolation(
                f"no weight mu in (r_inside, 1) has lip {lip:.6g} below 1/M_mu"
            )
        nu = walk((1.0 / self.split.r_outside_inv) ** 0.875, lambda w: horizon(mu, w))
        if nu is None or not _decide(
            lambda m_mu, m_one: first(mu, 1.0)(m_mu, m_one) > horizon(mu, nu), sup(mu), sup(1.0)
        ):
            nu = 1.0
        return mu, nu, sup(mu), sup(nu), horizon(mu, nu)

    @property
    def m_one(self) -> float:
        """``M_1``, the certified ``sup_{|z| = 1} ||(z - A)^{-1}||``."""
        return self._m_one.value()

    @property
    def contraction_factor(self) -> float:
        """``q_1 = M_1 lip``, the LP map's contraction factor on ell_2."""
        return self.m_one * self._lip

    @property
    def mu(self) -> float | None:
        """The weight of the orbit's bound, in ``(r_inside, 1)``; None for a causal map."""
        return self._mu

    @property
    def nu(self) -> float | None:
        """The weight of the truncation bound, in ``[1, r_outside)``; None for a causal map."""
        return self._nu

    @property
    def m_mu(self) -> float | None:
        """``M_mu``, the certified ``sup_{|z| = mu} ||(z - A)^{-1}||``; None for a causal map."""
        return None if self._m_mu is None else self._m_mu.value()

    @property
    def m_nu(self) -> float | None:
        """``M_nu``, the certified ``sup_{|z| = nu} ||(z - A)^{-1}||``; None for a causal map."""
        return None if self._m_nu is None else self._m_nu.value()

    def check_stable_range(self, xi) -> np.ndarray:
        """``xi`` as a vector; raises :class:`InputError` unless it holds
        finite numbers, :class:`DimensionMismatch` unless it has ``A``'s
        dimension and :class:`RangeViolation` unless
        ``||P xi - xi|| <= 1e-8 ||xi||``."""
        xi = _vector(xi, "xi", self.A.dim)
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


def _decay_rates(u: np.ndarray, fp_tol: float, ws: Workspace | None = None) -> np.ndarray:
    """Per column of the ``(h + 1, G, d)`` orbits ``u``, ``exp`` of the
    least-squares slope of ``log |u_n|`` over the entries an iteration
    stopped at ``fp_tol`` resolves: those above ``1e3 fp_tol`` times the
    column's peak.  A column with fewer than 3 such entries (an all-zero one
    has none) gives 0.0.

    The slope is the closed form of the fit, with ``n`` and ``log |u_n|``
    centred on their means over the entries a column reads, for all columns
    at once.
    """
    mags = entry_norms(u, ws=ws)
    mask = mags > 1e3 * fp_tol * np.max(mags, axis=0)
    count = np.count_nonzero(mask, axis=0)
    logs = np.log(mags, out=np.zeros_like(mags), where=mask)
    n = np.where(mask, np.arange(len(u), dtype=float)[:, None], 0.0)
    denom = np.maximum(count, 1)
    n -= np.where(mask, np.sum(n, axis=0) / denom, 0.0)
    logs -= np.where(mask, np.sum(logs, axis=0) / denom, 0.0)
    fits = count >= 3
    slope = np.zeros(len(count))
    np.divide(np.sum(n * logs, axis=0), np.sum(n * n, axis=0), out=slope, where=fits)
    return np.where(fits, np.exp(slope), 0.0)


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


class _Block(NamedTuple):
    """One stacked block of :func:`_manifold_points`, aligned with its ``xis``.

    ``errors`` holds ``None`` for a certified row and otherwise the typed
    error that stopped it; ``etas``, ``decay_rates`` and the iteration's
    ``report`` are read only where ``errors`` is ``None``.
    """

    errors: list
    etas: np.ndarray
    decay_rates: np.ndarray
    report: StackedReport


def _manifold_points(prob: ManifoldProblem, xis: np.ndarray, check_orbit: bool) -> _Block:
    """Certified fixed points ``T(xi)`` for the stable-range rows of ``xis``.

    One stacked iteration runs every row from its linear profile to
    ``fp_tol``.  Each converged orbit is certified against both
    characterization sums to ``10 * fp_tol``; with ``check_orbit`` the
    forward solution through ``xi + eta`` must also reproduce it to
    ``1e-8 max(1, |xi|)`` on the error-safe prefix (computed only that far).
    The certified rows get their ``eta`` and their decay rate
    (:func:`_decay_rates`) in one stacked step each.
    """
    h = prob.horizon
    ws = Workspace()  # every LP step and check of the block runs in its arrays
    stack = impulse_fixed_point(prob.plan, prob.F, xis, h, prob.fp_tol, prob.max_iter, ws)
    errors = list(stack.errors)
    etas = np.zeros(xis.shape, dtype=np.complex128)
    decay_rates = np.zeros(len(xis))
    ok = np.flatnonzero([e is None for e in errors])
    if not ok.size:
        return _Block(errors, etas, decay_rates, stack)
    u = stack.solution if ok.size == len(errors) else stack.solution[:, ok]
    defect = np.maximum(*_characterization_defects(prob, xis[ok], u, ws))
    etas[ok] = u[0] @ prob.split.proj_unstable.T
    decay_rates[ok] = _decay_rates(u, prob.fp_tol, ws)
    if check_orbit:
        scale = np.maximum(1.0, np.linalg.norm(xis[ok], axis=1))
        n_cmp = np.array(
            [_forward_agreement_window(prob, stack.residual[c], scale[j]) for j, c in enumerate(ok)]
        )
        fwd = forward_orbit(prob.A, prob.F, xis[ok] + etas[ok], int(np.max(n_cmp)))
        dist = np.linalg.norm(fwd - u[: len(fwd)], axis=-1)
        in_window = np.arange(len(fwd))[:, None] <= n_cmp
        dev = np.max(np.where(in_window, dist, 0.0), axis=0)
    bound = 10.0 * prob.fp_tol
    for j, c in enumerate(ok):
        if defect[j] > bound:
            errors[c] = InternalInconsistency(
                f"characterization sums defect {defect[j]:.3e} above {bound:.3e}"
            )
        elif check_orbit and dev[j] > 1e-8 * scale[j]:
            errors[c] = InternalInconsistency(
                f"forward orbit deviates by {dev[j]:.3e} from the fixed point on [0, {n_cmp[j]}]"
            )
    return _Block(errors, etas, decay_rates, stack)


def _one_point(prob: ManifoldProblem, xi, check_orbit: bool) -> ManifoldPoint:
    xi = prob.check_stable_range(xi)
    block = _manifold_points(prob, xi[None], check_orbit)
    if block.errors[0] is not None:
        raise block.errors[0]
    report = block.report
    return ManifoldPoint(
        xi=xi,
        eta=block.etas[0],
        orbit=WindowedSequence(0, report.solution[:, 0]),
        decay_rate_estimate=float(block.decay_rates[0]),
        iterations=int(report.iterations[0]),
        residual=float(report.residual[0]),
        contraction_estimate=float(report.contraction_estimate[0]),
    )


def lp_fixed_point(prob: ManifoldProblem, xi) -> ManifoldPoint:
    """Fixed point ``T(xi)`` of the cut-off map on ``[0, horizon]``.

    Starts from the linear profile ``(PAP)^n xi = A^n xi`` on Z_{>=0}
    (already exact for F = 0) and iterates to ``fp_tol`` in the ell_2
    norm.  The converged rows are checked against both characterization
    sums of the truncated map to ``10 * fp_tol``; that check cannot see
    the truncation, which the problem's certified horizon bounds by
    ``SERIES_TOL |xi|`` on row 0 and by ``nu^n SERIES_TOL |xi|`` on row
    ``n``.  This is the one-row case of the stacked sweep.
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
    4.7 stacked arrays at d = 32 (horizon 39, 16 columns of a 25-column
    block).  Each row reads only its ``eta``, its decay rate (one stacked
    fit per block) and its iteration counts, and the block's orbits go
    before the next block runs, so the sweep peaks there.
    Rows are independent; per-row failures (a malformed vector, one off the
    stable range, no convergence, a failed certificate, a non-finite
    iterate) are recorded in the ``error`` field with the same code and
    message as a one-row run, and the other rows are unaffected.  A
    malformed row keeps an empty ``xi``.  Output order follows the grid.
    """
    grid, table = [], []
    for i, x in enumerate(xi_grid):
        xi = np.empty(0, dtype=np.complex128)
        try:  # per-row isolation
            xi = _array(x, "xi").reshape(-1)
            prob.check_stable_range(xi)
            table.append(None)
        except SpecseqError as exc:
            table.append(_error_row(i, xi, exc))
        grid.append(xi)
    valid = [i for i, row in enumerate(table) if row is None]
    block = _block_width(prob)
    for start in range(0, len(valid), block):
        rows = valid[start : start + block]
        points = _manifold_points(prob, np.array([grid[i] for i in rows]), check_orbit=True)
        for j, i in enumerate(rows):
            if points.errors[j] is None:
                table[i] = SweepRow(
                    index=i,
                    xi=grid[i],
                    eta=points.etas[j],
                    decay_rate=float(points.decay_rates[j]),
                    iterations=int(points.report.iterations[j]),
                    residual=float(points.report.residual[j]),
                )
            else:
                table[i] = _error_row(i, grid[i], points.errors[j])
        del points  # the block's orbits go before the next block runs
    return table


def _error_row(index: int, xi: np.ndarray, error: SpecseqError) -> SweepRow:
    return SweepRow(
        index=index,
        xi=xi,
        eta=None,
        decay_rate=float("nan"),
        iterations=0,
        residual=float("nan"),
        error=f"{error.code}: {error}",
    )
