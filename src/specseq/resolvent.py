"""Application of the resolvent ``(tau - A)^{-1}`` to windowed sequences.

Three routes are provided and cross-checked:

* ``causal``: the one-sided convolution ``u_n = sum_{k <= n-1} A^{n-1-k} f_k``,
  valid exactly when ``rho > r(A)``; the forward recurrence
  ``s_{k+1} = A s_k + f_k``.
* ``split``: the two-sided formulas through a Riesz splitting
  ``P + Q = I`` at ``gamma = rho``: the causal branch
  ``sum_{k <= n-1} (PAP)^{n-1-k} P f_k`` on the stable range plus the
  anticausal branch ``u_n = -sum_{k >= n} M_Q^{k-n+1} f_k`` with
  ``M_Q = (QAQ + P)^{-1} Q``, the inverse of ``A`` on range(Q) and zero on
  range(P); a forward and a backward recurrence in C^d.
* ``frequency``: one solve ``(z - A) x = f^(z)`` per circle sample,
  conjugated by the Z-transform, over the output window of the causal
  route when ``rho > r(A)`` and of the split route otherwise.

Infinite tails are truncated at a certified length in every mode: each cut
is the first ``K`` with ``||M^K|| w^K <= SERIES_TOL`` for the matrix ``M``
that acts on ``f`` itself (``A``, ``PAP`` with ``w = 1/rho``; ``M_Q`` with
``w = rho``), so every dropped power bounds its terms relative to
``||f||_{2,rho}``.  A plan computes its cuts on first use by a full route,
the one reader of its output window; a caller that asks
:func:`apply_resolvent_window` for rows of its own choosing never pays for
them.

The time-domain routes share one array-level application,
:func:`apply_resolvent_window`, which fills only a requested output window
and accepts a column axis, so many right-hand sides run through one
recurrence.  Every recurrence is :func:`linear_recurrence`: a single column
runs as a chunked doubling scan in about ``log2 L + K / L`` array steps for
``K`` rows, several columns row by row.

The power search behind the tail cuts, :func:`decay_steps`, also certifies
exponential stability (:func:`stability_classify`) and the escape of every
nonzero orbit from spectrum outside the unit disk
(:func:`spectrum_escape_check`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    IndeterminateStability,
    InputError,
    InternalInconsistency,
    NotCausalRegime,
    PreconditionViolation,
    _choice,
    _positive,
    _same_dim,
    _vector,
)
from .operators import (
    GAP_TOL,
    BoundedOperator,
    SpectralSplit,
    circle_resolvents,
    operator_norm,
    riesz_split,
    spectral_radius,
)
from .sequences import (
    Weight,
    WindowedSequence,
    dense_rows,
    impulse,
    shift,
    support_subset_geq,
    weighted_norm,
    zero_sequence,
)
from .workspace import Workspace
from .ztransform import CircleFunction, _finite, inverse_ztransform, next_pow2, ztransform

#: Target size for truncated series tails, in the weighted norm.
SERIES_TOL = 1e-12

#: Longest certified series tail, in terms; also the longest manifold horizon.
TAIL_CAP = 20000

#: Longest power search behind the stability and escape certificates, in steps.
CERT_CAP = 10**5

_MODES = ("causal", "split", "frequency")


#: Slack, in logs, for rounding in the power search's Frobenius test and bound M.
_LOG_SLACK = 1e-9


def decay_steps(
    mat: np.ndarray,
    radius: float,
    weight: float,
    level: float,
    cap: int,
    what: str,
    bound: bool = True,
) -> tuple[int, float]:
    """Smallest K >= 1 with ||mat^K|| * weight^K <= level (checked in logs), and
    an upper bound M on ``max_{n < K} ||mat^n|| weight^n`` (n = 0 counts as 1).

    ``radius`` is ``r(mat)``, which the caller reads from the cached
    eigenvalues of its operator: ``r(A)`` for ``A`` itself, ``r_inside`` of
    the split for ``PAP``, ``r_outside_inv`` for ``M_Q``, and
    ``1 / min |lambda|`` for ``A^{-1}``.  As ``||mat^K|| >= radius^K``, a rate ``radius * weight``
    too slow for ``cap`` steps raises :class:`PreconditionViolation` (naming
    ``what``) before any power is formed.  The powers are formed one by
    one, since ``||mat^K||`` need not be monotone in ``K``; the 2-norm (an
    SVD) is taken only where the lower bound ``||P||_F / sqrt(d) <= ||P||_2``
    does not already fail the test by more than :data:`_LOG_SLACK`, so ``K``
    is that of an SVD at every step.  ``M`` is the running maximum of the
    weighted norms the search already has (the SVD where it took one, else
    the Frobenius norm), widened by :data:`_LOG_SLACK` for rounding.

    A caller that reads no ``M`` passes ``bound=False`` (``M`` is then nan):
    no norm is taken below ``k = ceil((log level + _LOG_SLACK) / log(radius
    weight))``, where ``radius^k weight^k`` alone fails the test by more
    than :data:`_LOG_SLACK`.  Those powers are still formed one by one, so
    ``K`` is the same.
    """
    log_level = math.log(level)
    log_w = math.log(weight)
    log_sqrt_d = 0.5 * math.log(len(mat))
    rate = math.log(radius) + log_w if radius > 0.0 else -math.inf
    predicted = math.ceil(log_level / rate) if rate < 0.0 else math.inf
    if predicted > cap:
        raise PreconditionViolation(
            f"{what} needs at least {predicted} terms by the spectral radius "
            f"alone, above the cap of {cap}; the spectral gap is too small"
        )
    first = 1 if bound else max(1, math.ceil((log_level + _LOG_SLACK) / rate))
    log_peak = 0.0
    power = mat.copy()
    for _ in range(1, first):
        power = power @ mat
    for k in range(first, cap + 1):
        fro = float(np.linalg.norm(power))
        log_top = math.log(fro) if 0.0 < fro < math.inf else -math.inf
        # an SVD only where the Frobenius lower bound does not already fail k
        if log_top - log_sqrt_d + k * log_w <= log_level + _LOG_SLACK:
            nrm = operator_norm(power)
            if nrm == 0.0 or math.log(nrm) + k * log_w <= log_level:
                return k, math.exp(log_peak + _LOG_SLACK) if bound else math.nan
            log_top = math.log(nrm)
        log_peak = max(log_peak, log_top + k * log_w)
        power = power @ mat
    raise PreconditionViolation(f"{what} exceeded {cap} terms; the spectral gap is too small")


def _tail_cut(mat: np.ndarray, radius: float, weight: float) -> int:
    """The certified series tail cut: :func:`decay_steps` at SERIES_TOL, TAIL_CAP."""
    return decay_steps(mat, radius, weight, SERIES_TOL, TAIL_CAP, "series tail cut", bound=False)[0]


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


def spectrum_escape_check(A: BoundedOperator, x) -> bool:
    """Numerical rendering of: spectrum outside the closed unit disk forces
    every square-summable orbit to start at 0.

    ``x`` must be a vector of finite numbers (else :class:`InputError`) of
    ``A``'s dimension (else :class:`DimensionMismatch`), checked first.
    Requires all eigenvalue moduli above ``1 + GAP_TOL``.
    The power search on ``A^{-1}`` finds an ``n`` with ``||A^{-n}|| <= 1/2``, so that
    ``|A^{qn} x| >= 2^q |x|`` for every ``x``: no orbit but the zero one is
    square-summable, and the answer is True.  Without such an ``n`` within
    ``CERT_CAP`` steps it raises :class:`PreconditionViolation`, at once
    when the spectral radius ``1 / min |lambda|`` of ``A^{-1}`` alone rules
    the cap out.
    """
    _vector(x, "x", A.dim)
    least = float(np.min(np.abs(A.eigenvalues)))
    if least <= 1.0 + GAP_TOL:
        raise PreconditionViolation(
            f"escape check requires all eigenvalue moduli above 1 + {GAP_TOL}"
        )
    decay_steps(
        np.linalg.inv(A.entries), 1.0 / least, 1.0, 0.5, CERT_CAP, "escape certificate", bound=False
    )
    return True


#: Bound on ``L d^2`` for a single column's doubling scan: its chunk length
#: L doubles while ``L d^2`` stays within this.
_SCAN_BUDGET = 2**12


def _scan_length(rows: int, columns: int) -> int:
    # How many of the powers M, M^2, M^4, ... a scan of rows rows can use: up
    # to the first L = 2^(n-1) >= rows; several columns run row by row.
    return 1 if columns > 1 else max(rows - 1, 0).bit_length() + 1


def _scan_powers(M: np.ndarray) -> list[np.ndarray]:
    """``[M, M^2, M^4, ..., M^L]`` for the doubling scan of a single column.

    ``L`` doubles only for a finite ``||M||_F``, while ``2L d^2`` stays
    within :data:`_SCAN_BUDGET`, and only up to the first square whose
    Frobenius norm exceeds ``max(1, ||M||_F)``: each product of the scan
    then rounds no worse than one step of the sequential loop.  A scan of
    ``rows`` rows in ``columns`` columns uses the first :func:`_scan_length`
    entries, as longer chunks change no row; so every row is the same for
    any longer run with the same ``M``.
    """
    powers = [M]
    limit = max(1.0, np.vdot(M, M).real)  # squared norms: one vdot each
    if not limit < math.inf:
        return powers
    while 2 ** len(powers) * M.size <= _SCAN_BUDGET:
        square = powers[-1] @ powers[-1]
        if not np.vdot(square, square).real <= limit:
            break
        powers.append(square)
    return powers


def _doubling_scan(powers: list[np.ndarray], s: np.ndarray) -> None:
    """Rows ``s_k = sum_{j <= k} M^{k-j} g_j`` of a ``(K, 1, d)`` stack ``s``
    that holds ``g`` and receives the rows in place, with
    ``powers = [M, M^2, ..., M^L]``: Kogge-Stone doubling steps sum each
    row's last ``L`` terms, then a stride-``L`` carry adds ``M^L s_{k-L}``.

    Every product is one ``np.matmul`` over a ``(rows, 1, d)`` stack, which
    rounds each row alone: a flat ``(rows, d)`` product may round a row
    differently with the number of rows.
    """
    for t, power in enumerate(powers[:-1]):
        shift = 1 << t
        s[shift:] += s[:-shift] @ power.T
    span, carry = 1 << (len(powers) - 1), powers[-1].T
    for start in range(span, len(s), span):
        block = s[start : start + span]
        block += s[start - span : start - span + len(block)] @ carry


def linear_recurrence(
    M: np.ndarray,
    g: np.ndarray,
    reverse: bool = False,
    out: np.ndarray | None = None,
    powers: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Rows of the linear recurrence driven by the rows ``g_k`` of ``g``.

    Forward, ``s_{k+1} = M s_k + g_k`` from ``s_0 = 0`` and row ``k`` is
    ``s_{k+1} = sum_{j <= k} M^{k-j} g_j``.  In reverse,
    ``s_k = M (s_{k+1} - g_k)`` from ``s_K = 0`` with ``K = len(g)`` and row
    ``k`` is ``s_k = -sum_{j >= k} M^{j-k+1} g_j``.

    ``g`` is ``(K, d)`` or carries a column axis, ``(K, G, d)``: each column
    runs the same recurrence, ``M`` acting on the component axis.  A single
    column runs as a doubling scan (:func:`_doubling_scan`) in about
    ``log2 L + K / L`` steps; where :func:`_scan_powers` leaves ``L = 1``,
    as for several columns, the rows run one by one.  Either way a row
    depends only on ``M`` and the rows of ``g`` from the first (in reverse,
    the last) up to it, never on ``K``.

    The rows are written into ``out``, a C-contiguous complex array of the
    shape of ``g`` (a new one when None), which may be ``g`` itself.
    ``powers``, when given, is ``_scan_powers(M)``, kept by the caller (a
    plan keeps one per branch) so that no call squares ``M`` again.
    """
    columns = g.shape[1] if g.ndim == 3 else 1
    powers = (_scan_powers(M) if powers is None else powers)[: _scan_length(len(g), columns)]
    if out is None:
        out = np.empty(g.shape, dtype=np.complex128)
    if out is not g:
        np.copyto(out, g)  # every route below turns the rows of g into s in place
    mt = M.T  # s @ M.T is M s on the last axis, one product for all columns
    if len(powers) > 1:
        s = out.reshape(len(g), 1, g.shape[-1])
        if not reverse:
            _doubling_scan(powers, s)
            return out
        # s_k = M r_k for the forward scan r of the rows -g_k taken from the end
        r = s[::-1]
        np.negative(r, out=r)
        _doubling_scan(powers, r)
        np.matmul(r, mt, out=r)
        return out
    prev = np.zeros(g.shape[1:], dtype=np.complex128)  # s_0, or s_K in reverse
    step = np.empty_like(prev)
    for k in range(len(g) - 1, -1, -1) if reverse else range(len(g)):
        row = out[k]  # g_k, until it receives s
        if reverse:
            np.subtract(prev, row, out=step)
            np.matmul(step, mt, out=row)
        else:
            np.matmul(prev, mt, out=step)
            np.add(step, row, out=row)
        prev = row
    return out


@dataclass
class ResolventPlan:
    """Reusable recipe for applying ``(tau - A)^{-1}`` on ell_{2,rho}.

    ``mode`` picks the route.  Every mode carries the branches of a
    time-domain route, which fix its certified output window: in mode
    "causal", and in mode "frequency" when ``rho > r(A) + GAP_TOL``, the
    causal branch ``(A, None)``; otherwise the branches of the Riesz
    splitting at ``gamma = rho``, a causal branch ``(PAP, P)`` and an
    anticausal branch ``M_Q`` for ``u_n = -sum_{k >= n} M_Q^{k-n+1} f_k``
    with ``M_Q = (QAQ + P)^{-1} Q``; a branch on a zero-rank range is
    ``None``.  ``split`` is computed, not supplied: that splitting, or
    ``None`` where no branch needs it.

    ``tail_cut`` is the longer of the branch cuts, each bounding the
    dropped terms relative to ``||f||_{2,rho}``.  The cuts are computed on
    first use by a full route (:func:`apply_resolvent_causal`,
    :func:`apply_resolvent_split`, :func:`apply_resolvent_frequency`), or
    on the first read of ``tail_cut``, before any window is allocated; a
    spectral gap so small that a certified cut would exceed ``TAIL_CAP``
    terms raises ``PreconditionViolation`` there.  Windows of the caller's
    choosing (:func:`apply_resolvent_window`) read no cut.
    """

    A: BoundedOperator
    rho: float
    mode: str
    split: SpectralSplit | None = field(init=False, default=None)

    def __post_init__(self):
        _choice(self.mode, "mode", _MODES)
        self.rho = _positive(self.rho, "rho")
        radius = spectral_radius(self.A)
        causal_regime = self.rho > radius + GAP_TOL
        self._causal = self._anticausal = None
        if self.mode == "causal" and not causal_regime:
            raise NotCausalRegime(
                f"causal application needs rho > r(A) + {GAP_TOL}; "
                f"rho = {self.rho}, r(A) = {radius}"
            )
        if self.mode == "split" or not causal_regime:
            self.split = riesz_split(self.A, self.rho)
            self._prepare_split()
        else:
            self._causal = (self.A.entries, None)

    def _prepare_split(self):
        split = self.split
        p, q = split.proj_stable, split.proj_unstable
        a = self.A.entries
        if split.rank_stable:
            self._causal = (p @ a @ p, p)
        if split.rank_unstable:
            # M_Q = (QAQ + P)^{-1} Q: A^{-1} on range(Q), zero on range(P)
            try:
                self._anticausal = np.linalg.solve(q @ a @ q + p, q)
            except np.linalg.LinAlgError as exc:
                raise InternalInconsistency(
                    "restriction of A to range(Q) is numerically singular; "
                    "this contradicts the spectral gap"
                ) from exc

    @cached_property
    def _tails(self) -> tuple[int | None, int | None]:
        # The certified cuts of the causal and the anticausal branch (None
        # for a missing branch), the causal one searched first; the radius
        # of each branch matrix comes from the cached eigendata
        causal = anticausal = None
        if self._causal is not None:
            radius = spectral_radius(self.A) if self.split is None else self.split.r_inside
            causal = _tail_cut(self._causal[0], radius, 1.0 / self.rho)
        if self._anticausal is not None:
            anticausal = _tail_cut(self._anticausal, self.split.r_outside_inv, self.rho)
        return causal, anticausal

    @property
    def tail_cut(self) -> int:
        """The longer of the certified branch cuts, at least 1."""
        return max([t for t in self._tails if t is not None] + [1])

    @cached_property
    def _scan_squares(self) -> tuple:
        # The doubling-scan powers of the causal and the anticausal branch
        # matrix (None for a missing branch), squared once per plan, when a
        # window is first applied, for any number of rows.
        causal = None if self._causal is None else self._causal[0]
        return tuple(None if m is None else _scan_powers(m) for m in (causal, self._anticausal))


def apply_resolvent_window(
    plan: ResolventPlan,
    f: np.ndarray,
    lo: int,
    out_lo: int,
    out_hi: int,
    out: np.ndarray | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Rows ``[out_lo, out_hi]`` of ``(tau - A)^{-1} f`` in mode "causal" or "split".

    ``f`` holds the rows ``f_lo, f_{lo+1}, ...`` of the data (zero
    elsewhere), each a vector or, with a column axis, a ``(G, d)`` stack.
    The causal branch ``u_n = sum_{k <= n-1} M^{n-1-k} P f_k`` runs forward
    from ``lo`` up to ``out_hi``; the anticausal branch
    ``u_n = -sum_{k >= n} M_Q^{k-n+1} f_k`` runs backward from the last row of
    ``f`` down to ``out_lo``.  No row is cut: every row of the window is the
    series' own value, and a row inside the plan's certified window (that of
    :func:`apply_resolvent_causal` or :func:`apply_resolvent_split`) equals
    the same row of that full application bit for bit.  Past that window
    every row is a sum of the powers the tail cuts drop, each of which
    bounds its terms by :data:`SERIES_TOL` relative to ``||f||_{2,rho}``.

    The rows are written into ``out``, a C-contiguous complex array of the
    window's shape (a new one when None); the rows of each branch are lent
    by ``ws`` (a fresh :class:`Workspace` when None).
    """
    if plan.mode == "frequency":
        raise InputError("plan mode is 'frequency', expected 'causal' or 'split'")
    if out is None:
        out = np.zeros((out_hi - out_lo + 1,) + f.shape[1:], dtype=np.complex128)
    else:
        out.fill(0)
    hi = lo + len(f) - 1
    ws = Workspace() if ws is None else ws
    causal_powers, anticausal_powers = plan._scan_squares
    # Each branch's rows are added to the zeroed window as soon as they are
    # computed, so one branch's rows are held at a time (0 + a + c is the
    # same sum bit for bit in either order).
    if plan._causal is not None:
        mat, proj = plan._causal
        # row n reads f_k for k <= n - 1: run the rows lo .. out_hi - 1
        start = max(out_lo, lo + 1)
        if start <= out_hi:
            g = ws.take((out_hi - lo,) + f.shape[1:])
            data = f[: len(g)]
            if proj is None:
                g[: len(data)] = data
            else:  # one product over all rows and columns
                d = f.shape[-1]
                np.matmul(data.reshape(-1, d), proj.T, out=g[: len(data)].reshape(-1, d))
            g[len(data) :] = 0
            linear_recurrence(mat, g, out=g, powers=causal_powers)
            out[start - out_lo :] += g[start - lo - 1 :]
            ws.give(g)
    if plan._anticausal is not None:
        mat = plan._anticausal
        # row n reads f_k for k >= n: run the rows hi down to out_lo
        end = min(out_hi, hi)
        if out_lo <= end:
            g = dense_rows(f, lo, out_lo, hi)
            rows = ws.take(g.shape)
            linear_recurrence(mat, g, reverse=True, out=rows, powers=anticausal_powers)
            out[: end - out_lo + 1] += rows[: end - out_lo + 1]
            ws.give(rows)
    return out


def _plan_window(plan: ResolventPlan, f: WindowedSequence, mode: str) -> tuple[int, int] | None:
    # Where a plan meets its data: the plan's mode and f's dimension are
    # checked, the cuts computed (so an uncertifiable one raises for f = 0
    # too), then the whole certified output window, [lo - tail_Q,
    # hi + tail_P + 1] with a missing branch contributing no rows beyond the
    # data's side, is returned (None for f = 0).
    if plan.mode != mode:
        raise InputError(f"plan mode is {plan.mode!r}, expected {mode!r}")
    _same_dim(f.dim, plan.A.dim, "sequence")
    causal, anticausal = plan._tails
    if f.is_zero:
        return None
    out_lo = f.lo + 1 if anticausal is None else f.lo - anticausal
    out_hi = f.hi if causal is None else f.hi + causal + 1
    return out_lo, out_hi


def _apply_full(plan: ResolventPlan, f: WindowedSequence, mode: str) -> WindowedSequence:
    # the body of apply_resolvent_causal and apply_resolvent_split
    window = _plan_window(plan, f, mode)
    if window is None:
        return zero_sequence(f.dim)
    return WindowedSequence(window[0], apply_resolvent_window(plan, f.values, f.lo, *window))


def apply_resolvent_causal(plan: ResolventPlan, f: WindowedSequence) -> WindowedSequence:
    """Causal convolution ``u_n = sum_{k <= n-1} A^{n-1-k} f_k``.

    Output window is ``[lo(f) + 1, hi(f) + tail_cut + 1]``; the dropped tail is
    below :data:`SERIES_TOL` in the ell_{2,rho} norm.
    """
    return _apply_full(plan, f, "causal")


def apply_resolvent_split(plan: ResolventPlan, f: WindowedSequence) -> WindowedSequence:
    """Two-sided application through the Riesz splitting at gamma = rho.

    ``u = (tau - PAP)^{-1} P f + (tau - QAQ)^{-1} Q f`` with the causal
    branch on range(P) and the anticausal branch, ``M_Q`` applied to the
    unprojected ``f``, on range(Q); the full-window case of
    :func:`apply_resolvent_window`.
    """
    return _apply_full(plan, f, "split")


def apply_resolvent_frequency(plan: ResolventPlan, f: WindowedSequence) -> WindowedSequence:
    """Frequency-domain application: solve ``(z - A) x = f^(z)`` on circle samples.

    The output window is that of the time-domain route whose branches the
    plan carries, ``[lo(f) + 1, hi(f) + tail_cut + 1]`` in the causal regime
    and ``[lo(f) - tail_Q, hi(f) + tail_P + 1]`` otherwise, so the dropped
    tail is certified as there.  The sample count, a power of two, is at
    least twice the window length, so the periodic images of the solution
    overlap the window only where they are below the certified cut; it
    agrees with the time-domain route up to the rounding of the transforms.
    A solution sample that overflows raises :class:`NormOverflow`.
    """
    window = _plan_window(plan, f, "frequency")
    if window is None:
        return zero_sequence(f.dim)
    out_lo, out_hi = window
    n = next_pow2(max(4 * f.width, 2 * (out_hi - out_lo + 1) + 8))
    fhat = ztransform(f, plan.rho, n)
    out = np.empty_like(fhat.samples)
    for start, _, x in circle_resolvents(plan.A, fhat.rho, n, fhat.samples[:, :, None]):
        out[start : start + len(x)] = x[:, :, 0]
    out = _finite(out, "a solution sample", plan.rho)
    return inverse_ztransform(CircleFunction(plan.rho, out), (out_lo, out_hi))


def equation_residual(
    u: WindowedSequence, A: BoundedOperator, f: WindowedSequence, rho: float
) -> float:
    """The ell_{2,rho} norm of ``tau u - A u - f``."""
    res = shift(u, 1) - u.apply_matrix(A.entries) - f
    return weighted_norm(res, Weight(rho, 2.0))


def causality_probe(A: BoundedOperator, rho: float, x) -> tuple[bool, WindowedSequence]:
    """Empirical causality test of ``(tau - A)^{-1}`` on ell_{2,rho}.

    Applies the split-mode resolvent to the impulse ``delta_{-1} x`` and
    reports whether the witness is supported in Z_{>=0}; this equals the
    predicate ``rho > r(A)``.  An ``x`` of another dimension than ``A``'s
    raises :class:`DimensionMismatch`.
    """
    plan = ResolventPlan(A, rho, "split")
    witness = apply_resolvent_split(plan, impulse(-1, x))
    return support_subset_geq(witness, 0), witness
