"""Application of the resolvent ``(tau - A)^{-1}`` to windowed sequences.

Three routes are provided and cross-checked:

* ``causal``: the one-sided convolution ``u_n = sum_{k <= n-1} A^{n-1-k} f_k``,
  valid exactly when ``rho > r(A)``; implemented as a forward recurrence.
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
``||f||_{2,rho}``.

The time-domain routes share one array-level application,
:func:`apply_resolvent_window`, which fills only a requested output window
and accepts a column axis, so many right-hand sides run through one
recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InputError,
    InternalInconsistency,
    NotCausalRegime,
    PreconditionViolation,
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
from .ztransform import CircleFunction, inverse_ztransform, next_pow2, ztransform

#: Target size for truncated series tails, in the weighted norm.
SERIES_TOL = 1e-12

#: Longest certified series tail, in terms; also the longest manifold horizon.
TAIL_CAP = 20000

#: Longest power search behind the stability and escape certificates, in steps.
CERT_CAP = 10**5

_MODES = ("causal", "split", "frequency")


#: Slack, in logs, for rounding in the power search's Frobenius test and bound M.
_LOG_SLACK = 1e-9


def _decay_steps(
    mat: np.ndarray, weight: float, level: float, cap: int, what: str
) -> tuple[int, float]:
    """Smallest K >= 1 with ||mat^K|| * weight^K <= level (checked in logs), and
    an upper bound M on ``max_{n < K} ||mat^n|| weight^n`` (n = 0 counts as 1).

    As ``||mat^K|| >= r(mat)^K``, a rate ``r(mat) * weight`` too slow for
    ``cap`` steps raises :class:`PreconditionViolation` (naming ``what``)
    before any power is formed.  The powers are formed one by one, since
    ``||mat^K||`` need not be monotone in ``K``; the 2-norm (an SVD) is
    taken only where the lower bound ``||P||_F / sqrt(d) <= ||P||_2`` does
    not already fail the test by more than :data:`_LOG_SLACK`, so ``K`` is
    that of an SVD at every step.  ``M`` is the running maximum of the
    weighted norms the search already has (the SVD where it took one, else
    the Frobenius norm), widened by :data:`_LOG_SLACK` for rounding.
    """
    if mat.size == 0:
        return 0, 1.0
    log_level = math.log(level)
    log_w = math.log(weight)
    log_sqrt_d = 0.5 * math.log(len(mat))
    radius = float(np.max(np.abs(np.linalg.eigvals(mat))))
    rate = math.log(radius) + log_w if radius > 0.0 else -math.inf
    predicted = math.ceil(log_level / rate) if rate < 0.0 else math.inf
    if predicted > cap:
        raise PreconditionViolation(
            f"{what} needs at least {predicted} terms by the spectral radius "
            f"alone, above the cap of {cap}; the spectral gap is too small"
        )
    log_peak = 0.0
    power = mat.copy()
    for k in range(1, cap + 1):
        fro = float(np.linalg.norm(power))
        log_top = math.log(fro) if 0.0 < fro < math.inf else -math.inf
        # an SVD only where the Frobenius lower bound does not already fail k
        if log_top - log_sqrt_d + k * log_w <= log_level + _LOG_SLACK:
            nrm = operator_norm(power)
            if nrm == 0.0 or math.log(nrm) + k * log_w <= log_level:
                return k, math.exp(log_peak + _LOG_SLACK)
            log_top = math.log(nrm)
        log_peak = max(log_peak, log_top + k * log_w)
        power = power @ mat
    raise PreconditionViolation(f"{what} exceeded {cap} terms; the spectral gap is too small")


def _tail_cut(mat: np.ndarray, weight: float) -> int:
    """The certified series tail cut: :func:`_decay_steps` at SERIES_TOL, TAIL_CAP."""
    return _decay_steps(mat, weight, SERIES_TOL, TAIL_CAP, "series tail cut")[0]


def linear_recurrence(M: np.ndarray, g: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Rows of the linear recurrence driven by the rows ``g_k`` of ``g``.

    Forward, ``s_{k+1} = M s_k + g_k`` from ``s_0 = 0`` and row ``k`` is
    ``s_{k+1} = sum_{j <= k} M^{k-j} g_j``.  In reverse,
    ``s_k = M (s_{k+1} - g_k)`` from ``s_K = 0`` with ``K = len(g)`` and row
    ``k`` is ``s_k = -sum_{j >= k} M^{j-k+1} g_j``.

    ``g`` is ``(K, d)`` or carries a column axis, ``(K, G, d)``: each column
    runs the same recurrence, ``M`` acting on the component axis.
    """
    out = np.empty(g.shape, dtype=np.complex128)
    state = np.zeros(g.shape[1:], dtype=np.complex128)
    mt = M.T  # s @ M.T is M s on the last axis, one product for all columns
    if reverse:
        for k in range(len(g) - 1, -1, -1):
            state = (state - g[k]) @ mt
            out[k] = state
    else:
        for k in range(len(g)):
            state = state @ mt + g[k]
            out[k] = state
    return out


@dataclass
class ResolventPlan:
    """Reusable recipe for applying ``(tau - A)^{-1}`` on ell_{2,rho}.

    ``mode`` picks the route.  Every mode carries the branches of a
    time-domain route, which fix its certified output window: in mode
    "causal", and in mode "frequency" when ``rho > r(A) + GAP_TOL``, the
    causal branch ``(A, None, tail)``; otherwise the branches of the Riesz
    splitting at ``gamma = rho``, a causal branch ``(PAP, P, tail)`` and an
    anticausal branch ``(M_Q, tail)`` for
    ``u_n = -sum_{k >= n} M_Q^{k-n+1} f_k`` with ``M_Q = (QAQ + P)^{-1} Q``;
    a branch on a zero-rank range is ``None``.  ``split`` is computed, not
    supplied: that splitting, or ``None`` where no branch needs it.
    ``tail_cut`` is computed: the longer of the branch cuts, each bounding
    the dropped terms relative to ``||f||_{2,rho}``.  A spectral gap so
    small that a certified cut would exceed ``TAIL_CAP`` terms raises
    ``PreconditionViolation``.
    """

    A: BoundedOperator
    rho: float
    mode: str
    split: SpectralSplit | None = field(init=False, default=None)
    tail_cut: int = field(init=False)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise InputError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise InputError(f"rho must be positive and finite, got {self.rho!r}")
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
            self.tail_cut = _tail_cut(self.A.entries, 1.0 / self.rho)
            self._causal = (self.A.entries, None, self.tail_cut)

    def _prepare_split(self):
        split = self.split
        p, q = split.proj_stable, split.proj_unstable
        a = self.A.entries
        if split.rank_stable:
            pap = p @ a @ p
            self._causal = (pap, p, _tail_cut(pap, 1.0 / self.rho))
        if split.rank_unstable:
            # M_Q = (QAQ + P)^{-1} Q: A^{-1} on range(Q), zero on range(P)
            try:
                mq = np.linalg.solve(q @ a @ q + p, q)
            except np.linalg.LinAlgError as exc:
                raise InternalInconsistency(
                    "restriction of A to range(Q) is numerically singular; "
                    "this contradicts the spectral gap"
                ) from exc
            self._anticausal = (mq, _tail_cut(mq, self.rho))
        branches = (self._causal, self._anticausal)
        self.tail_cut = max([b[-1] for b in branches if b is not None] + [1])


def apply_resolvent_window(
    plan: ResolventPlan, f: np.ndarray, lo: int, out_lo: int, out_hi: int
) -> np.ndarray:
    """Rows ``[out_lo, out_hi]`` of ``(tau - A)^{-1} f`` in mode "causal" or "split".

    ``f`` holds the rows ``f_lo, f_{lo+1}, ...`` of the data (zero
    elsewhere), each a vector or, with a column axis, a ``(G, d)`` stack.
    The causal branch ``u_n = sum_{k <= n-1} M^{n-1-k} P f_k`` runs forward
    from ``lo`` only up to ``out_hi``; the anticausal branch
    ``u_n = -sum_{k >= n} M_Q^{k-n+1} f_k`` runs backward from the last row of
    ``f`` only down to ``out_lo``.  Each row equals the same row of the
    full-window application: the causal branch ends ``tail_cut`` rows past
    the support of ``f`` (of all columns together) and the anticausal
    branch starts ``tail_cut`` rows before it.
    """
    if plan.mode == "frequency":
        raise InputError("plan mode is 'frequency', expected 'causal' or 'split'")
    out = np.zeros((out_hi - out_lo + 1,) + f.shape[1:], dtype=np.complex128)
    support = np.flatnonzero(np.any(f.reshape(len(f), -1) != 0, axis=1))
    if not support.size:
        return out
    f = f[support[0] : support[-1] + 1]
    lo, hi = lo + int(support[0]), lo + int(support[-1])
    # Each branch's rows are added as soon as they are computed, so at most
    # one branch's rows are held at a time.
    if plan._anticausal is not None:
        mat, tail = plan._anticausal
        # row n reads f_k for k >= n: run the rows hi down to start
        start, end = max(out_lo, lo - tail), min(out_hi, hi)
        if start <= end:
            g = dense_rows(f, lo, start, hi)
            out[start - out_lo : end - out_lo + 1] += linear_recurrence(mat, g, reverse=True)[
                : end - start + 1
            ]
    if plan._causal is not None:
        mat, proj, tail = plan._causal
        # row n reads f_k for k <= n - 1: run the rows lo .. end - 1
        start, end = max(out_lo, lo + 1), min(out_hi, hi + tail + 1)
        if start <= end:
            if proj is not None:  # one product over all rows and columns
                f = (f.reshape(-1, f.shape[-1]) @ proj.T).reshape(f.shape)
            g = dense_rows(f, lo, lo, end - 1)
            out[start - out_lo : end - out_lo + 1] += linear_recurrence(mat, g)[start - lo - 1 :]
    return out


def _output_window(plan: ResolventPlan, f: WindowedSequence) -> tuple[int, int]:
    # The whole certified output window: [lo - tail_Q, hi + tail_P + 1], with
    # a missing branch contributing no rows beyond the data's side.
    causal, anticausal = plan._causal, plan._anticausal  # tails come last
    out_lo = f.lo - anticausal[-1] if anticausal else f.lo + 1
    out_hi = f.hi + causal[-1] + 1 if causal else f.hi
    return out_lo, out_hi


def _apply_full(plan: ResolventPlan, f: WindowedSequence) -> WindowedSequence:
    if f.is_zero:
        return zero_sequence(f.dim)
    out_lo, out_hi = _output_window(plan, f)
    return WindowedSequence(out_lo, apply_resolvent_window(plan, f.values, f.lo, out_lo, out_hi))


def apply_resolvent_causal(plan: ResolventPlan, f: WindowedSequence) -> WindowedSequence:
    """Causal convolution ``u_n = sum_{k <= n-1} A^{n-1-k} f_k``.

    Output window is ``[lo(f) + 1, hi(f) + tail_cut + 1]``; the dropped tail is
    below :data:`SERIES_TOL` in the ell_{2,rho} norm.
    """
    if plan.mode != "causal":
        raise InputError(f"plan mode is {plan.mode!r}, expected 'causal'")
    return _apply_full(plan, f)


def apply_resolvent_split(plan: ResolventPlan, f: WindowedSequence) -> WindowedSequence:
    """Two-sided application through the Riesz splitting at gamma = rho.

    ``u = (tau - PAP)^{-1} P f + (tau - QAQ)^{-1} Q f`` with the causal
    branch on range(P) and the anticausal branch, ``M_Q`` applied to the
    unprojected ``f``, on range(Q); the full-window case of
    :func:`apply_resolvent_window`.
    """
    if plan.mode != "split":
        raise InputError(f"plan mode is {plan.mode!r}, expected 'split'")
    return _apply_full(plan, f)


def apply_resolvent_frequency(
    plan: ResolventPlan, f: WindowedSequence, n_samples: int | None = None
) -> WindowedSequence:
    """Frequency-domain application: solve ``(z - A) x = f^(z)`` on circle samples.

    The output window is that of the time-domain route whose branches the
    plan carries, ``[lo(f) + 1, hi(f) + tail_cut + 1]`` in the causal regime
    and ``[lo(f) - tail_Q, hi(f) + tail_P + 1]`` otherwise, so the dropped
    tail is certified as there.  The sample count, a power of two, is at
    least twice the window length, so the periodic images of the solution
    overlap the window only where they are below the certified cut; it
    agrees with the time-domain route up to the rounding of the transforms.
    """
    if plan.mode != "frequency":
        raise InputError(f"plan mode is {plan.mode!r}, expected 'frequency'")
    if f.is_zero:
        return zero_sequence(f.dim)
    out_lo, out_hi = _output_window(plan, f)
    n = next_pow2(max(4 * f.width, 2 * (out_hi - out_lo + 1) + 8, n_samples or 0))
    fhat = ztransform(f, plan.rho, n)
    out = np.empty_like(fhat.samples)
    for start, _, x in circle_resolvents(plan.A, fhat.rho, n, fhat.samples[:, :, None]):
        out[start : start + len(x)] = x[:, :, 0]
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
    predicate ``rho > r(A)``.
    """
    plan = ResolventPlan(A, rho, "split")
    witness = apply_resolvent_split(plan, impulse(-1, x))
    return support_subset_geq(witness, 0), witness
