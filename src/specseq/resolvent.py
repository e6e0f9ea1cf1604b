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
* ``frequency``: multiplication by ``(z - A)^{-1}`` on circle samples,
  conjugated by the Z-transform.

Infinite tails are truncated at a certified length: each cut is the first
``K`` with ``||M^K|| w^K <= SERIES_TOL`` for the matrix ``M`` that acts on
``f`` itself (``A``, ``PAP`` with ``w = 1/rho``; ``M_Q`` with ``w = rho``), so
every dropped power bounds its terms relative to ``||f||_{2,rho}``.
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
    SpectrumOnCircle,
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
    impulse,
    shift,
    support_subset_geq,
    weighted_norm,
    zero_sequence,
)
from .ztransform import CircleFunction, inverse_ztransform, next_pow2, ztransform

#: Target size for truncated series tails, in the weighted norm.
SERIES_TOL = 1e-12

_TAIL_CAP = 20000

_MODES = ("causal", "split", "frequency")


def _decay_steps(mat: np.ndarray, weight: float) -> int:
    """Smallest K >= 1 with ||mat^K|| * weight^K <= SERIES_TOL (checked in logs).

    As ``||mat^K|| >= r(mat)^K``, a rate ``r(mat) * weight`` too slow for
    ``_TAIL_CAP`` steps raises before any power is formed.
    """
    if mat.size == 0:
        return 0
    log_tol = math.log(SERIES_TOL)
    log_w = math.log(weight)
    radius = float(np.max(np.abs(np.linalg.eigvals(mat))))
    rate = math.log(radius) + log_w if radius > 0.0 else -math.inf
    if rate < 0.0 and log_tol / rate <= _TAIL_CAP:
        power = mat.copy()
        for k in range(1, _TAIL_CAP + 1):
            nrm = operator_norm(power)
            if nrm == 0.0 or math.log(nrm) + k * log_w <= log_tol:
                return k
            power = power @ mat
    raise PreconditionViolation(
        f"series tail cut exceeded {_TAIL_CAP} terms; the spectral gap is too small"
    )


def linear_recurrence(M: np.ndarray, g: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Rows of the linear recurrence driven by the rows ``g_k`` of ``g``.

    Forward, ``s_{k+1} = M s_k + g_k`` from ``s_0 = 0`` and row ``k`` is
    ``s_{k+1} = sum_{j <= k} M^{k-j} g_j``.  In reverse,
    ``s_k = M (s_{k+1} - g_k)`` from ``s_K = 0`` with ``K = len(g)`` and row
    ``k`` is ``s_k = -sum_{j >= k} M^{j-k+1} g_j``.
    """
    out = np.empty(g.shape, dtype=np.complex128)
    state = np.zeros(g.shape[1], dtype=np.complex128)
    if reverse:
        for k in range(len(g) - 1, -1, -1):
            state = M @ (state - g[k])
            out[k] = state
    else:
        for k in range(len(g)):
            state = M @ state + g[k]
            out[k] = state
    return out


@dataclass
class ResolventPlan:
    """Reusable recipe for applying ``(tau - A)^{-1}`` on ell_{2,rho}.

    ``mode`` picks the route.  ``split`` is computed, not supplied: the Riesz
    splitting at ``gamma = rho`` in mode "split", whose anticausal branch is
    ``u_n = -sum_{k >= n} M_Q^{k-n+1} f_k`` with ``M_Q = (QAQ + P)^{-1} Q``.
    ``tail_cut`` is computed: the certified series truncation length of the
    route; in mode "split" it is the longer of the causal cut (through
    ``PAP``) and the anticausal cut (through ``M_Q``), both bounding the
    dropped terms relative to ``||f||_{2,rho}``.  A spectral gap
    so small that the certified length would exceed ``_TAIL_CAP`` terms
    raises ``PreconditionViolation``.
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
        moduli = np.abs(self.A.eigenvalues)
        radius = spectral_radius(self.A)
        if self.mode == "causal":
            if self.rho <= radius + GAP_TOL:
                raise NotCausalRegime(
                    f"causal application needs rho > r(A) + {GAP_TOL}; "
                    f"rho = {self.rho}, r(A) = {radius}"
                )
            self.tail_cut = _decay_steps(self.A.entries, 1.0 / self.rho)
            return

        if float(np.min(np.abs(moduli - self.rho))) <= GAP_TOL:
            raise SpectrumOnCircle(
                f"spectrum within {GAP_TOL} of the circle |z| = {self.rho}"
            )
        if self.mode == "split":
            self.split = riesz_split(self.A, self.rho)
            self._prepare_split()
        else:  # frequency
            self._prepare_frequency(moduli)

    def _prepare_split(self):
        split = self.split
        p, q = split.proj_stable, split.proj_unstable
        a = self.A.entries
        self._pap = p @ a @ p
        self._tail_p = _decay_steps(self._pap, 1.0 / self.rho) if split.rank_stable else 0
        if split.rank_unstable:
            # M_Q = (QAQ + P)^{-1} Q: A^{-1} on range(Q), zero on range(P)
            try:
                self._mq = np.linalg.solve(q @ a @ q + p, q)
            except np.linalg.LinAlgError as exc:
                raise InternalInconsistency(
                    "restriction of A to range(Q) is numerically singular; "
                    "this contradicts the spectral gap"
                ) from exc
            self._tail_q = _decay_steps(self._mq, self.rho)
        else:
            self._tail_q = 0
        self.tail_cut = max(self._tail_p, self._tail_q, 1)

    def _prepare_frequency(self, moduli):
        inside = moduli[moduli < self.rho]
        outside = moduli[moduli > self.rho]
        rates = []
        if inside.size:
            rates.append(float(np.max(inside)) / self.rho)
        if outside.size:
            rates.append(self.rho / float(np.min(outside)))
        rate = max(rates)
        k_eig = math.ceil(math.log(SERIES_TOL) / math.log(rate)) if rate > 0 else self.A.dim
        self.tail_cut = int(1.5 * k_eig) + 2 * self.A.dim + 8

    @property
    def is_causal_regime(self) -> bool:
        return self.rho > spectral_radius(self.A) + GAP_TOL


def apply_resolvent_causal(plan: ResolventPlan, f: WindowedSequence) -> WindowedSequence:
    """Causal convolution ``u_n = sum_{k <= n-1} A^{n-1-k} f_k``.

    Output window is ``[lo(f) + 1, hi(f) + tail_cut + 1]``; the dropped tail is
    below :data:`SERIES_TOL` in the ell_{2,rho} norm.
    """
    if plan.mode != "causal":
        raise InputError(f"plan mode is {plan.mode!r}, expected 'causal'")
    return _causal_branch(plan.A.entries, f, plan.tail_cut)


def _causal_branch(mat: np.ndarray, f: WindowedSequence, tail: int) -> WindowedSequence:
    # u_{n+1} = M u_n + f_n from u_lo = 0, run tail steps past hi(f).
    if f.is_zero:
        return zero_sequence(f.dim)
    g = np.concatenate([f.values, np.zeros((tail, f.dim), dtype=np.complex128)])
    return WindowedSequence(f.lo + 1, linear_recurrence(mat, g))


def _anticausal_branch(mat: np.ndarray, f: WindowedSequence, tail: int) -> WindowedSequence:
    # u_n = -sum_{k >= n} M^{k-n+1} f_k by the backward recurrence
    # u_n = M (u_{n+1} - f_n), run tail steps below lo(f).
    g = np.concatenate([np.zeros((tail, f.dim), dtype=np.complex128), f.values])
    return WindowedSequence(f.lo - tail, linear_recurrence(mat, g, reverse=True))


def apply_resolvent_split(plan: ResolventPlan, f: WindowedSequence) -> WindowedSequence:
    """Two-sided application through the Riesz splitting at gamma = rho.

    ``u = (tau - PAP)^{-1} P f + (tau - QAQ)^{-1} Q f`` with the causal
    branch on range(P) and the anticausal branch, ``M_Q`` applied to the
    unprojected ``f``, on range(Q).
    """
    if plan.mode != "split":
        raise InputError(f"plan mode is {plan.mode!r}, expected 'split'")
    if f.is_zero:
        return zero_sequence(f.dim)
    split = plan.split
    out = zero_sequence(f.dim)
    if split.rank_stable > 0:
        pf = f.apply_matrix(split.proj_stable)
        out = out + _causal_branch(plan._pap, pf, plan._tail_p)
    if split.rank_unstable > 0:
        out = out + _anticausal_branch(plan._mq, f, plan._tail_q)
    return out


def apply_resolvent_frequency(
    plan: ResolventPlan, f: WindowedSequence, n_samples: int | None = None
) -> WindowedSequence:
    """Frequency-domain application: divide by ``(z - A)`` on circle samples.

    Agrees with the mode-appropriate time-domain route to well below the
    cross-method tolerance once the sample count covers the output window.
    """
    if plan.mode != "frequency":
        raise InputError(f"plan mode is {plan.mode!r}, expected 'frequency'")
    if f.is_zero:
        return zero_sequence(f.dim)
    tail = plan.tail_cut
    lo, hi = f.window
    if plan.is_causal_regime:
        out_lo, out_hi = lo + 1, hi + tail
    else:
        out_lo, out_hi = lo - tail, hi + tail
    width = f.width
    n = next_pow2(max(4 * width, 2 * (out_hi - out_lo + 1) + 8, n_samples or 0))
    fhat = ztransform(f, plan.rho, n)
    out = np.empty_like(fhat.samples)
    for start, _, res in circle_resolvents(plan.A, fhat.rho, n):
        rows = slice(start, start + len(res))
        out[rows] = (res @ fhat.samples[rows, :, None])[:, :, 0]
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
