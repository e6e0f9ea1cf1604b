"""Dense operator algebra on C^d: spectra, resolvents, circle suprema, and
Riesz spectral projections.

Operator norms throughout are spectral 2-norms (largest singular value).
Riesz projections are the matrix sign function of a Cayley transform, and
frequency-mode solves reduce over the node blocks of
:func:`circle_resolvents`.  The circle supremum
``M_r = sup_{|z| = r} ||(z - A)^{-1}||`` that gates admissibility is a
certified upper bound, within a factor ``1 + SUP_REL_TOL`` of the true
value: smallest singular values of ``z I - A`` on an adaptive grid, bounded
between nodes by the larger of a Lipschitz (first-order) and a concavity
(second-order) bound, less a margin for the SVD's rounding (the level-set
method of Boyd & Balakrishnan 1990 is the test oracle only).  Every
bisection round also brackets it, and a caller that reads no value stops
once the bracket decides its question (see :func:`circle_sup_resolvent`).
Circles ``S_r = {|z| = r}`` are always assumed to avoid the spectrum by at
least :data:`GAP_TOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenSolverFailure,
    IndeterminateHyperbolic,
    NormOverflow,
    PreconditionViolation,
    QuadratureError,
    SpectrumHit,
    SpectrumOnCircle,
    _array,
    _integer,
    _number,
    _positive,
    _square,
)

#: Minimum admissible distance between eigenvalue moduli and a test circle.
GAP_TOL = 1e-6

#: Default exclusion radius around eigenvalues for pointwise resolvents.
EIG_TOL = 1e-9

#: Most Newton steps for the matrix sign function of a Riesz split.
MAX_SIGN_STEPS = 100

#: Idempotency defect ``||P^2 - P||`` a Riesz projection must reach.
PROJ_TOL = 1e-10

#: Relative tolerance of the certified circle supremum: the returned bound is
#: at most ``1 + SUP_REL_TOL`` times the largest sampled resolvent norm.
SUP_REL_TOL = 1e-3

#: Hard cap on the nodes one certified circle supremum evaluates.
MAX_SUP_NODES = 2**14


def operator_norm(mat: np.ndarray) -> float:
    """Spectral 2-norm (largest singular value)."""
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


class BoundedOperator:
    """A bounded operator on C^d as a dense complex matrix.

    The eigenvalues are computed lazily on first use and cached, and they are
    the only decomposition of the spectrum: every spectral radius, split rank
    and certificate rate is read from them.  No eigenvector or canonical form
    is ever computed; the Riesz machinery never needs Jordan structure.
    """

    def __init__(self, entries):
        mat = _square(entries, "operator entries").copy()
        mat.setflags(write=False)
        self._entries = mat
        self._eig = None
        self._norm = None

    @classmethod
    def diagonal(cls, diag) -> "BoundedOperator":
        return cls(np.diag(_array(diag, "operator diagonal")))

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    def _eigendata(self):
        if self._eig is None:
            try:
                self._eig = np.linalg.eigvals(self._entries)
            except np.linalg.LinAlgError as exc:
                raise EigenSolverFailure(f"eigen decomposition failed: {exc}") from exc
        return self._eig

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigendata()

    def norm(self) -> float:
        if self._norm is None:
            self._norm = operator_norm(self._entries)
        return self._norm

    def __repr__(self):
        return f"BoundedOperator(dim={self.dim})"


@dataclass(frozen=True)
class SpectralSplit:
    """Riesz projection pair at circle radius ``gamma``.

    ``proj_stable`` projects onto the invariant subspace of eigenvalues inside
    ``S_gamma`` along the complementary invariant subspace; ``proj_unstable`` is the
    complement.  ``r_inside`` is the largest inside modulus (0 when nothing is inside)
    and ``r_outside_inv`` the largest reciprocal modulus outside (0 when nothing is
    outside).  ``rank_stable`` and ``rank_unstable`` count the eigenvalues inside and
    outside, which ``riesz_split`` checks against ``tr P``.  ``quad_points`` counts the
    Newton sign steps (named for the bench tracer).
    """

    gamma: float
    proj_stable: np.ndarray
    proj_unstable: np.ndarray
    r_inside: float
    r_outside_inv: float
    rank_stable: int
    rank_unstable: int
    idempotency_defect: float = 0.0
    commutation_defect: float = 0.0
    quad_points: int = 0


def spectral_radius(A: BoundedOperator) -> float:
    """Largest eigenvalue modulus; agrees with lim ||A^n||^(1/n)."""
    return float(np.max(np.abs(A.eigenvalues)))


def resolvent_at(A: BoundedOperator, z: complex) -> np.ndarray:
    """The matrix ``(z I - A)^{-1}``.

    Raises :class:`InputError` for a non-finite ``z`` and
    :class:`SpectrumHit` if ``z`` lies within :data:`EIG_TOL` of an
    eigenvalue, where the inverse is meaningless in floating point.
    """
    z = _number(z, "z", complex)
    dist = float(np.min(np.abs(z - A.eigenvalues)))
    if dist <= EIG_TOL:
        raise SpectrumHit(f"z={z} is within {EIG_TOL} of the spectrum (distance {dist:.3e})")
    lhs = z * np.eye(A.dim, dtype=np.complex128) - A.entries
    return np.linalg.solve(lhs, np.eye(A.dim, dtype=np.complex128))


def _check_circle(A: BoundedOperator, rho: float, error: type = SpectrumOnCircle) -> None:
    dist = float(np.min(np.abs(np.abs(A.eigenvalues) - rho)))
    if dist <= GAP_TOL:
        raise error(f"spectrum within {GAP_TOL} of the circle |z| = {rho} (distance {dist:.3e})")


def _shifted_blocks(A: BoundedOperator, nodes: np.ndarray):
    # (start, z, z I - A) over blocks of max(1, 2**14 // d**2) of the nodes,
    # which keeps the stacked d x d matrices of a block near 2**14 entries.
    eye = np.eye(A.dim, dtype=np.complex128)
    block = max(1, 2**14 // A.dim**2)
    for start in range(0, len(nodes), block):
        z = nodes[start : start + block]
        mats = z[:, None, None] * eye
        mats -= A.entries
        yield start, z, mats


def circle_resolvents(A: BoundedOperator, rho: float, n: int, rhs: np.ndarray):
    """Solves ``(z_j I - A) x_j = rhs_j`` at the ``n`` uniform nodes of S_rho, in blocks.

    ``rhs`` is ``(n, d, k)``, one right-hand side block per node (a
    broadcast view costs no memory).  Yields ``(start, z, X)`` with nodes
    ``z = rho e^{2 pi i j / n}`` from ``j = start`` and
    ``X[i] = (z[i] I - A)^{-1} rhs[start + i]``, one stacked solve per block
    of ``max(1, 2**14 // d**2)`` nodes.  Raises :class:`SpectrumOnCircle`
    when an eigenvalue modulus is within :data:`GAP_TOL` of ``rho``.
    """
    rho, n = _positive(rho, "rho"), _integer(n, "n")
    _check_circle(A, rho)
    nodes = rho * np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
    for start, z, mats in _shifted_blocks(A, nodes):
        yield start, z, np.linalg.solve(mats, rhs[start : start + len(z)])


def _sigma_min(A: BoundedOperator, z: np.ndarray) -> np.ndarray:
    # Smallest singular value of z_i I - A, one batched SVD per block.
    out = np.empty(len(z))
    for start, zb, mats in _shifted_blocks(A, z):
        out[start : start + len(zb)] = np.linalg.svd(mats, compute_uv=False)[:, -1]
    return out


def _sup_margins(A: BoundedOperator, rho: float) -> tuple[float, float]:
    # (margin, curve) of circle_sup_resolvent: the SVD and node rounding
    # margin of a sampled sigma_min, and rho ||A||_up / 4 with a relative
    # slack of 8 eps, where ||A||_up covers the rounding of A.norm().
    # Either may overflow to inf: an infinite curve only leaves the
    # first-order bound, and _sup_rounds refuses an infinite margin.
    eps = np.finfo(np.float64).eps
    with np.errstate(over="ignore"):
        norm_f = float(np.linalg.norm(A.entries))
        margin = 8 * A.dim * eps * (rho + norm_f)
        curve = rho * (A.norm() + 8 * A.dim * eps * norm_f) / 4.0 * (1.0 + 8 * eps)
    return margin, curve


def _arc_lower(s: np.ndarray, arc: np.ndarray, rho: float, margin: float, curve: float):
    # Certified lower bound on sigma_min over each arc, from the node with
    # sample s[j] through the angle arc[j] to the next node (cyclically):
    # the larger of the first- and second-order bounds of circle_sup_resolvent.
    # Samples above 2**500 are first scaled by a power of two so that no
    # square or sum overflows; that scaling is exact, and below 2**500 it
    # is 1, so the bound is the unscaled one bit for bit.
    scale = 2.0 ** min(0, 500 - math.frexp(float(np.max(s)))[1])
    s, rho, margin, curve = s * scale, rho * scale, margin * scale, curve * scale * scale
    s_next = np.roll(s, -1)
    low = np.maximum(np.minimum(s, s_next) - margin, 0.0)
    squared = low * low * (1.0 - 8 * np.finfo(np.float64).eps) - curve * arc * arc
    lower = np.maximum((s + s_next - rho * arc) / 2.0 - margin, np.sqrt(np.maximum(squared, 0.0)))
    return lower / scale


def _sup_rounds(A: BoundedOperator, rho: float, samples: int = 16):
    # The refinement of circle_sup_resolvent, yielding its certified bracket
    # (1 / (min s_hat + margin), 1 / min(lower)) each round, the last high
    # its value; see _SupBracket.
    samples, rho = _integer(samples, "samples"), _positive(rho, "rho")
    if not 16 <= samples <= MAX_SUP_NODES:
        raise PreconditionViolation(
            f"circle supremum needs 16 <= samples <= {MAX_SUP_NODES}, got {samples}"
        )
    _check_circle(A, rho)
    margin, curve = _sup_margins(A, rho)
    # a finite margin bounds rho + ||A||_F, so every z I - A and its sigma_min are finite
    if not math.isfinite(margin):
        raise NormOverflow(
            f"the rounding margin of sigma_min(z I - A) on |z| = {rho} overflows: "
            "no finite bound is certified"
        )
    theta = 2.0 * np.pi * np.arange(samples) / samples
    s = _sigma_min(A, rho * np.exp(1j * theta))
    while True:
        floor = float(np.min(s))
        # An arc stays open only while L / 2 > floor tol / (1 + tol) - margin,
        # so bisection ends when margin is below half of floor tol / (1 + tol).
        if 2.0 * (1.0 + SUP_REL_TOL) * margin >= SUP_REL_TOL * floor:
            raise SpectrumOnCircle(
                f"||(z - A)^(-1)|| reaches {1.0 / floor:.3e} on |z| = {rho}, beyond "
                f"what the rounding margin {margin:.1e} certifies to {SUP_REL_TOL}"
            )
        ends = np.append(theta[1:], 2.0 * np.pi)
        lower = _arc_lower(s, ends - theta, rho, margin, curve)
        bound = float(np.min(lower))
        yield 1.0 / (floor + margin), (1.0 / bound if bound > 0.0 else math.inf)
        open_ = np.flatnonzero((1.0 + SUP_REL_TOL) * lower < floor)
        if not open_.size or theta.size + open_.size > MAX_SUP_NODES:
            break
        mid = (theta[open_] + ends[open_]) / 2.0
        theta = np.insert(theta, open_ + 1, mid)
        s = np.insert(s, open_ + 1, _sigma_min(A, rho * np.exp(1j * mid)))
    if bound <= 0.0:
        gap = float(np.min(np.abs(np.abs(A.eigenvalues) - rho)))
        raise SpectrumOnCircle(
            f"||(z - A)^(-1)|| reaches {1.0 / floor:.3e} on |z| = {rho}; {theta.size} "
            f"nodes certify no bound, and the cap is {MAX_SUP_NODES}: the node cap, "
            f"not the spectrum, ends the certificate (the spectrum is {gap:.1e} from "
            "the circle)"
        )


class _SupBracket:
    """A certified bracket ``low <= M_rho <= high`` on
    ``sup_{|z| = rho} ||(z - A)^{-1}||``, one round of
    :func:`circle_sup_resolvent` per :meth:`refine`.

    The rounds are that function's, so once ``done``, ``high`` is its value
    bit for bit.  Constructing it raises what that function raises before
    its first round.
    """

    def __init__(self, A: BoundedOperator, rho: float, samples: int = 16):
        self._rounds = _sup_rounds(A, rho, samples)
        self.low, self.high = next(self._rounds)
        self.done = False

    def refine(self) -> bool:
        """One more round; False, with ``high`` the full supremum, once none is left."""
        bracket = next(self._rounds, None)
        if bracket is None:
            self.done = True
        else:
            self.low, self.high = bracket
        return not self.done

    def value(self) -> float:
        """The full supremum, :func:`circle_sup_resolvent`'s value."""
        while self.refine():
            pass
        return self.high


def _decide(test, *sups: _SupBracket):
    """``test`` of the suprema that ``sups`` bracket, for a ``test`` monotone
    in each argument.

    The widest bracket (by ``high / low``) refines until ``test`` gives the
    same answer at every low end as at every high end, which is then its
    answer at the exact suprema; where that never happens, the answer at the
    full suprema, as from :func:`circle_sup_resolvent`.
    """
    while True:
        answer = test(*(sup.high for sup in sups))
        if test(*(sup.low for sup in sups)) == answer:
            return answer
        open_ = [sup for sup in sups if not sup.done]
        if not open_:
            return answer
        max(open_, key=lambda sup: sup.high / sup.low).refine()


def circle_sup_resolvent(A: BoundedOperator, rho: float, samples: int = 16) -> float:
    """Certified upper bound on ``sup ||(z - A)^{-1}||`` over the circle S_rho.

    ``||(z - A)^{-1}|| = 1 / s(z)`` with ``s(z) = sigma_min(z I - A)``,
    sampled by batched SVDs, no solve, from ``samples`` uniform angles.  A
    sampled ``s_hat`` is within ``margin = 8 d eps (rho + ||A||_F)`` of the
    true ``s``: a modest multiple of the SVD's backward error
    ``d eps ||z I - A||``, plus the rounding of the node.  So ``s >= l``
    at a node, with ``l = max(s_hat - margin, 0)``.  On the arc of angle
    ``L`` between neighbouring nodes, ``s`` is bounded below twice over:

    * first order: ``s`` is 1-Lipschitz in ``z`` (Weyl), so
      ``s >= (s_hat + s_hat' - rho L) / 2 - margin`` on the arc;
    * second order: ``s^2`` is ``f(cos t, sin t)`` for
      ``f(x, y) = lambda_min(rho^2 I + A^H A - 2 rho (x B1 + y B2))``,
      ``B1 = (A + A^H) / 2``, ``B2 = i (A^H - A) / 2``.  ``f`` is a minimum
      of affine functions, so concave, and each has gradient
      ``-2 rho (v^H B1 v, v^H B2 v)`` of length ``2 rho |v^H A v|``, so
      ``f`` is ``2 rho ||A||``-Lipschitz.  Every arc point lies within
      ``1 - cos(L / 2) <= L^2 / 8`` of a chord point (``L <= pi``), where
      concavity gives ``f >= min(l, l')^2``; hence
      ``s >= sqrt(max(0, min(l, l')^2 - rho ||A||_up L^2 / 4))``.

    The margin is taken off ``s_hat`` before squaring: the error of a
    squared sample, ``2 s delta + delta^2`` for an SVD error ``delta``,
    grows with ``s``, while a lower bound ``l >= 0`` on ``s`` squares to a
    lower bound on ``s^2`` as it is.  ``||A||_up`` is ``A.norm()`` plus the
    same multiple of ``d eps ||A||_F`` for its own SVD, and both squares
    carry a relative slack of ``8 eps``, so the rounding of the difference
    cannot lift the bound.  Near a flat minimum ``s_min`` the second-order
    bound passes arcs up to about ``sqrt(8 SUP_REL_TOL / (rho ||A||)) s_min``,
    the first-order one only up to ``2 SUP_REL_TOL s_min / rho``.

    ``lower`` is the larger of the two bounds.  Each arc with
    ``(1 + SUP_REL_TOL) lower`` below the least sampled ``s`` is bisected,
    until none is left; only arcs near a peak are.  The result is
    ``1 / min(lower)``: never below the true supremum, and at most
    ``1 + SUP_REL_TOL`` times the largest sampled ``1 / s``, so within that
    factor of the supremum.  Refinement stops within
    :data:`MAX_SUP_NODES`; the result is then ``1 / min(lower)`` of the
    grid reached, still an upper bound but looser than the tolerance.  A
    scaled Jordan block ``c N`` reaches the cap: ``s`` is constant on
    ``|z| = 1`` at a tiny ``s_min``, so every arc must be that short.

    Every bisection round also brackets the supremum: it lies between
    ``1 / (min s_hat + margin)`` (a sampled node is within ``margin`` of
    the true ``s``, and the margin's slack covers the rounding of this end)
    and ``1 / min(lower)``.  A caller that reads no value asks the bracket
    only its own question, whether ``lip < 1/M_r`` or which horizon ``M_r``
    certifies, and stops refining once both ends give the same answer
    (:func:`_decide`); only where they never do does it wait for this
    result.  Every bracket follows the rounds of this function, so a
    finished one gives its value bit for bit.

    Samples above ``2**500`` are scaled by an exact power of two before
    the bounds square them, so no square overflows at a large ``rho``.

    Raises :class:`SpectrumOnCircle` when an eigenvalue modulus is within
    :data:`GAP_TOL` of ``rho``, when the sampled ``s`` falls so low that
    ``margin`` leaves no room for the tolerance (the circle then meets the
    spectrum of a perturbation of ``A`` at the rounding level), or when
    ``min(lower) <= 0`` at the node cap, so that no bound is certified;
    that message gives the spectrum's distance from the circle.  Raises
    :class:`NormOverflow` when ``margin`` overflows (``rho`` or ``A`` near
    the float range), where no finite bound is left.
    """
    return _SupBracket(A, rho, samples).value()


def _matrix_sign(x: np.ndarray) -> tuple[np.ndarray, int]:
    # sign(x) and the step count of X <- (mu X + (mu X)^{-1}) / 2, with mu = |det X|^{-1/d}
    # until a step moves X by at most 1e-2 of its norm, then 1 (Higham 2008, ch. 5).  It
    # stops once the next error, about ||X^{-1}|| ||dX||^2 / 2, is below d eps ||X|| (section
    # 5.8), or once an unscaled step fails to halve ||dX||: only rounding is left.
    eta, scale, last = len(x) * np.finfo(np.float64).eps, True, math.inf
    for step in range(1, MAX_SIGN_STEPS + 1):
        inv = np.linalg.inv(x)
        mu = math.exp(-np.linalg.slogdet(x)[1] / len(x)) if scale else 1.0
        new = (mu * x + inv / mu) / 2.0
        delta, size = np.linalg.norm(new - x), np.linalg.norm(new)
        if delta**2 <= 2.0 * eta * size / np.linalg.norm(inv) or (not scale and delta > last / 2):
            return new, step
        x, last, scale = new, delta, scale and delta > 1e-2 * size
    return x, MAX_SIGN_STEPS


def riesz_split(A: BoundedOperator, gamma: float, quad_points: int = 256) -> SpectralSplit:
    """Spectral splitting of ``A`` at the circle ``S_gamma``.

    The Cayley map ``C = (A - gamma I)^{-1} (A + gamma I)`` sends ``|z| < gamma`` to
    ``Re z < 0``, so ``P = (I - sign(C)) / 2``; the sign takes at most
    :data:`MAX_SIGN_STEPS` scaled Newton steps.  A singular step, or a ``P`` that misses
    ``||P^2 - P|| <= PROJ_TOL``, ``tr P`` = the number of eigenvalues inside, or
    ``||PA - AP|| <= PROJ_TOL max(1, ||P||) max(1, ||A||)``, raises :class:`QuadratureError`.
    ``quad_points`` has no effect; it stays only for the bench tracer, which binds it.
    """
    gamma = _positive(gamma, "gamma")
    _check_circle(A, gamma)
    eye = np.eye(A.dim, dtype=np.complex128)
    try:
        sign, steps = _matrix_sign(np.linalg.solve(A.entries - gamma * eye, A.entries + gamma * eye))
    except np.linalg.LinAlgError as exc:
        raise QuadratureError(f"sign iteration met a singular matrix: {exc}") from exc
    proj = (eye - sign) / 2.0
    defect = operator_norm(proj @ proj - proj)
    if not defect <= PROJ_TOL:
        raise QuadratureError(f"projection defect {defect:.3e} > {PROJ_TOL} after {steps} steps")

    moduli = np.abs(A.eigenvalues)
    inside = moduli < gamma
    n_inside = int(np.count_nonzero(inside))
    if int(round(float(np.trace(proj).real))) != n_inside:
        raise QuadratureError(
            f"projection rank {float(np.trace(proj).real):.6f} disagrees with "
            f"{n_inside} eigenvalues inside |z| = {gamma}"
        )
    comm = operator_norm(proj @ A.entries - A.entries @ proj)
    if not comm <= PROJ_TOL * max(1.0, operator_norm(proj)) * max(1.0, A.norm()):
        raise QuadratureError(f"commutation defect {comm:.3e} after {steps} steps")
    r_inside = float(np.max(moduli[inside])) if n_inside else 0.0
    r_outside_inv = float(np.max(1.0 / moduli[~inside])) if n_inside < A.dim else 0.0
    return SpectralSplit(
        gamma=gamma,
        proj_stable=proj,
        proj_unstable=eye - proj,
        r_inside=r_inside,
        r_outside_inv=r_outside_inv,
        rank_stable=n_inside,
        rank_unstable=A.dim - n_inside,
        idempotency_defect=defect,
        commutation_defect=comm,
        quad_points=steps,
    )


def is_hyperbolic(A: BoundedOperator) -> bool:
    """True when every eigenvalue modulus differs from 1 by more than :data:`GAP_TOL`.

    Raises :class:`IndeterminateHyperbolic` (instead of returning False)
    when some modulus lies within :data:`GAP_TOL` of 1: floating point cannot
    distinguish spectrum exactly on the unit circle from spectrum merely
    near it.
    """
    _check_circle(A, 1.0, IndeterminateHyperbolic)
    return True
