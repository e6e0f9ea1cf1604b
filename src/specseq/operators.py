"""Dense operator algebra on C^d: spectra, resolvents, circle suprema, and
Riesz spectral projections.

Operator norms throughout are spectral 2-norms (largest singular value).
The circle supremum, the Riesz quadrature and frequency-mode solves all reduce
over the node blocks of :func:`circle_resolvents`.
Circles ``S_r = {|z| = r}`` are always assumed to avoid the spectrum by at
least :data:`GAP_TOL`; quadrature accuracy degrades as the gap closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenSolverFailure,
    IndeterminateHyperbolic,
    InputError,
    PreconditionViolation,
    QuadratureError,
    SpectrumHit,
    SpectrumOnCircle,
)

#: Minimum admissible distance between eigenvalue moduli and a test circle.
GAP_TOL = 1e-6

#: Default exclusion radius around eigenvalues for pointwise resolvents.
EIG_TOL = 1e-9

#: Hard cap on contour quadrature nodes.
MAX_QUAD_POINTS = 4096

#: Idempotency defect ``||P^2 - P||`` a Riesz projection must reach.
PROJ_TOL = 1e-10


def operator_norm(mat: np.ndarray) -> float:
    """Spectral 2-norm (largest singular value)."""
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


class BoundedOperator:
    """A bounded operator on C^d as a dense complex matrix.

    Eigenvalue data is computed lazily on first use and cached; the Riesz
    machinery never needs Jordan structure, so no canonical form is ever
    computed.
    """

    def __init__(self, entries):
        mat = np.asarray(entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise InputError(f"operator entries must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
            raise InputError("operator entries contain non-finite values")
        mat = mat.copy()
        mat.setflags(write=False)
        self._entries = mat
        self._eig = None
        self._norm = None

    @classmethod
    def identity(cls, dim: int) -> "BoundedOperator":
        return cls(np.eye(dim, dtype=np.complex128))

    @classmethod
    def diagonal(cls, diag) -> "BoundedOperator":
        return cls(np.diag(np.asarray(diag, dtype=np.complex128)))

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    def _eigendata(self):
        if self._eig is None:
            try:
                w, v = np.linalg.eig(self._entries)
            except np.linalg.LinAlgError as exc:
                raise EigenSolverFailure(f"eigen decomposition failed: {exc}") from exc
            self._eig = (w, v)
        return self._eig

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigendata()[0]

    def eigenpairs(self):
        """Cached (eigenvalues, eigenvector matrix) pair."""
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

    ``proj_stable`` projects onto the invariant subspace of eigenvalues
    inside ``S_gamma`` along the complementary invariant subspace;
    ``proj_unstable`` is the complement.  ``r_inside`` is the largest inside
    modulus (0 when nothing is inside) and ``r_outside_inv`` the largest
    reciprocal modulus outside (0 when nothing is outside).
    """

    gamma: float
    proj_stable: np.ndarray
    proj_unstable: np.ndarray
    r_inside: float
    r_outside_inv: float
    idempotency_defect: float = 0.0
    commutation_defect: float = 0.0
    quad_points: int = 0

    @property
    def rank_stable(self) -> int:
        return int(round(float(np.trace(self.proj_stable).real)))

    @property
    def rank_unstable(self) -> int:
        return int(round(float(np.trace(self.proj_unstable).real)))


def spectral_radius(A: BoundedOperator) -> float:
    """Largest eigenvalue modulus; agrees with lim ||A^n||^(1/n)."""
    return float(np.max(np.abs(A.eigenvalues)))


def resolvent_at(A: BoundedOperator, z: complex) -> np.ndarray:
    """The matrix ``(z I - A)^{-1}``.

    Raises :class:`SpectrumHit` if ``z`` lies within :data:`EIG_TOL` of an
    eigenvalue, where the inverse is meaningless in floating point.
    """
    z = complex(z)
    dist = float(np.min(np.abs(z - A.eigenvalues)))
    if dist <= EIG_TOL:
        raise SpectrumHit(f"z={z} is within {EIG_TOL} of the spectrum (distance {dist:.3e})")
    lhs = z * np.eye(A.dim, dtype=np.complex128) - A.entries
    return np.linalg.solve(lhs, np.eye(A.dim, dtype=np.complex128))


def circle_resolvents(A: BoundedOperator, rho: float, n: int):
    """Resolvents ``(z I - A)^{-1}`` at the ``n`` uniform nodes of S_rho, in blocks.

    Yields ``(start, z, R)`` with nodes ``z = rho e^{2 pi i j / n}`` from
    ``j = start`` and ``R[i] = (z[i] I - A)^{-1}``, one stacked solve per block
    of ``max(1, 2**14 // d**2)`` nodes.  Raises :class:`SpectrumOnCircle` when
    an eigenvalue modulus is within :data:`GAP_TOL` of ``rho``.
    """
    moduli = np.abs(A.eigenvalues)
    if float(np.min(np.abs(moduli - rho))) <= GAP_TOL:
        raise SpectrumOnCircle(f"spectrum within {GAP_TOL} of the circle |z| = {rho}")
    nodes = rho * np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
    eye = np.eye(A.dim, dtype=np.complex128)
    block = max(1, 2**14 // A.dim**2)
    for start in range(0, n, block):
        z = nodes[start : start + block]
        yield start, z, np.linalg.solve(z[:, None, None] * eye - A.entries, eye)


def circle_sup_resolvent(A: BoundedOperator, rho: float, samples: int = 256) -> float:
    """Sampled supremum of ``||(z - A)^{-1}||`` over the circle S_rho.

    The maximum runs over ``samples`` uniformly spaced points
    ``z = rho e^{i theta}``; it is nondecreasing under refinement and
    converges to the true supremum as the sampling resolves the gap.
    """
    if samples < 16:
        raise PreconditionViolation(f"circle supremum needs samples >= 16, got {samples}")
    if not (math.isfinite(rho) and rho > 0):
        raise InputError(f"rho must be positive and finite, got {rho!r}")
    blocks = circle_resolvents(A, rho, samples)
    return max(float(np.max(np.linalg.norm(res, 2, axis=(1, 2)))) for _, _, res in blocks)


def _contour_projection(A: BoundedOperator, gamma: float, n_points: int) -> np.ndarray:
    # Trapezoid rule for (2 pi i)^(-1) * contour integral of (z-A)^(-1) dz
    # over S_gamma; with z = gamma e^(i theta) this is the mean of z (z-A)^(-1).
    # Summed node by node so the rounding does not depend on the block length.
    acc = np.zeros((A.dim, A.dim), dtype=np.complex128)
    for _, z, res in circle_resolvents(A, gamma, n_points):
        for zi, ri in zip(z, res):
            acc += zi * ri
    return acc / n_points


def riesz_split(A: BoundedOperator, gamma: float, quad_points: int = 256) -> SpectralSplit:
    """Spectral splitting of ``A`` at the circle ``S_gamma``.

    The stable projection is the contour integral of the resolvent over
    ``S_gamma`` by the trapezoid rule, which is spectrally accurate for
    this periodic analytic integrand.  The node count doubles adaptively
    until the idempotency defect ``||P^2 - P||`` falls below :data:`PROJ_TOL`
    or the cap of :data:`MAX_QUAD_POINTS` is reached.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise InputError(f"gamma must be positive and finite, got {gamma!r}")
    used = min(max(16, int(quad_points)), MAX_QUAD_POINTS)
    while True:
        proj = _contour_projection(A, gamma, used)
        defect = operator_norm(proj @ proj - proj)
        if defect <= PROJ_TOL or used >= MAX_QUAD_POINTS:
            break
        used = min(2 * used, MAX_QUAD_POINTS)
    if defect > PROJ_TOL:
        raise QuadratureError(
            f"projection defect {defect:.3e} above {PROJ_TOL} after {used} nodes"
        )

    moduli = np.abs(A.eigenvalues)
    inside = moduli < gamma
    n_inside = int(np.count_nonzero(inside))
    if int(round(float(np.trace(proj).real))) != n_inside:
        raise QuadratureError(
            f"projection rank {float(np.trace(proj).real):.6f} disagrees with "
            f"{n_inside} eigenvalues inside |z| = {gamma}"
        )
    comm = operator_norm(proj @ A.entries - A.entries @ proj)
    r_inside = float(np.max(moduli[inside])) if n_inside else 0.0
    r_outside_inv = float(np.max(1.0 / moduli[~inside])) if n_inside < A.dim else 0.0
    complement = np.eye(A.dim, dtype=np.complex128) - proj
    return SpectralSplit(
        gamma=float(gamma),
        proj_stable=proj,
        proj_unstable=complement,
        r_inside=r_inside,
        r_outside_inv=r_outside_inv,
        idempotency_defect=defect,
        commutation_defect=comm,
        quad_points=used,
    )


def is_hyperbolic(A: BoundedOperator) -> bool:
    """True when every eigenvalue modulus differs from 1 by more than :data:`GAP_TOL`.

    Raises :class:`IndeterminateHyperbolic` (instead of returning False)
    when some modulus lies within :data:`GAP_TOL` of 1: floating point cannot
    distinguish spectrum exactly on the unit circle from spectrum merely
    near it.
    """
    diffs = np.abs(np.abs(A.eigenvalues) - 1.0)
    worst = float(np.min(diffs))
    if worst <= GAP_TOL:
        raise IndeterminateHyperbolic(
            f"eigenvalue modulus within {GAP_TOL} of 1 (distance {worst:.3e})"
        )
    return True
