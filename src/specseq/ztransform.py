"""Sampled Z-transform on circles S_rho and its numerical certificates.

For a windowed sequence the transform is the Laurent sum
``f(z) = sum_k u_k z^(-k)`` evaluated at ``N`` uniform samples
``z_j = rho e^(2 pi i j / N)``.  Circle integrals become Riemann sums over
the samples; these are exact (to roundoff) for trigonometric polynomials
of degree < N, hence for every windowed sequence with ``2 * width <= N``.

The transform is unitary from ell_{2,rho} onto the sampled circle space,
it intertwines the shift with multiplication by the argument, and the
profile of ``|u|_{2,mu}`` over ``mu > rho`` is nonincreasing exactly for
sequences supported in Z_{>=0}; each of these facts ships as a check here.

Note: for square-summable sequences outside ell_{1,rho} the Laurent sum
need not converge pointwise on the circle.  That case never arises here,
since every artifact sequence has finite support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, InputError, NormOverflow, WindowTooWide
from .errors import _array, _integer, _positive, _window
from .sequences import Weight, WindowedSequence, shift, weighted_norm


def next_pow2(n: int) -> int:
    return 1 << max(0, int(n) - 1).bit_length()


@dataclass(frozen=True, eq=False)
class CircleFunction:
    """Function on S_rho held as N uniform samples, N a power of two.

    ``samples[j]`` is the value at ``rho * exp(2 pi i j / N)``; they must be
    finite numbers (else :class:`InputError` naming ``samples``).
    """

    rho: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _positive(self.rho, "rho"))
        arr = _array(self.samples, "samples")
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise InputError("samples must form a (N, dim) array")
        n = arr.shape[0]
        if n & (n - 1):
            raise InputError(f"sample count must be a power of two, got {n}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_samples) / self.n_samples

    def points(self) -> np.ndarray:
        return self.rho * np.exp(1j * self.angles())


def default_sample_count(width: int) -> int:
    """Smallest power of two >= 4 * window width."""
    return max(2, next_pow2(4 * max(1, width)))


def ztransform(u: WindowedSequence, rho: float, n_samples: int | None = None) -> CircleFunction:
    """Sampled Laurent sum ``sum_k u_k z^(-k)`` on S_rho.

    Computed as a length-N FFT of the rho^(-k)-scaled, index-rotated
    coefficient array.  Requires ``N >= 2 * width`` to avoid aliasing.
    Raises :class:`NormOverflow` where a scaled coefficient or a sample
    overflows.
    """
    rho = _positive(rho, "rho")
    width = u.width
    n = default_sample_count(width) if n_samples is None else _integer(n_samples, "n_samples")
    if n < 2 * width:
        raise AliasingError(f"need N >= 2 * width = {2 * width}, got N = {n}")
    k = np.arange(u.lo, u.hi + 1, dtype=np.float64)
    scaled = _weighted(u.values, rho, -k)
    buf = np.zeros((n, u.dim), dtype=np.complex128)
    buf[np.arange(u.lo, u.hi + 1) % n] = scaled
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.fft.fft(buf, axis=0)
    return CircleFunction(rho, _finite(samples, "a sample", rho))


def inverse_ztransform(f: CircleFunction, window: tuple[int, int]) -> WindowedSequence:
    """Coefficients of ``f`` on the window, by inverse FFT and rho^k rescale.

    Exact inverse of :func:`ztransform` on band-limited data; the window
    must fit in the sample count.  Raises :class:`NormOverflow` where a
    rescaled coefficient overflows.
    """
    lo, hi = _window(window, "window")
    n = f.n_samples
    if hi - lo + 1 > n:
        raise WindowTooWide(f"window width {hi - lo + 1} exceeds N = {n}")
    buf = np.fft.ifft(f.samples, axis=0)
    k = np.arange(lo, hi + 1)
    vals = _weighted(buf[k % n], f.rho, k.astype(np.float64))
    return WindowedSequence(lo, vals)


def _weighted(rows: np.ndarray, rho: float, powers: np.ndarray) -> np.ndarray:
    # rows[i] * rho^powers[i]; NormOverflow where a product is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        out = rows * np.power(rho, powers)[:, None]
    return _finite(out, "a weighted coefficient", rho)


def _finite(arr: np.ndarray, what: str, rho: float) -> np.ndarray:
    # arr, or NormOverflow naming what where an entry is not finite
    if not np.isfinite(arr).all():
        raise NormOverflow(f"{what} overflows at rho = {rho}")
    return arr


def _rms(samples: np.ndarray, rho: float) -> float:
    # the discrete L2(S_rho) norm, sqrt of the mean over rows of |row|^2;
    # NormOverflow where it overflows
    with np.errstate(over="ignore"):
        out = float(np.sqrt(np.mean(np.sum(np.abs(samples) ** 2, axis=1))))
    if not math.isfinite(out):
        raise NormOverflow(f"the discrete L2 norm on |z| = {rho} overflowed")
    return out


def parseval_check(
    u: WindowedSequence, rho: float, transform: CircleFunction | None = None
) -> tuple[float, float]:
    """Both sides of the unitarity identity.

    Returns ``(lhs, rhs)`` where lhs is the squared discrete circle norm of
    the transform and rhs the squared ell_{2,rho} norm of ``u``; callers
    assert ``|lhs - rhs| <= tol * rhs``.  A caller that already holds a
    ``ztransform(u, rho, ...)`` passes it as ``transform``.
    """
    f = ztransform(u, rho) if transform is None else transform
    lhs = _rms(f.samples, f.rho) ** 2
    rhs = weighted_norm(u, Weight(rho, 2.0)) ** 2
    return lhs, rhs


def multiplication_equiv_check(u: WindowedSequence, rho: float) -> float:
    """Defect of the shift/multiplication intertwining.

    Returns the discrete L2 norm of ``Z(tau u) - z * Z(u)`` over the default
    samples of a window one index wider than ``u``'s, the slack for the shift.
    Raises :class:`NormOverflow` where that norm overflows.
    """
    n_samples = default_sample_count(u.width + 2)
    lhs = ztransform(shift(u, 1), rho, n_samples)
    base = ztransform(u, rho, n_samples)
    diff = lhs.samples - base.points()[:, None] * base.samples
    return _rms(diff, rho)


def positive_support_hardy_check(
    u: WindowedSequence, rho: float, mu_grid
) -> tuple[float, bool]:
    """Grid evidence for support in Z_{>=0}.

    Computes ``|u|^2_{2,mu}`` for each ``mu > rho`` (equal to the circle
    integral of the transform by unitarity) and reports the maximum along
    with whether the profile is nonincreasing in ``mu``, the numerical
    signature of nonnegative support.  A finite grid yields evidence only,
    never a proof verdict.
    """
    rho, mus = _positive(rho, "rho"), [_positive(m, "mu") for m in mu_grid]
    if not mus:
        raise InputError("mu grid is empty")
    if any(m2 <= m1 for m1, m2 in zip(mus, mus[1:])):
        raise InputError("mu grid must be sorted strictly ascending")
    if mus[0] <= rho:
        raise InputError(f"mu grid must satisfy mu > rho = {rho}")
    norms = [weighted_norm(u, Weight(m, 2.0)) ** 2 for m in mus]
    sup_norm = max(norms)
    slack = 1e-10 * max(1.0, sup_norm)
    nonincreasing = all(b <= a + slack for a, b in zip(norms, norms[1:]))
    return sup_norm, nonincreasing
