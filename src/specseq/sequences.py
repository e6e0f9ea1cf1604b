"""Finitely supported two-sided sequences with exponentially weighted norms.

A sequence ``u`` maps Z -> C^d and is stored on an explicit support window
``[lo, hi]``; entries outside the window are identically zero.  Norms follow
the ell_{p,rho} convention

    |u|_{p,rho}   = (sum_k |u_k|^p rho^(-p k))^(1/p)     for p in {1, 2},
    |u|_{inf,rho} = sup_k |u_k| rho^(-k),

where ``|u_k|`` is the Euclidean norm on C^d.  The weight ``rho > 0`` selects
a growth class: rho < 1 admits only tails that decay to the right, rho > 1
tolerates geometric growth.  For p = 2 the norm comes from the inner product
``<u, v> = sum_k <u_k, v_k> rho^(-2k)`` (conjugate-linear in the first slot).

All values are immutable; every operation returns a new sequence with an
exactly computed window.  Truncation never happens silently: it is the
explicit :func:`truncate` operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InputError, NormOverflow
from .errors import _array, _integer, _number, _positive, _same_dim, _window
from .workspace import Workspace

#: Absolute magnitude below which an entry does not count as support.
#: Fixed-point iterates carry roundoff outside the true support.
SUPP_TOL = 1e-12

_ALLOWED_P = (1.0, 2.0, math.inf)


@dataclass(frozen=True)
class Weight:
    """Weight of an ell_{p,rho} norm: exponential base ``rho`` and exponent ``p``.

    ``p`` must be one of 1, 2, or ``math.inf``.
    """

    rho: float
    p: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "rho", _positive(self.rho, "weight rho"))
        p = math.inf if self.p == math.inf else _number(self.p, "weight exponent p")
        if p not in _ALLOWED_P:
            raise InputError(f"weight exponent p must be 1, 2, or inf, got {self.p!r}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True, eq=False)
class WindowedSequence:
    """Two-sided sequence Z -> C^d supported on the window ``[lo, hi]``.

    ``values[k - lo]`` holds ``u_k`` for ``k`` in the window; all other
    entries are zero.  The stored window is canonical: the first and last
    rows are nonzero unless the sequence is identically zero, in which case
    ``lo = hi = 0`` and ``values`` is a single zero row.
    """

    lo: int
    values: np.ndarray

    def __post_init__(self):
        vals = _array(self.values, "sequence values")
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise InputError("sequence values must form a (width, dim) array")
        lo, vals = _canonical(_integer(self.lo, "sequence lo"), vals)
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[0]

    @property
    def hi(self) -> int:
        return self.lo + self.width - 1

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0))

    def at(self, n: int) -> np.ndarray:
        """Entry ``u_n`` (zero vector outside the window)."""
        if self.lo <= n <= self.hi:
            return self.values[n - self.lo]
        return np.zeros(self.dim, dtype=np.complex128)

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """Entries over ``[lo, hi]`` as a zero-padded ``(hi-lo+1, dim)`` array,
        read-only when the window lies inside the stored one."""
        lo, hi = _window((lo, hi), "dense window")
        return dense_rows(self.values, self.lo, lo, hi)

    def apply_matrix(self, mat: np.ndarray) -> "WindowedSequence":
        """Pointwise image ``(M u_k)_k`` under a d x d matrix."""
        mat = _array(mat, "matrix")
        if mat.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"matrix shape {mat.shape} does not match sequence dimension {self.dim}"
            )
        return WindowedSequence(self.lo, self.values @ mat.T)

    def scale(self, c: complex) -> "WindowedSequence":
        return WindowedSequence(self.lo, self.values * c)

    def __add__(self, other: "WindowedSequence") -> "WindowedSequence":
        lo, a, b = _aligned(self, other)
        return WindowedSequence(lo, a + b)

    def __sub__(self, other: "WindowedSequence") -> "WindowedSequence":
        lo, a, b = _aligned(self, other)
        return WindowedSequence(lo, a - b)

    def __neg__(self) -> "WindowedSequence":
        return WindowedSequence(self.lo, -self.values)

    def __repr__(self):
        return f"WindowedSequence(dim={self.dim}, window=[{self.lo}, {self.hi}])"


def _canonical(lo: int, vals: np.ndarray) -> tuple[int, np.ndarray]:
    nz = np.flatnonzero(np.any(vals != 0, axis=1))
    if nz.size == 0:
        return 0, np.zeros((1, vals.shape[1]), dtype=np.complex128)
    return lo + int(nz[0]), vals[int(nz[0]) : int(nz[-1]) + 1]


def _aligned(u: WindowedSequence, v: WindowedSequence):
    _same_dim(v.dim, u.dim, "the second sequence")
    lo = min(u.lo, v.lo)
    hi = max(u.hi, v.hi)
    return lo, u.dense(lo, hi), v.dense(lo, hi)


def zero_sequence(dim: int) -> WindowedSequence:
    return WindowedSequence(0, np.zeros((1, _integer(dim, "dim", low=1)), dtype=np.complex128))


def impulse(position: int, vector) -> WindowedSequence:
    """Sequence equal to ``vector`` at ``position`` and zero elsewhere."""
    vec = _array(vector, "impulse vector").reshape(1, -1)
    return WindowedSequence(_integer(position, "impulse position"), vec)


def shift(u: WindowedSequence, n: int) -> WindowedSequence:
    """Power of the shift: ``shift(u, n)_k = u_{k+n}``.

    The window moves to ``[lo - n, hi - n]``; on ell_{p,rho} the n-th shift
    power scales norms by exactly ``rho^n``.
    """
    return WindowedSequence(u.lo - _integer(n, "shift n"), u.values)


def dense_rows(vals: np.ndarray, lo: int, a: int, b: int) -> np.ndarray:
    """Rows ``[a, b]`` of the sequence whose rows from index ``lo`` are ``vals``.

    Rows outside ``vals`` are zero.  ``vals`` is ``(width, d)`` or carries a
    column axis, ``(width, G, d)``.  The result is a view of ``vals`` when
    ``[a, b]`` lies inside it, else a zero-padded copy.
    """
    if lo <= a and b < lo + len(vals):
        return vals[a - lo : b - lo + 1]
    out = np.zeros((b - a + 1,) + vals.shape[1:], dtype=np.complex128)
    s = max(a, lo)
    e = min(b, lo + len(vals) - 1)
    if s <= e:
        out[s - a : e - a + 1] = vals[s - lo : e - lo + 1]
    return out


def entry_norms(
    vals: np.ndarray, minus: np.ndarray | None = None, ws: Workspace | None = None
) -> np.ndarray:
    """Euclidean norms over the last axis of complex ``vals - minus`` (of
    ``vals`` when ``minus`` is None).

    The result is ``np.linalg.norm(vals - minus, axis=-1)`` bit for bit: the
    same ``conj(x) * x`` products summed the same way, but the difference
    and the products go into arrays lent by ``ws`` (a fresh
    :class:`Workspace` when None) instead of new temporaries.
    """
    ws = Workspace() if ws is None else ws
    x = vals if minus is None else np.subtract(vals, minus, out=ws.take(vals.shape))
    squares = np.conjugate(x, out=ws.take(vals.shape))
    np.multiply(squares, x, out=squares)
    norms = np.sqrt(np.add.reduce(squares.real, axis=-1))
    ws.give(squares)
    if x is not vals:
        ws.give(x)
    return norms


def column_norms(
    vals: np.ndarray,
    lo: int,
    w: Weight,
    minus: np.ndarray | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """The ell_{p,rho} norm of each column of rows ``vals`` from index ``lo``,
    or of ``vals - minus`` when ``minus`` (of the same shape) is given.

    ``vals`` is ``(width, G, d)`` (or ``(width, d)`` for a single sequence,
    giving a 0-d result).  Zero rows at either end are skipped, so zero
    padding does not change the rounding.  Never raises: an overflow or a
    non-finite entry gives a non-finite norm.  The entry norms are
    :func:`entry_norms`, with their scratch arrays lent by ``ws``.
    """
    with np.errstate(all="ignore"):
        mags = entry_norms(vals, minus, ws)
        rows = np.flatnonzero(mags.reshape(len(mags), -1).any(axis=1))
        if rows.size:
            mags = mags[rows[0] : rows[-1] + 1]
            lo += int(rows[0])
        k = np.arange(lo, lo + len(mags), dtype=np.float64)
        weighted = mags * np.power(w.rho, -k).reshape((-1,) + (1,) * (mags.ndim - 1))
        if w.p == math.inf:
            return np.max(weighted, axis=0)
        if w.p == 1.0:
            return np.sum(weighted, axis=0)
        return np.sqrt(np.sum(weighted * weighted, axis=0))


def weighted_norm(u: WindowedSequence, w: Weight) -> float:
    """The ell_{p,rho} norm of ``u``.

    Raises
    ------
    NormOverflow
        If the weighted sum overflows (extreme windows or weights); an
        overflow never silently returns Inf.
    """
    out = float(column_norms(u.values, u.lo, w))
    if not math.isfinite(out):
        raise NormOverflow(
            f"ell_({w.p},{w.rho}) norm overflowed on window [{u.lo}, {u.hi}]"
        )
    return out


def inner_product(u: WindowedSequence, v: WindowedSequence, rho: float) -> complex:
    """Weighted ell_2 inner product, conjugate-linear in the first argument."""
    _same_dim(v.dim, u.dim, "the second sequence")
    rho = _positive(rho, "rho")
    lo = max(u.lo, v.lo)
    hi = min(u.hi, v.hi)
    if lo > hi:
        return 0j
    a = u.values[lo - u.lo : hi - u.lo + 1]
    b = v.values[lo - v.lo : hi - v.lo + 1]
    k = np.arange(lo, hi + 1, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        terms = np.sum(np.conj(a) * b, axis=1) * np.power(rho, -2.0 * k)
        out = complex(np.sum(terms))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise NormOverflow(f"inner product overflowed at rho={rho}")
    return out


def support(u: WindowedSequence):
    """Minimal interval containing all entries with ``|u_k| > SUPP_TOL``.

    Returns ``None`` for the (numerically) zero sequence.
    """
    mags = np.linalg.norm(u.values, axis=1)
    idx = np.flatnonzero(mags > SUPP_TOL)
    if idx.size == 0:
        return None
    return (u.lo + int(idx[0]), u.lo + int(idx[-1]))


def support_subset_geq(u: WindowedSequence, a: int) -> bool:
    """True when the support of ``u`` (at :data:`SUPP_TOL`) lies in ``Z_{>= a}``."""
    spt = support(u)
    return spt is None or spt[0] >= a


def truncate(u: WindowedSequence, lo: int | None = None, hi: int | None = None) -> WindowedSequence:
    """Explicitly restrict ``u`` to ``[lo, hi]``, zeroing everything outside."""
    a = u.lo if lo is None else _integer(lo, "truncate lo")
    b = u.hi if hi is None else _integer(hi, "truncate hi")
    if b < a or b < u.lo or a > u.hi:
        return zero_sequence(u.dim)
    a = max(a, u.lo)
    b = min(b, u.hi)
    return WindowedSequence(a, u.values[a - u.lo : b - u.lo + 1])

