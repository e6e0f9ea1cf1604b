"""Independent output checks in plain numpy.

Each check parses the bytes a CLI job produced and verifies them against
data the benchmark generated itself: the eigenbasis ``S`` and spectrum
``lam`` of every operator, the forcing, the initial vector.  No check
reads a residual, defect or deviation the library reports about itself.
Tolerances are those of the acceptance gate (``1e-8`` for solutions,
projections and residuals, ``1e-10`` for Parseval), scaled by the size of
the data where the gate's fixture was of unit size: norms are held to a
norm of the data, pointwise deviations to the largest pointwise size.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TOL = 1e-8
PARSEVAL_TOL = 1e-10


class CheckFailure(Exception):
    """A job's output disagrees with the independent reference."""


def _require(cond, message):
    if not cond:
        raise CheckFailure(message)


def _load(data: bytes) -> dict:
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from exc


def _matrix(obj) -> np.ndarray:
    return np.asarray(obj["re"], dtype=np.float64) + 1j * np.asarray(obj["im"], dtype=np.float64)


def _sequence(obj):
    vals = np.array(
        [np.asarray(re, dtype=np.float64) + 1j * np.asarray(im, dtype=np.float64) for re, im in obj["values"]]
    ).reshape(-1, int(obj["dim"]))
    return int(obj["lo"]), vals


def _dense(lo, vals, a, b):
    out = np.zeros((b - a + 1, vals.shape[1]), dtype=np.complex128)
    s, e = max(a, lo), min(b, lo + vals.shape[0] - 1)
    if s <= e:
        out[s - a : e - a + 1] = vals[s - lo : e - lo + 1]
    return out


def _saturation(u, eps):
    rolled = np.roll(u, -1, axis=-1)
    return eps * (np.tanh(rolled.real) + 1j * np.tanh(rolled.imag))


def _norm2(mat) -> float:
    return float(np.linalg.norm(mat, 2))


def spectrum(data, op):
    out = _load(data)
    radius = float(np.max(np.abs(op.lam)))
    _require(abs(out["r"] - radius) <= TOL * radius, f"r = {out['r']} but max |lam| = {radius}")
    hyperbolic = bool(np.all(np.abs(np.abs(op.lam) - 1.0) > 1e-6))
    _require(out["hyperbolic"] is hyperbolic, f"hyperbolic = {out['hyperbolic']}, expected {hyperbolic}")


def riesz(data, op, gamma):
    out = _load(data)
    p = _matrix(out["proj_stable"])
    q = _matrix(out["proj_unstable"])
    a = op.A
    scale = max(1.0, _norm2(p))
    _require(_norm2(p @ p - p) <= TOL * scale**2, "P^2 - P above tolerance")
    _require(_norm2(p @ a - a @ p) <= TOL * scale * max(1.0, _norm2(a)), "PA - AP above tolerance")
    _require(_norm2(p + q - np.eye(a.shape[0])) <= TOL * scale, "P + Q differs from I")
    inside = np.abs(op.lam) < gamma
    _require(
        abs(float(np.trace(p).real) - int(inside.sum())) <= 1e-6,
        f"trace(P) = {np.trace(p).real} but {int(inside.sum())} eigenvalues inside",
    )
    exact = (op.S[:, inside]) @ op.Sinv[inside, :]
    _require(_norm2(p - exact) <= TOL * scale, "P differs from the spectral projector")


def ztransform(data, lo, vals, rho):
    """Parseval sides from the JSON, and the circle samples from the CSV.

    ``data`` is the pair (stdout JSON, circle CSV).  The CSV rows are
    ``(theta, |Z u|)``; each magnitude is recomputed as the direct Laurent
    sum ``sum_k u_k z^-k`` at ``z = rho e^(i theta)``.  The multiplication
    defect the library reports is not checked: the output carries no
    ``Z(tau u)`` to recompute it from.
    """
    text, circle = data
    out = _load(text)
    k = np.arange(lo, lo + vals.shape[0], dtype=np.float64)
    norm_sq = float(np.sum(np.sum(np.abs(vals) ** 2, axis=1) * rho ** (-2.0 * k)))
    for key in ("parseval_lhs", "parseval_rhs"):
        _require(
            abs(out[key] - norm_sq) <= PARSEVAL_TOL * norm_sq,
            f"{key} = {out[key]} but |u|^2 = {norm_sq}",
        )
    rows = list(csv.reader(io.StringIO(circle.decode("utf-8"))))
    _require(rows[0] == ["theta", "abs"], "unexpected circle CSV header")
    theta, mags = np.array([[float(v) for v in row] for row in rows[1:]]).T
    n = theta.size
    _require(n >= 2 * vals.shape[0], f"{n} circle samples alias a width-{vals.shape[0]} sequence")
    _require(np.allclose(theta, 2.0 * np.pi * np.arange(n) / n, rtol=0.0, atol=1e-12), "circle angles")
    powers = np.exp(-1j * np.outer(theta, k)) * rho ** (-k)
    ref = np.linalg.norm(powers @ vals, axis=1)
    dev = float(np.max(np.abs(mags - ref)))
    _require(dev <= TOL * float(np.max(ref)), f"circle samples deviate by {dev:.3e}")


def _reference_resolvent(op, lo, vals, rho):
    """Solution of (tau - A) u = f on ell_{2,rho} in eigen-coordinates.

    Returns ``(start, values)``; each coordinate is a scalar recurrence,
    run forward (causal) for moduli inside S_rho and backward otherwise.
    """
    mods = np.abs(op.lam)
    inside = mods < rho
    rates = np.concatenate([mods[inside] / rho, rho / mods[~inside]])
    tail = min(4000, math.ceil(math.log(1e-18) / math.log(float(np.max(rates)))))
    hi = lo + vals.shape[0] - 1
    start, stop = lo - tail, hi + tail + 1
    c = _dense(lo, vals @ op.Sinv.T, start, stop)
    y = np.zeros_like(c)
    lam_in, lam_out = op.lam[inside], op.lam[~inside]
    state = np.zeros(lam_in.size, dtype=np.complex128)
    for n in range(lo - start, stop - start):
        y[n + 1, inside] = state = lam_in * state + c[n, inside]
    state = np.zeros(lam_out.size, dtype=np.complex128)
    for n in range(hi - start, -1, -1):
        y[n, ~inside] = state = (state - c[n, ~inside]) / lam_out
    return start, y @ op.S.T


def resolve(data, op, lo, vals, rho):
    out = _load(data)
    u_lo, u = _sequence(out["solution"])
    hi = lo + vals.shape[0] - 1
    a, b = min(u_lo, lo) - 1, max(u_lo + u.shape[0] - 1, hi) + 1
    ud = _dense(u_lo, u, a, b + 1)
    res = ud[1:] - ud[:-1] @ op.A.T - _dense(lo, vals, a, b)
    n = np.arange(a, b + 1, dtype=np.float64)
    weights = rho ** (-n)
    f_norm = float(np.sqrt(np.sum(np.sum(np.abs(vals) ** 2, axis=1) * rho ** (-2.0 * n[lo - a : hi - a + 1]))))
    res_norm = float(np.sqrt(np.sum(np.sum(np.abs(res) ** 2, axis=1) * weights**2)))
    _require(res_norm <= TOL * max(1.0, f_norm), f"{out['mode']} residual {res_norm:.3e}")
    r_lo, ref = _reference_resolvent(op, lo, vals, rho)
    a, b = min(u_lo, r_lo), max(u_lo + u.shape[0], r_lo + ref.shape[0]) - 1
    dev = float(np.max(np.linalg.norm(_dense(u_lo, u, a, b) - _dense(r_lo, ref, a, b), axis=1)))
    size = float(np.max(np.linalg.norm(ref, axis=1)))
    _require(dev <= TOL * size, f"{out['mode']} solution deviates by {dev:.3e} (max |u_k| {size:.3e})")


def _forward_orbit(A, x, eps, steps):
    u = np.zeros((steps + 1, x.size), dtype=np.complex128)
    u[0] = x
    for n in range(steps):
        u[n + 1] = A @ u[n] + _saturation(u[n], eps)
    return u


def solve_ivp(data, op, x, eps, horizon):
    """Each method against a numpy forward recursion.

    Deviations are ``sup_n |u_n - ref_n| rho^-n`` with ``rho = r(A) + 1``,
    the impulse method's default weight and the acceptance gate's measure,
    held to ``TOL`` times the largest weighted ``|ref_n|``.
    """
    out = _load(data)
    ref = _forward_orbit(op.A, x, eps, horizon)
    weights = (float(np.max(np.abs(op.lam))) + 1.0) ** -np.arange(horizon + 1.0)
    size = float(np.max(np.linalg.norm(ref, axis=1) * weights))
    methods = out["methods"]
    _require(set(methods) == {"recursion", "variation_of_constants", "impulse"}, "missing methods")
    for name, seq in methods.items():
        lo, vals = _sequence(seq)
        _require(lo >= 0 and lo + vals.shape[0] - 1 <= horizon, f"{name} window outside [0, {horizon}]")
        dev = float(np.max(np.linalg.norm(_dense(lo, vals, 0, horizon) - ref, axis=1) * weights))
        _require(dev <= TOL * size, f"{name} deviates by {dev:.3e}")


def solve_contraction(data, eps, f_lo, f_vals, window):
    out = _load(data)
    _require(out["converged"] is True, "not converged")
    lo, hi = window
    u_lo, u = _sequence(out["solution"])
    _require(u_lo >= lo and u_lo + u.shape[0] - 1 <= hi, "solution outside the window")
    ud = _dense(u_lo, u, lo, hi)
    g = _dense(f_lo, f_vals, lo, hi - 1)
    # tau u = F(u) on the window interior: u_k = F(u)_{k-1} for lo < k <= hi.
    dev = float(np.max(np.linalg.norm(ud[1:] - _saturation(ud[:-1], eps) - g, axis=1)))
    _require(dev <= TOL * max(1.0, float(np.max(np.abs(f_vals)))), f"fixed-point defect {dev:.3e}")


def stability(data, op):
    out = _load(data)
    radius = float(np.max(np.abs(op.lam)))
    verdict = "exponentially_stable" if radius < 1.0 else "not_stable"
    _require(out["verdict"] == verdict, f"verdict {out['verdict']} for r(A) = {radius}")
    _require(abs(out["r"] - radius) <= TOL * radius, f"r = {out['r']} but max |lam| = {radius}")


def manifold_rows(data, op, grid, eps):
    """Rows of a stable-manifold sweep CSV.

    Each row must have an empty error field, echo its grid vector, and give
    ``eta`` in the unstable eigenspace.  A numpy forward orbit from
    ``xi + eta`` must decay over the prefix where the eta error, amplified
    by at most ``max |lam|`` per step, stays below 1e-4, and must satisfy
    the Lyapunov-Perron identity for the unstable coordinates at n = 0,
    ``y_0 = -sum_{k >= 0} lam^(-1-k) (S^-1 F(u)_k)_unstable``, up to the
    bounded tail beyond that prefix.
    """
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    d = op.A.shape[0]
    _require(len(rows) == len(grid) + 1, f"{len(rows) - 1} rows for {len(grid)} grid points")
    _require(len(rows[0]) == 4 * d + 4 and rows[0][-1] == "error", "unexpected header")
    mods = np.abs(op.lam)
    unstable = mods > 1.0
    g_max, g_min = float(np.max(mods)), float(np.min(mods[unstable]))
    r_in = float(np.max(mods[~unstable]))
    steps = int(min(60, max(4, math.log(1e-4 / 1e-10) / math.log(g_max))))
    cond = _norm2(op.S) * _norm2(op.Sinv)
    sinv_norm = _norm2(op.Sinv)
    for xi, row in zip(grid, rows[1:]):
        _require(row[-1] == "", f"row error: {row[-1]}")
        nums = np.array([float(v) for v in row[: 4 * d]])
        xi_out = nums[0 : 2 * d : 2] + 1j * nums[1 : 2 * d : 2]
        eta = nums[2 * d : 4 * d : 2] + 1j * nums[2 * d + 1 : 4 * d : 2]
        _require(np.array_equal(xi_out, xi), "xi column differs from the grid vector")
        _require(bool(np.all(np.isfinite(eta))), "eta is not finite")
        coords = op.Sinv @ eta
        _require(
            float(np.linalg.norm(coords[~unstable])) <= TOL * (1.0 + float(np.linalg.norm(coords))),
            "eta is not in the unstable eigenspace",
        )
        x0 = xi + eta
        size = float(np.linalg.norm(x0))
        orbit = _forward_orbit(op.A, x0, eps, steps)
        norms = np.linalg.norm(orbit, axis=1)
        envelope = 10.0 * cond * (r_in + 0.15) ** np.arange(steps + 1) * size + 1e-4 * (1.0 + size)
        _require(bool(np.all(norms <= envelope)), "forward orbit from xi + eta does not decay")
        phi = (_saturation(orbit, eps) @ op.Sinv.T)[:, unstable]
        lam_u = op.lam[unstable]
        powers = lam_u[None, :] ** (-1.0 - np.arange(steps + 1)[:, None])
        expected = -np.sum(powers * phi, axis=0)
        tail = eps * sinv_norm * float(np.max(norms)) * g_min ** (-steps - 2) / (1.0 - 1.0 / g_min)
        gap = float(np.linalg.norm(coords[unstable] - expected))
        _require(gap <= TOL * (1.0 + size) * sinv_norm + tail, f"eta violates the LP identity by {gap:.3e}")
