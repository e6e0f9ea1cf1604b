"""Seeded inputs and job lists for the three benchmark workloads.

A *job* is one CLI invocation: the argv handed to ``specseq.cli.main``, the
file it writes its result to (``None`` for stdout), an optional second file
it writes, and a check that verifies the result bytes against data only this module knows (the
eigenbasis each operator was built from).  A *pass* is a workload's job
list at one state dimension ``d``.

Every operator is built as ``A = S diag(lam) S^-1`` with prescribed
(evenly spaced) moduli, random phases and ``S = Q (I + shear * U)`` for a random unitary
``Q`` and a strictly upper-triangular ``U``, so the checks know the exact
spectrum and eigenbasis.  Every job of a pass gets its own operator: no two
timed jobs share a matrix, so no in-process cache can hit across calls.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("manifold-sweep", "resolve-mix", "ivp-solve")
DIMS = (2, 8, 32)

#: Saturation strength of the manifold nonlinearity; small enough that
#: every grid row converges at every d.
MANIFOLD_EPS = 0.002
MANIFOLD_GRID = 16
MANIFOLD_FP_TOL = 1e-12
FORCING_WIDTH = 256
IVP_EPS = 0.01
IVP_HORIZON = 128
CONTRACTION_RHO = 2.0
CONTRACTION_WINDOW = (-4, 60)


@dataclass
class Job:
    kind: str
    argv: list
    out_path: str | None
    check: Callable[[bytes], None]
    #: A second result file; the check then receives ``(result, side bytes)``.
    side_path: str | None = None

    def written(self):
        return [p for p in (self.out_path, self.side_path) if p is not None]


@dataclass
class Operator:
    A: np.ndarray
    S: np.ndarray
    Sinv: np.ndarray
    lam: np.ndarray


def pass_rng(seed: int, workload: str, stream: int, d: int) -> np.random.Generator:
    """Generator for one pass; ``stream`` separates rounds and warm-ups."""
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream, d])


def _unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def operator(rng, moduli) -> Operator:
    moduli = np.asarray(moduli, dtype=np.float64)
    d = moduli.size
    lam = moduli * np.exp(2j * np.pi * rng.random(d))
    upper = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), 1)
    t = np.eye(d) + (0.5 / np.sqrt(d)) * upper
    q = _unitary(rng, d)
    S = q @ t
    Sinv = np.linalg.inv(t) @ q.conj().T
    return Operator(S @ np.diag(lam) @ Sinv, S, Sinv, lam)


def _spaced(lo, hi, n):
    # Evenly spaced moduli: the cost of a job depends on its spectral gaps,
    # so fixed moduli keep the work per pass alike across seeds; phases and
    # eigenvectors stay random.
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n


def hyperbolic_operator(rng, d) -> Operator:
    n_in = d // 2
    return operator(rng, np.concatenate([_spaced(0.3, 0.7, n_in), _spaced(1.5, 2.5, d - n_in)]))


def stable_operator(rng, d) -> Operator:
    return operator(rng, _spaced(0.2, 0.9, d))


def _cvec(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def matrix_json(mat):
    return {"dim": int(mat.shape[0]), "re": mat.real.tolist(), "im": mat.imag.tolist()}


def vector_json(vec):
    return {"dim": int(vec.size), "re": vec.real.tolist(), "im": vec.imag.tolist()}


def sequence_json(lo, vals):
    return {
        "dim": int(vals.shape[1]),
        "lo": int(lo),
        "values": [[row.real.tolist(), row.imag.tolist()] for row in vals],
    }


class _Files:
    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def write(self, name, obj) -> str:
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def path(self, name) -> str:
        return os.path.join(self.directory, name)


def _manifold_pass(rng, d, files):
    op = hyperbolic_operator(rng, d)
    stable = np.abs(op.lam) < 1.0
    coeffs = _cvec(rng, (MANIFOLD_GRID, int(stable.sum())))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    grid = coeffs @ op.S[:, stable].T
    problem = {
        "A": matrix_json(op.A),
        "F": {"kernel": "scaled_bounded_saturation", "params": {"eps": MANIFOLD_EPS}},
        "fp_tol": MANIFOLD_FP_TOL,
    }
    out = files.path("manifold.csv")
    argv = [
        "stable-manifold",
        "--problem", files.write("problem.json", problem),
        "--grid", files.write("grid.json", {"vectors": [vector_json(x) for x in grid]}),
        "--out", out,
    ]
    return [
        Job("stable-manifold", argv, out, lambda data: checks.manifold_rows(data, op, grid, MANIFOLD_EPS))
    ]


def _forcing(rng, d):
    lo = int(rng.integers(-FORCING_WIDTH // 2, 1))
    return lo, _cvec(rng, (FORCING_WIDTH, d))


def _resolve_job(rng, d, files, mode, op):
    lo, vals = _forcing(rng, d)
    argv = [
        "resolve",
        "--A", files.write(f"a_{mode}.json", matrix_json(op.A)),
        "--f", files.write(f"f_{mode}.json", sequence_json(lo, vals)),
        "--rho", "1",
        "--mode", mode,
    ]
    return Job(f"resolve-{mode}", argv, None, lambda data: checks.resolve(data, op, lo, vals, 1.0))


def _resolve_mix_pass(rng, d, files):
    spec = hyperbolic_operator(rng, d)
    riesz = hyperbolic_operator(rng, d)
    u_lo, u_vals = _forcing(rng, d)
    jobs = [
        Job(
            "spectrum",
            ["spectrum", "--A", files.write("a_spectrum.json", matrix_json(spec.A))],
            None,
            lambda data: checks.spectrum(data, spec),
        ),
        Job(
            "riesz",
            ["riesz", "--A", files.write("a_riesz.json", matrix_json(riesz.A)), "--gamma", "1"],
            None,
            lambda data: checks.riesz(data, riesz, 1.0),
        ),
        Job(
            "ztransform-check",
            [
                "ztransform-check",
                "--u", files.write("u.json", sequence_json(u_lo, u_vals)),
                "--rho", "1",
                "--circle-csv", files.path("circle.csv"),
            ],
            None,
            lambda data: checks.ztransform(data, u_lo, u_vals, 1.0),
            side_path=files.path("circle.csv"),
        ),
    ]
    jobs.append(_resolve_job(rng, d, files, "causal", stable_operator(rng, d)))
    jobs.append(_resolve_job(rng, d, files, "split", hyperbolic_operator(rng, d)))
    jobs.append(_resolve_job(rng, d, files, "frequency", hyperbolic_operator(rng, d)))
    return jobs


def _ivp_pass(rng, d, files, unstable_probe):
    ivp = stable_operator(rng, d)
    x = _cvec(rng, d)
    x /= np.linalg.norm(x)
    sat = {"kernel": "scaled_bounded_saturation", "params": {"eps": IVP_EPS}}
    f_lo = int(rng.integers(-6, 0))
    f_vals = _cvec(rng, (48, d))
    forced = dict(sat, forcing=sequence_json(f_lo, f_vals))
    moduli = _spaced(0.2, 0.9, d)
    if unstable_probe:
        moduli[int(rng.integers(d))] = 1.35
    stab = operator(rng, moduli)
    lo, hi = CONTRACTION_WINDOW
    return [
        Job(
            "solve-ivp",
            [
                "solve-ivp",
                "--A", files.write("a_ivp.json", matrix_json(ivp.A)),
                "--F", files.write("f_sat.json", sat),
                "--x", files.write("x.json", vector_json(x)),
                "--method", "all",
                "--horizon", str(IVP_HORIZON),
            ],
            None,
            lambda data: checks.solve_ivp(data, ivp, x, IVP_EPS, IVP_HORIZON),
        ),
        Job(
            "solve-contraction",
            [
                "solve-contraction",
                "--F", files.write("f_forced.json", forced),
                "--rho", str(CONTRACTION_RHO),
                "--window", str(lo), str(hi),
            ],
            None,
            lambda data: checks.solve_contraction(data, IVP_EPS, f_lo, f_vals, CONTRACTION_WINDOW),
        ),
        Job(
            "stability",
            ["stability", "--A", files.write("a_stability.json", matrix_json(stab.A))],
            None,
            lambda data: checks.stability(data, stab),
        ),
    ]


def make_pass(workload: str, seed: int, stream: int, d: int, directory: str) -> list[Job]:
    """Write the inputs of one pass under ``directory`` and return its jobs."""
    rng = pass_rng(seed, workload, stream, d)
    files = _Files(directory)
    if workload == "manifold-sweep":
        return _manifold_pass(rng, d, files)
    if workload == "resolve-mix":
        return _resolve_mix_pass(rng, d, files)
    if workload == "ivp-solve":
        # The probe alternates every second stream, so that the traced
        # (odd) rounds of a traced run see both variants, like the others.
        return _ivp_pass(rng, d, files, unstable_probe=stream // 2 % 2 == 1)
    raise ValueError(f"unknown workload {workload!r}")
