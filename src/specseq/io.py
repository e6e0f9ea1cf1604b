"""JSON and CSV wire formats.

Matrices:    {"dim": d, "re": [[..]], "im": [[..]]}        ("im" optional on input)
Vectors:     {"dim": d, "re": [..], "im": [..]}
Sequences:   {"dim": d, "lo": n, "values": [[[re..],[im..]], ...]}
             one [re-components, im-components] pair per index from lo
Circle data: {"rho": r, "n_samples": N, "samples": [...as vectors...]}
Stencils:    {"kernel": name, "params": {...}, "forcing": sequence-or-null}
             linear params carry a matrix object; polynomial coefficients
             are listed from power 1.
Sequence CSV rows: (n, component, re, im).
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import InputError
from .manifold import ManifoldProblem
from .operators import BoundedOperator
from .sequences import WindowedSequence
from .solver import StencilMap
from .ztransform import CircleFunction


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def dump_json(obj, path=None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _require(obj, key, context):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{context} needs a {key!r} field")
    return obj[key]


def _parse(convert, value, what):
    """``convert(value)``, with a malformed value raised as InputError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} is malformed: {exc}") from exc


def _floats(value, what) -> np.ndarray:
    return _parse(lambda v: np.asarray(v, dtype=np.float64), value, what)


def _dim(obj, context) -> int:
    dim = _parse(int, _require(obj, "dim", context), f"{context} dim")
    if dim < 1:
        raise InputError(f"{context} dim must be positive, got {dim}")
    return dim


def matrix_from_json(obj, context="matrix") -> BoundedOperator:
    dim = _dim(obj, context)
    re = _floats(_require(obj, "re", context), f"{context} re")
    im = _floats(obj.get("im", np.zeros_like(re)), f"{context} im")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InputError(f"{context} entries must be {dim}x{dim}")
    return BoundedOperator(re + 1j * im)


def matrix_to_json(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=np.complex128)
    return {
        "dim": int(mat.shape[0]),
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }


def vector_from_json(obj, context="vector") -> np.ndarray:
    dim = _dim(obj, context)
    re = _floats(_require(obj, "re", context), f"{context} re").reshape(-1)
    im = _floats(obj.get("im", np.zeros_like(re)), f"{context} im").reshape(-1)
    if re.size != dim or im.size != dim:
        raise InputError(f"{context} components must have length {dim}")
    return re + 1j * im


def vector_to_json(vec: np.ndarray) -> dict:
    vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
    return {"dim": int(vec.size), "re": vec.real.tolist(), "im": vec.imag.tolist()}


def sequence_from_json(obj, context="sequence") -> WindowedSequence:
    dim = _dim(obj, context)
    lo = _parse(int, _require(obj, "lo", context), f"{context} lo")
    raw = _require(obj, "values", context)
    if not isinstance(raw, list):
        raise InputError(f"{context} values must be a list")
    vals = np.zeros((max(len(raw), 1), dim), dtype=np.complex128)
    for i, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError(f"{context} values must be [re, im] component pairs")
        re = _floats(pair[0], f"{context} entry {i}").reshape(-1)
        im = _floats(pair[1], f"{context} entry {i}").reshape(-1)
        if re.size != dim or im.size != dim:
            raise InputError(f"{context} entry {i} must have {dim} components")
        vals[i] = re + 1j * im
    return WindowedSequence(lo, vals)


def sequence_to_json(u: WindowedSequence) -> dict:
    return {
        "dim": u.dim,
        "lo": u.lo,
        "values": [
            [row.real.tolist(), row.imag.tolist()] for row in u.values
        ],
    }


def write_sequence_csv(u: WindowedSequence, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "component", "re", "im"])
        for offset, row in enumerate(u.values):
            for comp in range(u.dim):
                writer.writerow(
                    [u.lo + offset, comp, repr(float(row[comp].real)), repr(float(row[comp].imag))]
                )


def write_circle_csv(f: CircleFunction, path):
    """Rows (theta, |f|) for external plotting."""
    mags = np.linalg.norm(f.samples, axis=1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "abs"])
        for theta, mag in zip(f.angles(), mags):
            writer.writerow([repr(float(theta)), repr(float(mag))])


def stencil_from_json(obj, context="stencil") -> StencilMap:
    kernel = _require(obj, "kernel", context)
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise InputError(f"{context} params must be an object")
    params = dict(params)
    if kernel == "linear" and "matrix" in params:
        params["matrix"] = matrix_from_json(params["matrix"], f"{context}.matrix").entries
    forcing = obj.get("forcing")
    seq = sequence_from_json(forcing, f"{context}.forcing") if forcing else None
    return _parse(lambda p: StencilMap(kernel, p, seq), params, f"{context} params")


def manifold_problem_from_json(obj, context="problem") -> ManifoldProblem:
    if not isinstance(obj, dict):
        raise InputError(f"{context} must be a JSON object")
    kwargs = {}
    for key in ("rho", "fp_tol"):
        if key in obj:
            kwargs[key] = _parse(float, obj[key], f"{context} {key}")
    for key in ("max_iter", "horizon"):
        if key in obj:
            kwargs[key] = _parse(int, obj[key], f"{context} {key}")
    return ManifoldProblem(
        A=matrix_from_json(_require(obj, "A", context), f"{context}.A"),
        F=stencil_from_json(_require(obj, "F", context), f"{context}.F"),
        **kwargs,
    )


def grid_from_json(obj, context="grid") -> list[np.ndarray]:
    vectors = _require(obj, "vectors", context)
    if not isinstance(vectors, list) or not vectors:
        raise InputError(f"{context} needs a nonempty 'vectors' list")
    return [vector_from_json(v, f"{context}[{i}]") for i, v in enumerate(vectors)]
