"""JSON and CSV wire formats.

Matrices:    {"dim": d, "re": [[..]], "im": [[..]]}        ("im" optional on input)
Vectors:     {"dim": d, "re": [..], "im": [..]}
Sequences:   {"dim": d, "lo": n, "values": [[[re..],[im..]], ...]}
             one [re-components, im-components] pair per index from lo,
             each a flat list of d numbers.  The values list is converted
             by one struct.pack call, an array the size of the parsed input,
             and its shape is checked before any array sized by d is
             allocated; an entry that breaks the shape or holds anything
             but JSON numbers is named.
Stencils:    {"kernel": name, "params": {...}, "forcing": sequence-or-null}
             linear params carry a matrix object; polynomial coefficients
             are listed from power 1.  A missing or null forcing is none;
             any other value must be a sequence.
Problems:    {"A": matrix, "F": stencil, "fp_tol"?, "max_iter"?, "horizon"?}
             a supplied horizon lies in [0, resolvent.TAIL_CAP = 20000];
             ManifoldProblem refuses one below its certified horizon.
             Other keys are ignored; a "rho" that older files hold is
             one of them, as the one smallness gate is at 1.
Sequence CSV rows: (n, component, re, im).
Sweep CSV rows: (xi_*, eta_*, decay_rate, iterations, residual, error).

dim and lo are JSON integers or integral floats (2.0); booleans,
fractions and text are InputError.  Matrix, vector and sequence entries
hold JSON numbers; text such as "2.0" and booleans are InputError.  A
stencil's parameters other than a linear kernel's matrix object, and a
problem's fp_tol, max_iter and horizon (null is no horizon), are passed
to StencilMap and ManifoldProblem as decoded, and their checks, the same
for library callers, refuse them, and any parameter the kernel does not
take, with an InputError naming the parameter.  Complex entries are
assembled from their parts bit for bit, so a -0.0 in either part is
kept.  Every JSON result is one line, json.dumps(result, sort_keys=True)
+ "\n" (dump_json).  An input that cannot be read, is not UTF-8 JSON,
holds an integer longer than the interpreter's limit on integer text (4300
digits by default) or is nested too deeply to decode, and an output that
cannot be written, are InputError naming the file.
"""

from __future__ import annotations

import csv
import json
import struct
from io import StringIO
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError, _integer
from .operators import BoundedOperator
from .sequences import WindowedSequence, zero_sequence

if TYPE_CHECKING:
    from .manifold import ManifoldProblem, SweepRow
    from .solver import StencilMap
    from .ztransform import CircleFunction


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} is nested too deeply to decode: {exc}") from exc


def dump_json(obj, path=None) -> str:
    """``json.dumps(obj, sort_keys=True) + "\\n"``: one line, keys sorted,
    ``NaN`` and ``Infinity`` as the stdlib spells them; also written to
    ``path`` when one is given.  ``python -m json.tool`` indents it."""
    text = json.dumps(obj, sort_keys=True) + "\n"
    if path is not None:
        _write_text(path, text)
    return text


def _write_text(path, text):
    """Write ``text`` to ``path`` as UTF-8, newlines untranslated; a path
    that cannot be written is InputError."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


_NUMBERS = {int, float}


def _require(obj, key, context):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{context} needs a {key!r} field")
    return obj[key]


def _parse(convert, value, what):
    """``convert(value)``, with a malformed or unrepresentable value raised
    as InputError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError, MemoryError) as exc:
        raise InputError(f"{what} is malformed: {exc}") from exc


def _floats(value, what) -> np.ndarray:
    """``value``, a JSON number or a regular nest of lists of them, as a
    float64 array; text such as ``"2.0"``, booleans, ragged lists and other
    values are InputError.

    The nest is walked one level at a time by C-level ``map`` and ``chain``,
    so no level costs a Python call per item, and its leaves are packed by
    one ``struct.pack``, which takes ints and floats and refuses text.  A
    level is taken for lists by its first item: an item of another type
    there has no length or yields text (a string's characters, an object's
    keys), which the pack refuses.  It packs a boolean as 1 or 0, so the
    leaves' types are checked only where a 0 or a 1 was packed."""
    shape, level = [], [value]
    while level and type(level[0]) is list:
        lengths = _parse(lambda items: set(map(len, items)), level, what)
        if len(lengths) > 1:
            raise InputError(f"{what} is malformed: lists of unequal lengths")
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))
    try:
        packed = _parse(lambda items: struct.pack(f"{len(items)}d", *items), level, what)
    except struct.error as exc:
        raise InputError(f"{what} must hold JSON numbers only: {exc}") from exc
    arr = np.frombuffer(packed, dtype=np.float64)
    if ((arr == 0) | (arr == 1)).any() and not set(map(type, level)) <= _NUMBERS:
        raise InputError(f"{what} must hold JSON numbers only, not booleans")
    return _parse(arr.reshape, shape, what)  # numpy allows at most 64 axes


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``re + 1j im`` with both parts kept bit for bit, signed zeros
    included, which the sum ``re + 1j * im`` does not do."""
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _dim(obj, context) -> int:
    return _integer(_require(obj, "dim", context), f"{context} dim", low=1)


def _parts(obj, context) -> tuple[np.ndarray, np.ndarray]:
    """The ``re`` and ``im`` arrays of a matrix or vector; a missing ``im``
    is zero."""
    re = _floats(_require(obj, "re", context), f"{context} re")
    im = _floats(obj["im"], f"{context} im") if "im" in obj else np.zeros_like(re)
    return re, im


def matrix_from_json(obj, context="matrix") -> BoundedOperator:
    dim = _dim(obj, context)
    re, im = _parts(obj, context)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InputError(f"{context} entries must be {dim}x{dim}")
    return BoundedOperator(_complex(re, im))


def matrix_to_json(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=np.complex128)
    return {
        "dim": int(mat.shape[0]),
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }


def vector_from_json(obj, context="vector") -> np.ndarray:
    dim = _dim(obj, context)
    re, im = _parts(obj, context)
    if re.shape != (dim,) or im.shape != (dim,):
        raise InputError(f"{context} components must be flat lists of length {dim}")
    return _complex(re, im)


def vector_to_json(vec: np.ndarray) -> dict:
    vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
    return {"dim": int(vec.size), "re": vec.real.tolist(), "im": vec.imag.tolist()}


def sequence_from_json(obj, context="sequence") -> WindowedSequence:
    dim = _dim(obj, context)
    lo = _integer(_require(obj, "lo", context), f"{context} lo")
    raw = _require(obj, "values", context)
    if not isinstance(raw, list):
        raise InputError(f"{context} values must be a list")
    if not raw:  # no entry fixes the width: the zero sequence of dimension dim
        return _parse(zero_sequence, dim, f"{context} dim")
    try:
        values = _floats(raw, context)
    except InputError:
        values = None
    if values is None or values.shape != (len(raw), 2, dim):
        _reject_values(raw, dim, context)
    return WindowedSequence(lo, _complex(values[:, 0], values[:, 1]))


def _reject_values(raw, dim, context):
    """Raise the InputError naming the first entry of ``raw`` that is not a
    pair of flat lists of ``dim`` JSON numbers.  It is called only once
    ``raw`` failed to convert to a ``(len(raw), 2, dim)`` array of them, and
    never returns."""
    for i, pair in enumerate(raw):
        what = f"{context} entry {i}"
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError(f"{what} must be an [re, im] component pair")
        for part in pair:
            if _floats(part, what).shape != (dim,):
                raise InputError(f"{what} must have {dim} components")
    raise InputError(f"{context} values are malformed")


def sequence_to_json(u: WindowedSequence) -> dict:
    return {
        "dim": u.dim,
        "lo": u.lo,
        "values": np.stack((u.values.real, u.values.imag), axis=1).tolist(),
    }


def write_sequence_csv(u: WindowedSequence, path):
    """Rows (n, component, re, im), the bytes ``csv.writer`` writes: float
    reprs and integers never need quoting."""
    re, im = u.values.real.tolist(), u.values.imag.tolist()
    rows = "".join(
        f"{n},{comp},{x!r},{y!r}\r\n"
        for n, re_n, im_n in zip(range(u.lo, u.lo + len(re)), re, im)
        for comp, (x, y) in enumerate(zip(re_n, im_n))
    )
    _write_text(path, "n,component,re,im\r\n" + rows)


def write_circle_csv(f: CircleFunction, path):
    """Rows (theta, |f|) for external plotting, written as by
    ``write_sequence_csv``."""
    mags = np.linalg.norm(f.samples, axis=1)
    rows = "".join(f"{t!r},{m!r}\r\n" for t, m in zip(f.angles().tolist(), mags.tolist()))
    _write_text(path, "theta,abs\r\n" + rows)


def write_sweep_csv(rows: list[SweepRow], dim: int, path):
    """Stable-manifold sweep rows, float reprs interleaving (re, im) per
    component, as ``csv.writer`` writes them; a failed row's ``eta`` is nan,
    and so is an ``xi`` of another dimension than ``dim``, so every row has
    the header's columns."""
    out = StringIO()
    writer = csv.writer(out)
    writer.writerow(
        [f"xi_{i}_{part}" for i in range(dim) for part in ("re", "im")]
        + [f"eta_{i}_{part}" for i in range(dim) for part in ("re", "im")]
        + ["decay_rate", "iterations", "residual", "error"]
    )
    missing = np.full(dim, np.nan, dtype=np.complex128)
    for row in rows:
        xi = row.xi if row.xi.size == dim else missing
        eta = missing if row.eta is None else row.eta
        parts = np.concatenate((xi, eta)).view(np.float64)
        record = [repr(x) for x in parts.tolist()]
        record.extend([repr(float(row.decay_rate)), row.iterations, repr(float(row.residual))])
        record.append(row.error or "")
        writer.writerow(record)
    _write_text(path, out.getvalue())


def stencil_from_json(obj, context="stencil") -> StencilMap:
    # the kernel's parameters are checked by StencilMap
    from .solver import StencilMap

    kernel = _require(obj, "kernel", context)
    params = obj.get("params", {})
    if kernel == "linear" and isinstance(params, dict) and "matrix" in params:
        params = {**params, "matrix": matrix_from_json(params["matrix"], f"{context}.matrix").entries}
    forcing = obj.get("forcing")
    seq = None if forcing is None else sequence_from_json(forcing, f"{context}.forcing")
    return StencilMap(kernel, params, seq)


def manifold_problem_from_json(obj, context="problem") -> ManifoldProblem:
    from .manifold import ManifoldProblem

    if not isinstance(obj, dict):
        raise InputError(f"{context} must be a JSON object")
    # the iteration limits and the horizon are checked by ManifoldProblem
    kwargs = {key: obj[key] for key in ("fp_tol", "max_iter", "horizon") if key in obj}
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
