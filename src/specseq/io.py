"""JSON and CSV wire formats.

Matrices:    {"dim": d, "re": [[..]], "im": [[..]]}        ("im" optional on input)
Vectors:     {"dim": d, "re": [..], "im": [..]}
Sequences:   {"dim": d, "lo": n, "values": [[[re..],[im..]], ...]}
             one [re-components, im-components] pair per index from lo;
             every pair must have d components (checked before any array
             is allocated)
Stencils:    {"kernel": name, "params": {...}, "forcing": sequence-or-null}
             linear params carry a matrix object; polynomial coefficients
             are listed from power 1.
Problems:    {"A": matrix, "F": stencil, "rho"?, "fp_tol"?, "max_iter"?, "horizon"?}
             a supplied horizon lies in [0, resolvent.TAIL_CAP = 20000].
Sequence CSV rows: (n, component, re, im).

dim, lo, max_iter and horizon are JSON integers or integral floats (2.0);
booleans, fractions and text are InputError.  Every JSON result is written
as json.dumps(result, indent=2, sort_keys=True) + "\n", byte for byte
(dump_json).
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import InputError
from .manifold import ManifoldProblem
from .operators import BoundedOperator
from .sequences import WindowedSequence, zero_sequence
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
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    also written to ``path`` when one is given.

    The stdlib encodes with an indent in pure Python, one generator step
    per float.  Here every list of numbers nested to one depth is encoded
    by a single call of the C encoder and then re-indented
    (``_numeric_array``); dicts and other lists are walked in Python, with
    each key and scalar still encoded by the C encoder."""
    chunks = []
    _write(obj, 0, chunks.append)
    chunks.append("\n")
    text = "".join(chunks)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


_encode = json.JSONEncoder().encode
_NUMBERS = {int, float}


def _write(obj, level, out):
    """Append the indented encoding of ``obj`` at nesting ``level``."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        depth = _numeric_depth(obj)
        if depth:
            out(_numeric_array(obj, depth, level))
            return
        inner = "\n" + "  " * (level + 1)
        sep = "[" + inner
        for item in obj:
            out(sep)
            _write(item, level + 1, out)
            sep = "," + inner
        out("\n" + "  " * level + "]")
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out(sep)
            out(_encode(_key(key)))
            out(": ")
            _write(value, level + 1, out)
            sep = "," + inner
        out("\n" + "  " * level + "}")
    else:
        out(_encode(obj))


def _key(key):
    """A dict key as the stdlib writes it: a string, with numbers, booleans
    and None spelled as their JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _encode(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _numeric_depth(seq) -> int:
    """``k`` when ``seq`` is a list of nonempty lists nested ``k`` deep whose
    leaves are all ``int`` or ``float`` (not ``bool``), else 0."""
    if type(seq) is not list or not seq:
        return 0
    kinds = set(map(type, seq))
    if kinds <= _NUMBERS:
        return 1
    if kinds != {list}:
        return 0
    depths = set(map(_numeric_depth, seq))
    if len(depths) != 1:
        return 0
    depth = depths.pop()
    return depth + 1 if depth else 0


def _numeric_array(seq, depth, level):
    """The ``indent=2`` layout at nesting ``level`` of a list with
    ``_numeric_depth`` ``depth``, from one call of the C encoder.

    The encoder already puts the indented separator between numbers.  Number
    tokens contain no ``[`` or ``]``, so between two sublists that separator
    sits in a run ``"]" * j + sep + "[" * j`` that closes and reopens ``j``
    levels.  Runs are replaced longest first, so a shorter run never matches
    inside a longer one.  The runs of ``depth`` brackets left are the outer
    ones, at the two ends.  Every step is one ``str.replace``, so at most two
    copies of the text are alive at once."""
    pad = ["\n" + "  " * (level + i) for i in range(depth + 1)]

    def closes(j):
        return "".join(pad[depth - 1 - i] + "]" for i in range(j))

    def opens(j):
        return "".join(pad[depth - j + i] + "[" for i in range(j)) + pad[depth]

    sep = "," + pad[depth]
    text = json.JSONEncoder(separators=(sep, ": ")).encode(seq)
    for j in range(depth - 1, 0, -1):
        text = text.replace("]" * j + sep + "[" * j, closes(j) + "," + opens(j))
    text = text.replace("[" * depth, "[" + opens(depth - 1), 1)
    return text.replace("]" * depth, closes(depth))


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
    return _parse(lambda v: np.asarray(v, dtype=np.float64), value, what)


def _integer(value, what) -> int:
    """A JSON integer, or a float with an integral value such as ``2.0``.
    Booleans, fractions, infinities and non-numbers are InputError, so a
    ``"lo": 2.9`` never shifts a sequence silently."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _dim(obj, context) -> int:
    dim = _integer(_require(obj, "dim", context), f"{context} dim")
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
    lo = _integer(_require(obj, "lo", context), f"{context} lo")
    raw = _require(obj, "values", context)
    if not isinstance(raw, list):
        raise InputError(f"{context} values must be a list")
    rows = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError(f"{context} values must be [re, im] component pairs")
        re = _floats(pair[0], f"{context} entry {i}").reshape(-1)
        im = _floats(pair[1], f"{context} entry {i}").reshape(-1)
        if re.size != dim or im.size != dim:
            raise InputError(f"{context} entry {i} must have {dim} components")
        rows.append(re + 1j * im)
    if not rows:  # no entry fixes the width: the zero sequence of dimension dim
        return _parse(zero_sequence, dim, f"{context} dim")
    return WindowedSequence(lo, np.array(rows))


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
            kwargs[key] = _integer(obj[key], f"{context} {key}")
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
