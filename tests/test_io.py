"""The wire layer against its oracles: io.dump_json against the stdlib
writer it must match byte for byte, json.dumps(obj, indent=2,
sort_keys=True) + "\\n"; the sequence decoder against a per-row decoder;
the CSV writers against csv.writer."""

import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq import io
from specseq.errors import InputError
from specseq.manifold import SweepRow
from specseq.sequences import WindowedSequence, zero_sequence


def oracle(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "obj",
    [
        [NAN, INF, -INF, -0.0, 0.0, 5e-324, 1e308, -1e-300, 10**40, -(10**40), 0],
        [[NAN, -0.0], [INF, 5e-324]],
        {"x": [[[1e308, -INF]], [[NAN, 2**70]]]},
        [True, 1.0, 2],
        [[1.0, 2.0], [False, 3.0]],
        [None, 1.0],
        [[1.0], [None]],
        ["a, b", "[", "]", "], [", "ü€", 1.5],
        {"a, b": [1.0, 2.0], "]": {"[": 0.5}, "é": "ü"},
        [],
        {},
        [[], []],
        [[[]], [[]]],
        {"a": [], "b": {}, "c": [[]]},
        [[1.0], 2.0],
        [[[1.0]], [2.0]],
        [[1.0, 2.0], []],
        (1.0, 2.0),
        [(1.0, 2.0), (3.0, 4.0)],
        ([1.0], [2.0]),
        [[1.0, 2.0, 3.0], [4.0]],
        [[[1, 2], [3]], [[4.5]]],
        {"b": 1, "a": [1.5, -2], "c": {"z": None, "y": True}},
        {2: "int key", 1.5: "float key"},
        {None: 1},
        {True: 1},
        1.5,
        -0.0,
        NAN,
        10**40,
        "text, [with] brackets",
        None,
        False,
    ],
)
def test_dump_json_matches_stdlib_on_edge_cases(obj):
    assert io.dump_json(obj) == oracle(obj)


def complex_array(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("dim", [1, 2, 8, 32])
@pytest.mark.parametrize("width", [1, 3, 40])
def test_dump_json_matches_stdlib_on_wire_objects(dim, width):
    rng = np.random.default_rng(100 * dim + width)
    values = complex_array(rng, (width, dim))
    values[0, 0] = -0.0  # a signed zero in the real part
    obj = {
        "solution": io.sequence_to_json(WindowedSequence(-5, values)),
        "matrix": io.matrix_to_json(complex_array(rng, (dim, dim))),
        "vector": io.vector_to_json(complex_array(rng, dim)),
        "residual": 1e-15,
        "converged": True,
    }
    assert io.dump_json(obj) == oracle(obj)
    for part in obj.values():
        assert io.dump_json(part) == oracle(part)


def test_dump_json_matches_stdlib_on_the_empty_sequence():
    obj = io.sequence_to_json(zero_sequence(3))
    assert io.dump_json(obj) == oracle(obj)
    assert io.dump_json({"solution": obj}) == oracle({"solution": obj})


def numeric_arrays():
    """Lists of numbers nested to one depth, with sublists of any nonzero
    length: the shape that takes the single-encoder-call route."""
    numbers = st.floats() | st.integers()

    def nest(depth):
        strat = st.lists(numbers, min_size=1, max_size=4)
        for _ in range(depth - 1):
            strat = st.lists(strat, min_size=1, max_size=3)
        return strat

    return st.integers(1, 4).flatmap(nest)


scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
json_trees = st.recursive(
    scalars | numeric_arrays(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(obj=json_trees)
def test_dump_json_matches_stdlib_on_json_trees(obj):
    assert io.dump_json(obj) == oracle(obj)


def test_dump_json_writes_the_bytes_it_returns(tmp_path):
    obj = {"values": [[[1.0, -0.0], [NAN, 2.5]]], "name": "ü, [x]", "n": 3}
    path = tmp_path / "out.json"
    text = io.dump_json(obj, path)
    assert text == oracle(obj)
    assert path.read_bytes() == text.encode("utf-8")


def rowwise_sequence(obj):
    """The per-row decoder: one float conversion per component list, each
    part assigned into a complex row, so every zero keeps its sign."""
    rows = np.empty((len(obj["values"]), obj["dim"]), dtype=np.complex128)
    for row, (re, im) in zip(rows, obj["values"]):
        row.real, row.imag = np.asarray(re, dtype=np.float64), np.asarray(im, dtype=np.float64)
    return WindowedSequence(obj["lo"], rows)


def bits(a):
    return np.signbit(a.real), np.signbit(a.imag), a.real, a.imag


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("width", [1, 2, 7, 64, 256, 300])
def test_sequence_from_json_is_bit_identical_to_rowwise_decoding(dim, width):
    rng = np.random.default_rng(1000 * dim + width)
    re = rng.standard_normal((width, dim))
    im = rng.standard_normal((width, dim))
    # signed zeros in both parts, in rows that stay nonzero
    re[width // 2, 0] = im[0, dim - 1] = -0.0
    re[-1, -1], im[-1, 0] = 0.0, -0.0
    values = [[r, i] for r, i in zip(re.tolist(), im.tolist())]
    obj = {"dim": dim, "lo": -3, "values": values}
    got, want = io.sequence_from_json(obj), rowwise_sequence(obj)
    assert (got.lo, got.values.shape) == (want.lo, want.values.shape)
    # every zero sign is kept, which re + 1j * im would not do
    # (1j * -0.0 has imaginary part +0.0)
    for g, w in zip(bits(got.values), bits(want.values)):
        assert np.array_equal(g, w)


GOOD = [[1.0, 2.0], [0.5, -0.0]]


@pytest.mark.parametrize(
    "entry",
    [
        [[1.0], [0.5, -0.0]],
        [[1.0, 2.0, 3.0], [0.5, -0.0, 1.0]],
        [[1.0, 2.0]],
        [[1.0, 2.0], [0.5, 0.0], [0.0, 0.0]],
        [1.0, 2.0],
        "pair",
        None,
        [[1.0, "two"], [0.5, 0.0]],
        [[1.0, 2.0], [{}, 0.0]],
        [[[1.0], [2.0]], [[0.5], [0.0]]],
        [[[1.0, 2.0]], [[0.5, 0.0]]],
    ],
    ids=[
        "short-component",
        "long-components",
        "one-part",
        "three-parts",
        "scalar-parts",
        "text-pair",
        "null-pair",
        "text-component",
        "object-component",
        "nested-components",
        "wrapped-components",
    ],
)
def test_malformed_sequence_entry_is_named(entry):
    obj = {"dim": 2, "lo": 0, "values": [GOOD, GOOD, entry, GOOD]}
    with pytest.raises(InputError, match="^f entry 2 "):
        io.sequence_from_json(obj, "f")


def oracle_sequence_csv(u, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "component", "re", "im"])
        for offset, row in enumerate(u.values):
            for comp in range(u.dim):
                writer.writerow(
                    [u.lo + offset, comp, repr(float(row[comp].real)), repr(float(row[comp].imag))]
                )


def oracle_circle_csv(f, path):
    mags = np.linalg.norm(f.samples, axis=1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "abs"])
        for theta, mag in zip(f.angles(), mags):
            writer.writerow([repr(float(theta)), repr(float(mag))])


EDGES = [-0.0, 5e-324, 1e308, INF, NAN, -INF, -1e-300, 0.1]


def test_csv_writers_match_csv_writer_on_edge_values(tmp_path):
    # stand-ins: WindowedSequence refuses non-finite values, and no circle's
    # angles or sample norms reach these edges
    edges = np.array(EDGES)
    values = np.empty((4, 2), dtype=np.complex128)
    values.real, values.imag = edges.reshape(4, 2), edges[::-1].reshape(4, 2)
    u = SimpleNamespace(lo=-2, dim=2, values=values)
    samples = np.array([[-0.0], [0.5], [INF], [NAN], [-2.0], [5e-324], [0.1], [1.0]])
    f = SimpleNamespace(samples=samples, angles=lambda: edges[::-1])
    for write, oracle_write, obj in [
        (io.write_sequence_csv, oracle_sequence_csv, u),
        (io.write_circle_csv, oracle_circle_csv, f),
    ]:
        write(obj, tmp_path / "got.csv")
        oracle_write(obj, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        for text in ("-0.0", "5e-324", "1e+308", "inf", "nan"):
            assert text.encode() in got


def test_sweep_csv_quotes_an_error_that_holds_a_comma(tmp_path):
    ok = SweepRow(0, np.array([0.5, 0.0]), np.array([-0.0, 1e-17 - 2j]), 0.25, 7, 1e-13)
    failed = SweepRow(1, np.array([0.0, 1.0]), None, NAN, 0, NAN, error="no-convergence: on [0, 12]")
    io.write_sweep_csv([ok, failed], 2, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (
        b"xi_0_re,xi_0_im,xi_1_re,xi_1_im,eta_0_re,eta_0_im,eta_1_re,eta_1_im,"
        b"decay_rate,iterations,residual,error\r\n"
        b"0.5,0.0,0.0,0.0,-0.0,0.0,1e-17,-2.0,0.25,7,1e-13,\r\n"
        b'0.0,0.0,1.0,0.0,nan,0.0,nan,0.0,nan,0,nan,"no-convergence: on [0, 12]"\r\n'
    )


def test_signed_zeros_round_trip():
    # -0.0 in either part, beside +0.0 and nonzero parts, survives decoding
    zeros = np.array([-0.0, 0.0, -0.0, 1.5])
    vec = np.empty(4, dtype=np.complex128)
    vec.real, vec.imag = zeros, zeros[::-1]
    mat = np.empty((4, 4), dtype=np.complex128)
    mat.real, mat.imag = np.outer(zeros, [1.0, -1.0, 1.0, 1.0]), np.outer([1.0, 1.0, -1.0, 1.0], zeros)
    seq = WindowedSequence(-2, np.stack([vec, mat[1], mat[:, 2]]))
    got = [
        io.vector_from_json(json.loads(json.dumps(io.vector_to_json(vec)))),
        io.matrix_from_json(json.loads(json.dumps(io.matrix_to_json(mat)))).entries,
        io.sequence_from_json(json.loads(json.dumps(io.sequence_to_json(seq)))).values,
    ]
    for g, want in zip(got, [vec, mat, seq.values]):
        assert np.array_equal(g.view(np.int64), want.view(np.int64))
    assert np.signbit(got[0].imag).tolist() == [False, True, False, True]


SEQ = {"dim": 2, "lo": 0, "values": [GOOD, GOOD]}
SAT = {"kernel": "scaled_bounded_saturation", "params": {"eps": 0.01}}


@pytest.mark.parametrize(
    "decode, obj, field",
    [
        (io.matrix_from_json, {"dim": 1, "re": [["2.0"]]}, "matrix re"),
        (io.matrix_from_json, {"dim": 1, "re": [[2.0]], "im": [[True]]}, "matrix im"),
        (io.matrix_from_json, {"dim": 2, "re": [[1.0, True], [0.5, 2]]}, "matrix re"),
        (io.vector_from_json, {"dim": 2, "re": ["1", 0.0]}, "vector re"),
        (io.vector_from_json, {"dim": 1, "re": [False]}, "vector re"),
        (io.sequence_from_json, {**SEQ, "values": [GOOD, [[1.0, "1.5"], [0.5, 0.0]]]}, "sequence entry 1"),
        (io.sequence_from_json, {**SEQ, "values": [[[True, 2.0], [0.5, 0.0]], GOOD]}, "sequence entry 0"),
        (io.stencil_from_json, {**SAT, "params": {"eps": "0.01"}}, "stencil eps"),
        (io.stencil_from_json, {**SAT, "params": {"eps": True}}, "stencil eps"),
        (io.stencil_from_json, {"kernel": "polynomial_clipped", "params": {"coeffs": ["0.5"], "clip_radius": 1.0}}, "stencil coeffs"),
        (io.manifold_problem_from_json, {"A": {"dim": 1, "re": [[0.5]]}, "F": SAT, "rho": "0.9"}, "problem rho"),
        (io.manifold_problem_from_json, {"A": {"dim": 1, "re": [[0.5]]}, "F": SAT, "fp_tol": True}, "problem fp_tol"),
    ],
    ids=[
        "text-matrix-entry",
        "bool-matrix-im",
        "bool-among-numbers",
        "text-vector-entry",
        "bool-vector-entry",
        "text-sequence-component",
        "bool-sequence-component",
        "text-eps",
        "bool-eps",
        "text-coeff",
        "text-rho",
        "bool-fp-tol",
    ],
)
def test_numeric_fields_reject_text_and_booleans(decode, obj, field):
    with pytest.raises(InputError, match=f"^{field} "):
        decode(obj)
    # the same object with JSON numbers in the field decodes
    fixed = json.loads(json.dumps(obj), object_hook=_numbers_for_text)
    decode(fixed)


def _nested(depth):
    value = [1.0]
    for _ in range(depth - 1):
        value = [value]
    return value


@pytest.mark.parametrize(
    "re",
    [
        [[0.5], [0.5, 1.0]],
        [[0.5], 1.0],
        [1.0, [0.5]],
        [[{"x": 1.0}]],
        ["ab"],
        [[None]],
        [[10**400]],
        _nested(100),
    ],
    ids=["ragged", "number-after-list", "list-after-number", "object", "text", "null", "huge-int", "100-deep"],
)
def test_array_fields_reject_malformed_nests(re):
    with pytest.raises(InputError, match="^matrix re "):
        io.matrix_from_json({"dim": 1, "re": re})


@pytest.mark.parametrize(
    "obj",
    [
        {"dim": 2, "re": [[1.0, 2.0]]},
        {"dim": 4, "re": [[1.0, 2.0], [3.0, 4.0]]},
        {"dim": 2, "re": [1.0, 2.0], "im": [[0.0], [0.0]]},
        {"dim": 1, "re": 1.0},
    ],
    ids=["nested-re", "square-re", "column-im", "scalar-re"],
)
def test_vector_rejects_nested_or_misshapen_parts(obj):
    # the number of entries matches dim, but a vector is one flat list
    with pytest.raises(InputError, match=r"^x\[3\] components must be flat lists"):
        io.vector_from_json(obj, "x[3]")


def _numbers_for_text(obj):
    """``obj`` with every numeric text or boolean in a list or numeric field
    replaced by the number it spells."""

    def fix(v):
        if isinstance(v, list):
            return [fix(x) for x in v]
        if isinstance(v, bool):
            return float(v)
        if isinstance(v, str):
            try:
                return float(v)
            except ValueError:
                return v
        return v

    return {k: fix(v) for k, v in obj.items()}

