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
    """The per-row decoder: one float conversion per component list."""
    rows = [
        np.asarray(re, dtype=np.float64) + 1j * np.asarray(im, dtype=np.float64)
        for re, im in obj["values"]
    ]
    return WindowedSequence(obj["lo"], np.array(rows))


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
    # re + 1j * im drops some zero signs (1j * -0.0 has imaginary part +0.0);
    # both decoders use that expression, so they drop the same ones
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
