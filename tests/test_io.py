"""io.dump_json against its oracle, the stdlib writer it must match byte
for byte: json.dumps(obj, indent=2, sort_keys=True) + "\\n"."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq import io
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
