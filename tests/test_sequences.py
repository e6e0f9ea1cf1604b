import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq import (
    DimensionMismatch,
    NormOverflow,
    Weight,
    WindowedSequence,
    embed_one_sided,
    impulse,
    inner_product,
    max_abs_diff,
    shift,
    support,
    support_subset_geq,
    truncate,
    weighted_norm,
    zero_sequence,
)
from specseq.sequences import entry_norms
from specseq.workspace import Workspace
from testutil import random_sequence

P_VALUES = (1.0, 2.0, math.inf)


def naive_norm(u, rho, p):
    # direct summation oracle, scalar python arithmetic
    terms = []
    for offset in range(u.width):
        k = u.lo + offset
        mag = math.sqrt(sum(abs(c) ** 2 for c in u.values[offset]))
        terms.append(mag * rho ** (-k))
    if p == math.inf:
        return max(terms)
    return sum(t**p for t in terms) ** (1.0 / p)


def test_weighted_norm_impulse_single_term():
    x = np.array([3.0, 4.0])
    u = impulse(-2, x)
    for rho in (0.5, 1.0, 1.3):
        for p in P_VALUES:
            assert weighted_norm(u, Weight(rho, p)) == pytest.approx(5.0 * rho**2, rel=1e-14)


def test_weighted_norm_zero():
    z = zero_sequence(3)
    for p in P_VALUES:
        assert weighted_norm(z, Weight(1.3, p)) == 0.0


def test_weighted_norm_matches_naive_oracle():
    rng = np.random.default_rng(7)
    u = random_sequence(rng, 3, -5, 5)
    got = weighted_norm(u, Weight(1.3, 2.0))
    assert got == pytest.approx(naive_norm(u, 1.3, 2.0), rel=1e-12)


def test_weighted_norm_overflow_raises():
    u = impulse(400, [1.0])
    with pytest.raises(NormOverflow):
        weighted_norm(u, Weight(0.1, 2.0))


@st.composite
def windowed_sequences(draw, max_dim=3, max_width=12, max_offset=8):
    dim = draw(st.integers(1, max_dim))
    width = draw(st.integers(1, max_width))
    lo = draw(st.integers(-max_offset, max_offset))
    comp = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32)
    rows = draw(
        st.lists(
            st.lists(st.tuples(comp, comp), min_size=dim, max_size=dim),
            min_size=width,
            max_size=width,
        )
    )
    vals = np.array([[re + 1j * im for re, im in row] for row in rows], dtype=np.complex128)
    return WindowedSequence(lo, vals)


@settings(max_examples=60, deadline=None)
@given(
    u=windowed_sequences(),
    rho=st.sampled_from((0.5, 1.0, 2.0)),
    n=st.integers(-5, 5),
    p=st.sampled_from(P_VALUES),
)
def test_shift_scales_norm_exactly(u, rho, n, p):
    base = weighted_norm(u, Weight(rho, p))
    shifted = weighted_norm(shift(u, n), Weight(rho, p))
    assert abs(shifted - rho**n * base) <= 1e-12 * max(rho**n * base, 1e-300)


def test_shift_of_impulse():
    x = np.array([1.0, 2.0])
    assert max_abs_diff(shift(impulse(0, x), 1), impulse(-1, x)) == 0.0


@settings(max_examples=40, deadline=None)
@given(u=windowed_sequences(), n=st.integers(-6, 6))
def test_shift_roundtrip(u, n):
    assert max_abs_diff(shift(shift(u, n), -n), u) == 0.0


def test_inner_product_orthogonal_impulses():
    e1 = impulse(0, [1.0, 0.0])
    e2 = impulse(0, [0.0, 1.0])
    assert inner_product(e1, e2, 1.3) == 0j


def test_inner_product_impulse_weight():
    x = np.array([1.0 + 2.0j, -1.0j])
    u = impulse(3, x)
    for rho in (0.5, 1.0, 2.0):
        expected = float(np.sum(np.abs(x) ** 2)) * rho ** (-6.0)
        assert inner_product(u, u, rho) == pytest.approx(expected, rel=1e-13)


def test_inner_product_matches_naive_oracle():
    rng = np.random.default_rng(11)
    u = random_sequence(rng, 2, -4, 6)
    v = random_sequence(rng, 2, -6, 3)
    rho = 1.2
    # naive overlap loop
    expected = 0j
    for k in range(-6, 7):
        expected += complex(np.vdot(u.at(k), v.at(k))) * rho ** (-2.0 * k)
    assert inner_product(u, v, rho) == pytest.approx(expected, rel=1e-12)


def test_inner_product_is_norm_squared():
    rng = np.random.default_rng(13)
    u = random_sequence(rng, 3, -3, 4)
    rho = 0.8
    assert inner_product(u, u, rho).real == pytest.approx(
        weighted_norm(u, Weight(rho, 2.0)) ** 2, rel=1e-12
    )
    assert abs(inner_product(u, u, rho).imag) < 1e-12


def test_inner_product_conjugate_linear_first_slot():
    rng = np.random.default_rng(17)
    u = random_sequence(rng, 2, -2, 2)
    v = random_sequence(rng, 2, -2, 2)
    c = 0.7 - 1.1j
    assert inner_product(u.scale(c), v, 1.0) == pytest.approx(
        np.conj(c) * inner_product(u, v, 1.0), rel=1e-12
    )


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner_product(impulse(0, [1.0]), impulse(0, [1.0, 2.0]), 1.0)


def test_support_basics():
    assert support(impulse(-1, [0.0, 2.0])) == (-1, -1)
    assert support(zero_sequence(2)) is None


def test_support_ignores_stray_entries_below_tolerance():
    vals = np.zeros((5, 1), dtype=np.complex128)
    vals[0, 0] = 1e-15  # index -3
    vals[3, 0] = 1.0  # index 0
    u = WindowedSequence(-3, vals)
    assert support(u) == (0, 0)
    assert support_subset_geq(u, 0)
    assert not support_subset_geq(u, 1)


def test_embed_one_sided_single_entry():
    out = embed_one_sided([[2.0, 1.0]], start=0)
    assert max_abs_diff(out, impulse(0, [2.0, 1.0])) == 0.0


def test_embed_one_sided_isometry():
    rng = np.random.default_rng(23)
    arr = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    u = embed_one_sided(arr, start=2)
    for p in P_VALUES:
        w = Weight(1.4, p)
        # one-sided norm by direct loop
        terms = [float(np.linalg.norm(arr[i])) * 1.4 ** (-(2 + i)) for i in range(7)]
        expected = max(terms) if p == math.inf else sum(t**p for t in terms) ** (1 / p)
        assert weighted_norm(u, w) == pytest.approx(expected, rel=1e-12)


def test_embed_one_sided_empty_is_zero():
    assert embed_one_sided([], dim=3).is_zero


def test_scale_of_spaces_chain_and_embedding_constant():
    # for one-sided u: |u|_{inf,rho} <= |u|_{2,rho} <= |u|_{1,rho}, and
    # |u|_{1,rho+eps} <= C |u|_{inf,rho} with C = (rho/(rho+eps))^a (rho+eps)/eps
    rng = np.random.default_rng(29)
    for a in (-3, 0, 4):
        u = random_sequence(rng, 2, a, a + 9)
        for rho, eps in ((0.7, 0.3), (1.0, 0.5), (1.5, 0.2)):
            n_inf = weighted_norm(u, Weight(rho, math.inf))
            n_two = weighted_norm(u, Weight(rho, 2.0))
            n_one = weighted_norm(u, Weight(rho, 1.0))
            assert n_inf <= n_two * (1 + 1e-14)
            assert n_two <= n_one * (1 + 1e-14)
            c = (rho / (rho + eps)) ** a * (rho + eps) / eps
            assert weighted_norm(u, Weight(rho + eps, 1.0)) <= c * n_inf * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(u=windowed_sequences())
def test_canonical_form_is_idempotent_and_trimmed(u):
    again = WindowedSequence(u.lo, u.values)
    assert again.lo == u.lo
    assert max_abs_diff(again, u) == 0.0
    if u.is_zero:
        assert u.window == (0, 0) and u.width == 1
    else:
        assert np.any(u.values[0] != 0) and np.any(u.values[-1] != 0)


def test_truncate_explicit_window():
    rng = np.random.default_rng(31)
    u = random_sequence(rng, 1, -5, 5)
    t = truncate(u, 0, 3)
    assert t.lo >= 0 and t.hi <= 3
    for n in range(0, 4):
        assert np.allclose(t.at(n), u.at(n))
    assert truncate(u, 10, 20).is_zero


def test_entry_norms_equal_numpy_norms_bit_for_bit():
    # the same conj(x) * x products and sums as np.linalg.norm, from widths
    # and magnitudes where a fused complex product would round differently
    rng = np.random.default_rng(71)
    ws = Workspace()
    for shape in [(0, 3), (5, 1), (40, 3, 7), (300, 6, 32)]:
        scale = 10.0 ** rng.uniform(-160, 160, shape)
        a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
        b = a + 1e-9 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
        with np.errstate(all="ignore"):
            for got, want in [
                (entry_norms(a, ws=ws), np.linalg.norm(a, axis=-1)),
                (entry_norms(a, b, ws), np.linalg.norm(a - b, axis=-1)),
            ]:
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_workspace_lends_each_buffer_once_and_keeps_no_more_than_it_lent():
    ws = Workspace()
    a, b = ws.take((4, 3)), ws.take((2, 3))
    assert not np.shares_memory(a, b)
    ws.give(a)
    c = ws.take((3, 3))  # a's buffer has room
    assert np.shares_memory(a, c) and c.flags.c_contiguous and c.shape == (3, 3)
    ws.give(b)
    ws.give(c)
    d = ws.take((2, 2))  # the smallest free buffer with room: b's
    assert np.shares_memory(d, b)
    ws.give(d)
    e = ws.take((5, 3))  # none has room: a new buffer, and the short ones go
    assert not np.shares_memory(e, a) and not np.shares_memory(e, b)
    ws.give(e)
    f = ws.take((2, 3))
    assert np.shares_memory(f, e)
    ws.give(f)
    ws.clear()
    assert not np.shares_memory(ws.take((2, 3)), e)
    assert ws.take((0, 3)).shape == (0, 3)
