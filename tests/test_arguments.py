"""Every public entry reads its weights, indices, bounds, windows, choices,
matrices and state vectors through the readers of ``specseq.errors``: one
bad value is the same typed refusal, naming the parameter, wherever it is
passed."""

from fractions import Fraction

import numpy as np
import pytest

from specseq import (
    BoundedOperator,
    CircleFunction,
    InputError,
    ManifoldProblem,
    ResolventPlan,
    Weight,
    WindowedSequence,
    circle_sup_resolvent,
    impulse,
    inner_product,
    inverse_ztransform,
    linear_map,
    manifold_sweep,
    positive_support_hardy_check,
    resolvent_at,
    riesz_split,
    saturation_map,
    shift,
    solve_contraction,
    solve_ivp,
    spectrum_escape_check,
    truncate,
    zero_map,
    zero_sequence,
    ztransform,
)
from specseq.errors import _integer

A = BoundedOperator(np.diag([0.5, 2.0]))
GROWING = BoundedOperator(np.diag([2.0, 3.0]))
U = WindowedSequence(0, [[1.0, 0.5], [0.25, 0.0]])
CIRCLE = ztransform(U, 1.0)
HUGE = Fraction(10**5000, 3)  # too large for a float
NAN, INF = float("nan"), float("inf")


def problem(**kwargs):
    return ManifoldProblem(A, saturation_map(0.01), **kwargs)


# (entry applied to the bad value, bad value, the parameter the refusal names)
REFUSED = {
    # weights
    "weight-bool": (Weight, True, "weight rho"),
    "weight-huge-fraction": (Weight, HUGE, "weight rho"),
    "weight-p-bool": (lambda p: Weight(1.0, p), True, "weight exponent p"),
    "weight-p-text": (lambda p: Weight(1.0, p), "2", "weight exponent p"),
    "plan-text": (lambda rho: ResolventPlan(A, rho, "split"), "1", "rho"),
    "plan-bool": (lambda rho: ResolventPlan(A, rho, "split"), True, "rho"),
    "plan-complex": (lambda rho: ResolventPlan(A, rho, "causal"), 3 + 0j, "rho"),
    "riesz-text": (lambda gamma: riesz_split(A, gamma), "1", "gamma"),
    "riesz-bool": (lambda gamma: riesz_split(A, gamma), True, "gamma"),
    "riesz-complex": (lambda gamma: riesz_split(A, gamma), 1j, "gamma"),
    "circle-sup-text": (lambda rho: circle_sup_resolvent(A, rho), "1", "rho"),
    "circle-sup-complex": (lambda rho: circle_sup_resolvent(A, rho), 1j, "rho"),
    "inner-product-text": (lambda rho: inner_product(U, U, rho), "1", "rho"),
    "inner-product-bool": (lambda rho: inner_product(U, U, rho), True, "rho"),
    "ztransform-text": (lambda rho: ztransform(U, rho), "1", "rho"),
    "ztransform-bool": (lambda rho: ztransform(U, rho), True, "rho"),
    "circle-function-text": (lambda rho: CircleFunction(rho, np.ones(4)), "1", "rho"),
    "hardy-zero-rho": (lambda rho: positive_support_hardy_check(U, rho, [1.0, 2.0]), 0.0, "rho"),
    "hardy-text-mu": (lambda mu: positive_support_hardy_check(U, 0.5, [mu]), "1", "mu"),
    "resolvent-at-text": (lambda z: resolvent_at(A, z), "1", "z"),
    "resolvent-at-bool": (lambda z: resolvent_at(A, z), True, "z"),
    "ivp-impulse-bool-rho": (lambda rho: solve_ivp(A, zero_map(), [1.0, 0.0], 4, "impulse", rho), True, "rho"),
    # indices, counts and dimensions
    "shift-fraction": (lambda n: shift(U, n), 1.5, "shift n"),
    "shift-inf": (lambda n: shift(U, n), INF, "shift n"),
    "shift-bool": (lambda n: shift(U, n), True, "shift n"),
    "shift-huge-fraction": (lambda n: shift(U, n), HUGE, "shift n"),
    "sequence-lo-fraction": (lambda lo: WindowedSequence(lo, [1.0]), 1.5, "sequence lo"),
    "impulse-position-fraction": (lambda n: impulse(n, [1.0]), 1.5, "impulse position"),
    "truncate-fraction": (lambda lo: truncate(U, lo), 0.5, "truncate lo"),
    "truncate-inf": (lambda hi: truncate(U, 0, hi), INF, "truncate hi"),
    "ztransform-samples-fraction": (lambda n: ztransform(U, 1.0, n), 8.5, "n_samples"),
    "ztransform-samples-inf": (lambda n: ztransform(U, 1.0, n), INF, "n_samples"),
    "inverse-window-fraction": (lambda lo: inverse_ztransform(CIRCLE, (lo, 1)), 0.5, "window lo"),
    "circle-sup-samples-fraction": (lambda n: circle_sup_resolvent(A, 1.5, n), 16.5, "samples"),
    "contraction-dim-fraction": (
        lambda dim: solve_contraction(saturation_map(0.1), Weight(1.0), (0, 4), dim=dim), 2.5, "dim"
    ),
    "contraction-dim-bool": (
        lambda dim: solve_contraction(saturation_map(0.1), Weight(1.0), (0, 4), dim=dim), True, "dim"
    ),
    "contraction-window-huge-fraction": (
        lambda lo: solve_contraction(saturation_map(0.1), Weight(1.0), (lo, 4), dim=1), HUGE, "window lo"
    ),
    "problem-horizon-huge-fraction": (lambda h: problem(horizon=h), HUGE, "horizon"),
    "zero-sequence-fraction": (zero_sequence, 2.5, "dim"),
    "zero-sequence-bool": (zero_sequence, True, "dim"),
    "zero-sequence-negative": (zero_sequence, -1, "dim"),
    # windows
    "dense-lo-fraction": (lambda lo: U.dense(lo, 3), 0.5, "dense window lo"),
    "dense-lo-text": (lambda lo: U.dense(lo, 3), "0", "dense window lo"),
    "contraction-window-short": (
        lambda window: solve_contraction(saturation_map(0.1), Weight(1.0), window, dim=1), (0,), "window"
    ),
    "contraction-window-int": (
        lambda window: solve_contraction(saturation_map(0.1), Weight(1.0), window, dim=1), 5, "window"
    ),
    "contraction-window-none": (
        lambda window: solve_contraction(saturation_map(0.1), Weight(1.0), window, dim=1), None, "window"
    ),
    "inverse-window-short": (lambda window: inverse_ztransform(CIRCLE, window), (0,), "window"),
    "inverse-window-int": (lambda window: inverse_ztransform(CIRCLE, window), 5, "window"),
    "inverse-window-none": (lambda window: inverse_ztransform(CIRCLE, window), None, "window"),
    "stencil-eps-huge-fraction": (saturation_map, HUGE, "stencil eps"),
    # matrices
    "operator-ragged": (BoundedOperator, [[1.0, 2.0], [3.0]], "operator entries"),
    "operator-text": (BoundedOperator, [["1"]], "operator entries"),
    "operator-bool": (BoundedOperator, [[True]], "operator entries"),
    "diagonal-text": (BoundedOperator.diagonal, ["a", "b"], "operator diagonal"),
    "stencil-matrix-empty": (linear_map, np.zeros((0, 0)), "stencil matrix"),
    "apply-matrix-text": (U.apply_matrix, [["1", "0"], ["0", "1"]], "matrix"),
    # state vectors
    "sequence-ragged": (lambda v: WindowedSequence(0, v), [[1.0, 2.0], [3.0]], "sequence values"),
    "sequence-text": (lambda v: WindowedSequence(0, v), ["a"], "sequence values"),
    "sequence-bool": (lambda v: WindowedSequence(0, v), [True], "sequence values"),
    "sequence-nan": (lambda v: WindowedSequence(0, v), [NAN], "sequence values"),
    "impulse-text": (lambda v: impulse(0, v), ["a"], "impulse vector"),
    "impulse-inf": (lambda v: impulse(0, v), [INF], "impulse vector"),
    "ivp-text": (lambda x: solve_ivp(A, zero_map(), x, 4), ["a", "b"], "x"),
    "ivp-nan": (lambda x: solve_ivp(A, zero_map(), x, 4), [NAN, 0.0], "x"),
    "escape-nan": (lambda x: spectrum_escape_check(GROWING, x), [NAN, 0.0], "x"),
    "escape-ragged": (lambda x: spectrum_escape_check(GROWING, x), [[1.0], [2.0, 3.0]], "x"),
    "stable-range-nan": (lambda xi: problem().check_stable_range(xi), [NAN, 0.0], "xi"),
    "stable-range-text": (lambda xi: problem().check_stable_range(xi), ["a", "b"], "xi"),
    "circle-samples-text": (lambda s: CircleFunction(1.0, s), ["a"] * 4, "samples"),
    "circle-samples-ragged": (lambda s: CircleFunction(1.0, s), [[1.0], [2.0, 3.0]], "samples"),
    "circle-samples-bool": (lambda s: CircleFunction(1.0, s), [True] * 4, "samples"),
    "circle-samples-nan": (lambda s: CircleFunction(1.0, s), [NAN] * 4, "samples"),
    "circle-samples-inf": (lambda s: CircleFunction(1.0, s), [INF] * 4, "samples"),
}


@pytest.mark.parametrize("entry, bad, name", REFUSED.values(), ids=REFUSED.keys())
def test_every_entry_refuses_a_bad_argument_naming_it(entry, bad, name):
    with pytest.raises(InputError, match=f"^{name} must be "):
        entry(bad)


def test_integrality_is_decided_exactly():
    with pytest.raises(InputError, match="^x must be an integer, got a Fraction too long to show"):
        _integer(HUGE, "x")
    assert _integer(Fraction(10**5000, 10**4999), "x") == 10
    assert _integer(np.float32(3.0), "x") == 3 and _integer(np.int64(2**62 + 1), "x") == 2**62 + 1


def test_numpy_scalars_are_numbers_everywhere():
    assert Weight(np.float32(2)).rho == 2.0
    assert shift(U, np.int64(2)).lo == -2
    assert truncate(U, np.int64(1)).lo == 1
    assert impulse(np.int64(3), [1.0]).lo == 3
    assert inner_product(U, U, np.float32(1.0)) == inner_product(U, U, 1.0)
    assert ztransform(U, np.float32(1.0), np.int64(8)).n_samples == 8
    assert riesz_split(A, np.float32(1.0)).rank_stable == 1
    assert circle_sup_resolvent(A, np.float64(1.5), np.int64(16)) == circle_sup_resolvent(A, 1.5)
    assert ResolventPlan(A, np.float32(3.0), "causal").rho == 3.0
    report = solve_contraction(saturation_map(np.float32(0.1)), Weight(1.0), (0, 4), dim=np.int64(1))
    assert report.solution.dim == 1
    assert problem(horizon=np.int64(64)).horizon == 64


def test_sweep_refuses_a_malformed_row_in_its_own_row():
    rows = manifold_sweep(problem(), [[0.1, 0.0], [[1.0], [2.0, 3.0]], [NAN, 0.0], [0.0, 1.0]])
    assert [row.error is None for row in rows] == [True, False, False, False]
    assert rows[1].error == "invalid-input: xi must be an array of numbers"
    assert rows[2].error == "invalid-input: xi must be finite"
    assert rows[3].error.startswith("range-violation: ")
    assert rows[1].xi.size == 0 and np.array_equal(rows[3].xi, [0.0, 1.0])
