import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq import (
    BoundedOperator,
    DimensionMismatch,
    NotCausalRegime,
    PreconditionViolation,
    ResolventPlan,
    SpectrumOnCircle,
    Weight,
    WindowedSequence,
    apply_resolvent_causal,
    apply_resolvent_frequency,
    apply_resolvent_split,
    causality_probe,
    truncate,
    circle_sup_resolvent,
    equation_residual,
    impulse,
    spectral_radius,
    support,
    support_subset_geq,
    weighted_norm,
    zero_sequence,
)
from specseq import resolvent
from specseq.resolvent import (
    SERIES_TOL,
    TAIL_CAP,
    _scan_length,
    _scan_powers,
    apply_resolvent_window,
    decay_steps,
    linear_recurrence,
)
from testutil import (
    matrix_with_moduli,
    max_abs_diff,
    random_sequence,
    random_unitary,
    random_vector,
)

SERIES_SLACK = 1e-11  # 10 * series_tol


def test_causal_impulse_response_scalar():
    a = BoundedOperator([[0.5]])
    plan = ResolventPlan(a, 1.0, "causal")
    u = apply_resolvent_causal(plan, impulse(-1, [1.0]))
    assert support_subset_geq(u, 0)
    for n in range(0, 20):
        assert u.at(n)[0] == pytest.approx(0.5**n, rel=1e-13)
    assert equation_residual(u, a, impulse(-1, [1.0]), 1.0) <= SERIES_SLACK


def test_causal_output_window():
    # f has nonzero first and last rows: the output runs one row past hi + tail_cut
    rng = np.random.default_rng(23)
    plan = ResolventPlan(BoundedOperator([[0.9]]), 1.0, "causal")
    f = random_sequence(rng, 1, -5, 63)
    u = apply_resolvent_causal(plan, f)
    assert u.window == (-4, 63 + plan.tail_cut + 1)


def test_causal_zero_forcing():
    plan = ResolventPlan(BoundedOperator([[0.5]]), 1.0, "causal")
    assert apply_resolvent_causal(plan, zero_sequence(1)).is_zero


def test_causal_matches_unique_selection_for_scalar_equation():
    # scalar a with rho > |a| forces the decaying branch u_n = a^n x on n >= 0
    a_val, x = 1.6, 2.0
    a = BoundedOperator([[a_val]])
    plan = ResolventPlan(a, 2.0, "causal")
    u = apply_resolvent_causal(plan, impulse(-1, [x]))
    assert support(u)[0] == 0
    for n in range(0, 12):
        assert u.at(n)[0] == pytest.approx(a_val**n * x, rel=1e-12)


def test_causal_requires_supercritical_weight():
    with pytest.raises(NotCausalRegime):
        ResolventPlan(BoundedOperator([[2.0]]), 1.0, "causal")


def test_tail_cut_overflow_is_a_precondition_violation(monkeypatch):
    # the gap 1e-4 passes GAP_TOL, but the certified tail is longer than the
    # cap; ||A^K|| >= r(A)^K settles that before any power step, at the
    # first read of the cut (a plan computes its cuts on first use)
    calls = []
    norm = resolvent.operator_norm
    monkeypatch.setattr(resolvent, "operator_norm", lambda m: calls.append(1) or norm(m))
    plan = ResolventPlan(BoundedOperator.diagonal([0.9, 0.5]), 0.9001, "causal")
    with pytest.raises(PreconditionViolation):
        plan.tail_cut
    assert calls == []
    # a nilpotent A (r(A) = 0) still takes the step search: K = 1 fails on
    # the Frobenius lower bound alone (||A||_F / sqrt(2) * 2 = sqrt(2)), and
    # the zero power A^2 takes the one SVD that returns K = 2
    assert ResolventPlan(BoundedOperator([[0.0, 1.0], [0.0, 0.0]]), 0.5, "causal").tail_cut == 2
    assert len(calls) == 1


def test_tail_cut_violation_states_predicted_length():
    # the read of the cut and the full route's first application raise the same
    plan = ResolventPlan(BoundedOperator.diagonal([0.9, 0.5]), 0.9001, "causal")
    predicted = math.ceil(math.log(SERIES_TOL) / (math.log(0.9) + math.log(1.0 / 0.9001)))
    assert predicted == 248694
    for use in (lambda: plan.tail_cut, lambda: apply_resolvent_causal(plan, impulse(-1, [1.0, 0.0]))):
        with pytest.raises(PreconditionViolation) as info:
            use()
        assert f"{predicted} terms" in str(info.value)
        assert f"cap of {TAIL_CAP}" in str(info.value)


def test_anticausal_tail_overflow_fails_on_outside_radius(monkeypatch):
    # |1.0001| just outside the unit circle: M_Q has r(M_Q) = 1 / 1.0001, read
    # from the split's r_outside_inv, and its cut fails before any power of
    # M_Q; the one SVD is the causal PAP branch's, which is searched first
    calls = []
    norm = resolvent.operator_norm
    monkeypatch.setattr(resolvent, "operator_norm", lambda m: calls.append(1) or norm(m))
    plan = ResolventPlan(BoundedOperator.diagonal([0.5, 1.0001]), 1.0, "split")
    with pytest.raises(PreconditionViolation) as info:
        apply_resolvent_split(plan, impulse(-1, [1.0, 1.0]))
    predicted = math.ceil(math.log(SERIES_TOL) / math.log(1.0 / 1.0001))
    assert predicted == 276325
    assert f"{predicted} terms" in str(info.value)
    assert len(calls) <= 1


def _decay_steps_every_svd(mat, weight):
    # Reference search: the 2-norm of every power, the first K that passes,
    # and the weighted norms ||mat^n|| w^n of the powers n < K before it.
    log_tol, log_w = math.log(SERIES_TOL), math.log(weight)
    power = mat.copy()
    seen = [1.0]
    for k in range(1, TAIL_CAP + 1):
        nrm = float(np.linalg.norm(power, 2))
        if nrm == 0.0 or math.log(nrm) + k * log_w <= log_tol:
            return k, seen
        seen.append(nrm * weight**k)
        power = power @ mat
    return None, seen


def _jordan(dim, eig, sup):
    return np.diag(np.full(dim, eig, dtype=np.complex128)) + np.diag(np.full(dim - 1, sup), 1)


def _tail_search_fixtures():
    rng = np.random.default_rng(41)
    for dim in (2, 3, 5, 8, 13, 21, 32):
        for shear in (0.3, 1.0):
            moduli = rng.uniform(0.05, 0.95, dim)
            yield matrix_with_moduli(rng, moduli, shear=shear).entries, 1.0
            yield matrix_with_moduli(rng, moduli, shear=shear).entries, 1.0 / 0.97
    # transient growth: ||J^k|| climbs by orders of magnitude before it decays
    for dim, eig, sup in ((12, 0.8, 2.0), (8, 0.9, 4.0), (6, 0.5, 3.0), (32, 0.6, 1.0)):
        yield _jordan(dim, eig, sup), 1.0
        yield _jordan(dim, eig, sup), 0.5  # the anticausal side's weight rho < 1
    # a scaled unitary, where the Frobenius bound is tight at every step
    for dim in (1, 4, 16):
        yield 0.9 * random_unitary(rng, dim), 1.0
    # nilpotent: the powers vanish at K = d
    yield np.triu(rng.standard_normal((6, 6)), 1).astype(np.complex128), 2.0


def test_tail_cut_search_equals_every_step_svd_scan(monkeypatch):
    calls = []
    norm = resolvent.operator_norm
    monkeypatch.setattr(resolvent, "operator_norm", lambda m: calls.append(1) or norm(m))
    steps = 0
    for mat, weight in _tail_search_fixtures():
        want, seen = _decay_steps_every_svd(mat, weight)
        assert want is not None
        radius = float(np.max(np.abs(np.linalg.eigvals(mat))))
        cut, bound = decay_steps(mat, radius, weight, SERIES_TOL, TAIL_CAP, "series tail cut")
        assert cut == want
        # the running maximum bounds every weighted power before the cut
        assert max(seen) <= bound
        steps += want
    # the Frobenius bound rules out most steps before an SVD is taken
    assert len(calls) < steps / 4


def test_tail_cut_skips_the_norms_the_spectral_radius_rules_out(monkeypatch):
    # the cut reads no bound M, so below k = ceil((log SERIES_TOL + slack) /
    # log(r w)), where ||M^k|| w^k >= (r w)^k already fails, it takes no
    # norm; it forms the same powers, so K is the every-step scan's
    frobenius = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda m, *a: norm(m, *a) if a else frobenius.append(1) or norm(m))
    for mat, weight in _tail_search_fixtures():
        want, _ = _decay_steps_every_svd(mat, weight)
        radius = float(np.max(np.abs(np.linalg.eigvals(mat))))
        frobenius.clear()
        assert resolvent._tail_cut(mat, radius, weight) == want
        rate = math.log(radius) + math.log(weight) if radius > 0.0 else -math.inf
        first = max(1, math.ceil((math.log(SERIES_TOL) + resolvent._LOG_SLACK) / rate))
        assert len(frobenius) == want + 1 - first


def test_linear_recurrence_matches_power_sums():
    rng = np.random.default_rng(19)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.linalg.norm(m @ m.conj().T - m.conj().T @ m) > 0.1
    g = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    power = [np.linalg.matrix_power(m, k) for k in range(len(g) + 1)]
    forward = linear_recurrence(m, g)
    backward = linear_recurrence(m, g, reverse=True)
    for k in range(len(g)):
        want = sum(power[k - j] @ g[j] for j in range(k + 1))
        assert np.linalg.norm(forward[k] - want) <= 1e-12 * np.linalg.norm(want)
        want = -sum(power[j - k + 1] @ g[j] for j in range(k, len(g)))
        assert np.linalg.norm(backward[k] - want) <= 1e-12 * np.linalg.norm(want)


def test_linear_recurrence_columns_match_column_calls():
    # a column axis runs every column through the same recurrence
    rng = np.random.default_rng(31)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m /= 1.5 * np.max(np.abs(np.linalg.eigvals(m)))
    g = rng.standard_normal((9, 5, 4)) + 1j * rng.standard_normal((9, 5, 4))
    for reverse in (False, True):
        stacked = linear_recurrence(m, g, reverse=reverse)
        assert stacked.shape == g.shape
        for c in range(g.shape[1]):
            alone = linear_recurrence(m, g[:, c], reverse=reverse)
            np.testing.assert_allclose(stacked[:, c], alone, rtol=1e-13, atol=1e-14)


def reference_recurrence(m, g, reverse=False):
    """The recurrence one row at a time: s_{k+1} = M s_k + g_k forward,
    s_k = M (s_{k+1} - g_k) in reverse."""
    out = np.empty(g.shape, dtype=np.complex128)
    state = np.zeros(g.shape[1:], dtype=np.complex128)
    for k in range(len(g) - 1, -1, -1) if reverse else range(len(g)):
        state = (state - g[k]) @ m.T if reverse else state @ m.T + g[k]
        out[k] = state
    return out


@st.composite
def recurrence_cases(draw):
    family = draw(st.sampled_from(["normal", "shear", "jordan"]))
    dim = draw(st.integers(1, 32))
    rows = draw(st.integers(0, 400))
    columns = draw(st.sampled_from([None, 1, 3]))  # None: no column axis
    return family, dim, rows, columns, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=recurrence_cases())
def test_linear_recurrence_matches_rowwise_loop(case):
    family, dim, rows, columns, reverse, seed = case
    rng = np.random.default_rng(seed)
    if family == "jordan":  # ||J^2|| > ||J||: the scan must keep L = 1
        m = _jordan(dim, rng.uniform(0.8, 0.95), rng.uniform(2.0, 4.0))
    else:
        moduli = rng.uniform(0.05, 0.98, dim)
        shear = rng.uniform(0.05, 0.3) if family == "shear" else 0.0
        m = matrix_with_moduli(rng, moduli, shear=shear).entries
    shape = (rows, dim) if columns is None else (rows, columns, dim)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got, want = linear_recurrence(m, g, reverse), reference_recurrence(m, g, reverse)
    assert got.shape == g.shape
    single = columns in (None, 1)
    powers = _scan_powers(m)[: _scan_length(rows, 1 if single else columns)]
    if family == "jordan" and dim > 1:
        assert len(powers) == 1
    if len(powers) == 1:  # L = 1 is the row-by-row loop itself
        assert np.array_equal(got, want)
        return
    # rounding against the same recurrence in |M| and |g|, which bounds the
    # terms of every row; both loops stay within a few eps of it
    with np.errstate(over="ignore", invalid="ignore"):
        terms = reference_recurrence(np.abs(m), -np.abs(g) if reverse else np.abs(g), reverse)
    scale = np.hypot.reduce(np.abs(terms), axis=-1)  # terms near 1e154 square past the range
    assert np.all(np.linalg.norm(got - want, axis=-1) <= 1e-14 * scale)
    # a single column's rows do not depend on how many rows follow (in
    # reverse, precede) them, bit for bit
    for cut in {1, rows // 3, rows - 1}:
        if reverse:
            assert np.array_equal(linear_recurrence(m, g[cut:], True), got[cut:])
        else:
            assert np.array_equal(linear_recurrence(m, g[:cut]), got[:cut])


def test_scan_powers_guard_and_budget():
    # the list doubles while L d^2 <= 2**12 and the squares do not grow; a
    # scan of K rows uses its powers up to the first L >= K, several columns
    # only M, and a square above max(1, ||M||_F) keeps L = 1
    m = 0.5 * random_unitary(np.random.default_rng(3), 2)
    assert len(_scan_powers(m)) == 11  # L = 1024 = 2**12 / 2**2
    assert _scan_length(4000, 1) == 13 and _scan_length(160, 1) == 9  # L = 256 >= 160 rows
    assert _scan_length(4000, 2) == 1
    assert len(_scan_powers(np.kron(np.eye(16), m))) == 3  # d = 32: L = 4
    assert len(_scan_powers(_jordan(2, 0.9, 2.0))) == 1
    assert len(_scan_powers(np.full((1, 1), np.nan))) == 1
    # at d = 1 the budget allows L = 2**12, so no row count limits the list
    assert len(_scan_powers(np.full((1, 1), 0.5))) == _scan_length(2**12, 1) == 13


def test_plan_branches_square_their_scan_powers_once(monkeypatch):
    # a plan squares each branch matrix for the doubling scan once, on its
    # first window; a call for K rows uses the first entries of that list,
    # which are the squares a call without the plan forms for K rows, so an
    # iteration squares nothing again and every row stays the same bit for bit
    rng = np.random.default_rng(73)
    plan = ResolventPlan(matrix_with_moduli(rng, [0.3, 0.6, 1.7], shear=0.3), 1.0, "split")
    f = rng.standard_normal((9, 1, 3)) + 1j * rng.standard_normal((9, 1, 3))
    first = apply_resolvent_window(plan, f, 0, -20, 40)
    calls = []
    monkeypatch.setattr(resolvent, "_scan_powers", lambda *args: calls.append(args))
    for _ in range(3):
        assert np.array_equal(apply_resolvent_window(plan, f, 0, -20, 40), first)
    assert not calls
    monkeypatch.undo()
    for mat, powers in zip((plan._causal[0], plan._anticausal), plan._scan_squares):
        assert len(powers) > 2
        for rows in (0, 1, 2, 3, 5, 9, 300):
            want = _scan_powers(mat)[: _scan_length(rows, 1)]
            assert len(want) <= len(powers)
            assert all(np.array_equal(p, q) for p, q in zip(want, powers))
            g = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
            for reverse in (False, True):
                got = linear_recurrence(mat, g, reverse, powers=powers)
                assert np.array_equal(got, linear_recurrence(mat, g, reverse))


def test_windows_of_the_callers_choosing_compute_no_tail_cut(monkeypatch):
    # only a full route reads the cuts: the windows of the LP and the impulse
    # IVP run on plans whose cuts would exceed TAIL_CAP, and compute none
    def refuse(*args):
        raise AssertionError("a tail cut was computed")

    monkeypatch.setattr(resolvent, "_tail_cut", refuse)
    f = np.ones((4, 2, 2), dtype=np.complex128)
    for a, rho, mode in (([0.999, 2.0], 1.0, "split"), ([0.9, 0.5], 0.9001, "causal")):
        plan = ResolventPlan(BoundedOperator.diagonal(a), rho, mode)
        u = apply_resolvent_window(plan, f, -1, 0, 40)
        assert u.shape == (41, 2, 2) and np.all(np.isfinite(u))
        with pytest.raises(AssertionError, match="a tail cut was computed"):
            plan.tail_cut


@pytest.mark.parametrize("mode", ["causal", "split"])
def test_window_application_equals_truncated_full_window(mode):
    # every row of a window inside the certified one, including windows that
    # cut through the support of f, is the same row of the full-window
    # application, bit for bit; rows past it are the series' own values,
    # which the tail cuts bound relative to ||f||
    rng = np.random.default_rng(37)
    moduli = [0.4, 0.7, 0.8] if mode == "causal" else [0.4, 0.7, 1.6]
    plan = ResolventPlan(matrix_with_moduli(rng, moduli, shear=0.3), 1.0, mode)
    apply_full = apply_resolvent_causal if mode == "causal" else apply_resolvent_split
    f = random_sequence(rng, 3, -4, 11)
    full = apply_full(plan, f)
    for lo, hi in [(-4, 11), (0, 5), (3, 20), (-30, -2), (9, 9), full.window]:
        got = apply_resolvent_window(plan, f.values, f.lo, lo, hi)
        assert np.array_equal(got, truncate(full, lo, hi).dense(lo, hi))
    lo, hi = 12, 12 + plan.tail_cut + 3
    got = apply_resolvent_window(plan, f.values, f.lo, lo, hi)
    inside = full.hi - lo + 1
    assert 0 < inside < len(got)
    assert np.array_equal(got[:inside], full.dense(lo, full.hi))
    past = WindowedSequence(full.hi + 1, got[inside:])
    assert not past.is_zero
    assert weighted_norm(past, Weight(1.0, 2.0)) <= SERIES_SLACK * weighted_norm(f, Weight(1.0, 2.0))
    # with a column axis, each column is the full application of its own data
    stack = np.stack([f.values, 2.0 * f.values[::-1]], axis=1)
    got = apply_resolvent_window(plan, stack, f.lo, -2, 14)
    for c in range(2):
        want = apply_full(plan, WindowedSequence(f.lo, stack[:, c])).dense(-2, 14)
        np.testing.assert_allclose(got[:, c], want, rtol=1e-13, atol=1e-14)


def test_split_anticausal_branch_closed_form():
    # diag(0.5, 2) at rho = 1 with forcing delta_{-1} (0, eta): the unstable
    # branch gives u_n = -2^n eta e_2 on n <= -1 and 0 on n >= 0; certified
    # term-by-term through the equation residual
    eta = 1.5
    a = BoundedOperator(np.diag([0.5, 2.0]))
    plan = ResolventPlan(a, 1.0, "split")
    f = impulse(-1, [0.0, eta])
    u = apply_resolvent_split(plan, f)
    for n in range(-1, -12, -1):
        assert u.at(n)[1] == pytest.approx(-(2.0**n) * eta, rel=1e-12)
        assert abs(u.at(n)[0]) <= 1e-14
    for n in range(0, 10):
        assert np.linalg.norm(u.at(n)) <= 1e-14
    assert equation_residual(u, a, f, 1.0) <= SERIES_SLACK


def test_split_anticausal_cut_counts_oblique_projection():
    # eigenvectors 1e-3 apart make ||Q|| ~ 1e3; the anticausal cut must
    # still keep its end rows below SERIES_TOL ||f||, like the causal cut
    angle = 1e-3
    s = np.array([[1.0, np.cos(angle)], [0.0, np.sin(angle)]])
    a = BoundedOperator(s @ np.diag([0.5, 2.0]) @ np.linalg.inv(s))
    plan = ResolventPlan(a, 1.0, "split")
    assert np.linalg.norm(plan.split.proj_unstable, 2) > 999.0
    f = random_sequence(np.random.default_rng(29), 2, 0, 39)
    u = apply_resolvent_split(plan, f)
    bound = resolvent.SERIES_TOL * weighted_norm(f, Weight(1.0, 2.0))
    assert np.linalg.norm(u.values[0]) <= bound
    assert np.linalg.norm(u.values[-1]) <= bound
    assert equation_residual(u, a, f, 1.0) <= SERIES_SLACK * weighted_norm(f, Weight(1.0, 2.0))


def test_split_stable_branch_reduces_to_causal():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    plan = ResolventPlan(a, 1.0, "split")
    x = 0.7
    u = apply_resolvent_split(plan, impulse(-1, [x, 0.0]))
    for n in range(0, 12):
        assert u.at(n)[0] == pytest.approx(0.5**n * x, rel=1e-12)
    assert support_subset_geq(u, 0)


def test_split_stable_formula_satisfies_projected_equation():
    # applying (tau - PAP) to the stable-branch output returns P f
    rng = np.random.default_rng(3)
    a = matrix_with_moduli(rng, np.array([0.4, 0.7, 1.8]), shear=0.2)
    plan = ResolventPlan(a, 1.0, "split")
    f = random_sequence(rng, 3, -3, 3)
    pf = f.apply_matrix(plan.split.proj_stable)
    pap = BoundedOperator(plan.split.proj_stable @ a.entries @ plan.split.proj_stable)
    plan_p = ResolventPlan(pap, 1.0, "causal")
    u_p = apply_resolvent_causal(plan_p, pf)
    assert equation_residual(u_p, pap, pf, 1.0) <= 1e-10


def test_split_equation_residual_random():
    rng = np.random.default_rng(5)
    for _ in range(8):
        dim = int(rng.integers(1, 6))
        n_in = int(rng.integers(0, dim + 1))
        moduli = np.concatenate(
            [rng.uniform(0.2, 0.8, n_in), rng.uniform(1.25, 2.5, dim - n_in)]
        )
        a = matrix_with_moduli(rng, moduli, shear=0.2)
        plan = ResolventPlan(a, 1.0, "split")
        f = random_sequence(rng, dim, -4, 5)
        u = apply_resolvent_split(plan, f)
        assert equation_residual(u, a, f, 1.0) <= SERIES_SLACK * max(
            1.0, weighted_norm(f, Weight(1.0, 2.0))
        )


def test_frequency_agrees_with_causal():
    a = BoundedOperator([[0.5]])
    f = impulse(-1, [1.0])
    u_time = apply_resolvent_causal(ResolventPlan(a, 1.0, "causal"), f)
    u_freq = apply_resolvent_frequency(ResolventPlan(a, 1.0, "frequency"), f)
    assert max_abs_diff(u_time, u_freq) <= 1e-8


def test_frequency_agrees_with_split():
    rng = np.random.default_rng(7)
    a = BoundedOperator(np.diag([0.5, 2.0]))
    f = random_sequence(rng, 2, -3, 3)
    u_split = apply_resolvent_split(ResolventPlan(a, 1.0, "split"), f)
    u_freq = apply_resolvent_frequency(ResolventPlan(a, 1.0, "frequency"), f)
    assert max_abs_diff(u_split, u_freq) <= 1e-8


def test_frequency_zero():
    plan = ResolventPlan(BoundedOperator([[0.5]]), 1.0, "frequency")
    assert apply_resolvent_frequency(plan, zero_sequence(1)).is_zero


def test_frequency_rejects_spectrum_on_circle():
    # the Riesz split owns the check, for both modes that build one
    for mode in ("split", "frequency"):
        with pytest.raises(SpectrumOnCircle):
            ResolventPlan(BoundedOperator([[1.0]]), 1.0, mode)


def test_frequency_certified_on_jordan_block():
    # ||J^k|| grows to ~1e11 before it decays, so a cut from the eigenvalue
    # moduli alone drops an O(||f||) tail; the certified causal cut does not.
    # The remaining residual is the rounding of the transforms against the
    # solution's peak, above the causal route's but far below ||f||.
    a = BoundedOperator(_jordan(12, 0.8, 2.0))
    f = random_sequence(np.random.default_rng(0), 12, 0, 63)
    norm_f = weighted_norm(f, Weight(1.0, 2.0))
    causal = ResolventPlan(a, 1.0, "causal")
    plan = ResolventPlan(a, 1.0, "frequency")
    split = ResolventPlan(a, 1.0, "split")
    assert plan.tail_cut == causal.tail_cut == split.tail_cut
    u_time = apply_resolvent_causal(causal, f)
    u = apply_resolvent_frequency(plan, f)
    u_split = apply_resolvent_split(split, f)
    assert u.window == u_time.window == u_split.window
    assert max_abs_diff(u_split, u_time) <= 1e-12 * np.max(np.abs(u_time.values))
    assert equation_residual(u_time, a, f, 1.0) <= 1e-6 * norm_f
    assert equation_residual(u, a, f, 1.0) <= 1e-4 * norm_f


def test_split_plan_on_jordan_block_matches_causal():
    # eigenvalue 0.9 with superdiagonal 2: only non-normality stands between
    # the spectrum and the unit circle; a 4096-node trapezoid Riesz sum left
    # a projection defect of 5.6e-7 here
    a = BoundedOperator(_jordan(8, 0.9, 2.0))
    f = random_sequence(np.random.default_rng(8), 8, -5, 20)
    split = ResolventPlan(a, 1.0, "split")
    causal = ResolventPlan(a, 1.0, "causal")
    u_split, u_time = apply_resolvent_split(split, f), apply_resolvent_causal(causal, f)
    assert u_split.window == u_time.window
    assert max_abs_diff(u_split, u_time) <= 1e-12 * np.max(np.abs(u_time.values))


def test_frequency_window_equals_split_window():
    # two non-normal Jordan blocks, inside and outside the unit circle
    a = np.zeros((8, 8), dtype=np.complex128)
    a[:4, :4], a[4:, 4:] = _jordan(4, 0.5, 1.0), _jordan(4, 2.0, 1.0)
    a = BoundedOperator(a)
    f = random_sequence(np.random.default_rng(43), 8, -6, 9)
    split = ResolventPlan(a, 1.0, "split")
    plan = ResolventPlan(a, 1.0, "frequency")
    causal_cut, anticausal_cut = split._tails
    assert plan.tail_cut == split.tail_cut == max(causal_cut, anticausal_cut)
    u_split = apply_resolvent_split(split, f)
    u = apply_resolvent_frequency(plan, f)
    assert u.window == u_split.window == (-6 - anticausal_cut, 9 + causal_cut + 1)
    assert max_abs_diff(u, u_split) <= 1e-12 * np.max(np.abs(u_split.values))
    norm_f = weighted_norm(f, Weight(1.0, 2.0))
    assert equation_residual(u, a, f, 1.0) <= SERIES_SLACK * norm_f


def test_frequency_gap_beyond_tail_cap_raises_at_once(monkeypatch):
    # r(A) = 0.9999 at rho = 1 needs about 2.8e5 terms; a heuristic cut
    # built a 4e5-row window here instead of raising
    calls = []
    norm = resolvent.operator_norm
    monkeypatch.setattr(resolvent, "operator_norm", lambda m: calls.append(1) or norm(m))
    start = time.perf_counter()
    plan = ResolventPlan(BoundedOperator.diagonal([0.9999, 0.5]), 1.0, "frequency")
    with pytest.raises(PreconditionViolation):
        apply_resolvent_frequency(plan, impulse(-1, [1.0, 1.0]))
    assert time.perf_counter() - start < 0.1
    assert calls == []


def test_frequency_outside_causal_regime_needs_the_riesz_split():
    # off the causal regime the frequency route takes the split plan's
    # certified cuts; an eigenvalue 0.005 inside the circle needs no special
    # care from the sign iteration, and both routes agree (the causal regime
    # needs no split)
    a = BoundedOperator([[0.995, 0.3], [0.0, 2.0]])
    split, plan = ResolventPlan(a, 1.0, "split"), ResolventPlan(a, 1.0, "frequency")
    assert plan.split is not None and plan.tail_cut == split.tail_cut
    f = random_sequence(np.random.default_rng(9), 2, -4, 12)
    u_split, u = apply_resolvent_split(split, f), apply_resolvent_frequency(plan, f)
    assert u.window == u_split.window
    assert max_abs_diff(u, u_split) <= 1e-12 * np.max(np.abs(u_split.values))
    assert ResolventPlan(a, 2.5, "frequency").split is None


def test_causality_probe_unstable_scalar():
    ok, witness = causality_probe(BoundedOperator([[2.0]]), 1.0, [1.0])
    assert not ok
    assert witness.at(-1)[0] == pytest.approx(-0.5, rel=1e-12)
    assert equation_residual(witness, BoundedOperator([[2.0]]), impulse(-1, [1.0]), 1.0) <= SERIES_SLACK


def test_causality_probe_stable_scalar():
    ok, witness = causality_probe(BoundedOperator([[0.5]]), 1.0, [1.0])
    assert ok
    for n in range(0, 8):
        assert witness.at(n)[0] == pytest.approx(0.5**n, rel=1e-12)


def test_causality_probe_large_radius():
    ok, _ = causality_probe(BoundedOperator(np.diag([0.5, 2.0])), 3.0, [1.0, 1.0])
    assert ok


def test_causality_probe_refuses_a_vector_of_another_dimension():
    with pytest.raises(DimensionMismatch, match="^sequence has dimension 3, expected 2$"):
        causality_probe(BoundedOperator(np.diag([0.5, 2.0])), 3.0, np.ones(3))


def test_causality_dichotomy_randomized():
    rng = np.random.default_rng(11)
    for trial in range(12):
        dim = int(rng.integers(1, 6))
        rho = float(rng.uniform(0.5, 2.0))
        if trial % 2 == 0:
            moduli = rng.uniform(0.05, rho - 0.1, dim)
        else:
            moduli = rng.uniform(0.05, rho + 1.5, dim)
            moduli[int(rng.integers(0, dim))] = rng.uniform(rho + 0.1, rho + 1.5)
        moduli = np.where(np.abs(moduli - rho) < 0.1, moduli + 0.12, moduli)
        a = matrix_with_moduli(rng, moduli, shear=0.15)
        x = random_vector(rng, dim)
        ok, _ = causality_probe(a, rho, x)
        assert ok == (rho > spectral_radius(a))


def test_resolvent_norm_bounded_by_circle_sup():
    rng = np.random.default_rng(13)
    a = matrix_with_moduli(rng, np.array([0.4, 0.8, 1.9]), shear=0.2)
    rho = 1.0
    m_rho = circle_sup_resolvent(a, rho, samples=4096)
    plan = ResolventPlan(a, rho, "split")
    w = Weight(rho, 2.0)
    worst = 0.0
    for _ in range(20):
        f = random_sequence(rng, 3, -4, 4)
        u = apply_resolvent_split(plan, f)
        worst = max(worst, weighted_norm(u, w) / weighted_norm(f, w))
    assert worst <= m_rho * (1 + 1e-6)


def test_cross_method_agreement_causal_regime():
    rng = np.random.default_rng(17)
    a = matrix_with_moduli(rng, np.array([0.3, 0.6]), shear=0.3)
    f = random_sequence(rng, 2, -2, 4)
    rho = 1.1
    u_c = apply_resolvent_causal(ResolventPlan(a, rho, "causal"), f)
    u_s = apply_resolvent_split(ResolventPlan(a, rho, "split"), f)
    u_f = apply_resolvent_frequency(ResolventPlan(a, rho, "frequency"), f)
    assert max_abs_diff(u_c, u_s) <= 1e-8
    assert max_abs_diff(u_c, u_f) <= 1e-8
