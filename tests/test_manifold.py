import functools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq import (
    AdmissibilityError,
    BoundedOperator,
    DimensionMismatch,
    InputError,
    ManifoldProblem,
    circle_sup_resolvent,
    PreconditionViolation,
    RangeViolation,
    SERIES_TOL,
    Weight,
    WindowedSequence,
    impulse,
    implicit_euler_map,
    linear_map,
    lp_apply,
    lp_fixed_point,
    manifold_sweep,
    polynomial_map,
    riesz_split,
    saturation_map,
    solve_contraction,
    solve_ivp,
    spectrum_escape_check,
    stable_manifold_point,
    weighted_norm,
    zero_map,
    zero_sequence,
)
from specseq import operators
from specseq.manifold import _decay_rates, _first_horizon
from specseq.resolvent import _LOG_SLACK, CERT_CAP, TAIL_CAP, decay_steps
from testutil import (
    counted_sigma_min,
    matrix_with_moduli,
    max_abs_diff,
    random_sequence,
    random_vector,
)


@pytest.fixture(scope="module")
def desk_problem():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    return ManifoldProblem(a, saturation_map(0.01), fp_tol=1e-12)


def brute_force_characterization(prob, xi, orbit):
    """Direct evaluation of both fixed-point sum identities via matrix powers."""
    split = prob.split
    p, q = split.proj_stable, split.proj_unstable
    a = prob.A.entries
    pap = p @ a @ p
    qaq = q @ a @ q
    fu = prob.F.apply(orbit)
    h = prob.horizon
    # invert QAQ on its range through the eigendecomposition of A (oracle
    # path, independent of the production range-basis machinery)
    w, v = np.linalg.eig(a)
    vinv = np.linalg.inv(v)
    outside = np.abs(w) > 1.0

    def qaq_negative_power(m, vec):
        # (QAQ)^(-m) on range(Q) equals A^(-m) restricted to the unstable
        # eigencoordinates
        coeff = vinv @ vec
        coeff[~outside] = 0.0
        return v @ (coeff / w**m)

    defect_p = 0.0
    defect_q = 0.0
    for n in range(0, h + 1):
        acc_p = np.linalg.matrix_power(pap, n) @ (p @ xi)
        for k in range(0, n):
            acc_p += np.linalg.matrix_power(pap, n - 1 - k) @ (p @ fu.at(k))
        defect_p = max(defect_p, float(np.linalg.norm(p @ orbit.at(n) - acc_p)))
        acc_q = np.zeros(prob.A.dim, dtype=np.complex128)
        for k in range(n, h + 1):
            acc_q -= qaq_negative_power(k + 1 - n, q @ fu.at(k))
        defect_q = max(defect_q, float(np.linalg.norm(q @ orbit.at(n) - acc_q)))
    return defect_p, defect_q


def polyfit_decay_rate(orbit: np.ndarray, fp_tol: float) -> float:
    # Reference fit of one (rows, d) orbit: np.polyfit's least-squares slope of
    # log |u_n| over the entries above 1e3 fp_tol times the peak, 0.0 for
    # fewer than 3 of them
    mags = np.linalg.norm(orbit, axis=1)
    top = float(np.max(mags))
    if top == 0.0:
        return 0.0
    idx = np.flatnonzero(mags > 1e3 * fp_tol * top)
    if idx.size < 3:
        return 0.0
    return float(np.exp(np.polyfit(idx.astype(float), np.log(mags[idx]), 1)[0]))


def test_decay_rate_ignores_noise_below_iteration_tolerance():
    # the fit reads only entries the iteration resolves, so noise at the
    # rounding level of the orbit's peak barely moves it; a fit down to
    # 1e-13 of the peak moved by ~1e-4 here
    prob = ManifoldProblem(BoundedOperator(np.diag([0.5, 2.0])), saturation_map(0.01))
    orbit = lp_fixed_point(prob, [1.0, 0.0]).orbit.dense(0, prob.horizon)
    (rate,) = _decay_rates(orbit[:, None], prob.fp_tol)
    assert rate == pytest.approx(0.5, rel=1e-3)
    rng = np.random.default_rng(3)
    peak = float(np.max(np.abs(orbit)))
    shape = (len(orbit), 10, orbit.shape[1])
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rates = _decay_rates(orbit[:, None] + 1e-15 * peak * noise, prob.fp_tol)
    assert np.all(np.abs(rates - rate) <= 1e-9 * rate)
    # at least 3 resolved entries are needed for a slope
    assert _decay_rates(np.array([[[1.0]], [[1e-8]], [[1e-9]]]), 1e-10)[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(3, 80),
    columns=st.integers(1, 6),
    dim=st.integers(1, 4),
    fp_tol=st.sampled_from([1e-12, 1e-10, 1e-6]),
)
def test_stacked_decay_rates_match_a_polyfit_per_column(seed, rows, columns, dim, fp_tol):
    # noisy geometric orbits, some rows zero, plus an all-zero column and one
    # with fewer than 3 resolved entries
    rng = np.random.default_rng(seed)
    rate = rng.uniform(0.05, 1.5, columns)
    n = np.arange(rows)[:, None, None]
    scale = rng.uniform(1e-3, 1e3, (1, columns, 1)) * rate[None, :, None] ** n
    noise = 1.0 + 0.1 * rng.standard_normal((rows, columns, dim))
    u = scale * noise * np.exp(2j * np.pi * rng.uniform(size=(rows, columns, dim)))
    u[rng.uniform(size=rows) < 0.1] = 0.0
    few = np.zeros((rows, 1, dim), dtype=np.complex128)
    few[:2, 0, 0] = (1.0, 0.5)
    few[2:, 0, 0] = 1e-3 * fp_tol
    u = np.concatenate([u, np.zeros_like(few), few], axis=1)
    got = _decay_rates(u, fp_tol)
    assert got[columns] == 0.0 and got[columns + 1] == 0.0
    for j in range(u.shape[1]):
        want = polyfit_decay_rate(u[:, j], fp_tol)
        assert abs(got[j] - want) <= 1e-12 * abs(want), (j, got[j], want)


def test_sweep_fits_each_block_once(desk_problem, monkeypatch):
    # a 16-row sweep reads each row's decay rate from one stacked fit: no
    # np.polyfit, and no per-row orbit sequence
    calls = {"polyfit": 0, "sequences": 0}
    polyfit, post_init = np.polyfit, WindowedSequence.__post_init__

    def counted_polyfit(*args, **kwargs):
        calls["polyfit"] += 1
        return polyfit(*args, **kwargs)

    def counted_post_init(self):
        calls["sequences"] += 1
        post_init(self)

    monkeypatch.setattr(np, "polyfit", counted_polyfit)
    monkeypatch.setattr(WindowedSequence, "__post_init__", counted_post_init)
    grid = [np.array([0.02 * k, 0.0]) for k in range(-8, 8)]
    rows = manifold_sweep(desk_problem, grid)
    assert all(row.error is None for row in rows)
    assert calls == {"polyfit": 0, "sequences": 0}
    # the one-row API still builds its orbit, and reads the same fit
    point = lp_fixed_point(desk_problem, grid[1])
    assert calls == {"polyfit": 0, "sequences": 1}
    assert point.decay_rate_estimate == pytest.approx(rows[1].decay_rate, rel=1e-9)


def test_lp_apply_linear_part_only(desk_problem):
    # F = 0 makes the map constant in u: A^n xi cut to Z_{>=0}
    prob = ManifoldProblem(desk_problem.A, zero_map(forcing=zero_sequence(2)))
    xi = np.array([0.3, 0.0])
    rng = np.random.default_rng(0)
    out = lp_apply(prob, xi, random_sequence(rng, 2, 0, 10))
    for n in range(0, prob.horizon + 1):
        assert np.linalg.norm(out.at(n) - np.array([0.3 * 0.5**n, 0.0])) <= 1e-10
    assert out.lo >= 0


def test_lp_apply_zero_xi_zero_map(desk_problem):
    prob = ManifoldProblem(desk_problem.A, zero_map(forcing=zero_sequence(2)))
    rng = np.random.default_rng(1)
    out = lp_apply(prob, np.zeros(2), random_sequence(rng, 2, 0, 8))
    assert out.is_zero


def test_lp_apply_rejects_unstable_xi(desk_problem):
    with pytest.raises(RangeViolation):
        lp_apply(desk_problem, np.array([0.0, 0.5]), zero_sequence(2))


def test_lp_apply_refuses_a_sequence_of_another_dimension(desk_problem):
    with pytest.raises(DimensionMismatch, match="dimension 3, the operator has dimension 2"):
        lp_apply(desk_problem, np.array([0.1, 0.0]), zero_sequence(3))


def test_admissibility_gate_sees_resolvent_peak_between_nodes():
    # |z| = 1 passes 1e-3 from the eigenvalue 1.001 e^(i theta), halfway
    # between nodes 17 and 18 of 1024: sup ||(z - A)^(-1)|| is about 7.12e4,
    # while a 1024-node sample reads 2.21e4.  A lip of 3e-5 lies between the
    # true 1/M_1 (1.40e-5) and the sampled one (4.53e-5).
    theta = 2 * np.pi * 17.5 / 1024
    a = BoundedOperator([[1.001 * np.exp(1j * theta), 50.0], [0.0, 0.3]])
    with pytest.raises(AdmissibilityError, match="1/M_1"):
        ManifoldProblem(a, saturation_map(3e-5))


# M_1 = 3.935, but the Jordan pair at 3 puts M_3.5 at 41.84: a saturation
# at 0.5 / M_1 contracts on ell_2 and is far above 1/M_3.5
SHEARED_UNSTABLE = [[0.1, 1.0, 0.0], [0.0, 3.0, 10.0], [0.0, 0.0, 3.0]]


def test_one_gate_admits_a_nonlinearity_above_the_outer_supremum():
    # the gate at 1 alone makes the graph the stable manifold: points on it
    # decay, and a push off it along e_3 escapes (the checks of c09)
    a = BoundedOperator(SHEARED_UNSTABLE)
    prob = ManifoldProblem(a, saturation_map(0.5 / circle_sup_resolvent(a, 1.0)), fp_tol=1e-12)
    grid = [t * prob.split.proj_stable @ np.array([1.0, 0.0, 0.0]) for t in (-0.3, 0.1, 0.3)]
    rows = manifold_sweep(prob, grid)
    assert [row.error for row in rows] == [None] * 3
    for row in rows:
        x = row.xi + row.eta
        fwd = solve_ivp(a, prob.F, x, 100, "recursion")
        assert any(np.linalg.norm(fwd.at(n)) <= 1e-6 * np.linalg.norm(x) for n in range(1, 101))
        x_off = x + 1e-3 * np.array([0.0, 0.0, 1.0])
        fwd_off = solve_ivp(a, prob.F, x_off, 40, "recursion")
        assert any(np.linalg.norm(fwd_off.at(n)) > 10.0 * np.linalg.norm(x_off) for n in range(1, 41))


def test_one_gate_graph_is_the_stable_subspace_above_the_outer_supremum():
    # ||B|| = 0.5 / M_1, so ||B|| M_3.5 is 5.3: eta is still the exact graph
    a = BoundedOperator(SHEARED_UNSTABLE)
    b = np.array([[0.3, -0.2j, 0.1], [0.5, 0.1, -0.4], [0.2j, 0.3, 0.2]])
    b *= 0.5 / (np.linalg.norm(b, 2) * circle_sup_resolvent(a, 1.0))
    assert np.linalg.norm(b, 2) * circle_sup_resolvent(a, 3.5) > 5.0
    prob = ManifoldProblem(a, linear_map(b), fp_tol=1e-15, max_iter=5000)
    xi = prob.split.proj_stable @ np.array([0.3, -0.2, 0.1])
    want, rounding = linear_graph(a, b, xi, prob.split)
    assert np.linalg.norm(want) > 0.05 * np.linalg.norm(xi)
    q_norm = np.linalg.norm(prob.split.proj_unstable, 2)
    error = np.linalg.norm(lp_fixed_point(prob, xi).eta - want)
    assert error <= q_norm * SERIES_TOL * np.linalg.norm(xi) + rounding


@pytest.mark.parametrize(
    "entries, walked", [(np.diag([0.5, 2.0]), False), (SHEARED_UNSTABLE, True)], ids=["first-steps", "walked"]
)
def test_construction_samples_only_the_circles_it_reads(monkeypatch, entries, walked):
    # the gate at 1 and the weights the horizon walks over, mu in
    # (r_inside, 1) and nu in (1, r_outside): no circle outside the
    # spectrum.  Where both walks keep their first step, only 1, mu and nu
    radii = []
    sigma_min = operators._sigma_min

    def recorded(a, z):
        radii.extend(np.abs(z))
        return sigma_min(a, z)

    monkeypatch.setattr(operators, "_sigma_min", recorded)
    prob = ManifoldProblem(BoundedOperator(entries), saturation_map(0.01))
    radii = np.array(radii)
    circles = np.array([1.0, prob.mu, prob.nu])
    hits = np.isclose(radii[:, None], circles, rtol=1e-12, atol=0.0)
    assert hits.any(axis=0).all()
    assert hits.any(axis=1).all() != walked
    inside, outside = prob.split.r_inside, 1.0 / prob.split.r_outside_inv
    assert np.all(hits[:, 0] | (inside < radii) & (radii < outside))


def test_lp_fixed_point_is_the_ivp_orbit_when_stable():
    # r(A) < 1: P = I, the cut-off map is the impulse map, and its fixed
    # point is the forward orbit from xi
    a = matrix_with_moduli(np.random.default_rng(3), [0.6, 0.9], shear=0.3)
    prob = ManifoldProblem(a, saturation_map(0.02), fp_tol=1e-12)
    xi = np.array([0.3, -0.2j])
    orbit = lp_fixed_point(prob, xi).orbit
    assert orbit.window == (0, prob.horizon)
    assert max_abs_diff(orbit, solve_ivp(a, saturation_map(0.02), xi, prob.horizon)) <= 1e-8


def test_range_check_is_relative_and_overflow_safe():
    prob = ManifoldProblem(BoundedOperator([[0.5, 1.0], [0.0, 2.0]]), saturation_map(0.01))
    with pytest.raises(RangeViolation):
        prob.check_stable_range([0.0, 1e200])
    with pytest.raises(RangeViolation):
        prob.check_stable_range([0.0, 1e-12])
    prob.check_stable_range([1e-300, 0.0])
    prob.check_stable_range([0.0, 0.0])


def test_forward_orbit_agreement_scales_with_xi():
    # the forward orbit of (1e150, 0) matches the fixed point to 1e-15
    # relative, which an absolute 1e-8 bound rejected
    prob = ManifoldProblem(BoundedOperator([[0.5, 1.0], [0.0, 2.0]]), saturation_map(0.01))
    small, big = manifold_sweep(prob, [np.array([1.0, 0.0]), np.array([1e150, 0.0])])
    assert small.error is None and big.error is None
    eta, point = stable_manifold_point(prob, np.array([1e150, 0.0]))
    assert np.all(np.isfinite(eta))
    assert np.linalg.norm(point.orbit.at(0) - [1e150, 0.0] - eta) <= 1e-8 * 1e150


def test_lp_apply_contraction_factor(desk_problem):
    prob = desk_problem
    rng = np.random.default_rng(2)
    xi = np.array([0.1, 0.0])
    w = Weight(1.0, 2.0)
    bound = prob.contraction_factor + 0.05
    for _ in range(10):
        u = random_sequence(rng, 2, 0, prob.horizon, scale=0.3)
        v = random_sequence(rng, 2, 0, prob.horizon, scale=0.3)
        num = weighted_norm(lp_apply(prob, xi, u) - lp_apply(prob, xi, v), w)
        den = weighted_norm(u - v, w)
        assert num <= bound * den


def test_lp_fixed_point_linear_is_projected_power_orbit():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    prob = ManifoldProblem(a, zero_map(forcing=zero_sequence(2)))
    xi = np.array([0.4, 0.0])
    point = lp_fixed_point(prob, xi)
    assert point.iterations <= 1
    assert np.linalg.norm(point.eta) <= 1e-10
    for n in range(0, prob.horizon + 1):
        assert np.linalg.norm(point.orbit.at(n) - np.array([0.4 * 0.5**n, 0.0])) <= 1e-10


def test_lp_fixed_point_zero_xi(desk_problem):
    point = lp_fixed_point(desk_problem, np.zeros(2))
    assert point.orbit.is_zero
    assert np.linalg.norm(point.eta) <= 1e-14


def test_lp_fixed_point_characterization_brute_force(desk_problem):
    xi = np.array([0.2, 0.0])
    point = lp_fixed_point(desk_problem, xi)
    defect_p, defect_q = brute_force_characterization(desk_problem, xi, point.orbit)
    assert defect_p <= 1e-8
    assert defect_q <= 1e-8


def test_characterization_sums_reproduced_by_one_application(desk_problem):
    # a sequence assembled synthetically from the two sums is sent to
    # itself by one application of the cut-off map
    prob = desk_problem
    xi = np.array([0.15, 0.0])
    point = lp_fixed_point(prob, xi)
    split = prob.split
    p, q = split.proj_stable, split.proj_unstable
    a = prob.A.entries
    pap = p @ a @ p
    fu = prob.F.apply(point.orbit)
    w_eig, v_eig = np.linalg.eig(a)
    vinv = np.linalg.inv(v_eig)
    outside = np.abs(w_eig) > 1.0
    h = prob.horizon
    vals = np.zeros((h + 1, 2), dtype=np.complex128)
    for n in range(0, h + 1):
        acc = np.linalg.matrix_power(pap, n) @ (p @ xi)
        for k in range(0, n):
            acc += np.linalg.matrix_power(pap, n - 1 - k) @ (p @ fu.at(k))
        for k in range(n, h + 1):
            coeff = vinv @ (q @ fu.at(k))
            coeff[~outside] = 0.0
            acc -= v_eig @ (coeff / w_eig ** (k + 1 - n))
        vals[n] = acc
    synthetic = type(point.orbit)(0, vals)
    reproduced = lp_apply(prob, xi, synthetic)
    assert weighted_norm(reproduced - synthetic, Weight(1.0, 2.0)) <= 10 * prob.fp_tol * 10


def test_stable_manifold_point_linear_graph_is_flat():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    prob = ManifoldProblem(a, zero_map(forcing=zero_sequence(2)))
    eta, _ = stable_manifold_point(prob, np.array([0.3, 0.0]))
    assert np.linalg.norm(eta) <= 1e-12


def test_stable_manifold_point_zero_xi(desk_problem):
    eta, point = stable_manifold_point(desk_problem, np.zeros(2))
    assert np.linalg.norm(eta) <= 1e-14
    assert point.orbit.is_zero


def test_stable_manifold_point_forward_orbit_and_escape(desk_problem):
    prob = desk_problem
    xi = np.array([0.2, 0.0])
    eta, point = stable_manifold_point(prob, xi)
    x = xi + eta
    # forward recursion oracle reproduces the fixed point on the prefix
    # where unstable error growth stays below tolerance
    fwd = solve_ivp(prob.A, prob.F, x, 40, "recursion")
    for n in range(0, 13):
        assert np.linalg.norm(fwd.at(n) - point.orbit.at(n)) <= 1e-8
    # off-manifold perturbation escapes within 40 steps
    perturbed = x + 1e-3 * np.array([0.0, 1.0])
    fwd_bad = solve_ivp(prob.A, prob.F, perturbed, 40, "recursion")
    grew = any(
        np.linalg.norm(fwd_bad.at(n)) > 10.0 * np.linalg.norm(perturbed) for n in range(41)
    )
    assert grew


def test_split_respecting_linear_kernel_keeps_graph_flat():
    # a linear kernel commuting with the projections leaves the stable
    # subspace invariant, so eta = 0 on any grid
    a = BoundedOperator(np.diag([0.5, 2.0]))
    prob = ManifoldProblem(a, linear_map(0.1 * np.eye(2)))
    rows = manifold_sweep(prob, [np.array([t, 0.0]) for t in (-0.4, 0.1, 0.3)])
    for row in rows:
        assert row.error is None
        assert np.linalg.norm(row.eta) <= 1e-9


def test_manifold_sweep_zero_grid(desk_problem):
    rows = manifold_sweep(desk_problem, [np.zeros(2)])
    assert len(rows) == 1
    assert rows[0].error is None
    assert np.linalg.norm(rows[0].eta) <= 1e-12


def test_manifold_sweep_odd_symmetry(desk_problem):
    # the saturation kernel is odd, so eta(-xi) = -eta(xi)
    xi = np.array([0.2, 0.0])
    rows = manifold_sweep(desk_problem, [xi, -xi])
    assert all(row.error is None for row in rows)
    assert np.linalg.norm(rows[0].eta + rows[1].eta) <= 1e-9
    assert np.linalg.norm(rows[0].eta) > 1e-5  # the graph is genuinely curved


def test_manifold_sweep_records_row_errors(desk_problem):
    rows = manifold_sweep(desk_problem, [np.array([0.1, 0.0]), np.array([0.0, 1.0])])
    assert rows[0].error is None
    assert rows[1].error is not None and "range-violation" in rows[1].error


def test_problem_validation():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    with pytest.raises(AdmissibilityError):
        ManifoldProblem(a, implicit_euler_map(0.1, "linear_decay"))  # not causal
    with pytest.raises(AdmissibilityError):
        ManifoldProblem(a, zero_map(forcing=impulse(0, [1.0, 0.0])))  # F(0) != 0
    with pytest.raises(AdmissibilityError):
        ManifoldProblem(a, saturation_map(5.0))  # too large for 1/M_1


def test_trivial_split_when_radius_below_one():
    # r(A) < 1: the stable range is everything and the graph map vanishes.
    # The map is causal, so the cut drops nothing: no weight is certified,
    # the horizon is the 32-row floor, and every row, the last one too, is
    # the forward recursion's to the iteration tolerance
    a = BoundedOperator(np.diag([0.5, 0.9]))
    prob = ManifoldProblem(a, saturation_map(0.05), fp_tol=1e-12)
    assert prob.split.rank_unstable == 0
    assert (prob.mu, prob.nu, prob.m_mu, prob.m_nu, prob.horizon) == (None, None, None, None, 32)
    xi = np.array([0.2, 0.3])
    eta, point = stable_manifold_point(prob, xi)
    assert np.linalg.norm(eta) <= 1e-12
    exact = solve_ivp(a, saturation_map(0.05), xi, prob.horizon)
    assert max_abs_diff(point.orbit, exact) <= 1e-11 * np.linalg.norm(xi)


def test_spectrum_escape_check_scalar_growth():
    assert spectrum_escape_check(BoundedOperator([[2.0]]), [1.0])


def test_spectrum_escape_check_zero_vector():
    assert spectrum_escape_check(BoundedOperator([[2.0]]), [0.0])


def test_spectrum_escape_check_random_direction():
    # closed-form eigencoordinate oracle: |A^n x|^2 = sum |lambda_i|^(2n) |c_i|^2
    # grows for any nonzero coefficient vector
    rng = np.random.default_rng(3)
    a = BoundedOperator(np.diag([1.5, 3.0]))
    for _ in range(5):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        norms = [
            np.hypot(abs(1.5**n * x[0]), abs(3.0**n * x[1])) for n in range(50)
        ]
        assert norms[-1] > norms[0]  # oracle confirms growth
        assert spectrum_escape_check(a, x)


def test_spectrum_escape_check_certifies_a_shrinking_start():
    # |A^50 x| = 3e-4 |x| along the weakest right singular vector of A^50,
    # so a 50-step orbit looks square-summable; ||A^-n|| <= 1/2 at n = 1248
    # still forces |A^{1248 q} x| >= 2^q |x|
    a = np.array([[1.01, 100.0], [0.0, 1.01]])
    x = np.linalg.svd(np.linalg.matrix_power(a, 50))[2][-1].conj()
    assert np.linalg.norm(np.linalg.matrix_power(a, 50) @ x) < 1e-3
    assert spectrum_escape_check(BoundedOperator(a), x)


def test_escape_check_takes_no_norm_the_spectral_radius_rules_out(monkeypatch):
    # the certificate reads no bound M, so below k = ceil((log(1/2) + slack) /
    # log r(A^-1)), where ||A^-k|| >= r(A^-1)^k already fails, it takes no
    # norm; K is that of the search that takes every one
    frobenius = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda m, *a: norm(m, *a) if a else frobenius.append(1) or norm(m))
    fixtures = (
        [[2.0]],
        np.diag([1.5, 3.0]),
        [[1.01, 100.0], [0.0, 1.01]],
        np.diag([1.001, 1.002]),
        np.diag(np.linspace(1.01, 3.0, 32)),
    )
    for entries in fixtures:
        a = BoundedOperator(entries)
        radius = 1.0 / float(np.min(np.abs(a.eigenvalues)))
        want, _ = decay_steps(np.linalg.inv(a.entries), radius, 1.0, 0.5, CERT_CAP, "every norm")
        first = max(1, math.ceil((math.log(0.5) + _LOG_SLACK) / math.log(radius)))
        frobenius.clear()
        assert spectrum_escape_check(a, np.ones(a.dim))
        assert len(frobenius) == want + 1 - first


def test_spectrum_escape_check_precondition():
    with pytest.raises(PreconditionViolation):
        spectrum_escape_check(BoundedOperator(np.diag([0.5, 2.0])), [1.0, 1.0])


def test_lp_contraction_estimate_reported(desk_problem):
    point = lp_fixed_point(desk_problem, np.array([0.2, 0.0]))
    assert point.contraction_estimate <= desk_problem.contraction_factor + 0.05
    assert 0.0 < point.decay_rate_estimate < 0.6


def assert_rows_match_one_row_sweeps(prob, grid, rows=None):
    # a stacked row has the iteration count and, to roundoff, the eta of
    # the same vector swept alone
    rows = manifold_sweep(prob, grid) if rows is None else rows
    for xi, row in zip(grid, rows):
        (alone,) = manifold_sweep(prob, [xi])
        assert row.error == alone.error
        assert row.iterations == alone.iterations
        if alone.error is None:
            tol = 1e-14 * (1.0 + np.linalg.norm(alone.eta))
            assert np.linalg.norm(row.eta - alone.eta) <= tol
    return rows


@pytest.mark.parametrize("horizon", [None, 2000], ids=["one-block", "column-blocks"])
def test_stacked_sweep_matches_one_row_sweeps(horizon):
    # a long horizon splits the 16 rows into blocks of 4 (2**15 // (2001 * 4))
    rng = np.random.default_rng(41)
    a = matrix_with_moduli(rng, [0.4, 0.6, 1.5, 2.2], shear=0.2)
    prob = ManifoldProblem(a, saturation_map(0.01), fp_tol=1e-12, horizon=horizon)
    grid = [0.04 * k * prob.split.proj_stable @ random_vector(rng, 4) for k in range(16)]
    rows = assert_rows_match_one_row_sweeps(prob, grid)
    assert all(row.error is None for row in rows)
    assert len({row.iterations for row in rows}) > 1  # rows stop independently


def test_sweep_row_does_not_depend_on_its_companions(desk_problem):
    xi = np.array([0.2, 0.0])
    (alone,) = manifold_sweep(desk_problem, [xi])
    grids = [
        [np.array([0.0, 1.0]), xi],  # a failing companion
        [xi, np.zeros(2), np.array([-0.05, 0.0]), np.array([0.0, 0.3])],
        [np.array([0.1, 0.0])] * 5 + [xi],
    ]
    for grid in grids:
        row = next(r for r in manifold_sweep(desk_problem, grid) if np.array_equal(r.xi, xi))
        assert row.error is None and row.iterations == alone.iterations
        assert np.linalg.norm(row.eta - alone.eta) <= 1e-14 * (1.0 + np.linalg.norm(alone.eta))
        assert row.decay_rate == pytest.approx(alone.decay_rate, rel=1e-9)


def test_stacked_sweep_isolates_no_convergence():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    prob = ManifoldProblem(a, saturation_map(0.01), fp_tol=1e-12, max_iter=2)
    grid = [np.array([0.2, 0.0]), np.zeros(2), np.array([0.0, 1.0]), np.array([-0.1, 0.0])]
    rows = manifold_sweep(prob, grid)
    assert rows[1].error is None and np.linalg.norm(rows[1].eta) <= 1e-14
    for row in (rows[0], rows[3]):
        assert row.error == "no-convergence: no convergence within 2 iterations"
        assert row.eta is None and row.iterations == 0
    assert rows[2].error.startswith("range-violation: xi is not in the stable range")


def test_forward_check_runs_only_over_its_comparison_window():
    # a supplied horizon of 1348 with growth 3: an orbit over the whole
    # horizon overflows, the prefix the check compares on does not
    a = BoundedOperator(np.diag([0.95, 3.0]))
    prob = ManifoldProblem(a, saturation_map(0.01), horizon=1348)
    assert prob.horizon * math.log(3.0) > math.log(np.finfo(np.float64).max)
    (row,) = manifold_sweep(prob, [np.array([0.3, 0.0])])
    assert row.error is None and np.all(np.isfinite(row.eta))


@pytest.mark.parametrize("r, s, horizon", [(0.99, 1.01, 1553), (0.998, 1.002, 8688)])
def test_default_horizon_is_certified_near_the_circle(r, s, horizon):
    # long certified horizons run: with spectrum near the circle on both
    # sides neither weight decays fast, and the horizon passes 1024 rows
    prob = ManifoldProblem(BoundedOperator(np.diag([r, s])), saturation_map(1e-6))
    assert prob.horizon == horizon
    (row,) = manifold_sweep(prob, [np.array([0.1, 0.0])])
    assert row.error is None and np.all(np.isfinite(row.eta))


def test_near_circle_problems_past_the_tail_cap_are_admitted():
    # the split plan of diag(0.999, *) needs a 27 618-term tail cut for a
    # full route, above TAIL_CAP, and refused these problems at construction
    # although no LP row reads that cut; their certificates need 40 and 32 rows
    a = BoundedOperator(np.diag([0.999, 2.0]))
    start = time.perf_counter()
    prob = ManifoldProblem(a, saturation_map(1e-6))
    assert time.perf_counter() - start < 0.5
    assert prob.horizon == 40
    eta, point = stable_manifold_point(prob, [1.0, 0.0])
    assert point.iterations >= 1 and abs(eta[0]) == 0.0 and 0.0 < abs(eta[1]) < 1e-6
    with pytest.raises(PreconditionViolation, match="27618 terms"):
        prob.plan.tail_cut  # a full route still refuses the cut
    a = BoundedOperator(np.diag([0.999, 3.0]))
    assert ManifoldProblem(a, saturation_map(0.5 / circle_sup_resolvent(a, 1.0))).horizon == 32
    # the impulse IVP's causal plan reads no cut either: a 248 694-term cut
    # refused this one
    a = BoundedOperator([[0.9]])
    u = solve_ivp(a, saturation_map(1e-6), [1.0], 60, "impulse", rho=0.9001)
    v = solve_ivp(a, saturation_map(1e-6), [1.0], 60, "recursion")
    assert u.window == v.window == (0, 60)
    assert max_abs_diff(u, v) <= 2.3e-16


def shear_problem(**kwargs):
    # A = diag(0.9, 0.8, 2) + triu(0.3, 1) with saturation eps = 0.02
    a = BoundedOperator(np.diag([0.9, 0.8, 2.0]) + np.triu(np.full((3, 3), 0.3), 1))
    return ManifoldProblem(a, saturation_map(0.02), **kwargs)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"horizon": 40.5}, "horizon"),
        ({"horizon": True}, "horizon"),
        ({"horizon": "64"}, "horizon"),
        ({"max_iter": 2.5}, "max_iter"),
        ({"max_iter": True}, "max_iter"),
        ({"fp_tol": "1e-10"}, "fp_tol"),
        ({"fp_tol": True}, "fp_tol"),
    ],
)
def test_iteration_limits_and_horizon_reject_what_they_cannot_use(kwargs, field):
    # these used to construct and then raise TypeError on the first point,
    # or, for max_iter = True, run a single step
    with pytest.raises(InputError, match=f"^{field} must be"):
        shear_problem(**kwargs)
    if "horizon" not in kwargs:
        with pytest.raises(InputError, match=f"^{field} must be"):
            solve_contraction(saturation_map(0.1), Weight(1.0, 2.0), (0, 4), dim=1, **kwargs)
    # integral floats are integers, as on the wire
    prob = shear_problem(horizon=64.0, max_iter=50.0)
    assert (prob.horizon, prob.max_iter) == (64, 50)
    assert type(prob.horizon) is int and type(prob.max_iter) is int


def test_horizon_below_the_certificate_is_a_precondition_violation():
    # short horizons that returned eta off by 4.8e-6 (10), 4.5e-4 (4) and
    # 7.8e-3 (0) with no error now stop at construction
    prob = shear_problem()
    assert prob.horizon == 48
    for horizon in (10, 4, 0, prob.horizon - 1):
        with pytest.raises(PreconditionViolation, match=f"horizon {horizon} is below the certified"):
            shear_problem(horizon=horizon)
    assert shear_problem(horizon=prob.horizon).horizon == 48


def test_horizon_certificate_is_its_bound():
    # the default horizon is the first h with E_nu(h) <= SERIES_TOL, within
    # the weight ranges and gates the certificate needs
    prob = shear_problem()
    lip = prob.F.lip_bound(1.0)
    q_mu, q_nu = prob.m_mu * lip, prob.m_nu * lip
    assert prob.split.r_inside < prob.mu < 1.0 and q_mu < 1.0
    assert 1.0 <= prob.nu < 1.0 / prob.split.r_outside_inv and q_nu < 1.0
    assert prob.m_mu == circle_sup_resolvent(prob.A, prob.mu)
    assert prob.m_nu == circle_sup_resolvent(prob.A, prob.nu)

    def bound(h):
        lead = q_nu * prob.m_mu * prob.mu / ((1.0 - q_nu) * (1.0 - q_mu))
        return lead * (prob.mu / prob.nu) ** (h + 1)

    assert bound(prob.horizon) <= SERIES_TOL < bound(prob.horizon - 1)
    for name in ("mu", "nu", "m_mu", "m_nu"):
        with pytest.raises(AttributeError):
            setattr(prob, name, 0.5)


@pytest.mark.parametrize(
    "a",
    [np.diag([2.0, 3.0]), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])],
    ids=["no-stable-spectrum", "nilpotent-stable-part"],
)
def test_horizon_certificate_without_stable_radius(a):
    # r_inside = 0 has no r_inside^(7/8) circle to start from: the weight
    # starts at SERIES_TOL^(1/32) and the horizon stays at the 32-row floor
    prob = ManifoldProblem(BoundedOperator(a), saturation_map(0.01))
    assert prob.split.r_inside == 0.0
    assert prob.mu == SERIES_TOL ** (1.0 / 32.0) and prob.horizon == 32
    (row,) = manifold_sweep(prob, [prob.split.proj_stable @ np.ones(len(a))])
    assert row.error is None


def test_certified_horizon_above_tail_cap_is_a_precondition_violation():
    with pytest.raises(PreconditionViolation, match="certified horizon exceeds TAIL_CAP"):
        ManifoldProblem(BoundedOperator(np.diag([0.998, 1.002])), saturation_map(1e-3))


def horizon_family(rng):
    # r_inside in [0.85, 0.96], lip between 0.3 and 1.5 times 1/M at the
    # first weight r_inside^(7/8) (so some problems step mu) and shears up
    # to 1, with d from 2 to 4: (A, eps) of a saturation problem
    d = int(rng.integers(2, 5))
    inside = rng.uniform(0.85, 0.96, int(rng.integers(1, d)))
    outside = rng.uniform(1.3, 2.5, d - inside.size)
    a = matrix_with_moduli(rng, np.concatenate([inside, outside]), shear=rng.uniform(0.3, 1.0))
    return a, rng.uniform(0.3, 1.5) / circle_sup_resolvent(a, inside.max() ** 0.875)


@pytest.mark.parametrize("seed", range(12))
def test_certified_horizon_drops_less_than_series_tol(seed):
    # eta at the default horizon is within ||Q|| SERIES_TOL |xi| of eta at
    # 4 times that horizon, both iterated to the rounding level
    rng = np.random.default_rng(seed)
    a, eps = horizon_family(rng)
    d = a.dim
    tight = {"fp_tol": 1e-15, "max_iter": 2000}
    prob = ManifoldProblem(a, saturation_map(eps), **tight)
    long = ManifoldProblem(a, saturation_map(eps), horizon=4 * prob.horizon, **tight)
    xi = prob.split.proj_stable @ random_vector(rng, d)
    eta, ref = lp_fixed_point(prob, xi).eta, lp_fixed_point(long, xi).eta
    q_norm = np.linalg.norm(prob.split.proj_unstable, 2)
    assert np.linalg.norm(eta - ref) <= q_norm * SERIES_TOL * np.linalg.norm(xi)


def weight_walk(start, lip, sup, horizon_at):
    # (weight, h) of the square-root steps from start towards 1 while q_w > 1/2
    # and a step shortens the horizon, as the certificate takes them
    w, best = start, None
    while w != 1.0:
        if sup(w) * lip < 1.0:
            h = horizon_at(w)
            if best is not None and h >= best[1]:
                break
            best = (w, h)
            if sup(w) * lip <= 0.5:
                break
        w = math.sqrt(w)
    return best


def weight_horizon(lip, sup):
    # the first h with E_nu(h) <= SERIES_TOL at weights (mu, nu), from the
    # suprema sup(w); TAIL_CAP + 1 where a weight does not contract
    def horizon(mu, nu):
        q_mu, q_nu = sup(mu) * lip, sup(nu) * lip
        if q_mu >= 1.0 or q_nu >= 1.0:
            return TAIL_CAP + 1
        return _first_horizon(q_nu * sup(mu) / ((1.0 - q_nu) * (1.0 - q_mu)), mu, nu)

    return horizon


def full_tolerance_certificate(a, lip):
    # (mu, nu, M_mu, M_nu, h) of the horizon rule with every supremum
    # finished to SUP_REL_TOL before it is read: mu and its h by the
    # single-weight rule (nu = 1), then the walk's nu where it certifies fewer rows
    split = riesz_split(a, 1.0)
    sup = functools.cache(lambda w: circle_sup_resolvent(a, w))
    horizon = weight_horizon(lip, sup)
    mu0 = max(split.r_inside**0.875, SERIES_TOL ** (1.0 / 32.0))
    mu, h_one = weight_walk(mu0, lip, sup, lambda w: horizon(w, 1.0))
    best = weight_walk((1.0 / split.r_outside_inv) ** 0.875, lip, sup, lambda w: horizon(mu, w))
    nu, h = best if best is not None and best[1] < h_one else (1.0, h_one)
    return mu, nu, sup(mu), sup(nu), h


def single_weight_horizon(a, lip):
    # the certified h of E_1(h) = M_1 lip M_mu mu^(h+2) / ((1 - q_1)(1 - q_mu)),
    # the bound on the whole window at nu = 1, written out from finished
    # suprema; None where no weight mu contracts
    split = riesz_split(a, 1.0)
    sup = functools.cache(lambda w: circle_sup_resolvent(a, w))
    q_one = sup(1.0) * lip

    def horizon(mu):
        q_mu = sup(mu) * lip
        lead = q_one * sup(mu) / ((1.0 - q_one) * (1.0 - q_mu))
        h = 0
        while h <= TAIL_CAP and lead * mu ** (h + 2) > SERIES_TOL:
            h += 1
        return h

    best = weight_walk(max(split.r_inside**0.875, SERIES_TOL ** (1.0 / 32.0)), lip, sup, horizon)
    return None if best is None else best[1]


@pytest.mark.parametrize("case", [*range(12), "diag(0.95, 3)"])
def test_pinned_horizon_is_the_full_tolerance_horizon(case):
    # the brackets on M_mu and M_nu refine only until both ends give one
    # horizon; it is the horizon, weights and suprema of the finished ones
    if isinstance(case, int):
        a, eps = horizon_family(np.random.default_rng(case))
    else:
        a, eps = BoundedOperator(np.diag([0.95, 3.0])), 0.01
    prob = ManifoldProblem(a, saturation_map(eps))
    mu, nu, m_mu, m_nu, h = full_tolerance_certificate(a, prob.F.lip_bound(1.0))
    assert (prob.mu, prob.nu, prob.m_mu, prob.m_nu, prob.horizon) == (mu, nu, m_mu, m_nu, max(h, 32))
    assert prob.m_one == circle_sup_resolvent(a, 1.0)
    if not isinstance(case, int):
        assert (h, prob.horizon) == (28, 32)


def assert_no_longer_than_one_weight(a, eps):
    # the horizon is at most the one E_1 certifies, and a problem is refused
    # only where that rule refuses it, with its error; one that rule refuses
    # for more than TAIL_CAP rows may be admitted with fewer
    old = single_weight_horizon(a, saturation_map(eps).lip_bound(1.0))
    refusal = "no weight mu" if old is None else "exceeds TAIL_CAP" if old > TAIL_CAP else None
    try:
        horizon = ManifoldProblem(a, saturation_map(eps)).horizon
    except PreconditionViolation as err:
        assert refusal is not None and refusal in str(err)
    else:
        assert refusal == "exceeds TAIL_CAP" or horizon <= max(old, 32)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_horizon_family_horizons_never_grow_property(seed):
    assert_no_longer_than_one_weight(*horizon_family(np.random.default_rng(seed)))


def linear_graph(a, b, xi, split):
    # w_s(xi) for F(u) = B u from the stable subspace of A + B: the orbit is
    # v_n = (A + B)^n v_0 with v_0 in that subspace and P v_0 = xi, so
    # eta = Q v_0.  Also the oracle's own rounding: d eps ||A + B|| cond(V)
    # / gap |v_0| for the eigenvector basis V and the least distance between
    # a stable and an unstable eigenvalue of A + B
    m = a.entries + b
    w, v = np.linalg.eig(m)
    stable = np.abs(w) < 1.0
    start = v[:, stable] @ np.linalg.lstsq(split.proj_stable @ v[:, stable], xi, rcond=None)[0]
    gap = np.min(np.abs(w[stable][:, None] - w[~stable][None, :]))
    eps = np.finfo(np.float64).eps
    rounding = len(w) * eps * np.linalg.norm(m, 2) * np.linalg.cond(v) / gap * np.linalg.norm(start)
    return split.proj_unstable @ start, rounding


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), strength=st.floats(0.2, 0.8))
def test_linear_graph_is_the_stable_subspace_property(seed, strength):
    # spectrum near the circle on both sides, so the certified horizon is
    # above the 32-row floor: eta there is within ||Q|| SERIES_TOL |xi| of
    # the exact graph
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    inside = rng.uniform(0.85, 0.97, int(rng.integers(1, d)))
    a = matrix_with_moduli(rng, np.concatenate([inside, rng.uniform(1.03, 1.3, d - inside.size)]), 0.3)
    b = random_vector(rng, d * d).reshape(d, d)
    b *= strength / (np.linalg.norm(b, 2) * circle_sup_resolvent(a, 1.0))
    prob = ManifoldProblem(a, linear_map(b), fp_tol=1e-15, max_iter=5000)
    with pytest.raises(PreconditionViolation, match=f"below the certified {prob.horizon} rows"):
        ManifoldProblem(a, linear_map(b), horizon=prob.horizon - 1)
    xi = prob.split.proj_stable @ random_vector(rng, d)
    want, rounding = linear_graph(a, b, xi, prob.split)
    assert np.linalg.norm(want) > 1e-4 * np.linalg.norm(xi)
    q_norm = np.linalg.norm(prob.split.proj_unstable, 2)
    error = np.linalg.norm(lp_fixed_point(prob, xi).eta - want)
    assert error <= q_norm * SERIES_TOL * np.linalg.norm(xi) + rounding


def test_construction_evaluates_fewer_nodes_than_three_suprema(monkeypatch):
    # the benchmark's d = 32 shape: the gate at 1 reads no value and the
    # horizon only an integer, so construction, with three brackets, stops
    # short of the 155 nodes that full suprema at 1, mu and nu take here
    rng = np.random.default_rng(79)
    moduli = np.concatenate([0.3 + 0.4 * (np.arange(16) + 0.5) / 16, 1.5 + (np.arange(16) + 0.5) / 16])
    a = matrix_with_moduli(rng, moduli, shear=0.5 / np.sqrt(32))
    nodes = counted_sigma_min(monkeypatch)
    prob = ManifoldProblem(a, saturation_map(0.002), fp_tol=1e-12)
    assert prob.horizon == 39 and sum(nodes) <= 100
    nodes.clear()
    full = [circle_sup_resolvent(a, r) for r in (1.0, prob.mu, prob.nu)]
    assert sum(nodes) >= 150
    assert [prob.m_one, prob.m_mu, prob.m_nu] == full


@pytest.mark.parametrize(
    "kernel",
    [saturation_map(0.01, forcing=zero_sequence(3)), linear_map(0.01 * np.eye(3))],
    ids=["forcing", "matrix"],
)
def test_stencil_of_another_dimension_is_refused_at_construction(kernel):
    # a stencil that cannot act on A's state space is no problem to sweep
    with pytest.raises(DimensionMismatch, match="acts on dimension 3, the state has dimension 2"):
        ManifoldProblem(BoundedOperator(np.diag([0.5, 2.0])), kernel)


@pytest.mark.parametrize(
    "kernel",
    [linear_map(0.05 * np.array([[1.0, 0.4], [0.3, -0.8]])), polynomial_map([0.05, 0.2], 0.5)],
    ids=["linear", "polynomial_clipped"],
)
def test_stacked_sweep_kernels_match_one_row_sweeps(kernel):
    prob = ManifoldProblem(BoundedOperator(np.diag([0.5, 2.0])), kernel, fp_tol=1e-12)
    grid = [np.array([t, 0.0]) for t in (-0.4, -0.1, 0.0, 0.2, 0.35)]
    rows = assert_rows_match_one_row_sweeps(prob, grid)
    assert all(row.error is None for row in rows)


@st.composite
def hyperbolic_sweeps(draw):
    dim = draw(st.integers(1, 4))
    n_in = draw(st.integers(1, dim))
    inside = draw(st.lists(st.floats(0.05, 0.8), min_size=n_in, max_size=n_in))
    outside = draw(st.lists(st.floats(1.2, 3.0), min_size=dim - n_in, max_size=dim - n_in))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = draw(st.integers(1, 6))
    return np.array(inside + outside), seed, rows


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=hyperbolic_sweeps())
def test_stacked_rows_equal_one_row_sweeps_property(case):
    moduli, seed, n_rows = case
    rng = np.random.default_rng(seed)
    a = matrix_with_moduli(rng, moduli, shear=0.2)
    prob = ManifoldProblem(a, saturation_map(0.2 / circle_sup_resolvent(a, 1.0)), fp_tol=1e-12)
    grid = [0.5 * prob.split.proj_stable @ random_vector(rng, a.dim) for _ in range(n_rows)]
    assert_rows_match_one_row_sweeps(prob, grid)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=hyperbolic_sweeps(), strength=st.sampled_from([0.2, 0.6, 0.9, 0.99]))
def test_hyperbolic_horizons_never_grow_property(case, strength):
    # saturations up to 0.99 of the smaller bound of the two gates, where
    # the unstable spectrum can be near the first weight nu
    moduli, seed, _ = case
    a = matrix_with_moduli(np.random.default_rng(seed), moduli, shear=0.2)
    rho = float(np.max(moduli)) + 0.5
    peak = max(circle_sup_resolvent(a, 1.0), circle_sup_resolvent(a, rho))
    assert_no_longer_than_one_weight(a, strength / peak)


@pytest.mark.parametrize("seed, horizon", [(18, 156), (54, 194)])
def test_near_saturation_keeps_the_single_weight_horizon(seed, horizon):
    # at q_1 = 0.99 the walk over nu stops a row above the single-weight
    # horizon, so the certificate keeps nu = 1 and that horizon
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    n_in = int(rng.integers(1, dim + 1))
    moduli = np.concatenate([rng.uniform(0.05, 0.8, n_in), rng.uniform(1.2, 3.0, dim - n_in)])
    a = matrix_with_moduli(rng, moduli, shear=rng.uniform(0.2, 1.0))
    eps = 0.99 / circle_sup_resolvent(a, 1.0)
    prob = ManifoldProblem(a, saturation_map(eps))
    assert single_weight_horizon(a, eps) == horizon
    assert (prob.nu, prob.horizon) == (1.0, horizon)
    assert prob.m_nu == prob.m_one
    lip = saturation_map(eps).lip_bound(1.0)
    sup = functools.cache(lambda w: circle_sup_resolvent(a, w))
    at_mu = weight_horizon(lip, sup)
    nu_start = (1.0 / prob.split.r_outside_inv) ** 0.875
    walked = weight_walk(nu_start, lip, sup, lambda w: at_mu(prob.mu, w))
    assert walked[0] > 1.0 and walked[1] == horizon + 1


def test_sweep_block_runs_in_at_most_five_stacked_arrays():
    # the benchmark's d = 32 shape: horizon 39, blocks of 25 columns.  The
    # LP steps, the certificates and the orbit check of a block share one
    # workspace, and a finished block's rows keep no orbits, so the whole
    # sweep of two blocks peaks at the memory of one
    rng = np.random.default_rng(79)
    moduli = np.concatenate([0.3 + 0.4 * (np.arange(16) + 0.5) / 16, 1.5 + (np.arange(16) + 0.5) / 16])
    a = matrix_with_moduli(rng, moduli, shear=0.5 / np.sqrt(32))
    prob = ManifoldProblem(a, saturation_map(0.002), fp_tol=1e-12)
    assert prob.horizon == 39
    block = 2**15 // ((prob.horizon + 1) * 32)
    assert block == 25
    grid = []
    for k in range(2 * block):  # sizes over six decades, so columns stop at different steps
        xi = prob.split.proj_stable @ random_vector(rng, 32)
        grid.append(10.0 ** -(k % 6) * xi / np.linalg.norm(xi))
    stacked_array = (prob.horizon + 1) * block * 32 * 16
    manifold_sweep(prob, grid[:block])  # first calls fill numpy's caches
    tracemalloc.start()
    try:
        rows = manifold_sweep(prob, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(row.error is None for row in rows)
    assert len({row.iterations for row in rows}) > 1  # columns drop out of their blocks
    assert peak <= 5 * stacked_array
