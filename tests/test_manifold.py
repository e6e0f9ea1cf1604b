import numpy as np
import pytest

from specseq import (
    AdmissibilityError,
    BoundedOperator,
    ManifoldProblem,
    PreconditionViolation,
    RangeViolation,
    Weight,
    impulse,
    implicit_euler_map,
    linear_map,
    lp_apply,
    lp_fixed_point,
    manifold_sweep,
    saturation_map,
    solve_ivp,
    spectrum_escape_check,
    stable_manifold_point,
    weighted_norm,
    zero_map,
    zero_sequence,
)
from testutil import matrix_with_moduli, random_sequence


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
    # r(A) < 1: the stable range is everything and the graph map vanishes
    a = BoundedOperator(np.diag([0.5, 0.9]))
    prob = ManifoldProblem(a, saturation_map(0.05))
    assert prob.split.rank_unstable == 0
    eta, point = stable_manifold_point(prob, np.array([0.2, 0.3]))
    assert np.linalg.norm(eta) <= 1e-12
    tail = np.linalg.norm(point.orbit.at(prob.horizon))
    assert tail <= 1e-6 * np.linalg.norm(point.orbit.at(0))


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
        assert spectrum_escape_check(a, x, horizon=50)


def test_spectrum_escape_check_precondition():
    with pytest.raises(PreconditionViolation):
        spectrum_escape_check(BoundedOperator(np.diag([0.5, 2.0])), [1.0, 1.0])


def test_lp_contraction_estimate_reported(desk_problem):
    point = lp_fixed_point(desk_problem, np.array([0.2, 0.0]))
    assert point.contraction_estimate <= desk_problem.contraction_factor + 0.05
    assert 0.0 < point.decay_rate_estimate < 0.6
