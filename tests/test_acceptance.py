"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything is seeded and deterministic; the whole module runs
at desk scale (d <= 8, windows <= 256).
"""

import math

import numpy as np
import pytest

from specseq import (
    BoundedOperator,
    ManifoldProblem,
    ResolventPlan,
    Weight,
    apply_resolvent_split,
    causality_probe,
    equation_residual,
    impulse,
    linear_map,
    lp_fixed_point,
    manifold_sweep,
    multiplication_equiv_check,
    operator_norm,
    parseval_check,
    riesz_split,
    saturation_map,
    shift,
    solve_contraction,
    solve_ivp,
    solve_ivp_all,
    spectral_radius,
    stability_classify,
    support_subset_geq,
    weighted_norm,
    zero_map,
)
from test_manifold import brute_force_characterization
from testutil import matrix_with_moduli, random_sequence, random_vector


def _pass(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_c01_shift_norm_exactness():
    rng = np.random.default_rng(101)
    rhos = (0.5, 1.0, 2.0)
    ps = (1.0, 2.0, math.inf)
    for trial in range(100):
        dim = int(rng.integers(1, 5))
        lo = int(rng.integers(-20, 10))
        u = random_sequence(rng, dim, lo, lo + int(rng.integers(1, 24)))
        rho = rhos[trial % 3]
        p = ps[(trial // 3) % 3]
        n = int(rng.integers(-5, 6))
        base = weighted_norm(u, Weight(rho, p))
        shifted = weighted_norm(shift(u, n), Weight(rho, p))
        assert abs(shifted - rho**n * base) <= 1e-12 * rho**n * base
    _pass(1, "shift-norm exactness")


def test_c02_ztransform_unitarity_and_intertwining():
    rng = np.random.default_rng(102)
    rhos = (0.5, 1.0, 2.0)
    for trial in range(100):
        dim = int(rng.integers(1, 9))
        lo = int(rng.integers(-24, 8))
        width = int(rng.integers(1, 65))
        rho = rhos[trial % 3]
        u = random_sequence(rng, dim, lo, lo + width - 1)
        u = u.scale(1.0 / weighted_norm(u, Weight(rho, 2.0)))
        lhs, rhs = parseval_check(u, rho)
        assert abs(lhs - rhs) <= 1e-10 * rhs
        assert multiplication_equiv_check(u, rho) <= 1e-10
    _pass(2, "Z-transform unitarity and intertwining")


def test_c03_causality_dichotomy():
    rng = np.random.default_rng(103)
    for trial in range(50):
        dim = int(rng.integers(1, 7))
        rho = float(rng.uniform(0.5, 2.0))
        if trial % 2 == 0:
            moduli = rng.uniform(0.05, max(0.06, rho - 0.1), dim)
            moduli = np.minimum(moduli, rho - 0.1)
        else:
            moduli = rng.uniform(0.05, rho + 1.4, dim)
            moduli[int(rng.integers(0, dim))] = rng.uniform(rho + 0.1, rho + 1.4)
        # keep the spectral gap at the probe circle at least 0.1
        too_close = np.abs(moduli - rho) < 0.1
        moduli[too_close] = rho + np.where(moduli[too_close] >= rho, 0.12, -0.12)
        moduli = np.abs(moduli)
        a = matrix_with_moduli(rng, moduli, shear=0.15)
        verdict, _ = causality_probe(a, rho, random_vector(rng, dim))
        assert verdict == (rho > spectral_radius(a))
    _pass(3, "causality dichotomy")


def test_c04_ivp_three_way_equivalence():
    rng = np.random.default_rng(104)
    for _ in range(25):
        dim = int(rng.integers(1, 5))
        moduli = rng.uniform(0.2, 1.4, dim)
        a = matrix_with_moduli(rng, moduli, shear=0.2)
        rho = spectral_radius(a) + float(rng.uniform(0.4, 0.7))
        from specseq import circle_sup_resolvent

        m_rho = circle_sup_resolvent(a, rho, samples=512)
        eps = min(0.4 / m_rho, 0.2)
        f = saturation_map(eps)
        x = random_vector(rng, dim)
        sols, devs = solve_ivp_all(a, f, x, 64, rho=rho, fp_tol=1e-12)
        for dev in devs.values():
            assert dev <= 1e-8
        assert support_subset_geq(sols["impulse"], 0)
    _pass(4, "IVP three-way equivalence")


def test_c05_linear_closed_form():
    rng = np.random.default_rng(105)
    # matrix case: impulse solution for F = 0 is A^n x on Z_{>=0}
    for _ in range(10):
        dim = int(rng.integers(1, 5))
        a = matrix_with_moduli(rng, rng.uniform(0.2, 0.85, dim), shear=0.2)
        x = random_vector(rng, dim)
        u = solve_ivp(a, zero_map(), x, 64, "impulse", rho=1.0, fp_tol=1e-12)
        power = x.copy()
        for n in range(0, 65):
            assert np.linalg.norm(u.at(n) - power) <= 1e-10
            power = a.entries @ power
        assert support_subset_geq(u, 0)
    # scalar selection: rho above |a| picks the causal branch a^n x,
    # rho below |a| picks the anticausal branch -a^n x on Z_{<= -1}
    a_val, x_val = 1.6, 1.0
    a = BoundedOperator([[a_val]])
    u_causal = solve_ivp(a, zero_map(), [x_val], 30, "impulse", rho=2.0, fp_tol=1e-12)
    for n in range(0, 31):
        assert abs(u_causal.at(n)[0] - a_val**n * x_val) <= 1e-10 * max(1.0, a_val**n)
    u_anti = apply_resolvent_split(ResolventPlan(a, 1.0, "split"), impulse(-1, [x_val]))
    for n in range(0, 5):
        assert np.linalg.norm(u_anti.at(n)) <= 1e-10
    for n in range(-1, -20, -1):
        assert abs(u_anti.at(n)[0] - (-(a_val**n) * x_val)) <= 1e-10
    _pass(5, "linear closed form and scalar selection")


def test_c06_riesz_suite():
    rng = np.random.default_rng(106)
    eye_defect = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        n_in = int(rng.integers(1, dim))
        moduli = np.concatenate(
            [rng.uniform(0.2, 0.8, n_in), rng.uniform(1.25, 2.6, dim - n_in)]
        )
        a = matrix_with_moduli(rng, moduli, shear=0.2)
        split = riesz_split(a, 1.0)
        p, q = split.proj_stable, split.proj_unstable
        assert operator_norm(p @ p - p) <= 1e-8
        assert operator_norm(p @ a.entries - a.entries @ p) <= 1e-8
        assert operator_norm(p + q - np.eye(dim)) <= 1e-8
        # radius independence across the spectrum-free annulus around S_1
        lo_gamma = float(np.max(moduli[moduli < 1.0])) + 0.05
        hi_gamma = float(np.min(moduli[moduli > 1.0])) - 0.05
        p_lo = riesz_split(a, lo_gamma).proj_stable
        p_hi = riesz_split(a, hi_gamma).proj_stable
        assert operator_norm(p_lo - p_hi) <= 1e-8
        # split-resolvent residual
        plan = ResolventPlan(a, 1.0, "split")
        f = random_sequence(rng, dim, -4, 4)
        f = f.scale(1.0 / weighted_norm(f, Weight(1.0, 2.0)))
        u = apply_resolvent_split(plan, f)
        assert equation_residual(u, a, f, 1.0) <= 1e-8
        eye_defect = max(eye_defect, operator_norm(p @ p - p))
    _pass(6, "Riesz projection suite")


def test_c07_stability_equivalences():
    rng = np.random.default_rng(107)
    for trial in range(50):
        dim = int(rng.integers(1, 7))
        if trial % 2 == 0:
            moduli = rng.uniform(0.1, 0.9, dim)
        else:
            moduli = rng.uniform(0.2, 2.5, dim)
            moduli[int(rng.integers(0, dim))] = rng.uniform(1.1, 2.5)
            moduli = np.where(np.abs(moduli - 1.0) < 0.1, 1.15, moduli)
        a = matrix_with_moduli(rng, moduli, shear=0.2)
        report = stability_classify(a, seed=trial)
        assert (report.verdict == "exponentially_stable") == (report.r < 1.0)
        assert report.probes_consistent
        if report.verdict == "exponentially_stable":
            assert report.rho_star == pytest.approx((1.0 + report.r) / 2.0)
    _pass(7, "stability equivalences")


@pytest.fixture(scope="module")
def desk_problem():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    return ManifoldProblem(a, saturation_map(0.01), fp_tol=1e-14)


XI_GRID = (-0.2, -0.1, 0.05, 0.1, 0.2)


def test_c08_lyapunov_perron_characterization(desk_problem):
    for t in XI_GRID:
        xi = np.array([t, 0.0])
        point = lp_fixed_point(desk_problem, xi)
        defect_p, defect_q = brute_force_characterization(desk_problem, xi, point.orbit)
        assert defect_p <= 1e-8
        assert defect_q <= 1e-8
    _pass(8, "Lyapunov-Perron characterization")


def test_c09_stable_manifold_behavior(desk_problem):
    prob = desk_problem
    unstable_dir = np.array([0.0, 1.0])
    for t in XI_GRID:
        xi = np.array([t, 0.0])
        rows = manifold_sweep(prob, [xi])
        assert rows[0].error is None
        x = xi + rows[0].eta
        fwd = solve_ivp(prob.A, prob.F, x, 100, "recursion")
        start = np.linalg.norm(x)
        decayed = any(
            np.linalg.norm(fwd.at(n)) <= 1e-6 * start for n in range(1, 101)
        )
        assert decayed
        x_off = x + 1e-3 * unstable_dir
        fwd_off = solve_ivp(prob.A, prob.F, x_off, 40, "recursion")
        start_off = np.linalg.norm(x_off)
        grew = any(np.linalg.norm(fwd_off.at(n)) > 10.0 * start_off for n in range(1, 41))
        assert grew
    _pass(9, "stable-manifold decay and escape")


def test_c10_contraction_rates(desk_problem):
    rng = np.random.default_rng(110)
    # solver side: linear kernels across a range of contraction factors
    for _ in range(8):
        dim = int(rng.integers(1, 4))
        rho = float(rng.uniform(0.8, 1.8))
        target = float(rng.uniform(0.3, 0.8)) * rho
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b *= target / operator_norm(b)
        f = linear_map(b, forcing=impulse(-1, random_vector(rng, dim)))
        report = solve_contraction(f, Weight(rho, 2.0), (-3, 60), fp_tol=1e-11)
        assert report.converged
        assert report.contraction_estimate <= target / rho + 0.05
    # manifold side: saturation kernels with sizable contraction factors
    built = 0
    attempt = 0
    while built < 5 and attempt < 60:
        attempt += 1
        gen = np.random.default_rng(1000 + attempt)
        dim = int(gen.integers(2, 5))
        n_in = int(gen.integers(1, dim))
        moduli = np.concatenate(
            [gen.uniform(0.3, 0.8, n_in), gen.uniform(1.3, 2.2, dim - n_in)]
        )
        a = matrix_with_moduli(gen, moduli, shear=0.1)
        try:
            from specseq import circle_sup_resolvent

            m_one = circle_sup_resolvent(a, 1.0, samples=1024)
            kappa_target = float(gen.uniform(0.3, 0.7))
            prob = ManifoldProblem(a, saturation_map(kappa_target / m_one), fp_tol=1e-11)
        except Exception:
            continue
        built += 1
        split = prob.split
        xi = split.proj_stable @ random_vector(gen, dim) * 0.1
        point = lp_fixed_point(prob, xi)
        assert point.contraction_estimate <= prob.contraction_factor + 0.05
    assert built == 5
    point = lp_fixed_point(desk_problem, np.array([0.2, 0.0]))
    assert point.contraction_estimate <= desk_problem.contraction_factor + 0.05
    _pass(10, "contraction rates")
