import numpy as np
import pytest

from specseq import (
    BoundedOperator,
    NotCausalRegime,
    PreconditionViolation,
    ResolventPlan,
    SpectrumOnCircle,
    Weight,
    apply_resolvent_causal,
    apply_resolvent_frequency,
    apply_resolvent_split,
    causality_probe,
    circle_sup_resolvent,
    equation_residual,
    impulse,
    max_abs_diff,
    spectral_radius,
    support,
    support_subset_geq,
    weighted_norm,
    zero_sequence,
)
from specseq import resolvent
from specseq.resolvent import linear_recurrence
from testutil import matrix_with_moduli, random_sequence, random_vector

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
    # cap; ||A^K|| >= r(A)^K settles that before any power step
    calls = []
    norm = resolvent.operator_norm
    monkeypatch.setattr(resolvent, "operator_norm", lambda m: calls.append(1) or norm(m))
    with pytest.raises(PreconditionViolation):
        ResolventPlan(BoundedOperator.diagonal([0.9, 0.5]), 0.9001, "causal")
    assert calls == []
    # a nilpotent A (r(A) = 0) still takes the step search
    assert ResolventPlan(BoundedOperator([[0.0, 1.0], [0.0, 0.0]]), 0.5, "causal").tail_cut == 2
    assert len(calls) == 2


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
    with pytest.raises(SpectrumOnCircle):
        ResolventPlan(BoundedOperator([[1.0]]), 1.0, "frequency")


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
