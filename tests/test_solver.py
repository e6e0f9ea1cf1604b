import importlib
import pathlib
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq import (
    BoundedOperator,
    CausalityRequired,
    DimensionMismatch,
    IndeterminateStability,
    InputError,
    NoConvergence,
    NotContractive,
    ResolventPlan,
    StencilMap,
    Weight,
    WindowedSequence,
    apply_resolvent_causal,
    circle_sup_resolvent,
    impulse,
    implicit_euler_map,
    linear_map,
    operator_norm,
    polynomial_map,
    saturation_map,
    solve_contraction,
    solve_ivp,
    solve_ivp_all,
    spectral_radius,
    stability_classify,
    support,
    support_subset_geq,
    weighted_norm,
    zero_map,
    zero_sequence,
)
from specseq import resolvent
from specseq.cli import main
from specseq.operators import MAX_SUP_NODES, SUP_REL_TOL
from specseq.solver import _KERNELS, _causal_row, fixed_point, forward_orbit, smallness_gate
from specseq.workspace import Workspace
from testutil import (
    counted_sigma_min,
    matrix_with_moduli,
    max_abs_diff,
    random_sequence,
    random_vector,
)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_stencil_registry_validation():
    with pytest.raises(InputError):
        StencilMap("unknown")
    with pytest.raises(InputError):
        StencilMap("linear")
    with pytest.raises(InputError):
        StencilMap("scaled_bounded_saturation", {"eps": -1.0})
    with pytest.raises(InputError):
        StencilMap("polynomial_clipped", {"coeffs": [], "clip_radius": 1.0})
    with pytest.raises(InputError):
        StencilMap("implicit_euler", {"h": 0.1, "field": "nope"})
    # every refusal names its parameter: non-finite, boolean, text and
    # malformed values, which used to build a stencil with a NaN bound, or
    # escape as TypeError, ValueError or LinAlgError
    refused = [
        (lambda: linear_map([[np.nan]]), "stencil matrix "),
        (lambda: linear_map([[1.0, 2.0], [3.0]]), "stencil matrix "),
        (lambda: linear_map([["1"]]), "stencil matrix "),
        (lambda: polynomial_map([np.nan], 1.0), "stencil coeffs "),
        (lambda: polynomial_map([0.5, np.inf], 1.0), "stencil coeffs "),
        (lambda: polynomial_map(["0.5"], 1.0), "stencil coeffs "),
        (lambda: polynomial_map([0.5], 10**400), "stencil clip_radius "),
        (lambda: saturation_map(True), "stencil eps "),
        (lambda: saturation_map("0.1"), "stencil eps "),
        (lambda: saturation_map(np.inf), "stencil eps "),
        (lambda: implicit_euler_map(0.1, ["linear_decay"]), "stencil field "),
        (lambda: StencilMap("scaled_bounded_saturation"), "stencil eps "),
        (lambda: StencilMap("zero", [("eps", 1.0)]), "stencil params "),
        (lambda: StencilMap(["zero"]), "unknown kernel "),
    ]
    for make, prefix in refused:
        with pytest.raises(InputError, match=f"^{prefix}"):
            make()
    # numpy numbers and integral values are numbers
    assert saturation_map(np.float32(0.5)).params["eps"] == 0.5
    assert polynomial_map([np.int64(1)], 2).lip_bound(1.0) == 1.0


def test_stencil_lip_bounds():
    b = np.array([[0.3, 0.1], [0.0, 0.2]])
    assert linear_map(b).lip_bound(1.0) == pytest.approx(operator_norm(b))
    assert saturation_map(0.05).lip_bound(3.0) == pytest.approx(0.05)
    # implicit Euler bound grows with rho through the lookahead term
    ie = implicit_euler_map(0.1, "linear_decay")
    assert ie.lip_bound(2.0) == pytest.approx(1.0 + 0.1 * 2.0)
    assert not ie.causal
    poly = polynomial_map([0.2, 0.0, 0.1], clip_radius=2.0)
    assert poly.lip_bound(1.0) == pytest.approx(0.2 + 3 * 0.1 * 4.0)
    # R^2 overflows at R = 1e200: with a zero coefficient it adds 0, else
    # the bound is inf
    assert polynomial_map([0.1, 5.0, 0.0], 1e200).lip_bound(1.0) == 0.1 + 2 * 5.0 * 1e200
    assert polynomial_map([0.1, 5.0, 1.0], 1e200).lip_bound(1.0) == np.inf


def lipschitz_probe(F: StencilMap, w: Weight, trials: int = 32, dim: int = 1) -> float:
    """Empirical lower bound on the Lipschitz constant of F on ell_{p,rho}:
    the largest ``|F(u) - F(v)| / |u - v|`` over random pairs on the window
    ``[-6, 6]``, drawn from seed 0."""
    rng = np.random.default_rng(0)
    lo, hi = -6, 6
    best = 0.0
    for _ in range(trials):
        shape = (hi - lo + 1, dim)
        u = WindowedSequence(lo, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        v = WindowedSequence(lo, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        denom = weighted_norm(u - v, w)
        if denom == 0.0:
            continue
        best = max(best, weighted_norm(F.apply(u) - F.apply(v), w) / denom)
    return best


def test_lipschitz_probe_zero():
    assert lipschitz_probe(zero_map(forcing=zero_sequence(2)), Weight(1.0, 2.0), dim=2) == 0.0


def test_lipschitz_probe_linear_approaches_operator_norm():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((3, 3))
    f = linear_map(b)
    probe = lipschitz_probe(f, Weight(1.0, 2.0), trials=64, dim=3)
    assert probe <= operator_norm(b) * (1 + 1e-9)
    assert probe >= 0.5 * operator_norm(b)


def test_lipschitz_probe_saturation_below_declared():
    f = saturation_map(0.05)
    probe = lipschitz_probe(f, Weight(1.0, 2.0), trials=64, dim=2)
    assert probe <= 0.05 * (1 + 1e-9)


def test_empirical_lipschitz_within_declared_bound():
    # one example per registry kernel, the lookahead of implicit_euler
    # included, so a kernel added without one fails here
    rng = np.random.default_rng(1)
    maps = [
        zero_map(),
        linear_map(0.4 * rng.standard_normal((2, 2))),
        saturation_map(0.3),
        polynomial_map([0.1, 0.05], clip_radius=1.5),
        implicit_euler_map(0.2, "saturating_decay"),
    ]
    assert sorted(f.kernel for f in maps) == sorted(_KERNELS)
    for f in maps:
        for rho in (0.7, 1.0, 1.6):
            w = Weight(rho, 2.0)
            assert lipschitz_probe(f, w, trials=40, dim=2) <= f.lip_bound(rho) * 1.05


@pytest.mark.parametrize(
    "make",
    [
        lambda: linear_map(np.array([[0.2, 0.1], [0.05, 0.3]])),
        lambda: saturation_map(0.4),
        lambda: polynomial_map([0.2, 0.1], clip_radius=1.0),
    ],
)
def test_causal_kernels_preserve_support_inequality(make):
    # spt(u - v) in Z_{>=a} implies spt(F(u) - F(v)) in Z_{>=a}
    rng = np.random.default_rng(2)
    f = make()
    for _ in range(10):
        a = int(rng.integers(-3, 4))
        common = random_sequence(rng, 2, -6, 6)
        bump = random_sequence(rng, 2, a, a + 4)
        u, v = common + bump, common
        assert support_subset_geq(f.apply(u) - f.apply(v), a)


def test_solve_contraction_zero_map():
    report = solve_contraction(zero_map(), Weight(1.0, 2.0), (-4, 4), dim=2)
    assert report.iterations == 1
    assert report.solution.is_zero


def test_solve_contraction_linear_matches_resolvent():
    # tau u = B u + delta_{-1} x solved two ways
    rng = np.random.default_rng(3)
    b = rng.standard_normal((2, 2))
    b *= 0.5 / operator_norm(b)
    x = random_vector(rng, 2)
    f = linear_map(b, forcing=impulse(-1, x))
    rho = 1.0
    report = solve_contraction(f, Weight(rho, 2.0), (-4, 70))
    plan = ResolventPlan(BoundedOperator(b), rho, "causal")
    oracle = apply_resolvent_causal(plan, impulse(-1, x))
    assert max_abs_diff(report.solution, oracle) <= 1e-8
    assert report.contraction_estimate <= operator_norm(b) / rho + 0.05


def test_solve_contraction_implicit_euler_closed_form():
    # u_{n+1} = u_n + h (-u_{n+1}) + delta_{-1,n} x gives u_n = x / 1.1^(n+1);
    # pointwise errors scale like fp_tol * rho^n in the solve norm
    x = 1.0
    w = Weight(2.0, 2.0)
    f = implicit_euler_map(0.1, "linear_decay", forcing=impulse(-1, [x]))
    report = solve_contraction(f, w, (-4, 60), fp_tol=1e-13)
    for n in range(0, 25):
        assert report.solution.at(n)[0].real == pytest.approx(x / 1.1 ** (n + 1), rel=1e-8)
    for n in range(-4, 0):
        assert np.linalg.norm(report.solution.at(n)) <= 1e-10
    oracle = WindowedSequence(0, [[x / 1.1 ** (n + 1)] for n in range(0, 61)])
    assert weighted_norm(report.solution - oracle, w) <= 1e-10
    assert report.contraction_estimate <= (1.0 + 0.1 * 2.0) / 2.0 + 0.05


def test_stencil_dimension_is_checked_once_at_each_entry():
    # the matrix or the forcing fixes the dimension; a matrix and a forcing
    # that disagree are refused at construction
    assert linear_map(np.eye(3)).dim == 3
    assert saturation_map(0.1, forcing=zero_sequence(2)).dim == 2
    assert saturation_map(0.1).dim is None
    with pytest.raises(DimensionMismatch):
        linear_map(0.1 * np.eye(2), forcing=impulse(-1, [1.0, 0.0, 0.0]))
    f = saturation_map(0.1, forcing=impulse(0, [1.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        f.apply(impulse(0, [1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        solve_contraction(f, Weight(1.0, 2.0), (-2, 8), dim=2)
    with pytest.raises(DimensionMismatch):
        solve_ivp(BoundedOperator(np.diag([0.5, 0.2])), f, [1.0, 0.0], 8)
    assert solve_contraction(f, Weight(1.0, 2.0), (-2, 8)).solution.dim == 3
    with pytest.raises(InputError, match="cannot infer state dimension"):
        solve_contraction(saturation_map(0.1), Weight(1.0, 2.0), (-2, 8))


def test_solve_contraction_rejects_supercritical_lipschitz():
    with pytest.raises(NotContractive):
        solve_contraction(linear_map(np.eye(2) * 2.0), Weight(1.0, 2.0), (-2, 2))
    with pytest.raises(NotContractive):
        solve_contraction(polynomial_map([0.1, 0.0, 1.0], 1e200), Weight(2.0, 2.0), (0, 5), dim=1)
    # a NaN bound, which construction no longer lets through, is refused too
    f = saturation_map(0.1)
    f.params["eps"] = np.nan
    with pytest.raises(NotContractive):
        solve_contraction(f, Weight(1.0, 2.0), (0, 4), dim=1)


def test_solve_contraction_no_convergence_and_iteration_limits():
    f = linear_map(np.array([[0.9]]), forcing=impulse(-1, [1.0]))
    with pytest.raises(NoConvergence):
        solve_contraction(f, Weight(1.0, 2.0), (-2, 40), max_iter=3)
    with pytest.raises(InputError):
        solve_contraction(f, Weight(1.0, 2.0), (-2, 40), max_iter=0)
    with pytest.raises(InputError):
        solve_contraction(f, Weight(1.0, 2.0), (-2, 40), fp_tol=float("nan"))
    # a fractional window end or horizon, which used to be truncated
    with pytest.raises(InputError, match="^window lo must be an integer"):
        solve_contraction(f, Weight(1.0, 2.0), (-2.5, 40))
    with pytest.raises(InputError, match="^horizon must be an integer"):
        solve_ivp(BoundedOperator([[0.5]]), zero_map(), [1.0], 8.5)
    whole = solve_contraction(f, Weight(1.0, 2.0), (-2, 40)).solution
    assert (solve_contraction(f, Weight(1.0, 2.0), (-2.0, 40.0)).solution - whole).is_zero


def test_solve_ivp_linear_closed_form():
    rng = np.random.default_rng(4)
    a = matrix_with_moduli(rng, np.array([0.5, 0.8]), shear=0.2)
    x = random_vector(rng, 2)
    for method in ("recursion", "variation_of_constants", "impulse"):
        u = solve_ivp(a, zero_map(), x, 40, method, rho=1.2)
        power = x.copy()
        for n in range(0, 41):
            assert np.linalg.norm(u.at(n) - power) <= 1e-10
            power = a.entries @ power
        assert support_subset_geq(u, 0)


def test_solve_ivp_impulse_scalar_selection():
    # scalar equation with rho > |a|: the unique weighted solution is the
    # causal branch a^n x
    a_val, x = 1.6, 1.0
    u = solve_ivp(BoundedOperator([[a_val]]), zero_map(), [x], 24, "impulse", rho=2.0)
    assert support(u)[0] == 0
    for n in range(0, 25):
        assert u.at(n)[0] == pytest.approx(a_val**n * x, rel=1e-10)


def test_solve_ivp_three_methods_agree_nonlinear():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    f = saturation_map(0.01)
    x = np.array([0.3, 0.1])
    sols, devs = solve_ivp_all(a, f, x, 64, rho=2.5, fp_tol=1e-12)
    for dev in devs.values():
        assert dev <= 1e-8
    assert support_subset_geq(sols["impulse"], 0)


def test_solve_ivp_requires_causal_stencil():
    with pytest.raises(CausalityRequired):
        solve_ivp(BoundedOperator([[0.5]]), implicit_euler_map(0.1, "linear_decay"), [1.0], 10)


def test_solve_ivp_impulse_smallness_guard():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    m_rho = circle_sup_resolvent(a, 2.5)
    with pytest.raises(NotContractive):
        solve_ivp(a, saturation_map(2.0 / m_rho), [0.1, 0.1], 10, "impulse", rho=2.5)


def test_solve_ivp_impulse_smallness_sees_resolvent_peak_between_nodes():
    # eigenvalue 1e-3 inside |z| = 2, halfway between nodes 17 and 18 of 512:
    # sup ||(z - A)^(-1)|| is about 2.9e4, a 512-node sample reads 2.4e3, and
    # lip 1e-4 lies between the two reciprocals
    theta = 2 * np.pi * 17.5 / 512
    a = BoundedOperator([[1.999 * np.exp(1j * theta), 50.0], [0.0, 0.3]])
    with pytest.raises(NotContractive):
        solve_ivp(a, saturation_map(1e-4), [1.0, 0.0], 10, "impulse", rho=2.0)


@pytest.mark.parametrize("seed", range(8))
def test_smallness_gate_verdict_is_the_full_supremum_verdict_outside_the_band(seed):
    # the gate stops once its bracket decides lip < 1/M_rho; with lip off
    # [1/M, (1 + SUP_REL_TOL)/M) for the full-tolerance M, where the full
    # verdict is also the true one, the two verdicts agree
    rng = np.random.default_rng([21, seed])
    dim = int(rng.integers(2, 9))
    a = matrix_with_moduli(rng, rng.uniform(0.2, 2.0, dim), shear=rng.uniform(0.0, 2.0) * 2 / dim)
    for rho in (1.0, spectral_radius(a) + 0.5, spectral_radius(a) + 1e-3):
        m_rho = circle_sup_resolvent(a, rho)
        for factor in (0.1, 0.9, 0.9999, 1.0 + 1.01 * SUP_REL_TOL, 1.1, 10.0):
            F = saturation_map(factor / m_rho)
            if factor < 1.0:
                assert smallness_gate(a, F, rho, NotContractive) == factor / m_rho
            else:
                with pytest.raises(NotContractive, match=f"1/M_{rho:g}, which lies in ") as info:
                    smallness_gate(a, F, rho, NotContractive)
                assert in_printed_interval(1.0 / m_rho, info.value)


def in_printed_interval(value, exc):
    """Whether ``value``, printed as the gate prints, lies in the interval a
    failed gate's message names (rounding to 6 digits keeps the order)."""
    low, high = map(float, re.search(r"lies in \[(\S+), (\S+)\]", str(exc)).groups())
    return low <= float(f"{value:.6g}") <= high


def gate_operators():
    """The bench-like d = 32 operator, whose M_1 takes 77 nodes, and 3N at
    d = 8, whose flat sigma_min takes the node cap."""
    spaced = (np.arange(16) + 0.5) / 16
    moduli = np.concatenate([0.3 + 0.4 * spaced, 1.5 + spaced])
    bench_like = matrix_with_moduli(np.random.default_rng([7, 0]), moduli, shear=0.5 / np.sqrt(32))
    return bench_like, BoundedOperator(3.0 * np.eye(8, k=1))


def test_smallness_gate_in_the_band_evaluates_the_full_supremum_once(monkeypatch):
    # inside the band the gate waits for the full supremum, and its rounds
    # are circle_sup_resolvent's: the bench-like d = 32 operator at |z| = 1
    # takes 77 nodes, and 3N at d = 8, whose sigma_min is flat, the node cap
    nodes = counted_sigma_min(monkeypatch)
    bench_like, jordan = gate_operators()
    for a, factor, want in ((bench_like, 1.0001, 77), (jordan, 1.0005, MAX_SUP_NODES)):
        nodes.clear()
        m_one = circle_sup_resolvent(a, 1.0)
        assert sum(nodes) == want
        nodes.clear()
        finished = re.escape(f"1/M_1, which lies in [{1.0 / m_one:.6g}, ")
        with pytest.raises(NotContractive, match=finished):
            smallness_gate(a, saturation_map(factor / m_one), 1.0, NotContractive)
        assert sum(nodes) == want


def test_failed_smallness_gate_stops_at_its_bracket(monkeypatch):
    # lip = 2/M_1 is refuted on the 16-node start grid: the message names the
    # interval the bracket holds 1/M_1 in, and no node past that grid is taken
    nodes = counted_sigma_min(monkeypatch)
    for a in gate_operators():
        m_one = circle_sup_resolvent(a, 1.0)
        nodes.clear()
        with pytest.raises(NotContractive, match="1/M_1, which lies in ") as info:
            smallness_gate(a, saturation_map(2.0 / m_one), 1.0, NotContractive)
        assert nodes == [16]
        assert in_printed_interval(1.0 / m_one, info.value)


@pytest.mark.parametrize("d", [2, 8, 32])
def test_bench_solve_ivp_gates_decide_on_the_start_grid(d, tmp_path, monkeypatch):
    # the benchmark's solve-ivp jobs at seed 7, streams 0 to 2: the impulse
    # gate at rho = r(A) + 1 decides on the 16-node start grid
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    nodes = counted_sigma_min(monkeypatch)
    for stream in range(3):
        job = workloads.make_pass("ivp-solve", 7, stream, d, str(tmp_path / str(stream)))[0]
        assert job.kind == "solve-ivp"
        nodes.clear()
        assert main(job.argv + ["--out", str(tmp_path / f"{stream}.json")]) == 0
        assert nodes == [16]


def test_solve_ivp_impulse_gate_message_names_rho():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    with pytest.raises(NotContractive, match=r"1/M_2\.5, which lies in \[\S+, \S+\] at rho = 2\.5"):
        solve_ivp(a, saturation_map(1.0), [0.1, 0.1], 10, "impulse", rho=2.5)


def test_solve_ivp_forced_three_methods_agree():
    # forcing on Z_{>=0} makes F(0) nonzero: the impulse iteration starts
    # from A^n x, not from the image of F(0), and still meets the recursion
    rng = np.random.default_rng(8)
    a = matrix_with_moduli(rng, [0.5, 0.9], shear=0.4)
    forcing = WindowedSequence(0, 0.1 * rng.standard_normal((6, 2)))
    f = saturation_map(0.01, forcing=forcing)
    sols, devs = solve_ivp_all(a, f, np.array([0.3, 0.1]), 40, rho=1.2, fp_tol=1e-12)
    assert max(devs.values()) <= 1e-8
    assert max_abs_diff(sols["impulse"], sols["recursion"]) <= 1e-8
    assert not sols["recursion"].is_zero


@st.composite
def ivp_cases(draw):
    dim = draw(st.integers(1, 8))
    moduli = draw(st.lists(st.floats(0.2, 1.8), min_size=dim, max_size=dim))
    shear = draw(st.floats(0.0, 1.0))
    horizon = draw(st.integers(20, 150))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.array(moduli), shear, horizon, seed


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=ivp_cases())
def test_ivp_formulations_agree_row_by_row_property(forced, case):
    # the impulse fixed point on ell_{2,rho} (default rho = r(A) + 1) is the
    # forward orbit on every row of [0, horizon], also where the data of the
    # impulse map, x and the forcing, end long before the horizon
    moduli, shear, horizon, seed = case
    rng = np.random.default_rng(seed)
    a = matrix_with_moduli(rng, moduli, shear=shear)
    x = random_vector(rng, a.dim)
    f = zero_map(WindowedSequence(0, rng.standard_normal((5, a.dim))) if forced else None)
    want = solve_ivp(a, f, x, horizon, "recursion").dense(0, horizon)
    scale = np.linalg.norm(want, axis=1)
    assert np.all(scale > 0.0)
    for method in ("variation_of_constants", "impulse"):
        got = solve_ivp(a, f, x, horizon, method).dense(0, horizon)
        assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-10 * scale), method


def test_solve_ivp_forcing_must_be_one_sided():
    f = zero_map(forcing=impulse(-3, [1.0]))
    with pytest.raises(InputError):
        solve_ivp(BoundedOperator([[0.5]]), f, [1.0], 10)


def test_stability_classify_examples():
    stable = stability_classify(BoundedOperator(np.diag([0.9, 0.5])))
    assert stable.verdict == "exponentially_stable"
    assert stable.r == pytest.approx(0.9)
    assert stable.rho_star == pytest.approx(0.95)
    assert stable.probes_consistent

    unstable = stability_classify(BoundedOperator([[2.0]]))
    assert unstable.verdict == "not_stable"
    assert unstable.r == pytest.approx(2.0)
    assert unstable.rho_star is None
    assert unstable.probes_consistent

    nilpotent = stability_classify(BoundedOperator([[0.0, 1.0], [0.0, 0.0]]))
    assert nilpotent.verdict == "exponentially_stable"
    assert nilpotent.r == pytest.approx(0.0)


def test_stability_classify_indeterminate_near_one():
    with pytest.raises(IndeterminateStability):
        stability_classify(BoundedOperator([[1.0]]))


def test_stability_probe_bound_is_finite_envelope():
    rng = np.random.default_rng(6)
    a = matrix_with_moduli(rng, np.array([0.6, 0.85]), shear=0.3)
    report = stability_classify(a)
    # |u_n| <= M rho_star^n holds with the reported envelope constant
    x = random_vector(rng, 2)
    y = x.copy()
    for n in range(2000):
        assert np.linalg.norm(y) <= report.probe_bound * report.rho_star**n
        y = a.entries @ y


def _scaled_power_norms(a, rho_star, steps):
    # ||A^n|| rho_star^{-n} for n = 0 .. steps - 1, one batched SVD
    powers = np.empty((steps, a.dim, a.dim), dtype=np.complex128)
    power = np.eye(a.dim, dtype=np.complex128)
    for n in range(steps):
        powers[n] = power
        power = power @ a.entries
    norms = np.linalg.svd(powers, compute_uv=False)[:, 0]
    return norms * rho_star ** -np.arange(steps, dtype=np.float64)


def test_stability_unstable_verdict_is_certified_at_once():
    # growth by 10x from the radius 1.00001 takes about 2.3e5 steps, past
    # any orbit probe; the eigenvalue of largest modulus is the witness
    start = time.perf_counter()
    report = stability_classify(BoundedOperator.diagonal([1.00001, 0.5]))
    assert time.perf_counter() - start < 0.5
    assert report.verdict == "not_stable"
    assert report.probes_consistent
    assert report.probe_bound == 0.0


def test_stability_envelope_covers_jordan_transient():
    # ||A^n|| rho_star^{-n} climbs to about 3.7e4 near n = 2000 before it decays
    a = BoundedOperator([[0.999, 50.0], [0.0, 0.999]])
    report = stability_classify(a)
    assert report.verdict == "exponentially_stable"
    assert report.probes_consistent
    scaled = _scaled_power_norms(a, report.rho_star, 60000)
    # the envelope holds at every step, and is the scan's peak up to rounding
    assert float(np.max(scaled)) <= report.probe_bound <= (1.0 + 1e-6) * float(np.max(scaled))


def test_stability_certificate_past_cap_fails_fast(monkeypatch):
    # r = 1 - 2e-6 passes GAP_TOL, but ||A^K|| <= rho_star^K / 2 needs
    # about 6.9e5 steps by the radius alone: no power is formed
    calls = []
    norm = resolvent.operator_norm
    monkeypatch.setattr(resolvent, "operator_norm", lambda m: calls.append(1) or norm(m))
    start = time.perf_counter()
    report = stability_classify(BoundedOperator.diagonal([1.0 - 2e-6, 0.5]))
    assert time.perf_counter() - start < 0.1
    assert report.verdict == "exponentially_stable"
    assert not report.probes_consistent
    assert report.probe_bound == 0.0
    assert calls == []


@st.composite
def stable_nonnormal(draw):
    dim = draw(st.integers(1, 8))
    moduli = draw(st.lists(st.floats(0.1, 0.99), min_size=dim, max_size=dim))
    shear = draw(st.floats(0.0, 2.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.array(moduli), shear, seed


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=stable_nonnormal())
def test_stability_envelope_property(case):
    moduli, shear, seed = case
    a = matrix_with_moduli(np.random.default_rng(seed), moduli, shear=shear)
    start = time.perf_counter()
    report = stability_classify(a)
    assert time.perf_counter() - start < 2.0
    assert report.verdict == "exponentially_stable"
    assert report.probes_consistent
    # the same search the classifier ran, for its K
    cut, _ = resolvent.decay_steps(
        a.entries,
        report.r,
        1.0 / report.rho_star,
        0.5,
        resolvent.CERT_CAP,
        "stability certificate",
    )
    scaled = _scaled_power_norms(a, report.rho_star, 4 * cut + 1)
    assert np.all(scaled <= report.probe_bound)


def test_contraction_rate_randomized():
    rng = np.random.default_rng(8)
    for _ in range(6):
        dim = int(rng.integers(1, 4))
        rho = float(rng.uniform(0.8, 1.6))
        target = rng.uniform(0.3, 0.8) * rho
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b *= target / operator_norm(b)
        f = linear_map(b, forcing=impulse(-1, random_vector(rng, dim)))
        report = solve_contraction(f, Weight(rho, 2.0), (-3, 50), fp_tol=1e-11)
        assert report.contraction_estimate <= operator_norm(b) / rho + 0.05


def test_fixed_point_columns_stop_independently():
    # u <- c u + b per column: column j contracts with factor c_j, so the
    # columns need different iteration counts, each as if run alone
    rng = np.random.default_rng(43)
    factors = np.array([0.1, 0.5, 0.8])
    b = rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal((6, 3, 2))
    w = Weight(1.0, 2.0)

    def step(u, cols, out):
        return np.add(factors[cols][None, :, None] * u, b[:, cols], out=out)

    stack = fixed_point(step, np.zeros_like(b), 0, w, 1e-11, 200)
    assert stack.errors == [None, None, None]
    assert len(set(stack.iterations.tolist())) == 3
    for j in range(3):
        alone = fixed_point(
            lambda u, cols, out: step(u, np.array([j]), out), np.zeros_like(b[:, [j]]), 0, w, 1e-11, 200
        )
        assert alone.iterations[0] == stack.iterations[j]
        assert np.array_equal(alone.solution[:, 0], stack.solution[:, j])
        assert stack.contraction_estimate[j] == pytest.approx(factors[j], abs=0.05)
        assert stack.residual[j] <= 1e-11
        assert np.allclose(stack.solution[:, j], b[:, j] / (1.0 - factors[j]))


def test_fixed_point_records_column_failures():
    w = Weight(1.0, 2.0)
    u0 = np.zeros((4, 3, 1), dtype=np.complex128)
    u0[2, 1, 0] = np.inf
    stack = fixed_point(lambda u, cols, out: np.add(0.5 * u, 1.0, out=out), u0, 0, w, 1e-12, 3)
    assert isinstance(stack.errors[0], NoConvergence) and isinstance(stack.errors[2], NoConvergence)
    assert str(stack.errors[0]) == "no convergence within 3 iterations"
    assert isinstance(stack.errors[1], InputError) and stack.iterations[1] == 0
    assert stack.iterations.tolist() == [3, 0, 3]


@pytest.mark.parametrize("blocked", [False, True])
def test_fixed_point_writes_neither_its_start_nor_a_returned_solution(blocked):
    # columns stop at different steps, and the solution of a finished run
    # survives a second run from the same workspace; with a non-finite start
    # column that never steps, the solution starts as a copy of the start
    rng = np.random.default_rng(61)
    factors = np.array([0.1, 0.5, 0.8, 0.3])
    b = rng.standard_normal((7, 4, 3)) + 1j * rng.standard_normal((7, 4, 3))
    w = Weight(1.0, 2.0)

    def step(u, cols, out):
        assert not np.shares_memory(u, out)
        return np.add(factors[cols][None, :, None] * u, b[:, cols], out=out)

    ws = Workspace()
    u0 = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
    if blocked:
        u0[:, 2] = np.inf
    start = u0.copy()
    first = fixed_point(step, u0, 0, w, 1e-11, 200, ws)
    assert len(set(first.iterations.tolist())) == 4
    kept = first.solution.copy()
    second = fixed_point(step, u0, 0, w, 1e-11, 200, ws)
    assert np.array_equal(u0.view(np.int64), start.view(np.int64))
    assert np.array_equal(first.solution.view(np.int64), kept.view(np.int64))
    assert np.array_equal(second.solution.view(np.int64), kept.view(np.int64))
    assert not blocked or np.array_equal(kept[:, 2], start[:, 2])
    for j in [0, 1, 3] + ([] if blocked else [2]):  # each column as if run alone
        alone = fixed_point(lambda u, cols, out: step(u, np.array([j]), out), u0[:, [j]], 0, w, 1e-11, 200)
        assert np.array_equal(alone.solution[:, 0].view(np.int64), kept[:, j].view(np.int64))


KERNEL_MAPS = [
    lambda forcing: zero_map(forcing),
    lambda forcing: linear_map(np.array([[0.3, -0.2j, 0.0], [1e-310, 0.5, -0.1], [0.2, 0.0, -0.4j]]), forcing),
    lambda forcing: saturation_map(0.05, forcing),
    lambda forcing: saturation_map(1e-300, forcing),
    lambda forcing: polynomial_map([0.5, -0.25j, 0.1], 1.5, forcing),
    lambda forcing: implicit_euler_map(0.1, "saturating_decay", forcing),
    lambda forcing: implicit_euler_map(0.1, "linear_decay", forcing),
]


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("make", KERNEL_MAPS)
def test_kernels_write_into_a_given_output_bit_for_bit(make, forced):
    # every entry of the given output is written, and equals the allocating
    # call, signed zeros and underflow included; the input is not touched
    rng = np.random.default_rng(67)
    forcing = random_sequence(rng, 3, -2, 9) if forced else None
    F = make(forcing)
    for shape in [(12, 3), (12, 4, 3), (1500, 4, 3)]:  # the last one passes 256 KiB
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vals.real[rng.random(shape) < 0.3] = -0.0
        vals.imag[rng.random(shape) < 0.3] = -0.0
        vals[1] = 5e-324 - 0.0j
        before = vals.copy()
        lo, hi = -3, len(vals) - 6
        want = F.apply_rows(vals, 0, lo, hi)
        out = np.full(want.shape, np.nan + 1j * np.nan)
        got = F.apply_rows(vals, 0, lo, hi, out=out)
        assert got is out
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(vals.view(np.int64), before.view(np.int64))


def test_forward_orbit_columns_match_single_orbits():
    rng = np.random.default_rng(47)
    a = matrix_with_moduli(rng, [0.5, 0.9, 1.3], shear=0.2)
    f = saturation_map(0.05)
    xs = np.stack([random_vector(rng, 3) for _ in range(4)])
    stacked = forward_orbit(a, f, xs, 30)
    for c, x in enumerate(xs):
        alone = solve_ivp(a, f, x, 30, "recursion")
        np.testing.assert_allclose(stacked[:, c], alone.dense(0, 30), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("forced", [False, True])
def test_causal_row_is_one_row_of_apply_rows(forced):
    # every causal kernel, on a vector and on a (G, d) stack, with signed
    # zeros and tiny parts in the row: the row call and apply_rows agree bit
    # for bit
    rng = np.random.default_rng(59)
    dim = 3
    forcing = random_sequence(rng, dim, 2, 6) if forced else None
    maps = [
        zero_map(forcing),
        linear_map(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), forcing),
        saturation_map(0.05, forcing),
        saturation_map(1e-300, forcing),
        polynomial_map([0.5, -0.25j, 0.1], 1.5, forcing),
    ]
    vec = np.array([-0.0 + 0.3j, 5e-324 - 0.0j, -1.2 + 40.0j])
    stack = np.stack([vec, rng.standard_normal(dim) + 1j * rng.standard_normal(dim)])
    for F in maps:
        assert F.causal
        for row in (vec, stack):
            for n in (0, 4):
                want = F.apply_rows(row[None], n, n, n)[0]
                got = _causal_row(F, n, row)
                assert got.shape == row.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_polynomial_kernel_rounds_a_row_alike_in_any_stack():
    # a (601, 6, 6) stack passes 256 KiB, where the expression form of
    # Horner's step swapped the operands of its complex product: a row of
    # the stacked call equals the row alone, and a column the column alone,
    # bit for bit
    rng = np.random.default_rng(71)
    F = polynomial_map([0.5, -0.25j, 0.1, 0.3 + 0.2j], 1.5)
    vals = 1.2 * (rng.standard_normal((601, 6, 6)) + 1j * rng.standard_normal((601, 6, 6)))
    vals.real[rng.random(vals.shape) < 0.1] = -0.0
    stacked = F.apply_rows(vals, 0, 0, 600)
    rows = np.stack([F.apply_rows(vals[n : n + 1], n, n, n)[0] for n in range(601)])
    cols = np.stack([F.apply_rows(vals[:, g], 0, 0, 600) for g in range(6)], axis=1)
    assert np.array_equal(stacked.view(np.int64), rows.view(np.int64))
    assert np.array_equal(stacked.view(np.int64), cols.view(np.int64))


def test_saturation_kernel_matches_complex_formula_bit_for_bit():
    # the in-place kernel against eps * (tanh(re) + 1j tanh(im)) of the
    # components rotated by one, signed zeros and underflow included
    parts = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.3, -0.3, 40.0, -40.0, np.inf, -np.inf]
    re, im = np.meshgrid(parts, parts)
    z = re.ravel() + 1j * 0.0
    z.imag = im.ravel()
    rng = np.random.default_rng(53)
    noisy = rng.standard_normal((64, 5)) + 1j * rng.standard_normal((64, 5))
    noisy.real[rng.random(noisy.shape) < 0.3] = -0.0
    noisy.imag[rng.random(noisy.shape) < 0.3] = -0.0
    for eps in (0.05, 1e-300):
        kernel = saturation_map(eps)
        for a in [z[:, None], np.stack([z, np.roll(z, 7), np.roll(z, 3)], axis=1), noisy]:
            before, rolled = a.copy(), np.roll(a, -1, axis=1)
            expected = eps * (np.tanh(rolled.real) + 1j * np.tanh(rolled.imag))
            got = kernel.apply_rows(a, 0, 0, len(a) - 1)
            assert np.array_equal(np.signbit(got.real), np.signbit(expected.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(expected.imag))
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))
            assert np.array_equal(a.view(np.int64), before.view(np.int64))
