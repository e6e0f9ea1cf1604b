import ast
import dataclasses
import importlib
import inspect
import math
import pathlib
import runpy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq import (
    BoundedOperator,
    IndeterminateHyperbolic,
    InputError,
    ManifoldProblem,
    NormOverflow,
    PreconditionViolation,
    QuadratureError,
    ResolventPlan,
    SpectrumHit,
    SpecseqError,
    SpectrumOnCircle,
    circle_sup_resolvent,
    is_hyperbolic,
    operator_norm,
    resolvent_at,
    riesz_split,
    saturation_map,
    solve_ivp_all,
    spectral_radius,
    spectrum_escape_check,
    stability_classify,
)
from specseq import operators
from specseq.operators import MAX_SUP_NODES, SUP_REL_TOL, SpectralSplit, circle_resolvents
from testutil import counted_sigma_min, matrix_with_moduli


def test_spectral_radius_scalar():
    assert spectral_radius(BoundedOperator([[0.5]])) == pytest.approx(0.5)


def test_spectral_radius_nilpotent():
    assert spectral_radius(BoundedOperator([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)


def test_spectral_radius_triangular():
    assert spectral_radius(BoundedOperator([[0.5, 1.0], [0.0, 2.0]])) == pytest.approx(2.0)


@pytest.mark.parametrize("seed,dim", [(0, 2), (1, 4), (2, 6), (3, 8)])
def test_spectral_radius_matches_power_norm_limit(seed, dim):
    # r(A) = lim ||A^n||^(1/n); after normalizing r(A) = 1 the 200th root
    # of the power norm must land within 0.05.
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = BoundedOperator(mat / spectral_radius(BoundedOperator(mat)))
    power = np.eye(dim, dtype=np.complex128)
    for _ in range(200):
        power = power @ a.entries
    assert abs(operator_norm(power) ** (1.0 / 200.0) - 1.0) <= 0.05


def test_resolvent_scalar():
    got = resolvent_at(BoundedOperator([[0.5]]), 1.0)
    assert got == pytest.approx(np.array([[2.0]]))


def test_resolvent_nilpotent():
    got = resolvent_at(BoundedOperator([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    assert np.allclose(got, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)


def test_resolvent_matches_closed_form_2x2_inverse():
    # oracle: direct 2x2 inverse of [[i-0.5, -1], [0, i-2]]
    a11, a12, a22 = 1j - 0.5, -1.0, 1j - 2.0
    det = a11 * a22
    oracle = np.array([[a22, -a12], [0.0, a11]]) / det
    got = resolvent_at(BoundedOperator([[0.5, 1.0], [0.0, 2.0]]), 1j)
    assert np.allclose(got, oracle, atol=1e-14)


def test_resolvent_residual_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(1, 7))
        a = matrix_with_moduli(rng, rng.uniform(0.2, 2.0, dim), shear=0.2)
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if np.min(np.abs(z - a.eigenvalues)) < 0.05:
            continue
        res = resolvent_at(a, z)
        lhs = (z * np.eye(dim) - a.entries) @ res - np.eye(dim)
        assert operator_norm(lhs) <= 1e-10


def test_resolvent_rejects_spectrum_hit():
    with pytest.raises(SpectrumHit):
        resolvent_at(BoundedOperator([[0.5]]), 0.5 + 1e-12)


def _sigma_min(a, z):
    eye = np.eye(a.shape[0])
    return np.linalg.svd(np.asarray(z)[:, None, None] * eye - a, compute_uv=False)[:, -1]


def level_set_sup(a, rho, iters=50):
    """sup ||(z - a)^(-1)|| over |z| = rho by the level-set method.

    ``sigma`` is a singular value of ``z I - a`` at some ``|z| = rho`` exactly
    when ``z`` is an eigenvalue of the pencil
    ``z [[I, 0], [sigma I, a^H]] - [[a, sigma I], [0, rho^2 I]]``; for
    invertible ``a`` that is the matrix below.  Each step finds the angles
    where some singular value crosses just below the least ``sigma_min`` seen
    and samples the midpoints between them (Boyd & Balakrishnan 1990); with
    no crossing left, no ``sigma_min`` on the circle is below that level.
    """
    eye = np.eye(a.shape[0])
    ah_inv = np.linalg.inv(a.conj().T)
    theta = 2 * np.pi * np.arange(64) / 64
    best = float(np.min(_sigma_min(a, rho * np.exp(1j * theta))))
    for _ in range(iters):
        sigma = best * (1 - 1e-9)
        mat = np.block([[a, sigma * eye], [-sigma * ah_inv @ a, (rho**2 - sigma**2) * ah_inv]])
        z = np.linalg.eigvals(mat)
        ang = np.sort(np.angle(z[np.abs(np.abs(z) - rho) <= 1e-6 * rho]))
        if ang.size == 0:
            break
        mids = (ang + np.append(ang[1:], ang[0] + 2 * np.pi)) / 2
        best = min(best, float(np.min(_sigma_min(a, rho * np.exp(1j * mids)))))
    return 1 / best


def test_circle_sup_scalar():
    # the supremum 2 is attained at z = 1; the bound certifies it from above
    sup = circle_sup_resolvent(BoundedOperator([[0.5]]), 1.0)
    assert 2.0 <= sup <= 2.0 * (1 + SUP_REL_TOL)


def test_circle_sup_diagonal():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    assert 2.0 <= circle_sup_resolvent(a, 1.0) <= 2.0 * (1 + SUP_REL_TOL)


def test_circle_sup_refinement_oracle():
    # every starting grid certifies the supremum to the same tolerance
    rng = np.random.default_rng(9)
    a = matrix_with_moduli(rng, rng.uniform(0.3, 1.5, 4), shear=0.3)
    rho = spectral_radius(a) + 0.5
    reference = level_set_sup(a.entries, rho)
    for samples in (16, 64, 640):
        sup = circle_sup_resolvent(a, rho, samples=samples)
        assert reference <= sup <= (1 + SUP_REL_TOL) * reference


@pytest.mark.parametrize("seed", range(6))
def test_circle_sup_certified_against_level_set_oracle(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    a = matrix_with_moduli(rng, rng.uniform(0.2, 2.0, dim), shear=0.6)
    for rho in (1.0, spectral_radius(a) + 0.5):
        oracle = level_set_sup(a.entries, rho)
        sup = circle_sup_resolvent(a, rho)
        assert oracle <= sup <= (1 + SUP_REL_TOL) * oracle


def test_circle_sup_certifies_peak_between_nodes():
    # eigenvalue 1e-3 outside the unit circle at an angle halfway between
    # nodes 17 and 18 of 1024: a 1024-node sample reads 2.2e4 of about 7.1e4
    theta = 2 * np.pi * 17.5 / 1024
    a = np.array([[1.001 * np.exp(1j * theta), 50.0], [0.0, 0.3]])
    oracle = level_set_sup(a, 1.0)
    assert oracle > 7.1e4
    sup = circle_sup_resolvent(BoundedOperator(a), 1.0)
    assert oracle <= sup <= (1 + SUP_REL_TOL) * oracle


def test_circle_sup_preconditions():
    a = BoundedOperator([[0.5]])
    with pytest.raises(PreconditionViolation):
        circle_sup_resolvent(a, 1.0, samples=8)
    with pytest.raises(PreconditionViolation):
        circle_sup_resolvent(a, 1.0, samples=MAX_SUP_NODES + 1)
    with pytest.raises(SpectrumOnCircle):
        circle_sup_resolvent(a, 0.5)
    # sigma_min(z - A) is about 2.5e-9 on |z| = 1, below what the SVD's
    # rounding margin of about 3.6e-7 can certify
    with pytest.raises(SpectrumOnCircle):
        circle_sup_resolvent(BoundedOperator([[0.5, 1e8], [0.0, 0.5]]), 1.0)


@pytest.mark.parametrize("r", [1e150, 1e155, 1e200, 1e300])
def test_circle_sup_at_large_radii_is_certified_or_refused(r):
    # sup ||(z - A)^(-1)|| = 1 / (r - 2) on |z| = r; the squares of the
    # second-order bound pass the float range near 1.34e154
    exact = 1.0 / (r - 2.0)
    try:
        sup = circle_sup_resolvent(BoundedOperator(np.diag([0.5, 2.0])), r)
    except SpecseqError:
        return
    assert exact <= sup <= (1 + SUP_REL_TOL) * exact


def test_circle_sup_refuses_an_overflowing_margin():
    # ||A||_F overflows, so the SVD's rounding margin certifies nothing
    with pytest.raises(NormOverflow, match="no finite bound is certified"):
        circle_sup_resolvent(BoundedOperator([[1e200, 1e200], [0.0, 1.0]]), 2.0)


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(0.0, -math.inf)])
def test_resolvent_rejects_non_finite_z(z):
    with pytest.raises(InputError, match="z must be finite"):
        resolvent_at(BoundedOperator([[0.5]]), z)


@st.composite
def sup_brackets(draw):
    # seeded operators with d <= 8 and shears up to 2 (scaled by 2 / d, as in
    # the hundred fixtures below), on circles within 0.1% to 50% of one
    # eigenvalue modulus, inside or outside it, and a Lipschitz bound for a
    # gate, as a multiple of 1/M
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    moduli = rng.uniform(0.2, 2.0, dim)
    a = matrix_with_moduli(rng, moduli, shear=draw(st.floats(0.0, 2.0)) * 2 / dim)
    gap = draw(st.floats(1e-3, 0.5))
    side = draw(st.sampled_from([-1, 1]))
    rho = float(moduli[draw(st.integers(0, dim - 1))]) * (1.0 + side * gap)
    return a, rho, draw(st.floats(0.0, 2.0))


def _rounds(bracket):
    # every (low, high) of a bracket, its last high the full supremum
    yield bracket.low, bracket.high
    while bracket.refine():
        yield bracket.low, bracket.high


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=sup_brackets())
def test_sup_bracket_holds_the_supremum_at_every_round_property(case):
    # the level-set oracle stops within a relative 1e-9 above the true
    # supremum's reciprocal, so the true supremum lies in [oracle, oracle (1 + 2e-9)]
    a, rho, lip_scale = case
    try:
        full = circle_sup_resolvent(a, rho)
    except SpectrumOnCircle:  # then so does the bracket, at the same round
        with pytest.raises(SpectrumOnCircle):
            list(_rounds(operators._SupBracket(a, rho)))
        return
    oracle = level_set_sup(a.entries, rho)
    bracket = operators._SupBracket(a, rho)
    for low, high in _rounds(bracket):
        assert low <= oracle * (1 + 2e-9) and oracle <= high
    assert bracket.done and bracket.high == full
    # a gate at lip = lip_scale / M gives the full supremum's verdict off the
    # band [1/M, (1 + SUP_REL_TOL)/M), where that verdict is also the true one
    lip = lip_scale / full
    verdict = operators._decide(lambda m: lip < 1.0 / m, operators._SupBracket(a, rho))
    if not 1.0 <= lip_scale < 1.0 + SUP_REL_TOL:
        assert verdict is (lip < 1.0 / full)


def test_sup_bracket_decides_only_what_it_is_asked(monkeypatch):
    # the bench-like d = 32 operator at |z| = 1: a threshold far from 1/M_1
    # is decided on the start grid, one within the tolerance band waits for
    # the full supremum and reads it
    nodes = counted_sigma_min(monkeypatch)
    spaced = (np.arange(16) + 0.5) / 16
    moduli = np.concatenate([0.3 + 0.4 * spaced, 1.5 + spaced])
    a = matrix_with_moduli(np.random.default_rng([7, 0]), moduli, shear=0.5 / np.sqrt(32))
    full = circle_sup_resolvent(a, 1.0)
    full_nodes = sum(nodes)
    for lip, verdict in ((0.002, True), (0.5, False)):
        nodes.clear()
        gate = operators._SupBracket(a, 1.0)
        assert operators._decide(lambda m: lip < 1.0 / m, gate) is verdict
        assert sum(nodes) == 16
    nodes.clear()
    lip = 0.9995 / full  # passes at the full supremum, in the band
    assert operators._decide(lambda m: lip < 1.0 / m, operators._SupBracket(a, 1.0)) is True
    assert sum(nodes) == full_nodes


def test_circle_sup_flat_jordan_block_stops_at_node_cap(monkeypatch):
    # e^{i theta} I - c N is unitarily similar to e^{i theta} (I - c N), so
    # sigma_min(z I - A) is the constant s on |z| = 1 and every arc needs
    # refining; the node cap ends it with a looser bound or a typed error
    nodes = counted_sigma_min(monkeypatch)
    for dim, c in ((8, 3.0), (16, 2.0)):
        jordan = c * np.eye(dim, k=1)
        s = float(np.linalg.svd(np.eye(dim) - jordan, compute_uv=False)[-1])
        nodes.clear()
        if dim == 8:
            # s = 4.1e-4 would take pi / (SUP_REL_TOL s) = 7.7e6 nodes to certify
            assert 1 / s <= circle_sup_resolvent(BoundedOperator(jordan), 1.0) < 2 / s
        else:
            # s = 2.3e-5 is below half the arc length 2 pi / MAX_SUP_NODES
            with pytest.raises(SpectrumOnCircle, match="certify no bound"):
                circle_sup_resolvent(BoundedOperator(jordan), 1.0)
        assert sum(nodes) <= MAX_SUP_NODES


def test_names_bound_by_bench_tracer_exist():
    # bench/tracing.py reads these by name to count circle and quadrature nodes
    assert "samples" in inspect.signature(circle_sup_resolvent).parameters
    assert "quad_points" in inspect.signature(riesz_split).parameters
    assert "quad_points" in {f.name for f in dataclasses.fields(SpectralSplit)}
    # ... and times the eigendata only on the call that fills the cache
    lazy = BoundedOperator([[2.0]])
    assert lazy._eig is None and lazy._eigendata() is lazy._eig is lazy.eigenvalues
    # ... and the tail cut of every plan, in each mode and regime, a property
    # that computes the cuts on first read
    assert isinstance(inspect.getattr_static(ResolventPlan, "tail_cut"), property)
    a = BoundedOperator(np.diag([0.5, 2.0]))
    for mode, rho in (("causal", 3.0), ("split", 1.0), ("frequency", 1.0), ("frequency", 3.0)):
        cut = ResolventPlan(a, rho, mode).tail_cut
        assert isinstance(cut, int) and cut >= 1


#: Keys of bench/tracing.py that name no callable of the library, each
#: with the reason it is stale; the tracer counts them as 0.
STALE_TRACER_KEYS = {
    # the one-row stencil evaluation became solver._causal_row
    ("solver", "StencilMap.eval_at"),
    # one step of the Lyapunov-Perron map is a test helper (testutil.lp_apply)
    ("manifold", "lp_apply"),
}


def test_callables_keyed_by_bench_tracer_exist():
    # bench/tracing.py wraps the public callables each specseq module defines
    # and keys its counters by (module, callable); a key that names nothing
    # wrapped reads 0 without an error.
    tracing = runpy.run_path(
        str(pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"),
        run_name="not_main",
    )
    keys = set(tracing["_HOOKS"]).union(
        *tracing["_INCLUSIVE_MS"].values(), *tracing["_CALL_COUNTS"].values()
    )
    missing = []
    assert STALE_TRACER_KEYS <= keys
    for module, name in sorted(keys - STALE_TRACER_KEYS):
        mod = importlib.import_module(f"specseq.{module}")
        owner, _, attr = name.rpartition(".")
        top = vars(mod).get(owner or attr)
        fn = vars(top).get(attr) if owner and inspect.isclass(top) else top
        if not (inspect.isfunction(fn) and getattr(top, "__module__", None) == mod.__name__):
            missing.append((module, name))
    assert not missing


def test_only_eigendata_decomposes_a_spectrum():
    # every spectral quantity is read from the eigenvalues BoundedOperator
    # caches, so the library's only eigen solver call is its eigvals
    src = pathlib.Path(operators.__file__).resolve().parent
    calls = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if name in ("eig", "eigvals", "eigh", "eigvalsh"):
                within = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                calls.append((path.name, ast.unparse(node.func), within))
    assert calls == [("operators.py", "np.linalg.eigvals", ["_eigendata"])]


def test_spectrum_decomposed_once_per_operator(monkeypatch):
    # each entry point on a fresh operator makes one eigvals call and no eig call
    counts = {"eig": 0, "eigvals": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(53)
    hyperbolic = [0.4, 0.7, 1.6]
    cases = {
        "split plan": (hyperbolic, lambda a: ResolventPlan(a, 1.0, "split")),
        "causal plan": ([0.4, 0.7, 0.8], lambda a: ResolventPlan(a, 1.0, "causal")),
        "stability_classify": ([0.4, 0.7, 0.8], stability_classify),
        "spectrum_escape_check": (
            [1.5, 2.0, 3.0],
            lambda a: spectrum_escape_check(a, np.ones(3)),
        ),
        "ManifoldProblem": (hyperbolic, lambda a: ManifoldProblem(a, saturation_map(0.01))),
        "solve_ivp_all": (
            hyperbolic,
            lambda a: solve_ivp_all(a, saturation_map(0.01), np.ones(3), 16),
        ),
    }
    seen = {}
    for label, (moduli, run) in cases.items():
        a = matrix_with_moduli(rng, moduli, shear=0.3)
        counts.update(eig=0, eigvals=0)
        run(a)
        seen[label] = dict(counts)
    assert seen == {label: {"eig": 0, "eigvals": 1} for label in cases}


def test_circle_resolvents_blocks_match_pointwise_resolvents():
    # d = 3: blocks of 2**14 // 9 = 1820 nodes, so 4096 nodes end in a partial block
    rng = np.random.default_rng(21)
    a = matrix_with_moduli(rng, [0.4, 0.9, 1.6], shear=0.3)
    n = 4096
    nodes = 1.2 * np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
    eye = np.broadcast_to(np.eye(3, dtype=np.complex128), (n, 3, 3))
    blocks = list(circle_resolvents(a, 1.2, n, eye))
    assert [(start, len(z), len(res)) for start, z, res in blocks] == [
        (0, 1820, 1820),
        (1820, 1820, 1820),
        (3640, 456, 456),
    ]
    for start, z, res in blocks:
        assert np.array_equal(z, nodes[start : start + len(z)])
        for zi, ri in zip(z, res):
            assert np.array_equal(ri, resolvent_at(a, zi))
    reference = max(operator_norm(resolvent_at(a, z)) for z in nodes)
    assert reference <= circle_sup_resolvent(a, 1.2, samples=n) <= (1 + SUP_REL_TOL) * reference
    # per-node right-hand sides are solved against directly
    rhs = rng.standard_normal((n, 3, 1)) + 1j * rng.standard_normal((n, 3, 1))
    for start, z, x in circle_resolvents(a, 1.2, n, rhs):
        for i, (zi, xi) in enumerate(zip(z, x)):
            np.testing.assert_allclose(xi, resolvent_at(a, zi) @ rhs[start + i], rtol=1e-12)


def test_circle_resolvents_rejects_spectrum_on_circle():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    with pytest.raises(SpectrumOnCircle):
        next(circle_resolvents(a, 2.0, 64, np.zeros((64, 2, 1))))


#: Trapezoid nodes of the reference projection; spectrally accurate for every
#: fixture here, whose spectra keep at least 0.05 from the circle.
ORACLE_NODES = 4096


def trapezoid_projection(a: BoundedOperator, gamma: float) -> np.ndarray:
    """Reference Riesz projection: the trapezoid rule for the contour integral
    of ``(z - A)^{-1}`` over ``S_gamma``, the mean of ``z (z - A)^{-1}`` over
    :data:`ORACLE_NODES` nodes, summed node by node."""
    n = ORACLE_NODES
    acc = np.zeros((a.dim, a.dim), dtype=np.complex128)
    eye = np.broadcast_to(np.eye(a.dim, dtype=np.complex128), (n, a.dim, a.dim))
    for _, z, res in circle_resolvents(a, gamma, n, eye):
        for zi, ri in zip(z, res):
            acc += zi * ri
    return acc / n


def assert_matches_trapezoid(a: BoundedOperator, gamma: float, proj: np.ndarray):
    ref = trapezoid_projection(a, gamma)
    assert operator_norm(ref @ ref - ref) <= 1e-10  # the reference itself converged
    assert operator_norm(proj - ref) <= 1e-10 * max(1.0, operator_norm(ref))


def test_riesz_diagonal_split():
    split = riesz_split(BoundedOperator(np.diag([0.5, 2.0])), 1.0)
    assert np.allclose(split.proj_stable, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(split.proj_unstable, np.diag([0.0, 1.0]), atol=1e-12)
    assert split.r_inside == pytest.approx(0.5)
    assert split.r_outside_inv == pytest.approx(0.5)


def test_riesz_whole_spectrum_inside():
    split = riesz_split(BoundedOperator([[0.5, 1.0], [0.0, 0.5]]), 1.0)
    assert np.allclose(split.proj_stable, np.eye(2), atol=1e-10)
    assert np.allclose(split.proj_unstable, 0.0, atol=1e-10)
    assert split.rank_unstable == 0


def test_riesz_matches_eigenprojector_oracle():
    # spectral projector onto span{(1,0)} along span{(2,3)} is
    # [[1, -2/3], [0, 0]]: solve P (2,3)^T = 0, P (1,0)^T = (1,0)^T.
    split = riesz_split(BoundedOperator([[0.5, 1.0], [0.0, 2.0]]), 1.0)
    oracle = np.array([[1.0, -2.0 / 3.0], [0.0, 0.0]])
    assert np.allclose(split.proj_stable, oracle, atol=1e-10)
    assert_matches_trapezoid(BoundedOperator([[0.5, 1.0], [0.0, 2.0]]), 1.0, split.proj_stable)


def test_riesz_idempotence_commutation_random():
    rng = np.random.default_rng(21)
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        n_in = int(rng.integers(1, dim))
        moduli = np.concatenate(
            [rng.uniform(0.2, 0.85, n_in), rng.uniform(1.15, 2.5, dim - n_in)]
        )
        a = matrix_with_moduli(rng, moduli, shear=0.2)
        split = riesz_split(a, 1.0)
        p = split.proj_stable
        assert_matches_trapezoid(a, 1.0, p)
        assert operator_norm(p @ p - p) <= 1e-8
        assert operator_norm(p @ a.entries - a.entries @ p) <= 1e-8
        assert operator_norm(p + split.proj_unstable - np.eye(dim)) <= 1e-12
        # sigma(A restricted to range P) stays inside the circle
        assert split.r_inside < split.gamma


def test_riesz_radius_independence_across_annulus():
    rng = np.random.default_rng(33)
    a = matrix_with_moduli(rng, np.array([0.3, 0.6, 2.0, 3.0]), shear=0.2)
    p1 = riesz_split(a, 0.8).proj_stable
    p2 = riesz_split(a, 1.7).proj_stable
    assert operator_norm(p1 - p2) <= 1e-8
    assert_matches_trapezoid(a, 0.8, p1)
    assert_matches_trapezoid(a, 1.7, p2)


def test_riesz_rejects_spectrum_on_circle():
    with pytest.raises(SpectrumOnCircle):
        riesz_split(BoundedOperator([[1.0]]), 1.0)


@pytest.mark.parametrize(
    "entries, exact",
    [
        # a 4096-node trapezoid sum left projection defects 1.7e-2, 1.3e-9, 5.6e-7
        (np.diag([0.999, 2.0]), np.diag([1.0, 0.0])),
        ([[0.995, 0.3], [0.0, 2.0]], [[1.0, -0.3 / 1.005], [0.0, 0.0]]),
        (np.diag([0.9] * 8) + 2.0 * np.eye(8, k=1), np.eye(8)),
    ],
)
def test_riesz_sign_iteration_near_circle_and_non_normal(entries, exact):
    split = riesz_split(BoundedOperator(entries), 1.0)
    assert operator_norm(split.proj_stable - np.asarray(exact)) <= 1e-12
    assert 1 <= split.quad_points <= 10


def test_riesz_gate_miss_raises_quadrature_error(monkeypatch):
    a = BoundedOperator(np.diag([0.999, 2.0]))  # needs 3 sign steps
    monkeypatch.setattr(operators, "MAX_SIGN_STEPS", 1)
    with pytest.raises(QuadratureError, match="after 1 steps"):
        riesz_split(a, 1.0)
    monkeypatch.undo()

    def singular(x):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(QuadratureError, match="singular"):
        riesz_split(a, 1.0)


def test_is_hyperbolic():
    assert is_hyperbolic(BoundedOperator(np.diag([0.5, 2.0])))
    assert is_hyperbolic(BoundedOperator(np.diag([0.9, 0.5])))
    with pytest.raises(IndeterminateHyperbolic):
        is_hyperbolic(BoundedOperator([[1.0]]))


def test_operator_validation():
    with pytest.raises(InputError):
        BoundedOperator([[1.0, 2.0]])
    with pytest.raises(InputError):
        BoundedOperator([[np.nan]])


def test_eigenvalues_cached_and_accurate():
    rng = np.random.default_rng(41)
    mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = BoundedOperator(mat)
    assert a.eigenvalues is a.eigenvalues
    assert a.eigenvalues.shape == (5,)
    for lam in a.eigenvalues:
        sigma_min = np.linalg.svd(a.entries - lam * np.eye(5), compute_uv=False)[-1]
        assert sigma_min <= 1e-10 * a.norm()


def test_circle_sup_arc_bound_holds_inside_random_arcs():
    # the second-order lemma, and the bound the code takes (the larger of
    # both orders, with the rounding margin), against sigma_min sampled
    # 400 times inside random arcs of random non-normal operators
    rng = np.random.default_rng(31)
    decided = 0
    for _ in range(60):
        dim = int(rng.integers(2, 9))
        a = matrix_with_moduli(rng, rng.uniform(0.2, 2.0, dim), shear=rng.uniform(0.0, 1.0))
        rho = float(rng.uniform(0.5, 3.0))
        if np.min(np.abs(np.abs(a.eigenvalues) - rho)) < 0.05:
            continue
        start, length = rng.uniform(0.0, 2 * np.pi), rng.uniform(1e-3, np.pi / 8)
        inside = rho * np.exp(1j * (start + length * np.linspace(0.0, 1.0, 400)))
        sampled = _sigma_min(a.entries, inside)
        ends = sampled[[0, -1]]
        margin, curve = operators._sup_margins(a, rho)
        low = np.min(ends) - margin
        second = np.sqrt(max(0.0, low**2 - rho * a.norm() * length**2 / 4))
        arcs = np.array([length, 2 * np.pi - length])
        lower = operators._arc_lower(ends, arcs, rho, margin, curve)
        assert np.min(sampled) >= second
        assert np.min(sampled) >= lower[0]
        decided += lower[0] > (np.sum(ends) - rho * length) / 2 - margin
    assert decided >= 20


def test_circle_sup_certified_on_hundred_fixtures():
    # d from 2 to 32 and shears up to 2, scaled by 2 / d: a fixed shear's
    # non-normality grows with d (||A|| near 800 at d = 16 and shear 0.7),
    # until the node cap ends refinement with a looser bound, as documented
    for seed in range(100):
        rng = np.random.default_rng([11, seed])
        dim = 32 if seed % 25 == 24 else (2, 3, 4, 6, 8, 12, 16)[seed % 7]
        shear = rng.uniform(0.0, 2.0) * 2 / dim
        a = matrix_with_moduli(rng, rng.uniform(0.2, 2.0, dim), shear=shear)
        for rho in (1.0, spectral_radius(a) + 0.5):
            oracle = level_set_sup(a.entries, rho)
            assert oracle <= circle_sup_resolvent(a, rho) <= (1 + SUP_REL_TOL) * oracle


def test_circle_sup_flat_minimum_takes_few_nodes(monkeypatch):
    # sigma_min is constant on the circle; the first-order bound alone needs
    # arcs below 2 SUP_REL_TOL s_min all round (4096 and 996 nodes)
    nodes = counted_sigma_min(monkeypatch)
    for a, sup in ((np.zeros((1, 1)), 1.0), (0.01 * np.eye(8), 1 / 0.99)):
        nodes.clear()
        assert sup <= circle_sup_resolvent(BoundedOperator(a), 1.0) <= (1 + SUP_REL_TOL) * sup
        assert sum(nodes) <= 64


def test_circle_sup_node_count_on_bench_like_operator(monkeypatch):
    # d = 32 hyperbolic operators built like the benchmark's, which take
    # about 200 nodes per call with a first-order bound only
    nodes = counted_sigma_min(monkeypatch)
    spaced = (np.arange(16) + 0.5) / 16
    moduli = np.concatenate([0.3 + 0.4 * spaced, 1.5 + spaced])
    for seed in range(3):
        a = matrix_with_moduli(np.random.default_rng([7, seed]), moduli, shear=0.5 / np.sqrt(32))
        nodes.clear()
        circle_sup_resolvent(a, 1.0)
        assert sum(nodes) <= 80


def test_circle_sup_node_cap_error_names_the_cap():
    # the spectrum is 5e-4 from the circle, yet the supremum of about 2e8
    # is a peak too sharp for the node cap
    a = BoundedOperator([[0.999, 50.0], [0.0, 0.999]])
    with pytest.raises(SpectrumOnCircle, match="certify no bound") as err:
        circle_sup_resolvent(a, 0.9995)
    assert "the node cap, not the spectrum" in str(err.value)
    assert "spectrum is 5.0e-04 from the circle" in str(err.value)
