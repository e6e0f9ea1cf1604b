import dataclasses
import inspect

import numpy as np
import pytest

from specseq import (
    BoundedOperator,
    IndeterminateHyperbolic,
    InputError,
    PreconditionViolation,
    QuadratureError,
    ResolventPlan,
    SpectrumHit,
    SpectrumOnCircle,
    circle_sup_resolvent,
    is_hyperbolic,
    operator_norm,
    resolvent_at,
    riesz_split,
    spectral_radius,
)
from specseq import operators
from specseq.operators import MAX_SUP_NODES, SUP_REL_TOL, SpectralSplit, circle_resolvents
from testutil import matrix_with_moduli


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


def _counted_sigma_min(monkeypatch):
    # patches operators._sigma_min to record the nodes of each call
    nodes = []
    sigma_min = operators._sigma_min

    def counted(a, z):
        nodes.append(len(z))
        return sigma_min(a, z)

    monkeypatch.setattr(operators, "_sigma_min", counted)
    return nodes


def test_circle_sup_flat_jordan_block_stops_at_node_cap(monkeypatch):
    # e^{i theta} I - c N is unitarily similar to e^{i theta} (I - c N), so
    # sigma_min(z I - A) is the constant s on |z| = 1 and every arc needs
    # refining; the node cap ends it with a looser bound or a typed error
    nodes = _counted_sigma_min(monkeypatch)
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
    # ... and the tail cut of every plan, in each mode and regime
    assert "tail_cut" in {f.name for f in dataclasses.fields(ResolventPlan)}
    a = BoundedOperator(np.diag([0.5, 2.0]))
    for mode, rho in (("causal", 3.0), ("split", 1.0), ("frequency", 1.0), ("frequency", 3.0)):
        cut = ResolventPlan(a, rho, mode).tail_cut
        assert isinstance(cut, int) and cut >= 1


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
    w, v = a.eigenpairs()
    assert w is a.eigenvalues
    for i in range(5):
        resid = np.linalg.norm(a.entries @ v[:, i] - w[i] * v[:, i])
        assert resid <= 1e-10 * a.norm() * np.linalg.norm(v[:, i])


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
    nodes = _counted_sigma_min(monkeypatch)
    for a, sup in ((np.zeros((1, 1)), 1.0), (0.01 * np.eye(8), 1 / 0.99)):
        nodes.clear()
        assert sup <= circle_sup_resolvent(BoundedOperator(a), 1.0) <= (1 + SUP_REL_TOL) * sup
        assert sum(nodes) <= 64


def test_circle_sup_node_count_on_bench_like_operator(monkeypatch):
    # d = 32 hyperbolic operators built like the benchmark's, which take
    # about 200 nodes per call with a first-order bound only
    nodes = _counted_sigma_min(monkeypatch)
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
