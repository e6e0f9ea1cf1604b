import numpy as np
import pytest

from specseq import (
    BoundedOperator,
    IndeterminateHyperbolic,
    InputError,
    PreconditionViolation,
    SpectrumHit,
    SpectrumOnCircle,
    circle_sup_resolvent,
    is_hyperbolic,
    operator_norm,
    resolvent_at,
    riesz_split,
    spectral_radius,
)
from specseq.operators import circle_resolvents
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


def test_circle_sup_scalar():
    assert circle_sup_resolvent(BoundedOperator([[0.5]]), 1.0) == pytest.approx(2.0)


def test_circle_sup_diagonal():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    assert circle_sup_resolvent(a, 1.0) == pytest.approx(2.0)


def test_circle_sup_refinement_oracle():
    rng = np.random.default_rng(9)
    a = matrix_with_moduli(rng, rng.uniform(0.3, 1.5, 4), shear=0.3)
    rho = spectral_radius(a) + 0.5
    coarse = circle_sup_resolvent(a, rho, samples=64)
    dense = circle_sup_resolvent(a, rho, samples=640)
    assert coarse <= dense * (1 + 1e-12)
    assert dense <= coarse * 1.05


def test_circle_sup_preconditions():
    a = BoundedOperator([[0.5]])
    with pytest.raises(PreconditionViolation):
        circle_sup_resolvent(a, 1.0, samples=8)
    with pytest.raises(SpectrumOnCircle):
        circle_sup_resolvent(a, 0.5)


def test_circle_resolvents_blocks_match_pointwise_resolvents():
    # d = 3: blocks of 2**14 // 9 = 1820 nodes, so 4096 nodes end in a partial block
    rng = np.random.default_rng(21)
    a = matrix_with_moduli(rng, [0.4, 0.9, 1.6], shear=0.3)
    n = 4096
    nodes = 1.2 * np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
    blocks = list(circle_resolvents(a, 1.2, n))
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
    assert circle_sup_resolvent(a, 1.2, samples=n) == reference


def test_circle_resolvents_rejects_spectrum_on_circle():
    a = BoundedOperator(np.diag([0.5, 2.0]))
    with pytest.raises(SpectrumOnCircle):
        next(circle_resolvents(a, 2.0, 64))


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


def test_riesz_idempotence_commutation_random():
    rng = np.random.default_rng(21)
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        n_in = int(rng.integers(1, dim))
        moduli = np.concatenate(
            [rng.uniform(0.2, 0.85, n_in), rng.uniform(1.15, 2.5, dim - n_in)]
        )
        a = matrix_with_moduli(rng, moduli, shear=0.2)
        split = riesz_split(a, 1.0, quad_points=256)
        p = split.proj_stable
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


def test_riesz_rejects_spectrum_on_circle():
    with pytest.raises(SpectrumOnCircle):
        riesz_split(BoundedOperator([[1.0]]), 1.0)


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
