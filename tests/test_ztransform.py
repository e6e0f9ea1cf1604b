import numpy as np
import pytest

from specseq import (
    AliasingError,
    CircleFunction,
    InputError,
    NormOverflow,
    Weight,
    WindowTooWide,
    WindowedSequence,
    impulse,
    inverse_ztransform,
    multiplication_equiv_check,
    parseval_check,
    positive_support_hardy_check,
    shift,
    weighted_norm,
    zero_sequence,
    ztransform,
)
from testutil import max_abs_diff, random_sequence


def naive_transform(u, rho, n_samples):
    # double loop over samples and support indices
    out = np.zeros((n_samples, u.dim), dtype=np.complex128)
    for j in range(n_samples):
        z = rho * np.exp(2j * np.pi * j / n_samples)
        for k in range(u.lo, u.hi + 1):
            out[j] += u.at(k) * z ** (-k)
    return out


def test_transform_of_origin_impulse_is_constant():
    x = np.array([1.0 + 1.0j, -2.0])
    f = ztransform(impulse(0, x), 1.3, 16)
    assert np.allclose(f.samples, np.tile(x, (16, 1)), atol=1e-14)


def test_transform_of_unit_shift_impulse():
    x = np.array([2.0])
    f = ztransform(impulse(1, x), 1.0, 16)
    expected = np.array([[2.0 * np.exp(-2j * np.pi * j / 16)] for j in range(16)])
    assert np.allclose(f.samples, expected, atol=1e-13)


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_transform_matches_naive_oracle(rho):
    rng = np.random.default_rng(3)
    u = random_sequence(rng, 2, -6, 9)
    f = ztransform(u, rho, 64)
    oracle = naive_transform(u, rho, 64)
    scale = max(1.0, float(np.max(np.abs(oracle))))
    assert float(np.max(np.abs(f.samples - oracle))) <= 1e-10 * scale


def test_roundtrip_identity():
    rng = np.random.default_rng(5)
    for rho in (0.5, 1.0, 2.0):
        u = random_sequence(rng, 3, -7, 8)
        back = inverse_ztransform(ztransform(u, rho, 64), u.window)
        assert max_abs_diff(back, u) <= 1e-10


def test_inverse_of_constant_function():
    x = np.array([1.0, -0.5])
    f = CircleFunction(1.2, np.tile(x, (32, 1)))
    assert max_abs_diff(inverse_ztransform(f, (-3, 3)), impulse(0, x)) <= 1e-13


def test_inverse_of_z_to_minus_one():
    rho = 1.5
    x = np.array([0.7j])
    pts = rho * np.exp(2j * np.pi * np.arange(32) / 32)
    f = CircleFunction(rho, (x[None, :] / pts[:, None]))
    assert max_abs_diff(inverse_ztransform(f, (-3, 3)), impulse(1, x)) <= 1e-13


def test_parseval_impulse():
    x = np.array([1.0, 2.0])
    for rho in (0.5, 1.0, 2.0):
        for k in (-2, 0, 3):
            lhs, rhs = parseval_check(impulse(k, x), rho)
            expected = 5.0 * rho ** (-2.0 * k)
            assert lhs == pytest.approx(expected, rel=1e-12)
            assert rhs == pytest.approx(expected, rel=1e-12)


def test_parseval_zero():
    assert parseval_check(zero_sequence(2), 1.0) == (0.0, 0.0)


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parseval_random(rho, seed):
    rng = np.random.default_rng(seed)
    u = random_sequence(rng, int(rng.integers(1, 5)), -10, 12)
    lhs, rhs = parseval_check(u, rho)
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_multiplication_equivalence():
    assert multiplication_equiv_check(impulse(0, [1.0, 2.0]), 1.1) <= 1e-12
    assert multiplication_equiv_check(zero_sequence(2), 1.1) == 0.0
    rng = np.random.default_rng(7)
    for rho in (0.5, 1.0, 2.0):
        u = random_sequence(rng, 2, -8, 8)
        u = u.scale(1.0 / weighted_norm(u, Weight(rho, 2.0)))
        assert multiplication_equiv_check(u, rho) <= 1e-10


def test_positive_support_evidence():
    rng = np.random.default_rng(9)
    grid = [1.1, 1.3, 1.7, 2.3, 3.1]
    u_pos = random_sequence(rng, 2, 0, 7)
    sup, ok = positive_support_hardy_check(u_pos, 1.0, grid)
    assert ok and sup == pytest.approx(weighted_norm(u_pos, Weight(1.1, 2.0)) ** 2, rel=1e-12)

    u_neg = impulse(-1, [1.0])
    sup_neg, ok_neg = positive_support_hardy_check(u_neg, 1.0, grid)
    assert not ok_neg
    assert sup_neg == pytest.approx(3.1**2, rel=1e-12)  # |x|^2 mu^2 grows

    sup_zero, ok_zero = positive_support_hardy_check(zero_sequence(1), 1.0, grid)
    assert sup_zero == 0.0 and ok_zero


def test_positive_support_grid_validation():
    u = impulse(0, [1.0])
    with pytest.raises(InputError):
        positive_support_hardy_check(u, 1.0, [])
    with pytest.raises(InputError):
        positive_support_hardy_check(u, 1.0, [2.0, 1.5])
    with pytest.raises(InputError):
        positive_support_hardy_check(u, 1.0, [0.9, 1.5])


def test_sampled_basis_orthonormality():
    # p_{k,n}(z) = rho^k z^(-k) e_n; discrete inner products must be
    # delta pairs for |k| <= N/4
    rho, n_samples, dim = 1.3, 32, 2
    pts = rho * np.exp(2j * np.pi * np.arange(n_samples) / n_samples)

    def basis(k, comp):
        out = np.zeros((n_samples, dim), dtype=np.complex128)
        out[:, comp] = rho**k * pts ** (-k)
        return out

    ks = range(-n_samples // 4, n_samples // 4 + 1)
    for k in ks:
        for l in ks:
            for n in range(dim):
                for m in range(dim):
                    ip = np.mean(np.sum(np.conj(basis(k, n)) * basis(l, m), axis=1))
                    expected = 1.0 if (k == l and n == m) else 0.0
                    assert abs(ip - expected) <= 1e-10


def test_aliasing_and_window_errors():
    rng = np.random.default_rng(11)
    u = random_sequence(rng, 1, 0, 7)
    with pytest.raises(AliasingError):
        ztransform(u, 1.0, 8)  # needs N >= 16
    f = ztransform(u, 1.0, 16)
    with pytest.raises(WindowTooWide):
        inverse_ztransform(f, (0, 16))
    with pytest.raises(InputError):
        CircleFunction(1.0, np.zeros((6, 1)))  # not a power of two


def test_an_overflowing_transform_is_norm_overflow():
    # each coefficient is finite, their sum in the sample at z = 1 is not;
    # this used to return infinite samples
    u = WindowedSequence(0, [[1e308], [1e308]])
    with pytest.raises(NormOverflow, match="^a sample overflows at rho = 1.0$"):
        ztransform(u, 1.0)


def test_shift_intertwining_consistency_with_transform():
    # Z(tau u) equals z * Z(u) pointwise on the sample grid
    rng = np.random.default_rng(13)
    u = random_sequence(rng, 1, -4, 4)
    n = 32
    lhs = ztransform(shift(u, 1), 1.0, n).samples
    base = ztransform(u, 1.0, n)
    rhs = base.points()[:, None] * base.samples
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-12 * max(1.0, float(np.max(np.abs(rhs))))
