"""Shared randomized-instance generators for the test suite."""

import numpy as np

from specseq import BoundedOperator, WindowedSequence, operators


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def matrix_with_moduli(rng, moduli, shear=0.0):
    """Operator with prescribed eigenvalue moduli (random phases).

    A unitary similarity keeps the construction well conditioned; a small
    upper-triangular shear adds non-normality without moving eigenvalues.
    """
    moduli = np.asarray(moduli, dtype=np.float64)
    dim = moduli.size
    phases = np.exp(2j * np.pi * rng.random(dim))
    mat = np.diag(moduli * phases)
    if shear > 0.0:
        upper = np.triu(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), 1)
        t = np.eye(dim) + shear * upper
        mat = t @ mat @ np.linalg.inv(t)
    q = random_unitary(rng, dim)
    return BoundedOperator(q @ mat @ q.conj().T)


def random_sequence(rng, dim, lo, hi, scale=1.0):
    shape = (hi - lo + 1, dim)
    vals = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return WindowedSequence(lo, vals)


def random_vector(rng, dim, unit=True):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v) if unit else v


def counted_sigma_min(monkeypatch):
    """Patches ``operators._sigma_min`` to record the nodes of each call in
    the list it returns."""
    nodes = []
    sigma_min = operators._sigma_min

    def counted(a, z):
        nodes.append(len(z))
        return sigma_min(a, z)

    monkeypatch.setattr(operators, "_sigma_min", counted)
    return nodes
