import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqprod
from seqprod import (
    DecompositionError,
    DomainError,
    Effect,
    ValidationError,
    apply_spectral_function,
    hermitian_eig,
    hermitize,
    is_hermitian,
    is_psd,
    operator_norm,
)

import helpers


def test_eig_diagonal_passthrough():
    dec = hermitian_eig(np.diag([0.25, 0.81]))
    assert np.allclose(dec.eigenvalues, [0.25, 0.81], atol=1e-14)
    # eigenvectors of a diagonal matrix: a (sign-flipped) permutation of I
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-12)


def test_eig_identity():
    dec = hermitian_eig(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)
    v = dec.eigenvectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(3)) < 1e-12


def test_eig_reconstruction_random_4x4():
    rng = np.random.default_rng(11)
    a = helpers.random_hermitian(rng, 4)
    dec = hermitian_eig(a)
    assert np.linalg.norm(dec.reconstruct() - a) <= 1e-11 * np.linalg.norm(a)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 16))
def test_eig_quality_properties(seed, dim):
    rng = np.random.default_rng(seed)
    a = helpers.random_hermitian(rng, dim, scale=float(rng.uniform(0.1, 5.0)))
    dec = hermitian_eig(a)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    v = dec.eigenvectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-12 * dim
    assert np.linalg.norm(dec.reconstruct() - a) <= 1e-11 * max(1.0, np.linalg.norm(a))


def test_eig_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[np.nan, 0], [0, 1]]))


@pytest.mark.parametrize("matrix, message", [
    (np.zeros((2, 3)), "expected a square matrix"),
    (np.zeros((0, 0)), "matrices must have dimension >= 1"),
    (np.array([[np.nan, 0], [0, 1]]), "matrix contains NaN or Inf entries"),
], ids=["non-square", "empty", "nan"])
def test_invalid_matrix_is_a_validation_error(matrix, message):
    with pytest.raises(ValidationError, match=message):
        hermitize(matrix)


def test_every_invalid_input_error_is_one_validation_error():
    assert seqprod.ValidationError is seqprod.effects.ValidationError
    assert seqprod.ValidationError is seqprod.linalg.ValidationError
    assert issubclass(ValidationError, ValueError)
    assert issubclass(DomainError, ValidationError)
    assert issubclass(DecompositionError, ValidationError)


def test_apply_identity_function():
    dec = hermitian_eig(np.diag([0.25, 0.81]))
    out = apply_spectral_function(dec, lambda u: u)
    assert np.allclose(out, np.diag([0.25, 0.81]), atol=1e-14)


def test_apply_sqrt():
    dec = hermitian_eig(np.diag([0.25, 0.81]))
    out = apply_spectral_function(dec, math.sqrt)
    assert np.allclose(out, np.diag([0.5, 0.9]), atol=1e-14)


def test_apply_phase_function_with_zero_branch():
    # oracle: per-eigenvalue scalar evaluation
    dec = hermitian_eig(np.diag([0.0, 0.25]))
    f = lambda u: cmath.exp(1j * math.log(u)) if u > 0 else 0j
    out = apply_spectral_function(dec, f)
    expected = np.diag([0.0, cmath.exp(1j * math.log(0.25))])
    assert np.abs(out - expected).max() < 1e-14


def test_functional_calculus_homomorphism():
    rng = np.random.default_rng(5)
    a = helpers.random_effect(rng, 5)
    dec = a.decomposition
    f = lambda u: math.sqrt(u)
    g = lambda u: u * u
    fg = lambda u: math.sqrt(u) * u * u
    lhs = apply_spectral_function(dec, fg)
    rhs = apply_spectral_function(dec, f) @ apply_spectral_function(dec, g)
    assert np.abs(lhs - rhs).max() < 1e-11


def test_operator_norm_cases():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert abs(operator_norm(np.diag([0.25, -0.81])) - 0.81) < 1e-15


def test_operator_norm_matches_power_iteration():
    rng = np.random.default_rng(17)
    m = helpers.complex_gaussian(rng, 3)
    assert abs(operator_norm(m) - helpers.power_iteration_norm(m)) < 1e-9


def test_operator_norm_submultiplicative():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = helpers.complex_gaussian(rng, 4)
        n = helpers.complex_gaussian(rng, 4)
        assert operator_norm(m @ n) <= operator_norm(m) * operator_norm(n) + 1e-9


def test_is_psd():
    assert is_psd(np.diag([0.0, 0.5]))
    assert not is_psd(np.diag([-0.01, 0.5]))
    rng = np.random.default_rng(3)
    b = helpers.random_effect(rng, 4)
    root = hermitian_eig(b.matrix).apply(np.sqrt(np.clip(hermitian_eig(b.matrix).eigenvalues, 0, None)))
    assert is_psd(root @ root)


def test_support_projection():
    support = Effect(np.diag([0.0, 0.5])).support
    assert np.allclose(support, np.diag([0.0, 1.0]), atol=1e-14)
    assert np.allclose(Effect(np.eye(2)).support, np.eye(2), atol=1e-14)
    # rank-1 effect: oracle is the direct projector formula
    rng = np.random.default_rng(9)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    support = Effect(np.outer(v, v.conj())).support
    assert np.abs(support - np.outer(v, v.conj())).max() < 1e-12


def test_hermitize_and_strict_validator():
    m = np.array([[1.0, 1.0 + 1e-12j], [1.0, 2.0]])
    h = hermitize(m)
    assert np.abs(h - h.conj().T).max() == 0.0
    assert is_hermitian(h)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
