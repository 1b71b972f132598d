import cmath
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqprod
from seqprod import (
    DecompositionError,
    DensityOperator,
    DomainError,
    Effect,
    EffectDecomposition,
    QuantumChannel,
    ValidationError,
    check_commutativity_theorem,
    check_s2,
    f_z,
    find_nonuniqueness_witness,
    hermitian_eig,
    hermitize,
    is_hermitian,
    luders_product,
    operator_norm,
)
from seqprod.serialize import document_to_matrix, matrix_to_document

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
    (np.zeros((2, 3)), r"expected a square matrix, got shape \(2, 3\)"),
    (np.zeros((0, 0)), "matrices must have dimension >= 1"),
    (np.array([[np.nan, 0], [0, 1]]), "matrix contains NaN or Inf entries"),
    # a stack (n, d, d) is checked as a whole, with a single matrix's messages
    (np.zeros((2, 2, 3)), r"expected a square matrix, got shape \(2, 2, 3\)"),
    (np.zeros((2, 0, 0)), "matrices must have dimension >= 1"),
    (np.stack([np.eye(2), [[np.nan, 0], [0, 1]]]), "matrix contains NaN or Inf entries"),
    (np.zeros((2, 2, 2, 2)), r"expected a square matrix, got shape \(2, 2, 2, 2\)"),
], ids=["non-square", "empty", "nan", "stack-non-square", "stack-empty", "stack-nan",
        "stack-of-stacks"])
def test_invalid_matrix_is_a_validation_error(matrix, message):
    for fn in (hermitize, hermitian_eig):
        with pytest.raises(ValidationError, match=message):
            fn(matrix)


def test_every_invalid_input_error_is_one_validation_error():
    assert seqprod.ValidationError is seqprod.effects.ValidationError
    assert seqprod.ValidationError is seqprod.linalg.ValidationError
    assert issubclass(ValidationError, ValueError)
    assert issubclass(DomainError, ValidationError)
    assert issubclass(DecompositionError, ValidationError)


def test_package_namespace_is_the_union_of_the_module_apis():
    public = {name for name, value in vars(seqprod).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    modules = (seqprod.linalg, seqprod.effects, seqprod.axioms, seqprod.channels)
    assert public == {name for m in modules for name in m.__all__}


TOLERANCE_ENTRY_POINTS = {
    "ceiling": lambda v: check_s2(luders_product, trials=2, dims=(2,), ceiling=v),
    "comm_floor": lambda v: check_commutativity_theorem(
        luders_product, trials=2, dims=(2,), comm_floor=v),
    "separation_floor": lambda v: check_commutativity_theorem(
        luders_product, trials=2, dims=(2,), separation_floor=v),
    "gap_threshold": lambda v: find_nonuniqueness_witness(trials=2, gap_threshold=v),
    "sum_tol": lambda v: EffectDecomposition([Effect(np.eye(2))], sum_tol=v),
    "tp_tol": lambda v: QuantumChannel([np.eye(2)], tp_tol=v),
    "trace_tol": lambda v: DensityOperator(np.eye(2) / 2, trace_tol=v),
}


@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf, True, False, np.True_],
                         ids=["nan", "negative", "inf", "true", "false", "numpy_true"])
@pytest.mark.parametrize("name", TOLERANCE_ENTRY_POINTS)
def test_every_tolerance_is_a_finite_real_at_least_zero(name, value):
    # a NaN compares false against every defect, so it would pass every check,
    # and float() takes a bool as a tolerance of 0 or 1
    with pytest.raises(ValidationError, match=f"{name} must be a finite real >= 0"):
        TOLERANCE_ENTRY_POINTS[name](value)


def test_apply_identity_function():
    dec = hermitian_eig(np.diag([0.25, 0.81]))
    out = dec.apply(dec.eigenvalues)
    assert np.allclose(out, np.diag([0.25, 0.81]), atol=1e-14)


def test_apply_sqrt():
    dec = hermitian_eig(np.diag([0.25, 0.81]))
    out = dec.apply(f_z(0.5, dec.eigenvalues))
    assert np.allclose(out, np.diag([0.5, 0.9]), atol=1e-14)


def test_apply_phase_function_with_zero_branch():
    # oracle: per-eigenvalue scalar evaluation
    dec = hermitian_eig(np.diag([0.0, 0.25]))
    out = dec.apply(f_z(1j, dec.eigenvalues))
    expected = np.diag([0.0, cmath.exp(1j * math.log(0.25))])
    assert np.abs(out - expected).max() < 1e-14


def test_functional_calculus_homomorphism():
    # f_z(1/2)·f_z(2) = f_z(5/2), i.e. √u·u² = u^{5/2}
    rng = np.random.default_rng(5)
    a = helpers.random_effect(rng, 5)
    dec = a.decomposition
    lhs = dec.apply(f_z(2.5, dec.eigenvalues))
    rhs = dec.apply(f_z(0.5, dec.eigenvalues)) @ dec.apply(f_z(2.0, dec.eigenvalues))
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
    # positivity is checked where it is needed, by the effect constructor
    Effect(np.diag([0.0, 0.5]))
    with pytest.raises(ValidationError, match="escapes"):
        Effect(np.diag([-0.01, 0.5]))
    rng = np.random.default_rng(3)
    b = helpers.random_effect(rng, 4)
    root = hermitian_eig(b.matrix).apply(np.sqrt(np.clip(hermitian_eig(b.matrix).eigenvalues, 0, None)))
    Effect(root @ root)


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


@pytest.mark.parametrize("entry", [1e150, 1e155, 1e200, 1.7e308])
def test_strict_validator_survives_norm_overflow(entry):
    # an anti-Hermitian pair whose Frobenius norms overflow is not Hermitian;
    # scaled by an exact power of two, a Hermitian matrix of such entries is
    anti = np.array([[0.5, entry], [-entry, 0.5]])
    assert not is_hermitian(anti)
    assert is_hermitian(np.array([[entry, 1j * entry], [-1j * entry, entry]]))
    with pytest.raises(ValidationError, match="not Hermitian"):
        document_to_matrix(matrix_to_document(anti))
