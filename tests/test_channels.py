import numpy as np
import pytest

from seqprod import (
    DecompositionError,
    DensityOperator,
    Effect,
    EffectDecomposition,
    QuantumChannel,
    ValidationError,
    apply_channel,
    apply_operation,
    choi_input_marginal,
    choi_matrix,
    choi_min_eigenvalue,
    compose,
    dual_apply,
    kraus_operator,
    luders_channel,
    luders_product,
    phased_channel,
    phased_product,
)

import helpers


def projective_decomposition(rng, dim, rank):
    e = helpers.random_projection_matrix(rng, dim, rank)
    return EffectDecomposition([Effect(e), Effect(np.eye(dim) - e)])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_channel_validation():
    with pytest.raises(ValidationError):
        QuantumChannel([])
    with pytest.raises(ValidationError):
        QuantumChannel([np.eye(2), np.eye(3)])
    with pytest.raises(ValidationError):
        QuantumChannel([1.1 * np.eye(2)])  # increases trace
    ch = QuantumChannel([np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)])
    assert ch.trace_preserving


def test_luders_channel_of_identity_is_identity():
    ch = luders_channel(Effect(np.eye(3)))
    assert ch.trace_preserving
    assert repr(ch) == "QuantumChannel(label='luders', dim=3, kraus=1)"
    rho = DensityOperator(np.eye(3) / 3)
    assert np.abs(apply_channel(ch, rho).matrix - rho.matrix).max() < 1e-14


def test_luders_channel_is_trace_non_increasing():
    rng = np.random.default_rng(1)
    b = helpers.random_effect(rng, 3)
    ch = luders_channel(b)
    assert not ch.trace_preserving
    rho = helpers.random_density(rng, 3)
    out = apply_operation(ch, rho)
    assert 0.0 <= np.trace(out).real <= 1.0 + 1e-12


def test_luders_channel_trace_oracle():
    # oracle: tr[B^{1/2} (I/2) B^{1/2}] = (0.25 + 0.81) / 2
    ch = luders_channel(Effect(np.diag([0.25, 0.81])))
    out = apply_operation(ch, np.eye(2) / 2)
    assert abs(np.trace(out).real - 0.53) < 1e-14


def test_effect_decomposition_validation():
    rng = np.random.default_rng(2)
    a = helpers.random_effect(rng, 2)
    with pytest.raises(DecompositionError):
        EffectDecomposition([a, a])
    with pytest.raises(DecompositionError):
        EffectDecomposition([])
    with pytest.raises(DecompositionError):
        EffectDecomposition([a, np.eye(2) - a.matrix])  # bare matrix
    d = EffectDecomposition([a, Effect(np.eye(2) - a.matrix)])
    assert len(d) == 2 and d.sum_deviation < 1e-12


@pytest.mark.parametrize("build, invariant", [
    (lambda: QuantumChannel([np.full((2, 2), np.nan)]), "NaN or Inf"),
    (lambda: QuantumChannel([0.5 * np.eye(2)], require_trace_preserving=True),
     "not trace-preserving"),
    (lambda: EffectDecomposition([Effect(np.eye(2)), Effect(np.eye(3))]),
     "mismatched dimensions"),
    (lambda: apply_operation(QuantumChannel([np.eye(2)]), np.eye(3)), "dimension mismatch"),
    (lambda: compose(QuantumChannel([np.eye(2)]), QuantumChannel([np.eye(3)])),
     "dimension mismatch"),
    (lambda: choi_input_marginal(np.eye(5)), "not a perfect square"),
    (lambda: QuantumChannel([1.0]), r"square of dimension >= 1, got shape \(\)"),
    (lambda: QuantumChannel([np.zeros((0, 0))]), r"dimension >= 1, got shape \(0, 0\)"),
], ids=["kraus-nan", "require-trace-preserving", "decomposition-dims",
        "apply-operation-dims", "compose-dims", "choi-not-square", "kraus-scalar",
        "kraus-empty"])
def test_malformed_channel_inputs_are_validation_errors(build, invariant):
    with pytest.raises(ValidationError, match=invariant):
        build()


# ---------------------------------------------------------------------------
# phased channels
# ---------------------------------------------------------------------------

def test_phased_channel_singleton_is_identity():
    d = EffectDecomposition([Effect(np.eye(2))])
    for t in (0.0, 1.0, -3.0):
        ch = phased_channel(d, t)
        rho = DensityOperator(np.array([[0.6, 0.2j], [-0.2j, 0.4]]))
        assert np.abs(apply_channel(ch, rho).matrix - rho.matrix).max() < 1e-12


def test_phased_channel_on_projections_is_projective_measurement():
    rng = np.random.default_rng(3)
    d = projective_decomposition(rng, 3, 1)
    e = d.effects[0].matrix
    f = d.effects[1].matrix
    rho = helpers.random_density(rng, 3)
    for t in (0.0, 1.0, 2.5):
        out = apply_channel(phased_channel(d, t), rho).matrix
        expected = e @ rho.matrix @ e + f @ rho.matrix @ f
        assert np.abs(out - expected).max() < 1e-12


def test_phased_channel_kraus_gram_sums_to_identity():
    a = Effect(np.diag([0.81, 0.25]))
    d = EffectDecomposition([a, Effect(np.eye(2) - a.matrix)])
    ch = phased_channel(d, 1.0)
    gram = sum(k.conj().T @ k for k in ch.kraus)
    assert np.linalg.norm(gram - np.eye(2)) <= 1e-11


def test_phased_channel_rejects_bad_decomposition():
    rng = np.random.default_rng(4)
    a = helpers.random_effect(rng, 2)
    with pytest.raises(DecompositionError):
        phased_channel([a, a], 1.0)


def test_apply_channel_requires_trace_preservation():
    rng = np.random.default_rng(5)
    ch = luders_channel(helpers.random_effect(rng, 2))
    with pytest.raises(ValidationError):
        apply_channel(ch, helpers.random_density(rng, 2))


def test_apply_channel_preserves_trace_and_positivity():
    rng = np.random.default_rng(6)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        d = helpers.random_effect_decomposition(rng, dim, int(rng.integers(2, 5)))
        t = float(rng.uniform(-2, 2))
        rho = helpers.random_density(rng, dim)
        out = apply_channel(phased_channel(d, t), rho)
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-11
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-11


def test_apply_channel_accepts_a_pure_output_within_tp_tol():
    # Σ A_j = (1 + 5e-9)·I is within the default sum_tol, so the output of a
    # pure state has trace and top eigenvalue 1 + 5e-9
    a = Effect((0.5 + 2.5e-9) * np.eye(2))
    out = apply_channel(phased_channel([a, a], 1.0), DensityOperator(np.diag([0.0, 1.0])))
    assert abs(out.matrix[1, 1] - (1.0 + 5e-9)) <= 1e-15


# ---------------------------------------------------------------------------
# dual map
# ---------------------------------------------------------------------------

def test_dual_of_identity_channel():
    ch = phased_channel([Effect(np.eye(2))], 1.0)
    x = np.array([[0.3, 0.1], [0.1, 0.9]])
    assert np.abs(dual_apply(ch, x) - x).max() < 1e-14


def test_dual_recovers_effect_from_identity():
    rng = np.random.default_rng(7)
    b = helpers.random_effect(rng, 3)
    assert np.abs(dual_apply(luders_channel(b), np.eye(3)) - b.matrix).max() <= 1e-10


def test_dual_of_luders_is_luders_product():
    rng = np.random.default_rng(8)
    b, c = helpers.random_effect(rng, 3), helpers.random_effect(rng, 3)
    lhs = dual_apply(luders_channel(b), c)
    assert np.linalg.norm(lhs - luders_product(b, c).matrix) <= 1e-10


def test_duality_identity():
    rng = np.random.default_rng(9)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        d = helpers.random_effect_decomposition(rng, dim, 3)
        ch = phased_channel(d, float(rng.uniform(-2, 2)))
        rho = helpers.random_density(rng, dim)
        x = helpers.random_hermitian(rng, dim)
        lhs = np.trace(apply_operation(ch, rho) @ x)
        rhs = np.trace(rho.matrix @ dual_apply(ch, x))
        assert abs(lhs - rhs) <= 1e-10


@pytest.mark.parametrize("t", [-1.0, 0.5, 1.0, 3.0])
def test_phased_channel_dual_is_product_at_minus_t(t):
    # K = A^{1/2}A^{it}, so K†BK = A^{1/2}A^{-it}BA^{it}A^{1/2} = A ∘_{−t} B
    rng = np.random.default_rng(13)
    decomposition = helpers.random_effect_decomposition(rng, 4, 2)
    a, b = decomposition.effects[0], helpers.random_effect(rng, 4)
    one = QuantumChannel(phased_channel(decomposition, t).kraus[:1])
    dual = dual_apply(one, b)
    assert np.abs(dual - phased_product(a, b, -t).matrix).max() <= 1e-12
    assert np.abs(dual - phased_product(a, b, t).matrix).max() > 1e-3


def test_compose_validates_at_operand_tolerance():
    # each operand is trace-preserving within its tp_tol = 1e-6; the composite
    # deviates by √2·5e-7, above TP_TOL but within √d·(s + f + s·f)
    a = Effect(np.diag([0.3, 0.6]))
    b = Effect(np.eye(2) - a.matrix + 2.5e-7 * np.eye(2))
    ch = phased_channel(EffectDecomposition([a, b], sum_tol=1e-6), 1.0)
    composite = compose(ch, ch)
    assert composite.trace_preserving
    assert composite.tp_tol == np.sqrt(2) * (2e-6 + 1e-12)


def test_composition_recovers_sequential_product():
    # perform the B-operation, then the C-operation; the composite dual at I
    # is exactly the Lüders product of B and C
    rng = np.random.default_rng(10)
    b, c = helpers.random_effect(rng, 3), helpers.random_effect(rng, 3)
    composite = compose(luders_channel(c), luders_channel(b))
    assert len(composite.kraus) == 1
    recovered = dual_apply(composite, np.eye(3))
    assert np.linalg.norm(recovered - luders_product(b, c).matrix) <= 1e-10


# ---------------------------------------------------------------------------
# Choi certificates
# ---------------------------------------------------------------------------

def test_choi_of_identity_channel():
    ch = phased_channel([Effect(np.eye(2))], 1.0)
    choi = choi_matrix(ch)
    w = np.linalg.eigvalsh(choi)
    assert np.allclose(w, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
    assert np.abs(choi_input_marginal(choi) - np.eye(2)).max() < 1e-12


def test_choi_of_projective_channel_rank_two():
    rng = np.random.default_rng(11)
    ch = phased_channel(projective_decomposition(rng, 2, 1), 1.0)
    w = np.linalg.eigvalsh(choi_matrix(ch))
    assert w[0] >= -1e-12
    assert np.sum(w > 1e-10) == 2


def test_choi_psd_and_marginal_for_random_channels():
    rng = np.random.default_rng(12)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        d = helpers.random_effect_decomposition(rng, dim, int(rng.integers(2, 5)))
        ch = phased_channel(d, 2.0)
        choi = choi_matrix(ch)
        assert np.linalg.eigvalsh(choi)[0] >= -1e-10
        assert np.abs(choi_input_marginal(choi) - np.eye(dim)).max() <= 1e-9


@pytest.mark.parametrize("dim, count", [(2, 2), (2, 4), (2, 5), (3, 9)])
def test_choi_min_eigenvalue_matches_choi_matrix(dim, count):
    rng = np.random.default_rng(10 * dim + count)
    channel = phased_channel(helpers.random_effect_decomposition(rng, dim, count), 1.0)
    reference = float(np.linalg.eigvalsh(choi_matrix(channel))[0])
    certificate = choi_min_eigenvalue(channel)
    assert abs(certificate - reference) <= 1e-12
    if count < dim * dim:
        assert certificate == 0.0


@pytest.mark.parametrize("dim", [2, 3, 6])
@pytest.mark.parametrize("t", [-1.0, 0.0, 0.5, 1.0, 3.0])
def test_channels_take_kraus_operator(t, dim):
    rng = np.random.default_rng(dim)
    decomposition = helpers.random_effect_decomposition(rng, dim, 3)
    channel = phased_channel(decomposition, t)
    for effect, kraus in zip(decomposition.effects, channel.kraus, strict=True):
        assert np.array_equal(kraus, kraus_operator(effect, t))
    b = decomposition.effects[0]
    assert np.array_equal(luders_channel(b).kraus[0], kraus_operator(b, 0.0))
