import cmath
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqprod.axioms
import seqprod.effects
import seqprod.linalg
from seqprod import (
    DensityOperator,
    DomainError,
    Effect,
    EffectDecomposition,
    Projection,
    QuantumChannel,
    ValidationError,
    closed_form_2d,
    distinct_spectrum,
    effect_power_it,
    f_z,
    haar_unitary,
    hermitian_eig,
    hermitize,
    kraus_operator,
    luders_product,
    operator_norm,
    phased_channel,
    phased_product,
    product_on_selfadjoint,
    sqrt_effect,
)

import helpers

T_VALUES = (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0)


# ---------------------------------------------------------------------------
# scalar functional calculus
# ---------------------------------------------------------------------------

def test_f_z_at_one():
    assert f_z(1j, 1.0) == 1.0 + 0j


def test_f_z_at_zero():
    for z in (1j, -1j, 2.5 - 0.5j):
        assert f_z(z, 0.0) == 0j


def test_f_z_scalar_oracle():
    expected = complex(math.cos(math.log(0.25)), math.sin(math.log(0.25)))
    assert abs(f_z(1j, 0.25) - expected) < 1e-15


def test_f_z_rejects_out_of_domain():
    with pytest.raises(DomainError):
        f_z(1j, -0.1)
    with pytest.raises(DomainError):
        f_z(1j, 1.1)


F_Z_ARGS = [1j, -1j, 0.5 + 1j, 0.5 - 1j, 0.5, 0.0, 2.5 - 0.5j, -0.3 + 2.0j, 0.5 - 1e300j]
# 0, within DOMAIN_SLACK of the ends, below the support cutoff, tiny and ordinary
F_Z_POINTS = np.array([0.0, -5e-13, 1e-300, 1e-11, 0.25, 0.7, 1.0, 1.0 + 5e-13])


@pytest.mark.parametrize("z", F_Z_ARGS)
def test_f_z_on_an_array_is_the_scalar_calls(z):
    out = f_z(z, F_Z_POINTS)
    assert out.shape == F_Z_POINTS.shape and out.dtype == np.complex128
    for u, value in zip(F_Z_POINTS, out):
        assert np.complex128(f_z(z, float(u))).tobytes() == value.tobytes()
    assert np.array_equal(f_z(z, F_Z_POINTS.reshape(2, 4)), out.reshape(2, 4))
    assert f_z(z, F_Z_POINTS[2:]).tobytes() == out[2:].tobytes()  # no zeros


@pytest.mark.parametrize("z", F_Z_ARGS)
def test_f_z_of_conjugate_is_exact_conjugate(z):
    z = complex(z)
    # exact values; a zero imaginary part (u = 0 or 1) may differ in its sign only
    assert np.array_equal(f_z(z.conjugate(), F_Z_POINTS), f_z(z, F_Z_POINTS).conj())


@pytest.mark.parametrize("z", F_Z_ARGS)
def test_f_z_is_exact_zero_at_zero(z):
    out = f_z(z, F_Z_POINTS)
    assert out[0] == 0j and out[1] == 0j  # -5e-13 is clamped to 0
    assert f_z(z, np.zeros(3)).tolist() == [0j, 0j, 0j]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z, u, message", [
    (complex("nan"), 0.5, "not finite"),
    (complex(0.0, math.inf), 0.5, "not finite"),
    (complex(math.inf, 1.0), np.array([0.0, 0.5]), "not finite"),
    (1e308j, 1e-300, "overflows the phase"),
    (-1e308j, np.array([0.5, 1e-300]), "overflows the phase"),
    (-1000.0, 1e-300, "overflows the magnitude"),
    (-1000.0 + 1j, np.array([1.0, 1e-300, 0.0]), "overflows the magnitude"),
    # the first value outside in ravel order, as repr(float) writes it
    (1j, np.array([0.5, math.nan, 2.0]), r"^u = nan lies outside \[0, 1\]$"),
    (1j, np.array([0.5, -math.inf]), r"^u = -inf lies outside"),
    (1j, np.array([[0.5, 0.1], [-0.1, 0.2]]), r"^u = -0\.1 lies outside"),
    (1j, np.array([[0.5, 1.5], [-0.1, 0.2]]), r"^u = 1\.5 lies outside"),
    (1j, np.float64(-1e-11), r"^u = -1e-11 lies outside"),
    (1j, np.array([1.0 + 2e-12]), r"^u = 1\.000000000002 lies outside"),
], ids=["nan", "inf_phase", "inf_magnitude", "phase", "phase_array", "magnitude",
        "magnitude_array", "nan_u", "inf_u", "negative_u", "first_outside_u",
        "numpy_scalar_u", "past_slack_u"])
def test_f_z_rejects_what_it_cannot_evaluate(z, u, message):
    with pytest.raises(DomainError, match=message):
        f_z(z, u)


def test_f_z_at_the_edge_of_overflow_is_finite():
    # the largest finite phase and a magnitude just below overflow both evaluate
    assert np.isfinite(f_z(1e305j, np.array([1e-300, 0.5]))).all()
    assert np.isfinite(f_z(-2.0, 1e-154))


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------

def test_effect_rejects_bad_spectrum():
    with pytest.raises(ValidationError):
        Effect(np.diag([-0.01, 0.5]))
    with pytest.raises(ValidationError):
        Effect(np.diag([0.5, 1.01]))


def test_effect_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError):
        Effect(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Effect(np.array([[np.inf, 0], [0, 1]]))


def test_effect_clamps_decomposition():
    e = Effect(np.diag([1.0 + 5e-11, -5e-11]))
    w = e.decomposition.eigenvalues
    assert w[0] == 0.0 and w[-1] == 1.0


def _built_from_matrix(lam, v):
    m = (v * lam) @ v.conj().T
    raw = hermitian_eig(hermitize(m))
    snapped = np.where(raw.eigenvalues > 1e-10, raw.eigenvalues, 0.0)
    return Effect(m), Effect.from_eigensystem(snapped, raw.eigenvectors)


def _built_from_eigensystem(lam, v):
    exact = np.where(lam > 1e-10, lam, 0.0)
    return Effect.from_eigensystem(lam, v), Effect.from_eigensystem(exact, v)


@pytest.mark.parametrize("build", [_built_from_eigensystem, _built_from_matrix],
                         ids=["from_eigensystem", "matrix"])
def test_sub_cutoff_eigenvalue_is_snapped_to_exact_zero(build):
    # 5e-11 lies below the support cutoff 1e-10: the decomposition holds an
    # exact 0.0 there, and every reader sees the same effect as with a 0
    rng = np.random.default_rng(29)
    tiny, zero = build(np.array([5e-11, 0.5, 0.8]), haar_unitary(3, rng))
    assert tiny.decomposition.eigenvalues[0] == 0.0
    assert np.array_equal(tiny.decomposition.eigenvalues,
                          zero.decomposition.eigenvalues)
    b = helpers.random_effect(rng, 3)
    for t in (-1.0, 0.0, 1.0):
        assert np.array_equal(phased_product(tiny, b, t).matrix,
                              phased_product(zero, b, t).matrix)
    assert np.array_equal(tiny.support, zero.support)
    assert np.array_equal(distinct_spectrum(tiny), distinct_spectrum(zero))


def test_projection_validation():
    rng = np.random.default_rng(1)
    p = Projection(helpers.random_projection_matrix(rng, 4, 2))
    assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) < 1e-11
    # idempotence alone decides: a spectrum off {0, 1} is not idempotent
    with pytest.raises(ValidationError, match="not idempotent"):
        Projection(np.diag([0.5, 1.0]))


@pytest.mark.parametrize("build, invariant", [
    (lambda: Effect.from_eigensystem([0.5, 0.5], np.eye(3)), "shapes do not match"),
    (lambda: Effect.from_eigensystem([[0.5, 0.5]], np.eye(2)), "shapes do not match"),
    (lambda: Effect.from_eigensystem([math.nan, 0.5], np.eye(2)), "NaN or Inf"),
    (lambda: Effect.from_eigensystem([0.2, 0.5], [[1.0, 1.0], [0.0, 1.0]]),
     "not orthonormal"),
    (lambda: Projection(np.diag([1.0 + 5e-11, 0.0])), "not idempotent"),
    # an out-of-range message prints the value that escapes, not a rounding of it
    (lambda: Effect(np.eye(2) - np.diag([1.0, 0.0]) + 3e-9 * np.eye(2)), "1.000000003"),
    (lambda: DensityOperator(np.diag([0.0, 1.0 + 3e-8]), trace_tol=1e-8), "1.00000001"),
    (lambda: closed_form_2d(0.5, 0.5, 1 + 2e-12, 0, 0.5), "1.000000000002"),
    (lambda: closed_form_2d(0.5, 0.5, 0.5, 0, 0.5, t=math.inf), "t must be finite, got inf"),
    (lambda: closed_form_2d(0.5, 0.5, 0.5, 0, 0.5, t=math.nan), "t must be finite, got nan"),
    (lambda: QuantumChannel([np.sqrt(1 + 5e-10) * np.eye(2)]), "1.0000000005"),
    # an effect is one matrix: a stack of them is no effect
    (lambda: Effect(np.zeros((2, 2, 2))), r"expected a square matrix, got shape \(2, 2, 2\)"),
], ids=["eigensystem-shapes", "eigensystem-2d-eigenvalues", "eigensystem-nan",
        "eigensystem-not-orthonormal", "projection-not-idempotent", "effect-above-one",
        "state-above-trace-edge", "closed-form-above-one", "closed-form-infinite-t",
        "closed-form-nan-t", "channel-increases-trace", "effect-of-a-stack"])
def test_malformed_operands_are_validation_errors(build, invariant):
    with pytest.raises(ValidationError, match=invariant):
        build()


def test_density_operator_validation():
    with pytest.raises(ValidationError):
        DensityOperator(np.diag([0.7, 0.7]))
    with pytest.raises(ValidationError, match=r"effect spectrum \[-0\.2, "):
        DensityOperator(np.diag([1.2, -0.2]))
    rho = DensityOperator(np.diag([0.3, 0.7]))
    assert rho.dim == 2 and repr(rho) == "DensityOperator(dim=2)"
    # a state is an effect of unit trace, decomposed and snapped like any effect
    assert issubclass(DensityOperator, Effect)
    rho = DensityOperator(np.diag([1e-12, 1.0 - 1e-12]))
    assert rho.decomposition.eigenvalues.tolist() == [0.0, 1.0 - 1e-12]
    # a state's spectrum is bounded by its trace, within trace_tol of 1
    DensityOperator(np.diag([0.0, 1.0 + 5e-9]), trace_tol=1e-8)
    with pytest.raises(ValidationError, match="escapes"):
        DensityOperator(np.diag([-1e-8, 1.0 + 1e-8]), trace_tol=1e-8)


@pytest.mark.parametrize("build", [Effect, DensityOperator])
def test_construction_symmetrizes_once(build, monkeypatch):
    # hermitian_eig takes the symmetrized matrix as it is
    calls = []

    def counted(matrix):
        calls.append(None)
        return hermitize(matrix)

    monkeypatch.setattr(seqprod.effects, "hermitize", counted)
    monkeypatch.setattr(seqprod.linalg, "hermitize", counted)
    build(np.array([[0.5, 0.1j], [-0.1j, 0.5]]))
    assert len(calls) == 1


def _counted_calls(monkeypatch, *names):
    """A list that records (name, items) for each call of these functions of
    ``seqprod.effects``, items the product of the argument's stack axes."""
    calls = []

    def counted(fn):
        def call(matrix):
            calls.append((fn.__name__, math.prod(np.shape(matrix)[:-2])))
            return fn(matrix)
        return call

    for name in names:
        monkeypatch.setattr(seqprod.effects, name, counted(getattr(seqprod.effects, name)))
    return calls


@pytest.mark.parametrize("build, items, pending", [
    (lambda a, b: Effect(a.matrix[0]), 1, False),
    (lambda a, b: Projection(np.diag([1.0, 0.0, 1.0])), 1, False),
    (lambda a, b: DensityOperator(np.diag([0.2, 0.3, 0.5])), 1, False),
    (lambda a, b: seqprod.effects._effect_stack(a.matrix), 5, True),
    (lambda a, b: phased_product(a, b, 1.0), 5, True),
    (lambda a, b: luders_product(a, b), 5, True),
], ids=["Effect", "Projection", "DensityOperator", "stack", "phased_product", "luders_product"])
def test_one_symmetrization_and_one_eigensolve_per_construction(build, items, pending,
                                                                monkeypatch):
    # every effect is built by one hermitize call and decomposed by one
    # hermitian_eig call, a stack's on the whole stack (n, d, d); a single
    # effect is decomposed when built, a stack built from matrices inside
    # the library when its decomposition is first read
    rng = np.random.default_rng(8)
    a = seqprod.effects._EffectStack.of(_mixed_effects(rng, 3, 5))
    b = seqprod.effects._EffectStack.of(_mixed_effects(rng, 3, 5))
    calls = _counted_calls(monkeypatch, "hermitize", "hermitian_eig")
    built = build(a, b)
    assert calls == [("hermitize", items)] + [("hermitian_eig", items)] * (not pending)
    calls.clear()
    for _ in range(2):
        built.decomposition
    assert calls == [("hermitian_eig", items)] * pending


def test_a_built_stack_escaping_one_is_rejected_when_built(monkeypatch):
    # the spectrum check is not left to the first read: a stack whose
    # certificate fails is decomposed at once and fails with the error an
    # eager build gives, over the whole stack's spectra
    rng = np.random.default_rng(12)
    good = [e.matrix for e in _mixed_effects(rng, 2, 3)]
    m = np.stack([good[0], np.diag([1.5, 0.2]), good[2]]).astype(np.complex128)
    w = np.linalg.eigvalsh(m)
    message = (f"effect spectrum [{float(w[:, 0].min())!r}, {float(w[:, -1].max())!r}] "
               f"escapes [0, 1.0] by more than 1e-10")
    with pytest.raises(ValidationError) as eager:
        seqprod.effects._decomposed(m)
    assert str(eager.value) == message
    with pytest.raises(ValidationError) as built:
        seqprod.effects._effect_stack(m)
    assert str(built.value) == message
    # within SPECTRUM_TOL of [0, 1] the certificate passes, with nothing decomposed
    calls = _counted_calls(monkeypatch, "hermitian_eig")
    edge = seqprod.effects._effect_stack(
        np.stack([good[0], np.diag([1.0 + 5e-11, -5e-11]), good[2]]))
    assert calls == []
    assert edge.decomposition.eigenvalues[1].tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# phase factors A^{it}
# ---------------------------------------------------------------------------

def test_power_it_on_projection_is_projection():
    rng = np.random.default_rng(2)
    p = Projection(helpers.random_projection_matrix(rng, 3, 2))
    for t in T_VALUES:
        assert np.abs(effect_power_it(p, t) - p.matrix).max() < 1e-12


def test_power_it_identity():
    e = Effect(np.eye(3))
    assert np.abs(effect_power_it(e, 1.0) - np.eye(3)).max() < 1e-14


def test_power_it_diagonal_oracle():
    # oracle: per-eigenvalue scalar evaluation
    a = Effect(np.diag([0.81, 0.25]))
    expected = np.diag([
        cmath.exp(1j * math.log(0.81)),
        cmath.exp(1j * math.log(0.25)),
    ])
    assert np.abs(effect_power_it(a, 1.0) - expected).max() < 1e-14


def test_power_it_adjoint_exact_and_unitary_on_support():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4, 6):
        a = helpers.random_effect(rng, dim)
        for t in T_VALUES:
            f = effect_power_it(a, t)
            g = effect_power_it(a, -t)
            assert np.array_equal(f.conj().T, g)
            assert operator_norm(f) <= 1.0 + 1e-12
            assert np.linalg.norm(f @ g - a.support) <= 1e-10


def test_power_it_kernel_cutoff():
    a = Effect(np.diag([0.0, 1e-12, 0.5]))
    f = effect_power_it(a, 2.0)
    # sub-cutoff eigenvalues map to zero, like the exact kernel
    assert np.abs(f[:2, :2]).max() < 1e-11
    assert abs(f[2, 2] - cmath.exp(2j * math.log(0.5))) < 1e-12


# ---------------------------------------------------------------------------
# square root
# ---------------------------------------------------------------------------

def test_sqrt_diagonal():
    s = sqrt_effect(Effect(np.diag([0.25, 0.81])))
    assert np.allclose(s.matrix, np.diag([0.5, 0.9]), atol=1e-14)


def test_sqrt_projection_fixed_point():
    rng = np.random.default_rng(4)
    p = Projection(helpers.random_projection_matrix(rng, 4, 2))
    assert np.abs(sqrt_effect(p).matrix - p.matrix).max() < 1e-12


def test_sqrt_squares_back():
    rng = np.random.default_rng(5)
    for dim in (2, 4, 6):
        a = helpers.random_effect(rng, dim)
        s = sqrt_effect(a).matrix
        assert np.linalg.norm(s @ s - a.matrix) <= 1e-10


# ---------------------------------------------------------------------------
# the two products
# ---------------------------------------------------------------------------

def test_luders_identity_left():
    rng = np.random.default_rng(6)
    b = helpers.random_effect(rng, 3)
    assert np.abs(luders_product(Effect(np.eye(3)), b).matrix - b.matrix).max() < 1e-13


def test_luders_projection_sandwich():
    rng = np.random.default_rng(7)
    e = Projection(helpers.random_projection_matrix(rng, 3, 1))
    b = helpers.random_effect(rng, 3)
    expected = e.matrix @ b.matrix @ e.matrix
    assert np.abs(luders_product(e, b).matrix - expected).max() < 1e-12


def test_luders_2x2_off_diagonal():
    # oracle: explicit 2x2 multiplication, off-diagonal = 0.9 * 0.5 * y
    y = 0.11 + 0.07j
    b = Effect(np.array([[0.5, y], [y.conjugate(), 0.5]]))
    out = luders_product(Effect(np.diag([0.81, 0.25])), b)
    assert abs(out.matrix[0, 1] - 0.45 * y) < 1e-14


def test_phased_identity_left():
    rng = np.random.default_rng(8)
    b = helpers.random_effect(rng, 4)
    for t in T_VALUES:
        assert np.abs(phased_product(Effect(np.eye(4)), b, t).matrix - b.matrix).max() < 1e-12


def test_phased_projection_sandwich():
    rng = np.random.default_rng(9)
    e = Projection(helpers.random_projection_matrix(rng, 4, 2))
    b = helpers.random_effect(rng, 4)
    expected = e.matrix @ b.matrix @ e.matrix
    for t in T_VALUES:
        assert np.abs(phased_product(e, b, t).matrix - expected).max() < 1e-11


def test_phased_2x2_phase_twist():
    y = 0.1 - 0.05j
    b = Effect(np.array([[0.4, y], [y.conjugate(), 0.6]]))
    out = phased_product(Effect(np.diag([0.81, 0.25])), b, 1.0)
    theta = math.log(0.81) - math.log(0.25)
    assert abs(theta - 1.17557) < 1e-5
    assert abs(out.matrix[0, 0] - 0.81 * 0.4) < 1e-14
    assert abs(out.matrix[1, 1] - 0.25 * 0.6) < 1e-14
    assert abs(out.matrix[0, 1] - 0.45 * cmath.exp(1j * theta) * y) < 1e-14


def test_phased_t_zero_is_luders_exactly():
    rng = np.random.default_rng(10)
    for dim in (2, 3, 5):
        a, b = helpers.random_effect(rng, dim), helpers.random_effect(rng, dim)
        d = phased_product(a, b, 0.0).matrix - luders_product(a, b).matrix
        assert np.linalg.norm(d) == 0.0


def test_phased_rejects_mismatched_dims_and_bad_t():
    a = Effect(np.eye(2))
    b = Effect(np.eye(3))
    with pytest.raises(ValidationError):
        phased_product(a, b, 1.0)
    with pytest.raises(DomainError):
        phased_product(a, Effect(np.eye(2)), math.inf)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4, 5, 6]),
       t=st.sampled_from(T_VALUES))
def test_phased_effect_closure(seed, dim, t):
    rng = np.random.default_rng(seed)
    a, b = helpers.random_effect(rng, dim), helpers.random_effect(rng, dim)
    out = phased_product(a, b, t)
    w = np.linalg.eigvalsh(out.matrix)
    assert w[0] >= -1e-10 and w[-1] <= 1.0 + 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.sampled_from(T_VALUES),
       scale=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
def test_scalar_homogeneity_both_arguments(seed, t, scale):
    # spectra kept >= 0.01 so scaling never crosses the support cutoff,
    # where the kernel convention makes both sides legitimately diverge
    rng = np.random.default_rng(seed)
    a = Effect.from_eigensystem(rng.uniform(0.01, 1.0, 4), haar_unitary(4, rng))
    b = Effect.from_eigensystem(rng.uniform(0.01, 1.0, 4), haar_unitary(4, rng))
    scaled_b = Effect(scale * b.matrix)
    lhs = phased_product(a, scaled_b, t).matrix
    assert np.linalg.norm(lhs - scale * phased_product(a, b, t).matrix) <= 1e-11
    scaled_a = Effect(scale * a.matrix)
    lhs = phased_product(scaled_a, b, t).matrix
    assert np.linalg.norm(lhs - scale * phased_product(a, b, t).matrix) <= 1e-11


def test_projection_absorption():
    # an effect below a projection is fixed by products with it, both ways
    rng = np.random.default_rng(12)
    for dim in (3, 4):
        e = Projection(helpers.random_projection_matrix(rng, dim, dim - 1))
        x = helpers.random_effect(rng, dim)
        a = Effect(e.matrix @ x.matrix @ e.matrix)
        for t in T_VALUES:
            assert np.linalg.norm(phased_product(e, a, t).matrix - a.matrix) <= 1e-10
            assert np.linalg.norm(phased_product(a, e, t).matrix - a.matrix) <= 1e-10


def test_additivity_in_second_argument():
    rng = np.random.default_rng(13)
    for t in T_VALUES:
        a = helpers.random_effect(rng, 4)
        b = helpers.random_effect(rng, 4)
        comp = Effect(np.eye(4) - b.matrix)
        root = sqrt_effect(comp).matrix
        c = Effect(root @ helpers.random_effect(rng, 4).matrix @ root)
        lhs = phased_product(a, Effect(b.matrix + c.matrix), t).matrix
        rhs = phased_product(a, b, t).matrix + phased_product(a, c, t).matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-11


# ---------------------------------------------------------------------------
# closed 2x2 form
# ---------------------------------------------------------------------------

def test_closed_form_equal_weights_is_scalar_luders():
    y = 0.2 + 0.1j
    out = closed_form_2d(0.7, 0.7, 0.5, y, 0.5, t=2.5)
    b = np.array([[0.5, y], [y.conjugate(), 0.5]])
    assert np.abs(out - 0.49 * b).max() < 1e-15


def test_closed_form_boundary_cases():
    out = closed_form_2d(1.0, 0.0, 0.3, 0.2j, 0.4)
    assert np.abs(out - np.diag([0.3, 0.0])).max() == 0.0
    out = closed_form_2d(0.0, 0.5, 0.3, 0.2j, 0.4)
    assert np.abs(out - np.diag([0.0, 0.1])).max() < 1e-15
    out = closed_form_2d(0.0, 0.0, 0.3, 0.2j, 0.4)
    assert np.abs(out).max() == 0.0


@pytest.mark.parametrize("t", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("a, b, spectrum", [
    (1e-200, 0.5, [0.0, 0.25]),
    (0.5, 1e-200, [0.25, 0.0]),
], ids=["a-squared-underflows", "b-squared-underflows"])
def test_closed_form_square_that_underflows_is_a_kernel(a, b, spectrum, t):
    # a² or b² rounds to 0.0, an eigenvalue 0 of A, whose row and column collapse
    x, y, z = 0.5, 0.2, 0.5
    direct = closed_form_2d(a, b, x, y, z, t)
    spectral = phased_product(Effect(np.diag(spectrum)),
                              Effect(np.array([[x, y], [y, z]])), t).matrix
    assert np.abs(direct - spectral).max() <= 1e-12


def test_closed_form_subnormal_square_keeps_the_phase():
    out = closed_form_2d(1e-160, 0.5, 0.5, 0.2, 0.5, t=1.0)  # a² = 1e-320 > 0
    assert out[0, 0].real > 0.0
    theta = math.log(1e-160 ** 2) - math.log(0.25)
    assert cmath.isclose(out[0, 1], 1e-160 * 0.5 * cmath.exp(1j * theta) * 0.2)


def test_closed_form_matches_spectral_route():
    rng = np.random.default_rng(14)
    for _ in range(200):
        a, b = rng.uniform(1e-4, 1.0, 2)
        eff_b = helpers.random_effect(rng, 2)
        x = eff_b.matrix[0, 0].real
        y = eff_b.matrix[0, 1]
        z = eff_b.matrix[1, 1].real
        t = float(rng.uniform(-3, 3))
        direct = closed_form_2d(a, b, x, y, z, t)
        spectral = phased_product(Effect(np.diag([a * a, b * b])), eff_b, t).matrix
        assert np.abs(direct - spectral).max() <= 1e-12


def test_closed_form_rejects_invalid_inputs():
    with pytest.raises(DomainError):
        closed_form_2d(1.2, 0.5, 0.5, 0.0, 0.5)
    with pytest.raises(DomainError):
        closed_form_2d(0.5, 0.5, 0.9, 0.9, 0.9)  # not an effect
    with pytest.raises(DomainError):
        closed_form_2d(0.5, 0.5, math.nan, 0.0, 0.5)


def test_overflowing_phase_is_a_domain_error():
    # |t·ln λ| overflows to inf, where cos and sin would give NaN
    with pytest.raises(DomainError, match="overflows the phase"):
        closed_form_2d(0.9, 1e-5, 0.5, 0.2, 0.5, t=1e308)
    a, b = Effect(np.diag([1e-9, 0.5])), Effect(np.eye(2) / 2)
    for t in (1e307, -1e307):
        with pytest.raises(DomainError, match="overflows the phase"):
            phased_product(a, b, t)
    # the same t is finite on a spectrum whose logarithms are small enough
    assert np.isfinite(phased_product(Effect(np.eye(2) * 0.9), b, 1e307).matrix).all()


# ---------------------------------------------------------------------------
# linear extension to self-adjoint operands
# ---------------------------------------------------------------------------

def test_selfadjoint_extension_zero_and_scalar():
    rng = np.random.default_rng(15)
    b = helpers.random_effect(rng, 3)
    assert np.abs(product_on_selfadjoint(b, np.zeros((3, 3)), 1.0)).max() == 0.0
    out = product_on_selfadjoint(b, 2.5 * np.eye(3), 1.0)
    assert np.linalg.norm(out - 2.5 * b.matrix) <= 1e-12


def test_selfadjoint_extension_matches_difference_of_products():
    rng = np.random.default_rng(16)
    for t in (0.0, 1.0, -2.0):
        b = helpers.random_effect(rng, 4)
        a1, a2 = helpers.random_effect(rng, 4), helpers.random_effect(rng, 4)
        lhs = product_on_selfadjoint(b, a1.matrix - a2.matrix, t)
        rhs = phased_product(b, a1, t).matrix - phased_product(b, a2, t).matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-11


def test_selfadjoint_extension_matches_scaled_effect_product():
    # a positive operand S = M·A' with A' an effect reduces to M·(B ∘ A')
    rng = np.random.default_rng(17)
    b = helpers.random_effect(rng, 3)
    a_prime = helpers.random_effect(rng, 3)
    scale = 7.5
    for t in (0.0, 1.0, -2.0):
        lhs = product_on_selfadjoint(b, scale * a_prime.matrix, t)
        rhs = scale * phased_product(b, a_prime, t).matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-11


# ---------------------------------------------------------------------------
# one spectral kernel behind the products, A^{it}, A^{1/2} and the channels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [-1.0, 0.0, 0.5, 1.0, 3.0])
def test_spectral_kernel_consistency(t):
    rng = np.random.default_rng(17)
    # 1e-11 lies below the support cutoff 1e-10 and 1e-9 above it
    a = Effect.from_eigensystem(np.array([1e-11, 1e-9, 0.3, 0.7]),
                                haar_unitary(4, rng))
    b = helpers.random_effect(rng, 4)
    decomposition = EffectDecomposition([a, Effect(np.eye(4) - a.matrix)])
    channel = phased_channel(decomposition, t)
    for eff, kraus in zip(decomposition.effects, channel.kraus):
        expected = sqrt_effect(eff).matrix @ effect_power_it(eff, t)
        assert np.abs(kraus - expected).max() <= 1e-13
    for left, right in ((a, b), (b, a)):
        assert np.array_equal(
            phased_product(left, right, t).matrix,
            Effect(product_on_selfadjoint(left, right.matrix, t)).matrix,
        )


@pytest.mark.parametrize("dim", [2, 3, 6])
@pytest.mark.parametrize("t", [-1.0, 0.0, 0.5, 1.0, 3.0])
def test_product_is_kraus_sandwich(t, dim):
    rng = np.random.default_rng(dim)
    a, b = helpers.random_effect(rng, dim), helpers.random_effect(rng, dim)
    k = kraus_operator(a, t)
    assert np.array_equal(phased_product(a, b, t).matrix,
                          hermitize(k @ b.matrix @ k.conj().T))
    # the witness search compares these matrices without building effects
    assert np.array_equal(product_on_selfadjoint(a, b.matrix, t),
                          phased_product(a, b, t).matrix)
    # K is the one assembly of the one kernel, f_{1/2+it}(A)
    dec = a.decomposition
    assert np.array_equal(k, dec.apply(f_z(0.5 + 1j * t, dec.eigenvalues)))


# ---------------------------------------------------------------------------
# the kernel on stacks of effects, item by item the single-effect kernel
# ---------------------------------------------------------------------------

def _mixed_effects(rng, dim, count):
    """Effects of one dim, every other one with an exact kernel zero (at dim 1, the zero effect)."""
    effects = []
    for k in range(count):
        lam = rng.uniform(0.0, 1.0, dim)
        if k % 2 == 0:
            lam[int(rng.integers(dim))] = 0.0
        effects.append(Effect.from_eigensystem(lam, haar_unitary(dim, rng)))
    return effects


def _assert_same_effect(stack, k, effect):
    dec = stack.decomposition
    assert np.array_equal(stack.matrix[k], effect.matrix)
    assert np.array_equal(dec.eigenvalues[k], effect.decomposition.eigenvalues)
    assert np.array_equal(dec.eigenvectors[k], effect.decomposition.eigenvectors)


# (16, 80): a (80, 16, 16) complex stack is 320 KiB, above the 256 KiB from
# which numpy computes x * tmp in place as tmp * x, which under FMA is not
# bit for bit the same complex product
@pytest.mark.parametrize("dim, count", [*itertools.product((1, 2, 6), (1, 2, 5)), (16, 80)])
@pytest.mark.parametrize("t", [-1.0, 0.0, 3.0])
def test_the_kernel_on_a_stack_is_the_single_effect_kernel_bit_for_bit(t, dim, count):
    rng = np.random.default_rng((dim, count))
    left, right = _mixed_effects(rng, dim, count), _mixed_effects(rng, dim, count)[::-1]
    a, b = seqprod.effects._EffectStack.of(left), seqprod.effects._EffectStack.of(right)
    if count > 1:  # items with and without an exact kernel zero
        assert any(0.0 in e.decomposition.eigenvalues for e in left)
        assert any(0.0 not in e.decomposition.eigenvalues for e in left)
    kraus = kraus_operator(a, t)
    product = phased_product(a, b, t)
    # the constructor, also on outputs whose kernel zeros it snaps
    mean = seqprod.effects._effect_stack(0.5 * (a.matrix + b.matrix))
    rebuilt = seqprod.effects._effect_stack(product.matrix)
    for k in range(count):
        single = phased_product(left[k], right[k], t)
        assert np.array_equal(kraus[k], kraus_operator(left[k], t))
        _assert_same_effect(product, k, single)
        _assert_same_effect(mean, k, Effect(0.5 * (left[k].matrix + right[k].matrix)))
        _assert_same_effect(rebuilt, k, Effect(single.matrix))
    if t == 0.0:
        lu = luders_product(a, b)
        assert all(np.array_equal(lu.matrix[k], product.matrix[k]) for k in range(count))
    items = list(product)  # single effects on the stack's memory
    assert [type(e) for e in items] == [Effect] * count
    assert all(np.array_equal(e.matrix, product.matrix[k]) for k, e in enumerate(items))


@pytest.mark.parametrize("dim", [1, 2, 6, 16])
def test_a_pending_slice_decomposes_its_own_items_bit_for_bit(dim, monkeypatch):
    # a product's output is sliced per request before anything reads it: a
    # slice decomposes its own items alone, each as the whole stack does
    # and as a single effect of its matrix does
    rng = np.random.default_rng((dim, 31))
    a = seqprod.effects._EffectStack.of(_mixed_effects(rng, dim, 7))
    b = seqprod.effects._EffectStack.of(_mixed_effects(rng, dim, 7))
    whole, sliced = phased_product(a, b, 1.0), phased_product(a, b, 1.0)
    calls = _counted_calls(monkeypatch, "hermitian_eig")
    part = sliced[2:5]
    assert calls == []
    part.decomposition
    assert calls == [("hermitian_eig", 3)]
    for k, item in enumerate(part):
        _assert_same_effect(part, k, Effect(whole.matrix[k + 2]))
        _assert_same_effect(whole, k + 2, item)
    assert np.array_equal(part.matrix, whole.matrix[2:5])


def test_joining_pending_stacks_decomposes_each_pending_part_once(monkeypatch):
    # the left operands of a later step join pending outputs with drawn
    # effects: joining runs one eigensolve per pending part, each drawn part
    # keeps its eigensystem's bits, and a later read or slice runs none
    rng = np.random.default_rng(41)
    drawn = _mixed_effects(rng, 3, 4)
    a, b = seqprod.effects._EffectStack.of(drawn[:2]), seqprod.effects._EffectStack.of(drawn[2:])
    out = luders_product(a, b)
    mean = seqprod.effects._effect_stack(0.5 * (a.matrix + b.matrix))
    calls = _counted_calls(monkeypatch, "hermitian_eig")
    joined = seqprod.effects._EffectStack.of([out[1:], a, mean, out[:1]])
    assert calls == [("hermitian_eig", 1), ("hermitian_eig", 2), ("hermitian_eig", 1)]
    assert len(joined) == 6 and joined.dim == 3
    tail = joined[1:5]
    joined.decomposition
    tail.decomposition
    assert len(calls) == 3
    expected = [Effect(out.matrix[1]), *drawn[:2], Effect(mean.matrix[0]),
                Effect(mean.matrix[1]), Effect(out.matrix[0])]
    for k, effect in enumerate(expected):
        _assert_same_effect(joined, k, effect)
    for k, effect in enumerate(expected[1:5]):
        _assert_same_effect(tail, k, effect)


class _UnreadStack(seqprod.effects._EffectStack):
    """A stack whose decomposition must not be read."""

    __slots__ = ()

    @property
    def decomposition(self):
        raise AssertionError("a right operand's decomposition was read")


@pytest.mark.parametrize("t", [None, -1.0, 0.5, 1.0], ids=["luders", "-1", "0.5", "1"])
def test_a_library_product_reads_no_right_operand_decomposition(t):
    # A ∘_t B = K B K† reads B's matrix alone, so the joint driver joins its
    # right operands as matrices, with no decomposition
    rng = np.random.default_rng(43)
    a = seqprod.effects._EffectStack.of(_mixed_effects(rng, 3, 5))
    b = seqprod.effects._EffectStack.of(_mixed_effects(rng, 3, 5))
    put = luders_product if t is None else functools.partial(phased_product, t=t)
    unread = _UnreadStack(b.matrix)
    expected = put(a, b)
    (whole,), (head, rest) = seqprod.axioms._products(
        put, [[(a, unread)], [(a[:2], unread[:2]), (a[2:], unread[2:])]])
    for made, items in [(put(a, unread), range(5)), (whole, range(5)),
                        (head, range(2)), (rest, range(2, 5))]:
        assert np.array_equal(made.matrix, expected.matrix[items])
        for k, item in enumerate(items):
            _assert_same_effect(made, k, Effect(expected.matrix[item]))


def test_one_failing_item_fails_the_stack_with_the_single_effect_error():
    rng = np.random.default_rng(3)
    good = _mixed_effects(rng, 2, 3)
    bad = good[1].matrix + np.eye(2)  # spectrum escapes [0, 1]
    with pytest.raises(ValidationError) as single:
        Effect(bad)
    with pytest.raises(ValidationError) as stacked:
        seqprod.effects._effect_stack(np.stack([bad]))
    assert str(stacked.value) == str(single.value)
    with pytest.raises(ValidationError, match="escapes"):
        seqprod.effects._effect_stack(np.stack([good[0].matrix, bad, good[2].matrix]))
    nan = np.array([[np.nan, 0.0], [0.0, 0.5]])
    with pytest.raises(ValidationError) as single:
        Effect(nan)
    with pytest.raises(ValidationError) as stacked:
        seqprod.effects._effect_stack(np.stack([good[0].matrix, nan, good[2].matrix]))
    assert str(stacked.value) == str(single.value)
    # 1e-9 lies above the support cutoff, and t·ln 1e-9 overflows at t = 1e307
    tiny = Effect.from_eigensystem(np.array([1e-9, 0.5]), haar_unitary(2, rng))
    stack = seqprod.effects._EffectStack.of([good[0], tiny])
    with pytest.raises(DomainError) as single:
        kraus_operator(tiny, 1e307)
    with pytest.raises(DomainError) as stacked:
        kraus_operator(stack, 1e307)
    assert str(stacked.value) == str(single.value)
    kraus_operator(good[0], 1e307)  # the other item alone is fine
