import functools

import numpy as np
import pytest

import seqprod.axioms
import seqprod.effects
from seqprod import (
    CheckReport,
    Effect,
    ValidationError,
    check_commutativity_theorem,
    check_s1,
    check_s2,
    check_s3,
    check_s4,
    check_s5,
    distinct_spectrum,
    find_nonuniqueness_witness,
    gen_commuting_pair,
    gen_generic,
    gen_kernel_disjoint_pair,
    gen_near_boundary,
    gen_projection,
    haar_unitary,
    hermitian_eig,
    luders_product,
    phased_product,
    projector_interpolation,
    run_axiom_suite,
)

import helpers


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

GENERATORS = (gen_generic, gen_projection, gen_commuting_pair,
              gen_kernel_disjoint_pair, gen_near_boundary)


def test_gen_projection_is_idempotent():
    p = gen_projection(np.random.default_rng(42), 2)
    assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_gen_projection_decomposes_once(dim, monkeypatch):
    eig_calls, eigensystem_calls = [], []
    eig, from_eigensystem = seqprod.effects.hermitian_eig, Effect.from_eigensystem

    def counted_eig(matrix):
        eig_calls.append(None)
        return eig(matrix)

    def counted_from_eigensystem(w, v):
        eigensystem_calls.append(None)
        return from_eigensystem(w, v)

    monkeypatch.setattr(seqprod.effects, "hermitian_eig", counted_eig)
    monkeypatch.setattr(Effect, "from_eigensystem", staticmethod(counted_from_eigensystem))
    p = gen_projection(np.random.default_rng(dim), dim)
    assert (len(eig_calls), len(eigensystem_calls)) == (1, 0)
    # the draws come in the same order: rank, placement, then the Haar basis
    rng = np.random.default_rng(dim)
    ones = int(rng.integers(1, dim)) if dim >= 2 else int(rng.integers(0, 2))
    lam = np.zeros(dim)
    lam[rng.permutation(dim)[:ones]] = 1.0
    v = haar_unitary(dim, rng)
    assert np.abs(p.matrix - (v * lam) @ v.conj().T).max() <= 1e-14


def test_gen_commuting_pair_commutes():
    a, b = gen_commuting_pair(np.random.default_rng(42), 3)
    assert np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix) <= 1e-12


def test_gen_kernel_disjoint_pair_annihilates():
    a, b = gen_kernel_disjoint_pair(np.random.default_rng(42), 4)
    assert np.linalg.norm(luders_product(a, b).matrix) <= 1e-12
    for t in (-1.0, 0.5, 1.0, 3.0):
        assert np.linalg.norm(phased_product(a, b, t).matrix) <= 1e-12


def test_gen_near_boundary_has_exact_zero():
    e = gen_near_boundary(np.random.default_rng(42), 5)
    raw = np.linalg.eigvalsh(e.matrix)
    assert raw.min() <= 1e-13


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.__name__)
def test_generators_are_deterministic(gen):
    first, second = (gen(np.random.default_rng(9), 4) for _ in range(2))
    pairs = zip(first, second) if isinstance(first, tuple) else [(first, second)]
    for x, y in pairs:
        assert np.array_equal(x.matrix, y.matrix)


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("dim", [0, -2])
def test_generators_reject_dim_below_one(gen, dim):
    with pytest.raises(ValidationError, match="dim must be >= 1"):
        gen(np.random.default_rng(0), dim)


# ---------------------------------------------------------------------------
# axiom checks on the real products
# ---------------------------------------------------------------------------

CHECKS = (check_s1, check_s2, check_s3, check_s4, check_s5)


def phased(t):
    return functools.partial(phased_product, t=t)


REAL_PRODUCTS = {"luders": luders_product, "phased(t=1)": phased(1.0),
                 "phased(t=-2)": phased(-2.0)}


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("put", list(REAL_PRODUCTS.values()), ids=list(REAL_PRODUCTS))
def test_checks_pass_on_real_products(check, put):
    report = check(put, trials=120, dims=(2, 3, 4, 6), seed=101)
    assert report.failures == 0
    assert report.trials == 120
    assert report.worst_violation <= 1e-9


def test_checks_pass_at_dim_one():
    put = phased(1.0)
    for check in CHECKS:
        assert check(put, trials=10, dims=(1,), seed=5).failures == 0
    report = check_commutativity_theorem(put, trials=10, dims=(1,), seed=5)
    assert report.failures == 0
    assert report.breakdown["converse_trials"] == 0  # scalars always commute


def test_commutativity_both_directions():
    report = check_commutativity_theorem(
        phased(1.0), trials=200, dims=(2, 3, 4), seed=11)
    assert report.failures == 0
    assert report.breakdown["forward_trials"] == 100
    assert report.breakdown["converse_trials"] == 100
    assert report.breakdown["min_converse_gap"] > 1e-6


def test_reports_are_deterministic():
    put = phased(1.0)
    r1 = check_s1(put, trials=40, dims=(2, 3), seed=77)
    r2 = check_s1(put, trials=40, dims=(2, 3), seed=77)
    assert r1 == r2
    assert isinstance(r1, CheckReport)
    assert r1.witness is not None


def test_broken_product_fails_suite():
    # bare symmetrized matrix product: not closed on effects, and symmetric
    # in its operands, so both S1 and the converse direction must flag it
    def raw(a, b):
        return Effect(a.matrix @ b.matrix)

    s1 = check_s1(raw, trials=60, dims=(3, 4), seed=1)
    assert s1.failures > 0
    assert "error" in s1.witness
    comm = check_commutativity_theorem(raw, trials=60, dims=(3, 4), seed=1)
    assert comm.breakdown["converse_failures"] == comm.breakdown["converse_trials"] > 0


def _raises(error):
    def diverging(a, b):
        raise error("eigensolver did not converge")
    return diverging


def _nan_output(a, b):
    return Effect(np.full((a.dim, a.dim), np.nan))


def _bare_matrix(a, b):
    return luders_product(a, b).matrix  # an ndarray, not an Effect


@pytest.mark.parametrize("product, error", [
    (_raises(np.linalg.LinAlgError), "eigensolver did not converge"),
    (_nan_output, "matrix contains NaN or Inf entries"),
    (_bare_matrix, "'numpy.ndarray' object has no attribute 'matrix'"),
], ids=["LinAlgError", "nan_output", "bare_matrix"])
def test_numerical_failure_of_product_is_counted(product, error):
    s2 = check_s2(product, trials=10, dims=(2, 3), seed=0)
    assert s2.failures == s2.trials == 10
    assert s2.witness["error"] == error
    comm = check_commutativity_theorem(product, trials=10, dims=(2, 3), seed=0)
    assert comm.failures == comm.trials == 10
    assert comm.breakdown["converse_failures"] == 5
    assert comm.breakdown["min_converse_gap"] is None


@pytest.mark.parametrize("n", [7, 40])
def test_s3_runs_each_requested_trial_with_two_products(n):
    # every trial draws a disjoint-support pair: A∘B, then B∘A, nothing else
    calls = []

    def counted(a, b):
        calls.append(None)
        return luders_product(a, b)

    report = check_s3(counted, trials=n,
                      dims=(2, 3, 4), seed=4)
    assert report.trials == n
    assert len(calls) == 2 * n


def test_s3_judges_both_directions_at_the_ceiling():
    # A∘B = 5e-10·I passes the ceiling at dims 2-4, but then B∘A = 0.5·I:
    # each pair has one direction of each kind, so every trial fails
    def lopsided(a, b):
        forward = np.trace(a.matrix).real > np.trace(b.matrix).real
        return Effect((5e-10 if forward else 0.5) * np.eye(a.dim))

    report = check_s3(lopsided, trials=200,
                      dims=(2, 3, 4, 6), seed=0)
    assert report.failures == report.trials == 200
    assert report.worst_violation == pytest.approx(0.5 * np.sqrt(6))


def test_s3_holds_for_raw_matrix_product_on_disjoint_supports():
    # AB = BA = 0 on disjoint supports, so the bare matrix product meets S3
    def raw(a, b):
        return Effect(a.matrix @ b.matrix)

    report = check_s3(raw, trials=200, dims=(2, 3, 4, 6), seed=0)
    assert report.trials == 200
    assert report.failures == 0


ALL_CHECKS = CHECKS + (check_commutativity_theorem, run_axiom_suite)


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_only_the_reported_witness_is_serialized(check, monkeypatch):
    calls = []
    original = seqprod.axioms.matrix_to_document

    def counted(matrix):
        calls.append(None)
        return original(matrix)

    monkeypatch.setattr(seqprod.axioms, "matrix_to_document", counted)
    check(phased(1.0), trials=100, dims=(2, 3), seed=8)
    assert len(calls) <= 3 * (6 if check is run_axiom_suite else 1)


@pytest.mark.parametrize("fn", ALL_CHECKS + (find_nonuniqueness_witness,),
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("schedule", [{"trials": 0}, {"trials": -3}, {"dims": ()}],
                         ids=["trials=0", "trials=-3", "dims=()"])
def test_schedule_that_runs_nothing_is_rejected(fn, schedule):
    args = () if fn is find_nonuniqueness_witness else (phased(1.0),)
    (name,) = schedule
    with pytest.raises(ValidationError, match=name):
        fn(*args, **schedule)


def test_nonuniqueness_rejects_empty_t_values():
    with pytest.raises(ValidationError, match="t_values"):
        find_nonuniqueness_witness(trials=5, t_values=())


def test_run_axiom_suite_shape():
    reports = run_axiom_suite(phased(0.5), trials=30,
                              dims=(2, 3), seed=3)
    assert [r.axiom for r in reports] == ["S1", "S2", "S3", "S4", "S5",
                                          "commutativity"]
    assert all(r.failures == 0 for r in reports)


def test_axiom_algebra_edge_cases():
    # the degenerate instances behind each axiom, asserted directly
    rng = np.random.default_rng(31)
    dim = 3
    a = helpers.random_effect(rng, dim)
    b = helpers.random_effect(rng, dim)
    zero = Effect(np.zeros((dim, dim)))
    ident = Effect(np.eye(dim))
    for t in (0.0, 1.0, -2.0):
        # S1 with C = 0, and the B + (I-B) completeness split
        assert np.linalg.norm(phased_product(a, zero, t).matrix) == 0.0
        comp = Effect(np.eye(dim) - b.matrix)
        split = (phased_product(a, b, t).matrix
                 + phased_product(a, comp, t).matrix)
        assert np.linalg.norm(split - phased_product(a, ident, t).matrix) <= 1e-12
        # S2 endpoints
        assert np.linalg.norm(phased_product(ident, zero, t).matrix) == 0.0
        assert np.linalg.norm(
            phased_product(ident, ident, t).matrix - np.eye(dim)) <= 1e-13
        # S3 with A = 0, and an orthogonal projection pair
        assert np.linalg.norm(phased_product(zero, b, t).matrix) == 0.0
        assert np.linalg.norm(phased_product(b, zero, t).matrix) == 0.0
        e = helpers.random_projection_matrix(rng, dim, 1)
        ecomp = Effect(np.eye(dim) - e)
        assert np.linalg.norm(phased_product(Effect(e), ecomp, t).matrix) <= 1e-12
        assert np.linalg.norm(phased_product(ecomp, Effect(e), t).matrix) <= 1e-12
        # S4 with A = B = E: E∘(E∘C) = (E∘E)∘C = ECE
        proj = Effect(e)
        c = helpers.random_effect(rng, dim)
        nested = phased_product(proj, phased_product(proj, c, t), t).matrix
        assert np.linalg.norm(nested - e @ c.matrix @ e) <= 1e-11
        # S5 scalar case: (aI)∘E = E∘(aI) = aE
        scalar = Effect(0.37 * np.eye(dim))
        assert np.linalg.norm(
            phased_product(scalar, proj, t).matrix - 0.37 * e) <= 1e-11
        assert np.linalg.norm(
            phased_product(proj, scalar, t).matrix - 0.37 * e) <= 1e-11


# ---------------------------------------------------------------------------
# projector recovery by interpolation
# ---------------------------------------------------------------------------

def test_interpolation_on_projection():
    rng = np.random.default_rng(21)
    p = Effect(helpers.random_projection_matrix(rng, 4, 2))
    reps = distinct_spectrum(p)
    assert np.allclose(reps, [0.0, 1.0], atol=1e-12)
    # eigenvalue-1 cluster: the interpolant is z itself, recovering P
    recovered = projector_interpolation(p, 1)
    assert np.linalg.norm(recovered - p.matrix) <= 1e-10
    kernel = projector_interpolation(p, 0)
    assert np.linalg.norm(kernel - (np.eye(4) - p.matrix)) <= 1e-10


def test_interpolation_on_two_point_spectrum():
    b = Effect(np.diag([0.25, 0.81]))
    assert np.linalg.norm(projector_interpolation(b, 0) - np.diag([1.0, 0.0])) <= 1e-12
    assert np.linalg.norm(projector_interpolation(b, 1) - np.diag([0.0, 1.0])) <= 1e-12


def test_interpolation_single_cluster_is_identity():
    b = Effect(0.37 * np.eye(3))
    assert np.array_equal(projector_interpolation(b, 0), np.eye(3))


def test_interpolation_recovers_eigenprojectors():
    # oracle: eigenprojectors assembled directly from the decomposition
    rng = np.random.default_rng(22)
    for dim in (2, 3, 4, 5):
        values = np.sort(rng.uniform(0.0, 1.0, dim))
        while np.any(np.diff(values) < 0.05):
            values = np.sort(rng.uniform(0.0, 1.0, dim))
        b = Effect.from_eigensystem(values, helpers.random_effect(rng, dim).decomposition.eigenvectors)
        dec = hermitian_eig(b.matrix)
        for k in range(dim):
            oracle = np.outer(dec.eigenvectors[:, k], dec.eigenvectors[:, k].conj())
            assert np.linalg.norm(projector_interpolation(b, k) - oracle) <= 1e-7


def test_interpolation_partition_of_identity():
    rng = np.random.default_rng(23)
    v = helpers.random_effect(rng, 4).decomposition.eigenvectors
    b = Effect.from_eigensystem(np.array([0.0, 0.3, 0.3, 0.9]), v)
    reps = distinct_spectrum(b)
    assert len(reps) == 3
    total = sum(projector_interpolation(b, k) for k in range(len(reps)))
    assert np.linalg.norm(total - np.eye(4)) <= 1e-7
    for k in range(len(reps)):
        proj = projector_interpolation(b, k)
        assert np.linalg.norm(proj @ proj - proj) <= 1e-7


def test_interpolation_clustered_spectrum_raises():
    # 5e-12 apart is one cluster at CLUSTER_TOL: its projector is the
    # identity and there is no second cluster to recover
    v = np.eye(2)
    b = Effect.from_eigensystem(np.array([0.25, 0.25 + 5e-12]), v)
    assert len(distinct_spectrum(b)) == 1
    assert np.array_equal(projector_interpolation(b, 0), np.eye(2))
    with pytest.raises(IndexError):
        projector_interpolation(b, 1)


@pytest.mark.parametrize("k", [True, False, np.True_, 1.5, 1.0, "1"])
def test_interpolation_rejects_a_non_integer_index(k):
    b = Effect(np.diag([0.25, 0.81]))
    with pytest.raises(IndexError, match="k = "):
        projector_interpolation(b, k)


@pytest.mark.parametrize("k", [np.int64(1), np.int32(0)])
def test_interpolation_accepts_numpy_integer_index(k):
    b = Effect(np.diag([0.25, 0.81]))
    expected = np.diag([1.0, 0.0]) if k == 0 else np.diag([0.0, 1.0])
    assert np.linalg.norm(projector_interpolation(b, k) - expected) <= 1e-12


def test_interpolation_index_out_of_range():
    b = Effect(np.diag([0.25, 0.81]))
    with pytest.raises(IndexError):
        projector_interpolation(b, 2)


# ---------------------------------------------------------------------------
# non-uniqueness search
# ---------------------------------------------------------------------------

def test_witness_found_quickly_at_dim_two():
    result = find_nonuniqueness_witness(trials=100, dims=(2,), t_values=(1.0,),
                                        seed=0)
    assert result["found"]
    assert result["gap"] > 0.01
    assert result["first_hit_trial"] is not None
    assert result["theta"] is not None


def test_witness_absent_for_commuting_pairs():
    result = find_nonuniqueness_witness(trials=50, dims=(2,), t_values=(1.0,),
                                        seed=0, commuting_only=True)
    assert not result["found"]
    assert result["gap"] <= 1e-9


def test_witness_absent_at_t_zero():
    result = find_nonuniqueness_witness(trials=50, dims=(2,), t_values=(0.0,),
                                        seed=0)
    assert not result["found"]
    assert result["gap"] == 0.0
