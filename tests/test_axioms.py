import functools
import inspect
import math
import errno
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest

import seqprod.axioms
import seqprod.cli
import seqprod.effects
import seqprod.linalg
from seqprod import (
    CheckReport,
    DomainError,
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
    hermitize,
    luders_product,
    operator_norm,
    phased_product,
    product_on_selfadjoint,
    projector_interpolation,
    run_axiom_suite,
)
from seqprod.serialize import document_to_matrix, dumps, matrix_to_document

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


@pytest.mark.parametrize("gen", GENERATORS + (haar_unitary,), ids=lambda g: g.__name__)
@pytest.mark.parametrize("dim", [0, -2, 2.0, True])
def test_generators_reject_dim_below_one(gen, dim):
    # a dim that is not an integer >= 1 is invalid input, not numpy's TypeError
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError, match=r"dim must be (>= 1|an integer), got"):
        gen(dim, rng) if gen is haar_unitary else gen(rng, dim)


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


# ---------------------------------------------------------------------------
# stacked trial operands against the one-trial-at-a-time driver
# ---------------------------------------------------------------------------

def _ref_basis(rng, dim):
    return helpers.reference_basis(rng.standard_normal((dim, dim)),
                                   rng.standard_normal((dim, dim)))


def _ref_generic(rng, dim):
    lam = rng.uniform(0.0, 1.0, dim)
    return helpers.reference_effects(_ref_basis(rng, dim), lam)[0]


def _ref_commuting_pair(rng, dim):
    v = _ref_basis(rng, dim)
    return helpers.reference_effects(v, rng.uniform(0.0, 1.0, dim), rng.uniform(0.0, 1.0, dim))


def _ref_kernel_disjoint_pair(rng, dim):
    v = _ref_basis(rng, dim)
    k = int(rng.integers(1, dim)) if dim >= 2 else 1
    lam_a, lam_b = np.zeros(dim), np.zeros(dim)
    lam_a[:k] = rng.uniform(0.0, 1.0, k)
    lam_b[k:] = rng.uniform(0.0, 1.0, dim - k)
    return helpers.reference_effects(v, lam_a, lam_b)


def _ref_trials(put, comm_floor=0.01, separation_floor=1e-6):
    """The six checks as closures ``trial(rng, dim, i)`` that draw, build and
    evaluate one trial with the reference builders of ``helpers``: the
    stacked driver's reference."""
    def fro(m):
        return float(np.linalg.norm(m))

    def s1(rng, dim, _i):
        a, b = _ref_generic(rng, dim), _ref_generic(rng, dim)
        c = Effect(float(rng.uniform()) * (np.eye(dim) - b.matrix))
        ab, ac = put(a, b), put(a, c)
        defect = fro(ab.matrix + ac.matrix - put(a, Effect(b.matrix + c.matrix)).matrix)
        top = float(np.linalg.eigvalsh(ab.matrix + ac.matrix)[-1])
        return max(defect, top - 1.0), {"a": a, "b": b, "c": c}

    def s2(rng, dim, _i):
        a = _ref_generic(rng, dim)
        return fro(put(Effect(np.eye(dim)), a).matrix - a.matrix), {"a": a}

    def s3(rng, dim, _i):
        a, b = _ref_kernel_disjoint_pair(rng, dim)
        return max(fro(put(a, b).matrix), fro(put(b, a).matrix)), {"a": a, "b": b}

    def s4(rng, dim, _i):
        a, b = _ref_commuting_pair(rng, dim)
        c = _ref_generic(rng, dim)
        comp = Effect(np.eye(dim) - b.matrix)
        d1 = fro(put(a, comp).matrix - put(comp, a).matrix)
        d2 = fro(put(a, put(b, c)).matrix - put(put(a, b), c).matrix)
        return max(d1, d2), {"a": a, "b": b, "c": c}

    def s5(rng, dim, _i):
        v = _ref_basis(rng, dim)
        lam_a = rng.uniform(0.0, 1.0, dim)
        lam_b = rng.uniform(0.0, 1.0, dim) * (1.0 - lam_a)
        a, b, c = helpers.reference_effects(v, lam_a, lam_b, rng.uniform(0.0, 1.0, dim))
        ab, s = put(a, b), Effect(a.matrix + b.matrix)
        d1 = fro(put(c, ab).matrix - put(ab, c).matrix)
        d2 = fro(put(c, s).matrix - put(s, c).matrix)
        return max(d1, d2), {"a": a, "b": b, "c": c}

    gaps = []

    def commutativity(rng, dim, i):
        if i % 2 == 0:
            a, b = _ref_commuting_pair(rng, dim)
            pab, pba = put(a, b), put(b, a)
            defect = max(fro(pab.matrix - pba.matrix), fro(pab.matrix - a.matrix @ b.matrix))
            return defect, {"direction": "forward", "a": a, "b": b}
        if dim < 2:
            return None
        for _ in range(200):
            a, b = _ref_generic(rng, dim), _ref_generic(rng, dim)
            if fro(a.matrix @ b.matrix - b.matrix @ a.matrix) >= comm_floor:
                break
        else:
            return None
        gap = fro(put(a, b).matrix - put(b, a).matrix)
        gaps.append(gap)
        if gap > separation_floor:
            return None, None
        return None, {"direction": "converse", "gap": gap, "a": a, "b": b}

    return [("S1", s1), ("S2", s2), ("S3", s3), ("S4", s4), ("S5", s5),
            ("commutativity", commutativity)], gaps


def _ref_run_check(axiom, trials, dims, seed, trial_fn, directions=None,
                   ceiling=1e-9):
    """The driver that draws, builds and evaluates one attempt at a time."""
    breakdown = {f"{d}_{key}": 0 for d in directions or () for key in ("trials", "failures")}
    executed = failures = attempts = 0
    worst = 0.0
    worst_witness = fail_witness = exc_witness = None
    while executed < trials and attempts < trials * seqprod.axioms.MAX_ATTEMPT_FACTOR:
        i = attempts
        attempts += 1
        dim = dims[(i // 2) % len(dims)]
        try:
            res = trial_fn(np.random.default_rng((seed, i)), dim, i)
        except Exception as exc:
            failed = True
            if exc_witness is None:
                exc_witness = {"trial": i, "dim": dim, "error": str(exc)}
        else:
            if res is None:
                continue
            defect, witness = res
            if defect is None:
                failed = witness is not None
                if failed and fail_witness is None:
                    fail_witness = {"trial": i, "dim": dim, **witness}
            else:
                failed = defect > ceiling
                if defect > worst:
                    worst, worst_witness = defect, {"trial": i, "dim": dim, **witness}
        executed += 1
        failures += failed
        if directions:
            direction = directions[i % len(directions)]
            breakdown[f"{direction}_trials"] += 1
            breakdown[f"{direction}_failures"] += failed
    witness = exc_witness or fail_witness or worst_witness
    if witness is not None:
        witness = {key: matrix_to_document(value.matrix) if isinstance(value, Effect) else value
                   for key, value in witness.items()}
    return CheckReport(axiom=axiom, trials=executed, failures=failures,
                       worst_violation=worst, seed=seed, witness=witness,
                       breakdown=breakdown or None)


def _per_trial_suite(put, trials, dims, seed):
    checks, gaps = _ref_trials(put)
    reports = [_ref_run_check(axiom, trials, dims, seed + k, trial,
                              ("forward", "converse") if axiom == "commutativity" else None)
               for k, (axiom, trial) in enumerate(checks)]
    reports[-1].breakdown["min_converse_gap"] = min(gaps) if gaps else None
    return reports


SUITE_PRODUCTS = {"luders": luders_product, "phased(t=-1)": phased(-1.0),
                  "phased(t=0.5)": phased(0.5), "phased(t=3)": phased(3.0),
                  "raw": seqprod.cli._raw_matrix_product,
                  "phased(t=0)": phased(0.0), "phased(t=1)": phased(1.0),
                  # a wrapper the library does not recognize: called once per item
                  "wrapped phased(t=1)": lambda a, b: phased_product(a, b, 1.0)}


@pytest.mark.parametrize("product, trials, seed", [
    *[(name, 25, 0) for name in SUITE_PRODUCTS],
    ("phased(t=0.5)", 200, 100007), ("raw", 200, 100007),
])
def test_stacked_suite_reports_equal_the_per_trial_driver(product, trials, seed):
    put = SUITE_PRODUCTS[product]
    # dim 1 rejects every converse attempt, so attempts run past the trials
    dims = (1, 2, 3, 4, 6)
    expected = _per_trial_suite(put, trials, dims, seed)
    assert run_axiom_suite(put, trials=trials, dims=dims, seed=seed) == expected
    assert dumps([dict(vars(r)) for r in expected]) == dumps([asdict(r) for r in expected])


def test_only_the_library_products_take_stacks():
    takes = seqprod.axioms._takes_stacks
    assert takes(luders_product) and takes(phased(1.0))
    assert not takes(functools.partial(phased_product, t=1.0, b=None))
    assert not takes(SUITE_PRODUCTS["wrapped phased(t=1)"])
    assert not takes(seqprod.cli._raw_matrix_product)
    seen = []

    def recorded(a, b):
        seen.append((type(a), type(b)))
        return phased_product(a, b, 1.0)

    check_s4(recorded, trials=12, dims=(2, 3), seed=0)
    assert set(seen) == {(Effect, Effect)} and len(seen) == 6 * 12


@pytest.mark.parametrize("budget", [1, 40, 200])
def test_stack_boundaries_leave_the_reports_unchanged(budget, monkeypatch):
    # budgets that split the blocks at every size: singles, stacks and both
    dims, put = (1, 2, 3, 4, 6), phased(1.0)
    expected = run_axiom_suite(put, trials=30, dims=dims, seed=5)
    monkeypatch.setattr(seqprod.axioms, "STACK_ENTRIES", budget)
    assert run_axiom_suite(put, trials=30, dims=dims, seed=5) == expected


@pytest.mark.parametrize("dim", [1, 2, 16, 64])
def test_a_stacked_build_equals_one_draw_builds_bit_for_bit(dim):
    # S4's layout: a commuting pair in one basis and a generic effect in
    # another; then, built with them, as a suite builds a dim, two more
    # trials' S5 draws, three effects in one basis.  Each item must be what
    # the plain-numpy reference builds from its draw alone, and so must the
    # generators' stacks of one and Effect.from_eigensystem.
    for n in (1, 3):
        rngs = [np.random.default_rng((dim, k)) for k in range(n + 2)]
        pairs = [seqprod.axioms._draw_commuting_pair(rng, dim) for rng in rngs[:n]]
        singles = [seqprod.axioms._draw_generic(rng, dim) for rng in rngs[:n]]
        triples = [seqprod.axioms._Draw(*seqprod.axioms._gaussians(rng, dim),
                                        tuple(rng.uniform(size=(3, dim))))
                   for rng in rngs[n:]]
        stacks = seqprod.axioms._build([pairs, singles, triples])
        assert [len(stack) for stack in stacks] == [n, n, n, 2, 2, 2]
        for group, trials in ((stacks[:3], list(zip(pairs, singles))),
                              (stacks[3:], [(draw,) for draw in triples])):
            for k, trial in enumerate(trials):
                built, alone, from_eigensystem = [], [], []
                for draw in trial:
                    v = helpers.reference_basis(draw.re, draw.im)
                    built += helpers.reference_effects(v, *draw.spectra)
                    alone += seqprod.axioms._build_one(draw)
                    from_eigensystem += [Effect.from_eigensystem(lam, v) for lam in draw.spectra]
                assert len(built) == len(alone) == len(from_eigensystem) == len(group)
                for stack, y, *same in zip(group, built, alone, from_eigensystem):
                    dec = stack.decomposition
                    expected = (y.matrix, y.decomposition.eigenvalues, y.decomposition.eigenvectors)
                    items = [(stack.matrix[k], dec.eigenvalues[k], dec.eigenvectors[k])]
                    items += [(x.matrix, x.decomposition.eigenvalues, x.decomposition.eigenvectors)
                              for x in same]
                    for item in items:
                        assert all(map(np.array_equal, item, expected))


@pytest.mark.parametrize("dim", [1, 2, 6, 16, 64])
def test_stacked_norms_are_the_single_norms_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    # the last stack is above numpy's 256 KiB temporary-elision threshold
    for n in (1, 7, 2**14 // dim**2 + 1):
        m = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
        assert seqprod.axioms._norms(m) == [float(np.linalg.norm(x)) for x in m]


def test_a_stacked_build_checks_each_basis_once(monkeypatch):
    # three effects share each S5 basis: one Gram product per basis, not per effect
    grams = []
    original = seqprod.axioms._effects_from_eigensystems

    def recorded(w, bases, basis=...):
        grams.append(np.shape(bases))
        return original(w, bases, basis)

    monkeypatch.setattr(seqprod.axioms, "_effects_from_eigensystems", recorded)
    draws = [seqprod.axioms._Draw(*seqprod.axioms._gaussians(np.random.default_rng(k), 3),
                                  tuple(np.random.default_rng(k).uniform(size=(3, 3))))
             for k in range(4)]
    stacks = seqprod.axioms._build([draws])
    assert grams == [(4, 3, 3)]
    assert [len(stack) for stack in stacks] == [4, 4, 4]


class _NaNUniform:
    """A Generator whose uniform draws put NaN first, drawing as many numbers."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, *args, **kwargs):
        # the numbers uniform(0, 1) draws, and what the subclass puts first
        return self.uniform(0.0, 1.0, *args, **kwargs)

    def uniform(self, *args, **kwargs):
        out = np.array(self._rng.uniform(*args, **kwargs), dtype=float)
        out.flat[0] = np.nan
        return out


class _RaisingNormal(_NaNUniform):
    """A Generator whose normal draws raise, so a draw that makes one raises."""

    def standard_normal(self, *args, **kwargs):
        raise FloatingPointError("no normal draws on this stream")


@pytest.mark.parametrize("check, gen, products, wrap, streams", [
    (check_s2, gen_generic, 1, _NaNUniform, 2),
    (check_s3, gen_kernel_disjoint_pair, 2, _NaNUniform, 2),
    (check_s2, gen_generic, 1, _RaisingNormal, 1),
], ids=["S2", "S3", "S2-raising-draw"])
def test_a_failed_draw_is_charged_to_its_own_trial(check, gen, products, wrap, streams,
                                                   monkeypatch):
    # trial 5 shares its dim-2 stack with nine others, which all still run;
    # a NaN spectrum fails the stacked build, so trial 5 is drawn again and
    # built alone, and a draw that raises is its trial's outcome, never redrawn
    original, drawn = seqprod.axioms._trial_rng, []

    def trial_rng(seed, i):
        drawn.append(i)
        return wrap(original(seed, i)) if i == 5 else original(seed, i)

    monkeypatch.setattr(seqprod.axioms, "_trial_rng", trial_rng)
    calls = []

    def counted(a, b):
        calls.append(None)
        return luders_product(a, b)

    report = check(counted, trials=20, dims=(2, 3), seed=4)
    with pytest.raises((ValidationError, FloatingPointError)) as one_draw:
        gen(wrap(original(4, 5)), 2)
    assert (report.trials, report.failures) == (20, 1)
    assert report.witness == {"trial": 5, "dim": 2, "error": str(one_draw.value)}
    assert len(calls) == products * 19
    assert drawn.count(5) == streams


class _TinyUniform(_NaNUniform):
    """A Generator whose uniform draws put 1e-9, above the support cutoff, first."""

    def uniform(self, *args, **kwargs):
        out = np.array(self._rng.uniform(*args, **kwargs), dtype=float)
        out.flat[0] = 1e-9
        return out


def test_a_raising_block_charges_each_error_to_its_own_trial(monkeypatch):
    # at t = 1e307 the phase t·ln 1e-9 overflows: f_z raises on trial 5's
    # item of its dim-2 stack, which is then evaluated one trial at a time
    original = seqprod.axioms._trial_rng

    def trial_rng(seed, i):
        return _TinyUniform(original(seed, i)) if i == 5 else original(seed, i)

    monkeypatch.setattr(seqprod.axioms, "_trial_rng", trial_rng)
    put = phased(1e307)
    a, b = gen_kernel_disjoint_pair(trial_rng(4, 5), 2)
    with pytest.raises(seqprod.effects.DomainError) as one_trial:
        put(a, b)
    (_axiom, s3), = [check for check in _ref_trials(put)[0] if check[0] == "S3"]
    expected_defects = []

    def reference(_rng, dim, i):
        res = s3(trial_rng(4, i), dim, i)
        expected_defects.append(res[0])
        return res

    expected = _ref_run_check("S3", 20, (2, 3), 4, reference)
    defects, sizes = [], []
    samples = seqprod.axioms._samples

    def recorded(d, **fields):
        defects.extend(d)
        sizes.append(len(d))
        return samples(d, **fields)

    monkeypatch.setattr(seqprod.axioms, "_samples", recorded)
    report = check_s3(put, trials=20, dims=(2, 3), seed=4)
    assert report == expected
    assert (report.trials, report.failures) == (20, 1)
    assert report.witness == {"trial": 5, "dim": 2, "error": str(one_trial.value)}
    assert sorted(defects) == sorted(expected_defects) and len(defects) == 19
    # the dim-3 stack in one evaluation; the dim-2 one trial by trial
    assert sorted(sizes) == [1] * 9 + [10]


def test_a_raising_converse_block_redraws_the_same_pairs(monkeypatch):
    # at d = 2 most pairs fall below this floor and are redrawn; trial 3's
    # overflow makes the converse stack evaluate again, trial by trial
    original = seqprod.axioms._trial_rng

    def trial_rng(seed, i):
        return _TinyUniform(original(seed, i)) if i == 3 else original(seed, i)

    monkeypatch.setattr(seqprod.axioms, "_trial_rng", trial_rng)
    put, floor = phased(1e307), 0.05
    checks, gaps = _ref_trials(put, comm_floor=floor)
    (_axiom, comm), = [check for check in checks if check[0] == "commutativity"]
    expected = _ref_run_check("commutativity", 16, (2,), 9,
                              lambda _rng, dim, i: comm(trial_rng(9, i), dim, i),
                              directions=("forward", "converse"))
    expected.breakdown["min_converse_gap"] = min(gaps)
    report = check_commutativity_theorem(put, trials=16, dims=(2,), seed=9, comm_floor=floor)
    assert report == expected
    assert report.witness["trial"] == 3 and "overflows the phase" in report.witness["error"]


@pytest.mark.parametrize("comm_floor, dims", [(0.5, (2, 3)), (0.7, (2,))])
def test_stacked_redraws_take_the_pairs_single_redraws_take(comm_floor, dims, monkeypatch):
    # at 0.5 the hits land inside the chunks of 1, 2, 4, ... redraws; 0.7 is
    # just below √2/2, the largest ‖AB − BA‖_F of two 2x2 effects, which only
    # a measure-zero set of pairs nears, so every converse attempt there runs
    # through all 199 redraws and is no trial
    checks, gaps = _ref_trials(luders_product, comm_floor=comm_floor)
    (_axiom, comm), = [check for check in checks if check[0] == "commutativity"]
    expected = _ref_run_check("commutativity", 20, dims, 3, comm,
                              directions=("forward", "converse"))
    expected.breakdown["min_converse_gap"] = min(gaps) if gaps else None
    draws = []
    draw_generic = seqprod.axioms._draw_generic

    def counted(rng, dim):
        draws.append(None)
        return draw_generic(rng, dim)

    monkeypatch.setattr(seqprod.axioms, "_draw_generic", counted)
    report = check_commutativity_theorem(luders_product, trials=20, dims=dims, seed=3,
                                         comm_floor=comm_floor)
    assert report == expected
    if comm_floor == 0.7:
        assert report.breakdown["converse_trials"] == 0
        # the 19 converse attempts before the 20th forward trial, each its
        # pair and 199 redrawn pairs
        assert len(draws) == 19 * 2 * 200
    else:
        assert report.breakdown["converse_trials"] > 0


def test_a_comm_floor_no_pair_reaches_is_rejected_before_the_first_trial(monkeypatch):
    # two 2x2 projections at 45° attain √d/2 = √2/2, the bound on ‖AB − BA‖_F
    # for 0 <= A, B <= I, as the check measures it: a floor there is reachable
    p, q = np.diag([1.0, 0.0]), np.full((2, 2), 0.5)
    reach = math.sqrt(2.0) / 2.0
    assert seqprod.axioms._norms((p @ q - q @ p)[None]) == [reach]
    report = check_commutativity_theorem(luders_product, trials=2, dims=(2,), comm_floor=reach)
    assert report.trials == 2
    streams = []
    monkeypatch.setattr(seqprod.axioms, "_trial_rng", lambda *key: streams.append(key))
    above = math.nextafter(reach, 1.0)
    for run in (check_commutativity_theorem, run_axiom_suite):
        with pytest.raises(ValidationError, match=rf"comm_floor {above!r} exceeds √d/2 = {reach!r}"):
            run(luders_product, trials=2, dims=(1, 2), comm_floor=above)
    assert streams == []
    # the bound is the largest dim's, read from the checked schedule, so
    # dims may be an iterator that only the schedule check reads
    monkeypatch.undo()
    assert check_commutativity_theorem(luders_product, trials=2, dims=iter((2, 3)),
                                       comm_floor=above).trials == 2


def test_stacks_stay_within_the_entry_budget(monkeypatch):
    shapes = []
    qr = np.linalg.qr

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    run_axiom_suite(lambda a, b: b, trials=40, dims=(64,), seed=0)
    stacked = [shape for shape in shapes if len(shape) == 3]
    assert stacked  # two d = 64 bases still fit in one stack
    assert max(math.prod(shape) for shape in stacked) <= seqprod.axioms.STACK_ENTRIES


def _dispatches(monkeypatch, run):
    """The product calls (their stack lengths) and stacked QRs that ``run()`` makes."""
    products, qrs = [], []
    phased_kernel, qr = seqprod.effects.phased_product, np.linalg.qr

    def counted_product(a, b, t=1.0):
        products.append(len(a))
        return phased_kernel(a, b, t)

    def counted_qr(a, *args, **kwargs):
        qrs.extend([np.shape(a)] if np.ndim(a) == 3 else [])
        return qr(a, *args, **kwargs)

    # luders_product calls the module's phased_product
    monkeypatch.setattr(seqprod.effects, "phased_product", counted_product)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    reports = run()
    monkeypatch.undo()
    return reports, products, qrs


def test_a_suite_makes_one_build_per_dim_and_one_product_call_per_dim_and_step(monkeypatch):
    # S4 has three steps, S5 two and the other checks one: 3 calls per dim
    dims = (2, 3, 4, 6)
    reports, products, qrs = _dispatches(monkeypatch, lambda: run_axiom_suite(
        luders_product, trials=25, dims=dims))
    assert len(qrs) == 4 and len(products) == 12
    assert [len(shape) for shape in qrs] == [3] * 4
    # each trial's requests: S1 3, S2 1, S3 2, S4 3 + 2 + 1, S5 1 + 4, commutativity 2
    assert sum(products) == 25 * (3 + 1 + 2 + 6 + 5 + 2)
    assert reports == [check(luders_product, trials=25, dims=dims, seed=k)
                       for k, check in enumerate(ALL_CHECKS[:-1])]
    # a check alone is the table of one row: one build per dim, one call per dim and step
    _report, products, qrs = _dispatches(monkeypatch, lambda: check_s4(
        luders_product, trials=25, dims=dims))
    assert len(qrs) == 4 and len(products) == 12


@pytest.mark.parametrize("product", ["luders", "phased(t=-1)", "raw",
                                     "wrapped phased(t=1)"])
def test_a_suite_reports_what_its_checks_report_alone(product):
    put, dims = SUITE_PRODUCTS[product], (1, 2, 3, 4, 6)
    alone = [check(put, trials=30, dims=dims, seed=11 + k)
             for k, check in enumerate(ALL_CHECKS[:-1])]
    assert run_axiom_suite(put, trials=30, dims=dims, seed=11) == alone


def test_a_raising_joint_step_charges_the_error_to_its_own_trial(monkeypatch):
    # at t = 1e307 the phase t·ln 1e-9 overflows on S3's trial 5 (seed 4 + 2),
    # which fails the joint dim-2 step of all six checks: every dim-2 trial
    # of that step is then evaluated one at a time
    original = seqprod.axioms._trial_rng

    def trial_rng(seed, i):
        return _TinyUniform(original(seed, i)) if (seed, i) == (6, 5) else original(seed, i)

    monkeypatch.setattr(seqprod.axioms, "_trial_rng", trial_rng)
    put = phased(1e307)
    a, b = gen_kernel_disjoint_pair(trial_rng(6, 5), 2)
    with pytest.raises(seqprod.effects.DomainError) as one_trial:
        put(a, b)
    alone = [check(put, trials=20, dims=(2, 3), seed=4 + k)
             for k, check in enumerate(ALL_CHECKS[:-1])]
    sizes = []
    samples = seqprod.axioms._samples

    def recorded(d, **fields):
        sizes.append(len(d))
        return samples(d, **fields)

    monkeypatch.setattr(seqprod.axioms, "_samples", recorded)
    reports = run_axiom_suite(put, trials=20, dims=(2, 3), seed=4)
    assert reports == alone
    s3 = reports[2]
    assert (s3.trials, s3.failures) == (20, 1)
    assert s3.witness == {"trial": 5, "dim": 2, "error": str(one_trial.value)}
    assert all("error" not in (r.witness or {}) for r in reports[:2] + reports[3:])
    # every dim-2 group of the raising step one trial at a time: ten trials of
    # S1, S2, S4, S5, S3's nine others and five forward ones; every dim-3 group
    # in one evaluation: ten trials of S1 to S5, five forward ones (the
    # converse direction draws no samples)
    assert sorted(sizes) == [1] * 54 + [5] + [10] * 5


class _SmallUniform(_NaNUniform):
    """A Generator whose uniform draws put 3e-5 first: t·ln 3e-5 is finite at
    t = 1e307, and t·ln 9e-10 overflows."""

    def uniform(self, *args, **kwargs):
        out = np.array(self._rng.uniform(*args, **kwargs), dtype=float)
        out.flat[0] = 3e-5
        return out


def test_a_raising_later_round_redoes_only_the_evaluations_it_interrupted(monkeypatch):
    # S4's trial 5 (seed 4 + 3) draws A and B with a shared eigenvalue 3e-5:
    # its first two rounds pass, and its third, (A∘B)∘C alone, overflows on
    # A∘B's eigenvalue 9e-10; the dim-2 groups that finished in the earlier
    # rounds keep their outcomes, and S4's dim-2 trials alone are redone
    original = seqprod.axioms._trial_rng

    def trial_rng(seed, i):
        return _SmallUniform(original(seed, i)) if (seed, i) == (7, 5) else original(seed, i)

    monkeypatch.setattr(seqprod.axioms, "_trial_rng", trial_rng)
    put = phased(1e307)
    alone = [check(put, trials=20, dims=(2, 3), seed=4 + k)
             for k, check in enumerate(ALL_CHECKS[:-1])]
    sizes = []
    samples = seqprod.axioms._samples

    def recorded(d, **fields):
        sizes.append(len(d))
        return samples(d, **fields)

    monkeypatch.setattr(seqprod.axioms, "_samples", recorded)
    reports = run_axiom_suite(put, trials=20, dims=(2, 3), seed=4)
    assert reports == alone
    s4 = reports[3]
    assert s4.trials == 20
    assert (s4.witness["trial"], s4.witness["dim"]) == (5, 2)
    assert "overflows the phase" in s4.witness["error"]
    # S4's nine other dim-2 trials one at a time; every other group, and
    # S4's dim-3 one, in one evaluation
    assert sorted(sizes) == [1] * 9 + [5] * 2 + [10] * 9


def test_a_raising_user_product_redoes_only_the_evaluations_it_interrupted():
    # the product raises on S2's requests, I∘A, alone: each other request is
    # made once, and S2's are made once per dim jointly, where the first one
    # raises, and then once per trial, each failing its own trial
    ident = {2: np.eye(2), 3: np.eye(3)}
    calls = {"identity": 0, "other": 0}

    def raising_on_identity(a, b):
        if np.array_equal(a.matrix, ident[a.dim]):
            calls["identity"] += 1
            raise ArithmeticError("no product with the identity")
        calls["other"] += 1
        return luders_product(a, b)

    reports = run_axiom_suite(raising_on_identity, trials=10, dims=(2, 3), seed=2)
    assert calls == {"identity": 2 + 10, "other": 10 * (3 + 2 + 6 + 5 + 2)}
    s2 = reports[1]
    assert (s2.trials, s2.failures) == (10, 10)
    assert s2.witness == {"trial": 0, "dim": 2, "error": "no product with the identity"}
    assert all(r.failures == 0 for r in reports[:1] + reports[2:])


def test_a_redone_trial_is_drawn_once_more_and_makes_no_extra_products(monkeypatch):
    # the raw product's outputs that are no effects raise, so groups are
    # interrupted: each of their trials is drawn once more and run alone,
    # and the suite makes at most 1226 product calls all told
    put, calls, streams = seqprod.cli._raw_matrix_product, [], []
    original = seqprod.axioms._trial_rng

    def counted(a, b):
        calls.append(None)
        return put(a, b)

    def trial_rng(seed, i):
        streams.append((seed, i))
        return original(seed, i)

    monkeypatch.setattr(seqprod.axioms, "_trial_rng", trial_rng)
    run_axiom_suite(counted, trials=60, dims=(2, 3, 4, 6), seed=0)
    assert len(calls) <= 1226
    assert len(streams) > len(set(streams))  # some trials are redone
    assert max(streams.count(key) for key in set(streams)) == 2


def test_a_suite_decomposes_only_the_stacks_it_reads(monkeypatch):
    # a 25-trial phased suite at dims 2, 3, 4 and 6 reads five built stacks'
    # decompositions per dim: I, I − B, A + B and the outputs A∘B of S4 and
    # S5 that are left operands; the other outputs and derived operands are
    # read as matrices alone
    expected = run_axiom_suite(phased(1.0), trials=25, dims=(2, 3, 4, 6))
    calls = []
    eig = seqprod.effects.hermitian_eig

    def counted(matrix):
        calls.append(len(matrix))
        return eig(matrix)

    monkeypatch.setattr(seqprod.effects, "hermitian_eig", counted)
    assert run_axiom_suite(phased(1.0), trials=25, dims=(2, 3, 4, 6)) == expected
    assert len(calls) <= 20


def test_a_user_product_is_called_per_item_inside_the_joint_driver(monkeypatch):
    # a product that takes no stacks runs through the same joint driver: each
    # step of a dim's groups is one call per request, on single effects
    put, dims = SUITE_PRODUCTS["wrapped phased(t=1)"], (2, 3, 4, 6)
    expected = run_axiom_suite(phased(1.0), trials=25, dims=dims)
    seen, sizes = [], []

    def recorded(a, b):
        seen.append((type(a), type(b)))
        return put(a, b)

    samples = seqprod.axioms._samples

    def recorded_samples(d, **fields):
        sizes.append(len(d))
        return samples(d, **fields)

    monkeypatch.setattr(seqprod.axioms, "_samples", recorded_samples)
    assert run_axiom_suite(recorded, trials=25, dims=dims) == expected
    # each trial's requests: S1 3, S2 1, S3 2, S4 6, S5 5, commutativity 2
    assert seen == [(Effect, Effect)] * (25 * 19)
    # dims 2, 3, 4 and 6 hold 7, 6, 6 and 6 trials of S1 to S5, and 4, 3, 3
    # and 3 forward ones (the converse direction draws no samples)
    assert sorted(sizes) == sorted([7, 6, 6, 6] * 5 + [4, 3, 3, 3])


def test_an_evaluation_that_raises_on_one_trial_charges_that_trial_alone(monkeypatch):
    # the product returns a bare ndarray for trial 5's A alone, so S2's
    # evaluation raises when it reads the joint dim-2 products; that dim is
    # then evaluated again, trial by trial
    target = _ref_generic(np.random.default_rng((4, 5)), 2).matrix
    calls, sizes = [], []

    def bare_for_one(a, b):
        calls.append(None)
        out = luders_product(a, b)
        return out.matrix if np.array_equal(b.matrix, target) else out

    (_axiom, s2), = [check for check in _ref_trials(bare_for_one)[0] if check[0] == "S2"]
    expected = _ref_run_check("S2", 20, (2, 3), 4, s2)
    calls.clear()
    samples = seqprod.axioms._samples

    def recorded(d, **fields):
        sizes.append(len(d))
        return samples(d, **fields)

    monkeypatch.setattr(seqprod.axioms, "_samples", recorded)
    report = check_s2(bare_for_one, trials=20, dims=(2, 3), seed=4)
    assert report == expected
    assert (report.trials, report.failures) == (20, 1)
    assert report.witness == {"trial": 5, "dim": 2,
                              "error": "'numpy.ndarray' object has no attribute 'matrix'"}
    # the dim-3 group in one evaluation, the dim-2 one trial by trial, after
    # its joint round made each of its ten requests once already
    assert sorted(sizes) == [1] * 9 + [10]
    assert len(calls) == 10 + 10 + 10


# ---------------------------------------------------------------------------
# the driver's memo of its last run's draws and builds
# ---------------------------------------------------------------------------

def _empty_memo():
    seqprod.axioms._memo = seqprod.axioms._Memo()


def _suite_bytes(put, comm_floor=seqprod.axioms.DEFAULT_COMM_FLOOR, seed=5):
    reports = run_axiom_suite(put, trials=20, dims=(1, 2, 3), seed=seed, comm_floor=comm_floor)
    return dumps([dict(vars(r)) for r in reports])


def _kept_bytes(memo) -> int:
    """The bytes of the arrays a memo holds: its draws' and its builds'."""
    total = 0
    for value in memo.values():
        if isinstance(value, tuple):  # a draw and its matrix entries
            total += sum(y.nbytes for x in value[0] if isinstance(x, seqprod.axioms._Draw)
                         for y in (x.re, x.im, *x.spectra))
        else:  # a dim's stacked build
            total += sum(y.nbytes for x in value for y in (
                x.matrix, x.decomposition.eigenvalues, x.decomposition.eigenvectors))
    return total


MEMO_PRODUCTS = {"luders": luders_product, "phased(t=-1)": phased(-1.0),
                 "phased(t=1)": phased(1.0), "raw": seqprod.cli._raw_matrix_product}


@pytest.mark.parametrize("comm_floor", [seqprod.axioms.DEFAULT_COMM_FLOOR, 0.5],
                         ids=["default-floor", "floor=0.5"])
@pytest.mark.parametrize("product", MEMO_PRODUCTS)
def test_a_suite_on_another_products_memo_reports_as_on_an_empty_one(product, comm_floor):
    # at a raised floor most d = 2 converse pairs are redrawn on the trial
    # stream, which a kept draw hands on at its state after the draw
    put = MEMO_PRODUCTS[product]
    missed = _suite_bytes(put, comm_floor)
    other = phased(1.0) if product == "luders" else luders_product
    _empty_memo()
    _suite_bytes(other, comm_floor)
    kept = dict(seqprod.axioms._memo)
    assert kept
    assert _suite_bytes(put, comm_floor) == missed
    # the second product at the schedule drew and built nothing the memo held
    assert seqprod.axioms._memo.keys() == kept.keys()


def test_a_schedule_change_empties_the_memo():
    _suite_bytes(luders_product, seed=5)
    first = seqprod.axioms._memo
    _suite_bytes(phased(1.0), seed=5)
    assert seqprod.axioms._memo is first
    _suite_bytes(luders_product, seed=6)
    assert seqprod.axioms._memo is not first
    assert {key[1] for key in seqprod.axioms._memo if isinstance(key[0], str)} == set(range(6, 12))


@pytest.mark.parametrize("bound", [0, 30_000, 100_000])
def test_a_memo_bound_leaves_the_reports_unchanged_and_is_never_passed(bound, monkeypatch):
    expected = _suite_bytes(luders_product)
    _empty_memo()
    monkeypatch.setattr(seqprod.axioms, "MEMO_BYTES", bound)
    keep = seqprod.axioms._Memo.keep

    def bounded(memo, key, value, size):
        keep(memo, key, value, size)
        assert memo.size <= bound and _kept_bytes(memo) <= memo.size

    monkeypatch.setattr(seqprod.axioms._Memo, "keep", bounded)
    assert _suite_bytes(luders_product) == expected
    assert _suite_bytes(phased(1.0)) == _suite_bytes(phased(1.0))  # on a full slot
    _empty_memo()
    assert _suite_bytes(luders_product) == expected
    assert bool(seqprod.axioms._memo) == (bound > 0)


def test_a_product_that_writes_into_an_operand_fails_its_own_trials():
    # every stack the driver builds is read-only, kept or not, so the write
    # fails each trial, a redone one too, and leaves the memo unaltered; a
    # derived operand, such as S2's identity, may be written
    def writing(a, b):
        a.matrix[0, 0] = b.matrix[0, 0] = 0.5
        return luders_product(a, b)

    reports = run_axiom_suite(writing, trials=20, dims=(1, 2, 3), seed=5)
    error = "assignment destination is read-only"
    for report in reports:
        assert report.failures == report.trials == 20, report.axiom
        assert report.witness["error"] == error, report.axiom
    after_writes = _suite_bytes(luders_product)
    _empty_memo()
    assert _suite_bytes(luders_product) == after_writes


def test_the_witness_search_neither_reads_nor_fills_the_memo(monkeypatch):
    _suite_bytes(luders_product)
    memo = seqprod.axioms._memo
    kept, size = dict(memo), memo.size

    def untouched(*args):
        raise AssertionError("the witness search used the memo")

    monkeypatch.setattr(seqprod.axioms._Memo, "get", untouched)
    monkeypatch.setattr(seqprod.axioms._Memo, "keep", untouched)
    find_nonuniqueness_witness(trials=30, dims=(2, 3), seed=5)
    find_nonuniqueness_witness(trials=30, dims=(2, 3), seed=5, commuting_only=True)
    assert seqprod.axioms._memo is memo
    assert dict(memo) == kept and memo.size == size


@pytest.mark.parametrize("fn", ALL_CHECKS + (find_nonuniqueness_witness,),
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("schedule", [{"trials": 0}, {"trials": -3}, {"dims": ()},
                                      {"dims": (0,)}, {"dims": (2, -1)}, {"dims": (2.5,)},
                                      {"trials": 2.5}, {"trials": True},
                                      {"seed": 1.5}, {"seed": True},
                                      {"trials": 0, "comm_floor": -1}],
                         ids=["trials=0", "trials=-3", "dims=()",
                              "dims=(0,)", "dims=(2,-1)", "dims=(2.5,)",
                              "trials=2.5", "trials=True", "seed=1.5", "seed=True",
                              "trials=0,comm_floor=-1"])
def test_schedule_that_runs_nothing_is_rejected(fn, schedule):
    # trials, seed and each dim must be integers (a bool is not): invalid
    # input, not a failed trial, a rounded trial count or a reported `true`.
    # The schedule is named before an invalid floor, by every entry point
    # that takes one
    args = () if fn is find_nonuniqueness_witness else (phased(1.0),)
    name = next(iter(schedule))
    taken = inspect.signature(fn).parameters
    with pytest.raises(ValidationError, match=name):
        fn(*args, **{key: value for key, value in schedule.items() if key in taken})


def test_numpy_integer_schedule_is_reported_as_python_ints():
    # numpy integers are accepted; the reports carry Python ints, so they serialize
    def halved(a, b):
        return Effect(0.5 * luders_product(a, b).matrix)

    reports = run_axiom_suite(halved, trials=np.int64(3), dims=np.array([2]),
                              seed=np.int64(3))
    assert reports[1].failures == 3
    for report in reports:
        assert type(report.trials) is int and type(report.seed) is int
        assert report.witness is None or type(report.witness["dim"]) is int
    dumps([asdict(report) for report in reports])
    witness = find_nonuniqueness_witness(trials=np.int64(5), dims=np.array([2]),
                                         seed=np.int64(3))
    assert witness["found"] and type(witness["dim"]) is int
    dumps(witness)


def test_nonuniqueness_rejects_empty_t_values():
    with pytest.raises(ValidationError, match="t_values"):
        find_nonuniqueness_witness(trials=5, t_values=())


@pytest.mark.parametrize("trials", [1, 4])
@pytest.mark.parametrize("t_values", [(1.0, math.nan), (math.inf,), (-math.inf,),
                                      (True,), ("1",), (0.5, 1j)],
                         ids=["nan-second", "inf", "-inf", "True", "str", "complex"])
def test_nonuniqueness_rejects_a_t_entry_that_is_not_a_finite_real(
        t_values, trials, monkeypatch):
    # rejected before the first pair is drawn, whether or not the schedule reaches it
    draws = []
    monkeypatch.setattr(seqprod.axioms, "gen_generic", lambda *args: draws.append(args))
    with pytest.raises(ValidationError, match="t_values entry must be a finite real"):
        find_nonuniqueness_witness(trials=trials, t_values=t_values)
    assert draws == []


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
    # the largest of noise-level gaps names no witness
    assert result["witness"] is None and result["trial"] is None


def test_witness_absent_at_t_zero():
    result = find_nonuniqueness_witness(trials=50, dims=(2,), t_values=(0.0,),
                                        seed=0)
    assert not result["found"]
    # +0.0, which the report writes as 0, not -0
    assert result["gap"] == 0.0 and math.copysign(1.0, result["gap"]) == 1.0
    assert '"gap": 0,' in dumps(result)
    assert result["witness"] is None and result["trial"] is None


def test_witness_search_builds_no_effect_for_a_product(monkeypatch):
    calls = []
    init = Effect.__init__

    def counted(self, matrix):
        calls.append(None)
        init(self, matrix)

    monkeypatch.setattr(Effect, "__init__", counted)
    result = find_nonuniqueness_witness(trials=20, dims=(2, 16), t_values=(1.0, -1.0))
    assert result["found"]
    assert len(calls) == 0


def test_witness_search_symmetrizes_each_product_once(monkeypatch):
    # B's matrix goes into both products as it is: an effect's matrix is Hermitian
    calls = []
    products = []

    def counted(matrix):
        calls.append(None)
        return hermitize(matrix)

    def counted_product(*args):
        products.append(None)
        return product_on_selfadjoint(*args)

    for module in (seqprod.linalg, seqprod.effects, seqprod.axioms):
        monkeypatch.setattr(module, "hermitize", counted)
    monkeypatch.setattr(seqprod.axioms, "product_on_selfadjoint", counted_product)
    monkeypatch.setattr(seqprod.axioms, "_cpus", lambda: 1)  # a child's calls are not counted here
    trials = 6
    assert find_nonuniqueness_witness(trials=trials, dims=(2, 3), t_values=(1.0,))["found"]
    # one symmetrization per scored stack, of its B matrices, here one stack
    # per dim; one for the reported pair's build, its A and B; and one per
    # product, the two products built for the reported pair alone
    assert len(calls) == 2 + 1 + 2
    assert len(products) == 2
    # a failed search builds no pair and forms no product: its scored
    # stacks' B matrices alone are symmetrized
    calls.clear()
    products.clear()
    assert not find_nonuniqueness_witness(trials=trials, dims=(2, 3),
                                          commuting_only=True)["found"]
    assert len(calls) == 2
    assert products == []


def _brute_force_search(trials, dims, t_values, seed, gap_threshold=0.01,
                        commuting_only=False):
    """The search one pair at a time, in trial order, on the reference builds
    and the per-pair reference score of ``helpers``: its report, and each
    pair's score beside its standard-basis gap ‖A∘_t B − A∘B‖_op."""
    best = first_hit = None
    scored = []
    for i in range(trials):
        dim, t = dims[i % len(dims)], t_values[i % len(t_values)]
        rng = np.random.default_rng((seed, i))
        a, b = (_ref_commuting_pair(rng, dim) if commuting_only
                else (_ref_generic(rng, dim), _ref_generic(rng, dim)))
        score = helpers.reference_gap_score(a, b, t)
        scored.append((score, operator_norm(product_on_selfadjoint(a, b, t)
                                            - product_on_selfadjoint(a, b, 0.0))))
        if score > gap_threshold and first_hit is None:
            first_hit = i
        if best is None or score > best[0]:
            best = (score, i, dim, t, a, b)
    gap, trial, dim, t, a, b = best
    report = {"found": False, "gap": gap, "threshold": gap_threshold,
              "trial": None, "first_hit_trial": first_hit, "dim": None,
              "t": None, "theta": None, "a_eigenvalues": None, "witness": None}
    if gap > gap_threshold:
        lam = a.decomposition.eigenvalues
        report.update(
            found=True, trial=trial, dim=dim, t=t,
            theta=(float(t * (np.log(lam[1]) - np.log(lam[0])))
                   if dim == 2 and lam[0] > 0.0 else None),
            a_eigenvalues=[float(x) for x in lam],
            witness={"a": matrix_to_document(a.matrix), "b": matrix_to_document(b.matrix),
                     "phased": matrix_to_document(product_on_selfadjoint(a, b, t)),
                     "luders": matrix_to_document(product_on_selfadjoint(a, b, 0.0))})
    return scored, report


@pytest.mark.parametrize("dims", [(2, 16), (64,)])
@pytest.mark.parametrize("seed", range(5))
def test_witness_search_matches_a_standard_basis_scan(seed, dims):
    t_values = (-1.0, 0.5, 1.0, 3.0)
    trials = 8 if dims == (2, 16) else 4
    scored, expected = _brute_force_search(trials, dims, t_values, seed)
    for score, gap in scored:
        assert abs(score - gap) <= 1e-13 * max(1.0, gap)
    # ranked and decided on the standard-basis gap, the scan picks the same pairs
    gaps = [gap for _score, gap in scored]
    assert expected["found"] and gaps.index(max(gaps)) == expected["trial"]
    assert next(i for i, gap in enumerate(gaps) if gap > 0.01) == expected["first_hit_trial"]
    result = find_nonuniqueness_witness(trials=trials, dims=dims,
                                        t_values=t_values, seed=seed)
    # the reported gap is the pair's eigenbasis score, bit for bit, so it lies
    # within the score's bound of the standard-basis gap; every other field is exact
    assert abs(result["gap"] - gaps[expected["trial"]]) <= 1e-13 * max(1.0, max(gaps))
    assert result == expected


@pytest.mark.parametrize("search", [
    {"seed": 0}, {"seed": 5, "trials": 31}, {"seed": 2, "gap_threshold": 0.3},
    {"seed": 1, "commuting_only": True},
], ids=["seed0", "seed5", "threshold", "commuting"])
def test_a_stacked_search_reports_what_a_per_pair_search_reports(search):
    # the d = 64 blocks hold two trials and are scored as they fill, before
    # the d = 16 trials, which fill no block: scored out of trial order, the
    # report must still take the best pair and the first hit in trial order
    search = {"trials": 24, "dims": (16, 64), "t_values": (1.0, -1.0, 3.0), **search}
    _scored, expected = _brute_force_search(**search)
    assert find_nonuniqueness_witness(**search) == expected


def _scored_operands(columns):
    """A's snapped eigenvalues and eigenvectors and B's matrices, as the
    witness search forms them from a stack of draws: one eigensystem build,
    then B's matrices alone."""
    spectra, bases, basis, (a, b) = seqprod.axioms._laid_out(columns)
    w, v, snapped = seqprod.effects._eigensystems(spectra, bases, basis)
    return snapped[a], v[a], seqprod.effects._eigensystem_matrices(w[b], v[b])


@pytest.mark.parametrize("dim", [1, 2, 16, 64])
def test_a_batched_gap_score_is_the_per_pair_score_bit_for_bit(dim):
    # stacks of 1, 2 and, at d = 64, one above numpy's 256 KiB
    # temporary-elision threshold; d = 1 is the lone 1 x 1 complex product
    draws = [seqprod.axioms._draw_generic(np.random.default_rng((dim, k)), dim)
             for k in range(18)]
    for t in (1.0, -1.0, 3.0):
        for n in (1, 2, 9):
            columns = [draws[:n], draws[n:2 * n]]
            a, b = seqprod.axioms._build(columns)
            expected = [helpers.reference_gap_score(x, y, t) for x, y in zip(a, b)]
            lam, v, b_matrices = _scored_operands(columns)
            # the search's operands are the stacked build's, bit for bit
            dec = a.decomposition
            for got, built in ((lam, dec.eigenvalues), (v, dec.eigenvectors),
                               (b_matrices, b.matrix)):
                assert np.array_equal(got, built)
            assert seqprod.axioms._gap_score(lam, v, b_matrices, t) == expected


def test_a_search_forms_no_a_matrix_but_the_reported_pairs(monkeypatch):
    formed = []
    original = seqprod.effects._eigensystem_matrices

    def recorded(w, v):
        formed.append(w.shape)
        return original(w, v)

    for module in (seqprod.effects, seqprod.axioms):
        monkeypatch.setattr(module, "_eigensystem_matrices", recorded)
    monkeypatch.setattr(seqprod.axioms, "_cpus", lambda: 1)  # a child's calls are not recorded here
    # a d = 64 block holds two pairs and is scored as the third arrives; the
    # d = 16 block, which no trial fills, is scored at the end, then the last d = 64 one
    report = find_nonuniqueness_witness(trials=12, dims=(16, 64), t_values=(1.0,))
    assert report["found"]
    # each block forms exactly its B stack; the reported pair's A and B come last
    assert formed == [(2, 64), (2, 64), (6, 16), (2, 64), (2, report["dim"])]
    formed.clear()
    report = find_nonuniqueness_witness(trials=12, dims=(16, 64), commuting_only=True)
    assert not report["found"]
    assert formed == [(2, 64), (2, 64), (6, 16), (2, 64)]


def test_search_stacks_stay_within_the_entry_budget(monkeypatch):
    shapes = []
    qr = np.linalg.qr

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    find_nonuniqueness_witness(trials=12, dims=(16, 64), t_values=(1.0, -1.0))
    find_nonuniqueness_witness(trials=12, dims=(64,), commuting_only=True)
    stacked = [shape for shape in shapes if len(shape) == 3]
    # two generic d = 64 pairs, or four commuting ones, still fit in one stack
    assert (4, 64, 64) in stacked
    assert max(math.prod(shape) for shape in stacked) <= seqprod.axioms.STACK_ENTRIES


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


# three keys whose blocks are planned interleaved: d = 64 every two pairs,
# d = 16 every 32, d = 2 only at the end
INTERLEAVED = {"trials": 60, "dims": (2, 16, 64), "t_values": (-1.0, 1.0, 3.0), "seed": 11}


@pytest.mark.parametrize("case", ["interleaved", "commuting", "failed", "tie"])
def test_a_search_reports_the_same_bits_in_any_number_of_shards(case, monkeypatch):
    search = {"interleaved": INTERLEAVED,
              "commuting": dict(INTERLEAVED, commuting_only=True),
              "failed": dict(INTERLEAVED, gap_threshold=1.0),
              "tie": INTERLEAVED}[case]
    if case == "tie":
        # every pair of gap 0.05 or more ties at 0.05: the earliest of them is the best
        original = seqprod.axioms._gap_score
        monkeypatch.setattr(seqprod.axioms, "_gap_score",
                            lambda *args: [min(gap, 0.05) for gap in original(*args)])
    reports = []
    for shards in (1, 2, 3, 4):
        monkeypatch.setattr(seqprod.axioms, "_cpus", lambda: shards)
        reports.append(find_nonuniqueness_witness(**search))
        _assert_no_child_left()
    assert [dumps(report) for report in reports] == [dumps(reports[0])] * 4
    report = reports[0]
    assert report["found"] == (case in ("interleaved", "tie"))
    if case == "failed":
        assert 0.01 < report["gap"] < 1.0 and report["first_hit_trial"] is None
    if case == "tie":
        # trial 1, of the d = 16 block planned eleventh, ties with every
        # d = 64 pair, from plan block 0 on, and is the earliest of them
        assert report["gap"] == 0.05 and report["trial"] == 1


def test_a_search_reports_the_same_bits_whatever_the_scoring_schedule(monkeypatch):
    expected = find_nonuniqueness_witness(**INTERLEAVED)
    parent, original = os.getpid(), seqprod.axioms._gap_score

    def slowed(*args):
        if os.getpid() != parent:
            time.sleep(0.02)  # the parent finishes its shard first and waits on the child
        return original(*args)

    monkeypatch.setattr(seqprod.axioms, "_gap_score", slowed)
    monkeypatch.setattr(seqprod.axioms, "_cpus", lambda: 2)
    report = find_nonuniqueness_witness(**INTERLEAVED)
    assert report["found"]
    assert dumps(report) == dumps(expected)
    assert report == expected
    _assert_no_child_left()


def test_a_raising_block_raises_its_error_and_leaves_no_thread(monkeypatch):
    calls, failure = [], DomainError("u = 1.5 lies outside [0, 1]")
    original = seqprod.axioms._gap_score

    def raising(*args):
        calls.append(args)
        if len(calls) == 2:
            raise failure
        return original(*args)

    monkeypatch.setattr(seqprod.axioms, "_gap_score", raising)
    before, fds = threading.active_count(), _open_fds()
    # six d = 64 blocks of two pairs each, and the second block a process
    # scores raises.  In one to four shards the caller's shard holds two
    # blocks, and its second, block n, is the earliest failing block in plan
    # order (a child's second is later), so the search raises that very error
    for shards in (1, 2, 3, 4):
        calls.clear()
        monkeypatch.setattr(seqprod.axioms, "_cpus", lambda: shards)
        with pytest.raises(DomainError) as raised:
            find_nonuniqueness_witness(trials=12, dims=(64,), t_values=(1.0,))
        assert raised.value is failure
        assert threading.active_count() == before
        _assert_no_child_left()
        assert _open_fds() == fds


# one block per dim, planned d = 2, 3, 4, 5: two shards score d = 2 and 4
# here and d = 3 and 5 in the child
ONE_BLOCK_A_DIM = {"trials": 8, "dims": (2, 3, 4, 5), "t_values": (1.0,)}


@pytest.mark.parametrize("failing, raised", [((4,), 4), ((5,), 5), ((3, 4), 3), ((2, 5), 2)],
                         ids=["here", "in-the-child", "child-first", "here-first"])
def test_a_raising_block_raises_the_inline_scans_error(failing, raised, monkeypatch):
    errors = {dim: DomainError(f"u = 1.5 lies outside [0, 1] at d = {dim}") for dim in failing}
    original = seqprod.axioms._gap_score

    def raising(lam, *args):
        if lam.shape[1] in errors:
            raise errors[lam.shape[1]]
        return original(lam, *args)

    monkeypatch.setattr(seqprod.axioms, "_gap_score", raising)
    fds = _open_fds()
    for shards in (1, 2):
        monkeypatch.setattr(seqprod.axioms, "_cpus", lambda: shards)
        with pytest.raises(DomainError) as caught:
            find_nonuniqueness_witness(**ONE_BLOCK_A_DIM)
        # the error of the earliest failing block in plan order, the very object
        assert caught.value is errors[raised]
        _assert_no_child_left()
        assert _open_fds() == fds


def test_a_child_that_leaves_without_its_reduction_changes_no_report(monkeypatch):
    expected = dumps(find_nonuniqueness_witness(**INTERLEAVED))
    parent, original = os.getpid(), seqprod.axioms._gap_score

    def leaving(*args):
        if os.getpid() != parent:
            os._exit(1)
        return original(*args)

    monkeypatch.setattr(seqprod.axioms, "_gap_score", leaving)
    monkeypatch.setattr(seqprod.axioms, "_cpus", lambda: 3)
    fds = _open_fds()
    assert dumps(find_nonuniqueness_witness(**INTERLEAVED)) == expected
    _assert_no_child_left()
    assert _open_fds() == fds


def test_a_shard_that_cannot_fork_is_scored_in_the_caller(monkeypatch):
    expected = dumps(find_nonuniqueness_witness(**INTERLEAVED))
    fork, forks = os.fork, []

    def second_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    monkeypatch.setattr(seqprod.axioms, "_cpus", lambda: 3)
    fds = _open_fds()
    assert dumps(find_nonuniqueness_witness(**INTERLEAVED)) == expected
    assert len(forks) == 2
    _assert_no_child_left()
    assert _open_fds() == fds


def test_a_search_in_a_process_that_ignores_sigchld_reports_as_recorded(monkeypatch):
    expected = dumps(find_nonuniqueness_witness(**INTERLEAVED))
    monkeypatch.setattr(seqprod.axioms, "_cpus", lambda: 3)
    fds, handler = _open_fds(), signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        # children are reaped as they exit, before the search reaps them
        assert dumps(find_nonuniqueness_witness(**INTERLEAVED)) == expected
    finally:
        signal.signal(signal.SIGCHLD, handler)
    _assert_no_child_left()
    assert _open_fds() == fds


def test_a_one_shard_search_needs_no_unix_signal(monkeypatch):
    # where os.fork is missing, so is SIGKILL: one shard must not ask for it
    expected = dumps(find_nonuniqueness_witness(**INTERLEAVED))
    monkeypatch.delattr(signal, "SIGKILL")
    monkeypatch.setattr(seqprod.axioms, "_cpus", lambda: 1)
    assert dumps(find_nonuniqueness_witness(**INTERLEAVED)) == expected


def test_an_interrupted_search_leaves_no_child_and_no_pipe(monkeypatch):
    parent, original = os.getpid(), seqprod.axioms._gap_score

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(10)  # the children still run when the parent is interrupted
        return original(*args)

    monkeypatch.setattr(seqprod.axioms, "_gap_score", interrupted)
    monkeypatch.setattr(seqprod.axioms, "_cpus", lambda: 3)
    fds, start = _open_fds(), time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        find_nonuniqueness_witness(**INTERLEAVED)
    assert time.monotonic() - start < 5.0  # killed, not waited for
    _assert_no_child_left()
    assert _open_fds() == fds


def test_no_fork_while_a_second_thread_is_alive(monkeypatch):
    forks, release = [], threading.Event()
    fork = os.fork

    def recorded():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", recorded)
    waiting = threading.Thread(target=release.wait, args=(30.0,))
    waiting.start()
    try:
        assert seqprod.axioms._cpus() == 1
        expected = find_nonuniqueness_witness(**INTERLEAVED)
    finally:
        release.set()
        waiting.join(30.0)
    assert not waiting.is_alive()
    assert forks == []
    assert find_nonuniqueness_witness(**INTERLEAVED) == expected
    # alone again, the search forks a child per shard but its own
    blocks = len(seqprod.axioms._witness_blocks(60, (2, 16, 64), (-1.0, 1.0, 3.0)))
    assert len(forks) == min(seqprod.axioms._cpus(), blocks) - 1
    _assert_no_child_left()


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_a_blas_thread_keeps_the_search_in_one_shard(blas_threads):
    # a native thread counts as a Python one: with two BLAS threads the
    # BLAS's own second thread alone keeps the search from forking
    code = ("import os, numpy, seqprod.axioms as axioms; print(len(os.listdir('/proc/self/task')),"
            " axioms._cpus(), len(os.sched_getaffinity(0)))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads,
               MKL_NUM_THREADS=blas_threads, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    threads, cpus, affinity = map(int, out.split())
    assert cpus == (affinity if threads == 1 else 1)
    if blas_threads == "1":
        assert threads == 1


def _d2_supremum(t):
    """The largest gap any 2x2 effect pair reaches at t: max over 0 < x <= 1
    of √x·|sin(t·ln x / 2)|, which x = exp(−2·arctan|t| / |t|) attains;
    0.1769 / 0.3224 / 0.6256 at t = 0.5 / 1 / 3."""
    t = abs(t)
    return math.exp(-math.atan(t) / t) * t / math.hypot(1.0, t)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_a_d2_witness_gap_is_its_closed_form_below_the_supremum(seed):
    # with A = V·diag(λ)·V† the gap is 2√(λ₀λ₁)·|sin(θ/2)|·|(V†BV)₀₁|, and
    # |(V†BV)₀₁| <= ½ bounds it by the supremum
    for t in (0.5, 1.0, 3.0, -1.0):
        report = find_nonuniqueness_witness(trials=200, dims=(2,), t_values=(t,), seed=seed)
        assert report["found"]
        lam0, lam1 = report["a_eigenvalues"]
        a, b = (document_to_matrix(report["witness"][key]) for key in ("a", "b"))
        v = np.linalg.eigh(a)[1]
        b01 = abs((v.conj().T @ b @ v)[0, 1])
        closed = 2.0 * math.sqrt(lam0 * lam1) * abs(math.sin(report["theta"] / 2.0)) * b01
        assert abs(report["gap"] - closed) <= 1e-14
        assert report["gap"] <= _d2_supremum(t)


def test_a_resonant_spectrum_gives_the_luders_product_for_every_b():
    # when λ₀/λ₁ = e^{−2π/t} the phases t·ln λ differ by 2π, so A∘_t B = A∘B
    # for every B, commuting or not; 1 % off that ratio the products differ
    rng = np.random.default_rng(13)
    basis = seqprod.axioms._gaussians(rng, 2)
    bs = [seqprod.axioms._draw_generic(rng, 2) for _ in range(50)]

    def gaps(t, ratio):
        a_draw = seqprod.axioms._Draw(*basis, (np.array([0.9 * ratio, 0.9]),))
        return seqprod.axioms._gap_score(*_scored_operands([[a_draw] * len(bs), bs]), t)

    for t in (0.5, 1.0, 3.0):
        assert max(gaps(t, math.exp(-2.0 * math.pi / t))) <= 1e-14
    assert max(gaps(3.0, 1.01 * math.exp(-2.0 * math.pi / 3.0))) > 1e-3


def test_a_search_over_resonant_a_reports_no_witness(monkeypatch):
    # the search's draws with each pair's A given eigenvalues x·e^{−2π/t} and
    # x, t = 3 where the phase is largest: every pair's products agree, so a
    # correct kernel finds nothing and its best gap is rounding error
    t, draw, drawn = 3.0, seqprod.axioms._draw_generic, []

    def resonant(rng, dim):
        pair = draw(rng, dim)
        drawn.append(pair)
        if len(drawn) % 2 == 0:  # the pair's B
            return pair
        x = pair.spectra[0].max()
        return pair._replace(spectra=(np.array([x * math.exp(-2.0 * math.pi / t), x]),))

    monkeypatch.setattr(seqprod.axioms, "_draw_generic", resonant)
    monkeypatch.setattr(seqprod.axioms, "_cpus", lambda: 1)  # a child's draws are not counted here
    report = find_nonuniqueness_witness(trials=100, dims=(2,), t_values=(t,), seed=4)
    assert len(drawn) == 200
    assert not report["found"] and report["witness"] is None
    assert report["gap"] <= 1e-14, report["gap"]


def _assert_decided_on_the_reported_gap(threshold, **search):
    result = find_nonuniqueness_witness(gap_threshold=threshold, **search)
    assert result["found"] == (result["first_hit_trial"] is not None) \
        == (result["gap"] > threshold), (threshold, result["gap"])
    return result


@pytest.mark.parametrize("seed", range(6))
def test_witness_search_ranks_decides_and_reports_on_one_gap(seed):
    # a threshold at the best pair's own score, or at its standard-basis gap a
    # rounding error away, must not split found from first_hit_trial
    search = {"trials": 20, "dims": (2, 3), "t_values": (1.0,), "seed": seed}
    scored, _ = _brute_force_search(**search)
    for threshold in max(scored):
        _assert_decided_on_the_reported_gap(threshold, **search)
    commuting = {"trials": 20, "dims": (2, 3), "seed": seed, "commuting_only": True}
    noise = _assert_decided_on_the_reported_gap(0.01, **commuting)["gap"]
    for threshold in (noise, noise / 2):
        _assert_decided_on_the_reported_gap(threshold, **commuting)
    for threshold in (0.0, 0.01):
        _assert_decided_on_the_reported_gap(threshold, **dict(search, t_values=(0.0,)))
