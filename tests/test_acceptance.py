"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is seeded,
so the suite is fully reproducible.
"""

import cmath
import functools
import json
import math
import time

import numpy as np

from seqprod import (
    Effect,
    apply_channel,
    check_commutativity_theorem,
    check_s1,
    check_s2,
    check_s3,
    check_s4,
    check_s5,
    choi_matrix,
    closed_form_2d,
    effect_power_it,
    gen_generic,
    gen_near_boundary,
    haar_unitary,
    hermitian_eig,
    luders_product,
    operator_norm,
    phased_channel,
    phased_product,
    projector_interpolation,
)
from seqprod.cli import main

import helpers

T_SET = (-1.0, 0.0, 0.5, 1.0, 3.0)
ACCEPTANCE_DIMS = (2, 3, 4, 6)


def _report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_axiom_suite():
    """S1-S5: zero failures over 1000 trials cycling dims 2,3,4,6, for the
    phased product at t in {-1, 0, 0.5, 1, 3} and for Lüders, ceiling 1e-9."""
    products = {"luders": luders_product}
    products.update({f"phased(t={t:g})": functools.partial(phased_product, t=t)
                     for t in T_SET})
    checks = (check_s1, check_s2, check_s3, check_s4, check_s5)
    started = time.perf_counter()
    total_failures = 0
    for p_idx, (label, put) in enumerate(products.items()):
        for c_idx, check in enumerate(checks):
            report = check(put, trials=1000, dims=ACCEPTANCE_DIMS,
                           seed=1000 * p_idx + c_idx, ceiling=1e-9)
            assert report.trials == 1000, (label, report.axiom)
            total_failures += report.failures
            assert report.failures == 0, (
                f"{label} {report.axiom}: {report.failures} failures, "
                f"worst {report.worst_violation:.3e}"
            )
    elapsed = time.perf_counter() - started
    _report(1, total_failures == 0,
            f"30 check runs x 1000 trials, 0 failures, {elapsed:.1f}s")


def test_criterion_2_nonuniqueness(capsys):
    """The witness search separates the products, and the 2x2 gap matches
    the scalar phase formula."""
    code = main(["nonuniqueness", "--trials", "100", "--dims", "2",
                 "--t", "1", "--seed", "0"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["found"] and payload["gap"] > 0.01

    a = Effect(np.diag([0.81, 0.25]))
    y = 0.2
    b = Effect(np.array([[0.5, y], [y, 0.5]]))
    theta = math.log(0.81) - math.log(0.25)
    predicted = 0.45 * abs(cmath.exp(1j * theta) - 1.0) * abs(y)
    measured = abs(
        phased_product(a, b, 1.0).matrix[0, 1] - luders_product(a, b).matrix[0, 1]
    )
    formula_ok = abs(measured - predicted) <= 1e-10
    _report(2, formula_ok,
            f"witness gap {payload['gap']:.4f} in 100 trials; off-diagonal "
            f"difference {measured:.6f} matches 0.45|e^(i th)-1||y| to "
            f"{abs(measured - predicted):.1e}")


def test_criterion_3_closed_form_cross_validation():
    """closed_form_2d vs the spectral product: 1e-12 over 1e4 draws,
    boundary a = 0 / b = 0 included (exact zeros ~10% each)."""
    rng = np.random.default_rng(33)
    worst = 0.0
    zero_cases = 0
    for _ in range(10_000):
        a = 0.0 if rng.uniform() < 0.1 else float(rng.uniform(1e-4, 1.0))
        b = 0.0 if rng.uniform() < 0.1 else float(rng.uniform(1e-4, 1.0))
        zero_cases += (a == 0.0) + (b == 0.0)
        eff_b = helpers.random_effect(rng, 2)
        x = eff_b.matrix[0, 0].real
        y = eff_b.matrix[0, 1]
        z = eff_b.matrix[1, 1].real
        t = float(rng.uniform(-3.0, 3.0))
        direct = closed_form_2d(a, b, x, y, z, t)
        spectral = phased_product(Effect(np.diag([a * a, b * b])), eff_b, t).matrix
        worst = max(worst, float(np.abs(direct - spectral).max()))
    _report(3, worst <= 1e-12,
            f"10000 draws ({zero_cases} boundary zeros), worst entrywise "
            f"difference {worst:.2e} <= 1e-12")


def test_criterion_4_commutativity_both_directions():
    """Per dim 2..6: 1000 commuting pairs give a symmetric product equal to
    AB within 1e-9; 1000 pairs with ‖AB-BA‖ >= 0.01 all separate by > 1e-6."""
    put = functools.partial(phased_product, t=1.0)
    min_gap = math.inf
    worst_fwd = 0.0
    for dim in (2, 3, 4, 5, 6):
        report = check_commutativity_theorem(
            put, trials=2000, dims=(dim,), seed=400 + dim,
            comm_floor=0.01, ceiling=1e-9, separation_floor=1e-6)
        bd = report.breakdown
        assert bd["forward_trials"] == 1000 and bd["converse_trials"] == 1000
        assert report.failures == 0, (dim, bd)
        min_gap = min(min_gap, bd["min_converse_gap"])
        worst_fwd = max(worst_fwd, report.worst_violation)
    _report(4, True,
            f"5 dims x (1000+1000) pairs, worst forward defect {worst_fwd:.2e}, "
            f"min noncommuting gap {min_gap:.2e} > 1e-6")


def test_criterion_5_spectral_calculus_identities():
    """Over 1000 effects (generic and near-boundary) and t values:
    f_it f_-it = P0 within 1e-10, ‖f_it‖ <= 1+1e-12, adjoint exact."""
    worst_support = 0.0
    worst_norm = 0.0
    rng = np.random.default_rng(55)
    for i in range(1000):
        dim = ACCEPTANCE_DIMS[i % 4]
        gen = gen_near_boundary if i % 5 == 4 else gen_generic
        a = gen(np.random.default_rng(9000 + i), dim)
        t = T_SET[i % 5] if i % 2 == 0 else float(rng.uniform(-3.0, 3.0))
        f = effect_power_it(a, t)
        g = effect_power_it(a, -t)
        assert np.array_equal(f.conj().T, g), "adjoint identity must be exact"
        worst_support = max(worst_support, float(np.linalg.norm(f @ g - a.support)))
        worst_norm = max(worst_norm, operator_norm(f))
    ok = worst_support <= 1e-10 and worst_norm <= 1.0 + 1e-12
    _report(5, ok,
            f"1000 effects: ‖f_it f_-it - P0‖ <= {worst_support:.2e}, "
            f"max ‖f_it‖ = {worst_norm:.15f}, adjoints exact")


def test_criterion_6_channel_certificates():
    """1000 random decompositions (2-4 effects, dims 2-4), t in {0, 1, 2}:
    trace preserved within 1e-10 and Choi PSD within -1e-9."""
    rng = np.random.default_rng(66)
    worst_trace = 0.0
    worst_choi = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(2, 5))
        decomposition = helpers.random_effect_decomposition(rng, dim, count)
        rho = helpers.random_density(rng, dim)
        for t in (0.0, 1.0, 2.0):
            channel = phased_channel(decomposition, t)
            out = apply_channel(channel, rho)
            worst_trace = max(worst_trace, abs(float(np.trace(out.matrix).real) - 1.0))
            min_eig = float(np.linalg.eigvalsh(choi_matrix(channel))[0])
            worst_choi = min(worst_choi, min_eig)
    ok = worst_trace <= 1e-10 and worst_choi >= -1e-9
    _report(6, ok,
            f"3000 channels: max |tr - 1| = {worst_trace:.2e}, "
            f"min Choi eigenvalue {worst_choi:.2e}")


def test_criterion_7_projector_interpolation():
    """Effects with cluster gaps >= 0.05, dims 2-5: every interpolated
    projector matches the eigenprojector oracle within 1e-7."""
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    for i in range(200):
        dim = 2 + i % 4
        m = int(rng.integers(1, dim + 1))
        while True:
            reps = np.sort(rng.uniform(0.0, 1.0, m))
            if m == 1 or np.all(np.diff(reps) >= 0.05):
                break
        cuts = np.sort(rng.choice(np.arange(1, dim), size=m - 1, replace=False))
        multiplicities = np.diff(np.concatenate(([0], cuts, [dim])))
        values = np.repeat(reps, multiplicities)
        b = Effect.from_eigensystem(values, haar_unitary(dim, rng))
        dec = hermitian_eig(b.matrix)
        for k, rep in enumerate(reps):
            members = np.abs(dec.eigenvalues - rep) < 0.025
            oracle = dec.apply(members.astype(float))
            defect = float(np.linalg.norm(projector_interpolation(b, k) - oracle))
            worst = max(worst, defect)
            checked += 1
    _report(7, worst <= 1e-7,
            f"{checked} projectors recovered, worst defect {worst:.2e} <= 1e-7")


def test_criterion_8_eigensolver_quality_gate():
    """1000 random Hermitian matrices up to dim 16: reconstruction within
    1e-11 * max(1, ‖A‖_F) and orthonormality within 1e-12 * dim."""
    rng = np.random.default_rng(88)
    worst_recon = 0.0
    worst_orth = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 17))
        scale = float(rng.choice([0.5, 1.0, 4.0]))
        a = helpers.random_hermitian(rng, dim, scale)
        dec = hermitian_eig(a)
        recon = float(np.linalg.norm(dec.reconstruct() - a))
        worst_recon = max(worst_recon, recon / max(1.0, float(np.linalg.norm(a))))
        v = dec.eigenvectors
        orth = float(np.linalg.norm(v.conj().T @ v - np.eye(dim)))
        worst_orth = max(worst_orth, orth / dim)
    ok = worst_recon <= 1e-11 and worst_orth <= 1e-12
    _report(8, ok,
            f"1000 matrices: worst relative reconstruction {worst_recon:.2e}, "
            f"worst orthonormality per dim {worst_orth:.2e}")
