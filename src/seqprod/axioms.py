"""Randomized verification of the sequential-product axioms.

The checks accept *any* product, a plain function ``(a, b) -> Effect`` on
effects of equal dimension, and measure defects in Frobenius norm against a
failure ceiling (default 1e-9).  Hypotheses that are measure-zero under
generic sampling (disjoint supports, commuting operands) are produced by
dedicated structured generators instead of rejection sampling, which would
essentially never satisfy them in floating point: S3 draws disjoint-support
pairs only, and S4, S5 and the forward commutativity direction draw operands
in a shared eigenbasis.  An S3 pair must give A∘B = 0 and B∘A = 0, so its
defect is max(‖A∘B‖_F, ‖B∘A‖_F) against the same ceiling.  Every draw is a
plain function ``gen_*(rng, dim)`` of a numpy Generator and a dim >= 1.

Trials are independent given per-trial derived seeds, so identical
configuration yields identical reports, witnesses included.

The k-th spectral projector of B is recovered by Lagrange interpolation of
the matrix f_{1/2−i}(B) = B^{1/2}B^{-i} through the nodes f_{1/2−i}(b_j) at
the eigenvalue cluster means b_j; clusters are CLUSTER_TOL apart, which
keeps the nodes apart.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .effects import (
    Effect,
    Projection,
    ValidationError,
    f_z,
    luders_product,
    phased_product,
)
from .linalg import hermitize, operator_norm
from .serialize import matrix_to_document

__all__ = [
    "gen_commuting_pair",
    "gen_generic",
    "gen_kernel_disjoint_pair",
    "gen_near_boundary",
    "gen_projection",
    "haar_unitary",
    "CheckReport",
    "check_s1",
    "check_s2",
    "check_s3",
    "check_s4",
    "check_s5",
    "check_commutativity_theorem",
    "run_axiom_suite",
    "distinct_spectrum",
    "projector_interpolation",
    "find_nonuniqueness_witness",
]

DEFAULT_CEILING = 1e-9
DEFAULT_COMM_FLOOR = 0.01        # converse: least ‖AB − BA‖_F of a drawn pair
DEFAULT_SEPARATION_FLOOR = 1e-6  # converse: least ‖A∘B − B∘A‖_F it must give
CLUSTER_TOL = 1e-8               # eigenvalues this close share a cluster
MAX_ATTEMPT_FACTOR = 10          # attempts per requested trial before giving up
DEFAULT_DIMS = (2, 3, 4, 6)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r)
    phase = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * phase


def _generator(draw):
    """A public generator ``draw(rng, dim)`` that rejects dim < 1 before drawing."""
    @functools.wraps(draw)
    def checked(rng: np.random.Generator, dim: int):
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        return draw(rng, dim)
    return checked


def _in_basis(v: np.ndarray, *spectra) -> tuple[Effect, ...]:
    """One effect per spectrum, all with the eigenvector columns of v."""
    return tuple(Effect.from_eigensystem(lam, v) for lam in spectra)


@_generator
def gen_generic(rng, dim) -> Effect:
    """Uniform spectrum in [0, 1] in a Haar eigenbasis."""
    return Effect.from_eigensystem(rng.uniform(0.0, 1.0, dim), haar_unitary(dim, rng))


@_generator
def gen_projection(rng, dim) -> Projection:
    """Projection of rank 1 to dim − 1 (0 or 1 at dim 1) in a Haar eigenbasis."""
    ones = int(rng.integers(1, dim)) if dim >= 2 else int(rng.integers(0, 2))
    lam = np.zeros(dim)
    lam[rng.permutation(dim)[:ones]] = 1.0
    cols = haar_unitary(dim, rng)[:, lam > 0]
    return Projection(cols @ cols.conj().T)


@_generator
def gen_commuting_pair(rng, dim) -> tuple[Effect, Effect]:
    """Two uniform spectra in one shared Haar eigenbasis."""
    v = haar_unitary(dim, rng)
    return _in_basis(v, rng.uniform(0.0, 1.0, dim), rng.uniform(0.0, 1.0, dim))


@_generator
def gen_kernel_disjoint_pair(rng, dim) -> tuple[Effect, Effect]:
    """A pair with disjoint supports in one shared Haar eigenbasis: AB = BA = 0."""
    v = haar_unitary(dim, rng)
    k = int(rng.integers(1, dim)) if dim >= 2 else 1
    lam_a = np.zeros(dim)
    lam_a[:k] = rng.uniform(0.0, 1.0, k)
    lam_b = np.zeros(dim)
    lam_b[k:] = rng.uniform(0.0, 1.0, dim - k)
    return _in_basis(v, lam_a, lam_b)


@_generator
def gen_near_boundary(rng, dim) -> Effect:
    """Eigenvalues from {0, 1e-12, 1 − 1e-12, 1}, at least one exactly 0."""
    lam = rng.choice(np.array([0.0, 1e-12, 1.0 - 1e-12, 1.0]), size=dim)
    lam[int(rng.integers(dim))] = 0.0
    return Effect.from_eigensystem(lam, haar_unitary(dim, rng))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

Product = Callable[[Effect, Effect], Effect]  # total on equal-dimension pairs


@dataclass
class CheckReport:
    """Outcome of one randomized check.

    ``trials`` counts hypothesis-satisfying executions only; ``witness``
    serializes the inputs of the first exception, else of the worst defect.
    ``worst_violation`` is the largest measured (finite) defect.  The fields
    are declared in report key order, so ``dataclasses.asdict`` is the report.
    """

    axiom: str
    trials: int
    failures: int
    worst_violation: float
    seed: int
    witness: Optional[dict]
    breakdown: Optional[dict] = None


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def _doc(effect: Effect) -> dict:
    return matrix_to_document(effect.matrix)


def _fro(m) -> float:
    return float(np.linalg.norm(m))


def _require_schedule(trials: int, seed: int, **axes) -> None:
    """Reject trials < 1, a seed < 0 (no RNG takes it) or an empty axis."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    for name, values in axes.items():
        if not values:
            raise ValidationError(f"{name} must name at least one value")


def _run_check(axiom, trials, dims, seed, ceiling, trial_fn, *,
               directions=None) -> CheckReport:
    """Drive trials until `trials` samples executed or attempts are exhausted.

    ``trial_fn(rng, dim, i)`` returns None when the trial's hypothesis was
    not met (not a sample), else ``(defect, witness)``: a sample that fails
    when defect > ceiling, the worst defect's witness being reported.  The
    witness holds the trial's operands as effects; only the one reported is
    turned into matrix documents, once the run is over.  A
    trial that judges itself returns ``(None, None)`` when it passed and
    ``(None, witness)`` when it failed.  Any exception raised in a trial,
    by the product under test or by a result it returned, counts as a
    failure and never aborts the run.  The report's witness is the first
    exception's, else the first self-judged failure's, else the worst
    defect's.  With ``directions``, trial i runs in direction
    ``directions[i % len(directions)]`` and the report's ``breakdown``
    counts trials and failures per direction.
    """
    dims = tuple(dims)
    _require_schedule(trials, seed, dims=dims)
    breakdown = {f"{d}_{key}": 0 for d in directions or ()
                 for key in ("trials", "failures")}
    executed = failures = attempts = 0
    worst = 0.0
    worst_witness: Optional[dict] = None
    fail_witness: Optional[dict] = None
    exc_witness: Optional[dict] = None
    while executed < trials and attempts < trials * MAX_ATTEMPT_FACTOR:
        i = attempts
        attempts += 1
        dim = dims[(i // 2) % len(dims)]
        rng = _trial_rng(seed, i)
        try:
            res = trial_fn(rng, dim, i)
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
                    worst = defect
                    worst_witness = {"trial": i, "dim": dim, **witness}
        executed += 1
        failures += failed
        if directions:
            direction = directions[i % len(directions)]
            breakdown[f"{direction}_trials"] += 1
            breakdown[f"{direction}_failures"] += failed
    witness = exc_witness or fail_witness or worst_witness
    if witness is not None:
        witness = {key: _doc(value) if isinstance(value, Effect) else value
                   for key, value in witness.items()}
    return CheckReport(
        axiom=axiom,
        trials=executed,
        failures=failures,
        worst_violation=worst,
        seed=seed,
        witness=witness,
        breakdown=breakdown or None,
    )


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------

def check_s1(put: Product, *, trials: int = 1000, dims=DEFAULT_DIMS,
             seed: int = 0, ceiling: float = DEFAULT_CEILING) -> CheckReport:
    """S1: B ↦ A∘B is additive, and A∘B + A∘C stays below the identity.

    C is drawn as a random mixture of I − B so that B + C <= I holds by
    construction.
    """
    def trial(rng, dim, _i):
        a = gen_generic(rng, dim)
        b = gen_generic(rng, dim)
        u = float(rng.uniform())
        c = Effect(u * (np.eye(dim) - b.matrix))
        ab, ac = put(a, b), put(a, c)
        bc = Effect(b.matrix + c.matrix)
        defect = _fro(ab.matrix + ac.matrix - put(a, bc).matrix)
        top = float(np.linalg.eigvalsh(ab.matrix + ac.matrix)[-1])
        defect = max(defect, top - 1.0)
        return defect, {"a": a, "b": b, "c": c}

    return _run_check("S1", trials, dims, seed, ceiling, trial)


def check_s2(put: Product, *, trials: int = 1000, dims=DEFAULT_DIMS,
             seed: int = 0, ceiling: float = DEFAULT_CEILING) -> CheckReport:
    """S2: I∘A = A."""
    def trial(rng, dim, _i):
        a = gen_generic(rng, dim)
        ident = Effect(np.eye(dim))
        defect = _fro(put(ident, a).matrix - a.matrix)
        return defect, {"a": a}

    return _run_check("S2", trials, dims, seed, ceiling, trial)


def check_s3(put: Product, *, trials: int = 1000, dims=DEFAULT_DIMS,
             seed: int = 0, ceiling: float = DEFAULT_CEILING) -> CheckReport:
    """S3: A∘B = 0 implies B∘A = 0.

    Every trial draws a disjoint-support pair, which satisfies the hypothesis
    by construction; generic pairs essentially never do, so none are drawn.
    Such a pair must give A∘B = 0 and B∘A = 0, so the defect is
    max(‖A∘B‖_F, ‖B∘A‖_F), judged against the ceiling like any other.
    """
    def trial(rng, dim, _i):
        a, b = gen_kernel_disjoint_pair(rng, dim)
        defect = max(_fro(put(a, b).matrix), _fro(put(b, a).matrix))
        return defect, {"a": a, "b": b}

    return _run_check("S3", trials, dims, seed, ceiling, trial)


def check_s4(put: Product, *, trials: int = 1000, dims=DEFAULT_DIMS,
             seed: int = 0, ceiling: float = DEFAULT_CEILING) -> CheckReport:
    """S4: if A∘B = B∘A then A∘(I−B) = (I−B)∘A and A∘(B∘C) = (A∘B)∘C.

    The hypothesis is produced by drawing A, B with a shared eigenbasis;
    C is generic.
    """
    def trial(rng, dim, _i):
        a, b = gen_commuting_pair(rng, dim)
        c = gen_generic(rng, dim)
        comp = Effect(np.eye(dim) - b.matrix)
        d1 = _fro(put(a, comp).matrix - put(comp, a).matrix)
        d2 = _fro(put(a, put(b, c)).matrix - put(put(a, b), c).matrix)
        return max(d1, d2), {"a": a, "b": b, "c": c}

    return _run_check("S4", trials, dims, seed, ceiling, trial)


def check_s5(put: Product, *, trials: int = 1000, dims=DEFAULT_DIMS,
             seed: int = 0, ceiling: float = DEFAULT_CEILING) -> CheckReport:
    """S5: C commuting with A and B commutes with A∘B and with A + B.

    All three effects share one eigenbasis, with the spectra of A and B
    drawn so that A + B <= I always holds.
    """
    def trial(rng, dim, _i):
        v = haar_unitary(dim, rng)
        lam_a = rng.uniform(0.0, 1.0, dim)
        lam_b = rng.uniform(0.0, 1.0, dim) * (1.0 - lam_a)
        a, b, c = _in_basis(v, lam_a, lam_b, rng.uniform(0.0, 1.0, dim))
        ab = put(a, b)
        d1 = _fro(put(c, ab).matrix - put(ab, c).matrix)
        s = Effect(a.matrix + b.matrix)
        d2 = _fro(put(c, s).matrix - put(s, c).matrix)
        return max(d1, d2), {"a": a, "b": b, "c": c}

    return _run_check("S5", trials, dims, seed, ceiling, trial)


def check_commutativity_theorem(
    put: Product, *, trials: int = 1000, dims=DEFAULT_DIMS,
    seed: int = 0, comm_floor: float = DEFAULT_COMM_FLOOR,
    ceiling: float = DEFAULT_CEILING, separation_floor: float = DEFAULT_SEPARATION_FLOOR,
) -> CheckReport:
    """Both directions of the commutativity criterion A∘B = B∘A ⇔ AB = BA.

    Forward (even trials): commuting operands must give a symmetric product
    equal to the plain matrix product AB.  Converse, contrapositive form
    (odd trials): operands with ‖AB − BA‖_F >= comm_floor must give products
    differing by more than separation_floor.  Failures are counted per
    direction in ``breakdown``, whose ``min_converse_gap`` is the smallest
    converse gap measured (None when none was).
    """
    min_gap = None

    def trial(rng, dim, i):
        nonlocal min_gap
        if i % 2 == 0:
            a, b = gen_commuting_pair(rng, dim)
            pab, pba = put(a, b), put(b, a)
            defect = max(
                _fro(pab.matrix - pba.matrix),
                _fro(pab.matrix - a.matrix @ b.matrix),
            )
            return defect, {"direction": "forward", "a": a, "b": b}
        if dim < 2:
            return None  # every pair commutes; the commutator floor is unreachable
        for _ in range(200):
            a, b = gen_generic(rng, dim), gen_generic(rng, dim)
            if _fro(a.matrix @ b.matrix - b.matrix @ a.matrix) >= comm_floor:
                break
        else:
            return None
        gap = _fro(put(a, b).matrix - put(b, a).matrix)
        min_gap = gap if min_gap is None else min(min_gap, gap)
        if gap > separation_floor:
            return None, None
        return None, {"direction": "converse", "gap": gap,
                      "a": a, "b": b}

    report = _run_check("commutativity", trials, dims, seed, ceiling, trial,
                        directions=("forward", "converse"))
    report.breakdown["min_converse_gap"] = min_gap
    return report


def run_axiom_suite(put: Product, *, trials: int = 1000,
                    dims=DEFAULT_DIMS, seed: int = 0,
                    ceiling: float = DEFAULT_CEILING,
                    comm_floor: float = DEFAULT_COMM_FLOOR,
                    separation_floor: float = DEFAULT_SEPARATION_FLOOR) -> list[CheckReport]:
    """All five axiom checks plus the commutativity criterion."""
    return [
        check_s1(put, trials=trials, dims=dims, seed=seed, ceiling=ceiling),
        check_s2(put, trials=trials, dims=dims, seed=seed + 1, ceiling=ceiling),
        check_s3(put, trials=trials, dims=dims, seed=seed + 2, ceiling=ceiling),
        check_s4(put, trials=trials, dims=dims, seed=seed + 3, ceiling=ceiling),
        check_s5(put, trials=trials, dims=dims, seed=seed + 4, ceiling=ceiling),
        check_commutativity_theorem(
            put, trials=trials, dims=dims, seed=seed + 5,
            comm_floor=comm_floor, ceiling=ceiling,
            separation_floor=separation_floor),
    ]


# ---------------------------------------------------------------------------
# Projector recovery by interpolation
# ---------------------------------------------------------------------------

def distinct_spectrum(b: Effect) -> np.ndarray:
    """Distinct eigenvalues of the effect, clustered within CLUSTER_TOL.

    Eigenvalues at or below the support cutoff are already exactly zero in
    the effect's decomposition, so the kernel forms one cluster at 0.
    """
    lam = b.decomposition.eigenvalues
    reps = []
    start = 0
    for i in range(1, len(lam) + 1):
        if i == len(lam) or lam[i] - lam[i - 1] > CLUSTER_TOL:
            reps.append(float(np.mean(lam[start:i])))
            start = i
    return np.array(reps)


def projector_interpolation(b: Effect, k: int) -> np.ndarray:
    """Recover the k-th spectral projector of B from the matrix B^{1/2}B^{-i}.

    Lagrange interpolation through the nodes w_j = f_{1/2−i}(b_j) at the
    cluster means b_j (w = 0 for the kernel cluster), evaluated at the
    matrix f_{1/2−i}(B); the empty product for a single cluster yields the
    identity.  k indexes the ascending distinct eigenvalues, 0-based.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise IndexError(f"cluster index k = {k!r} is not an integer")
    reps = distinct_spectrum(b)
    m = len(reps)
    if not 0 <= k < m:
        raise IndexError(f"cluster index {k} out of range for {m} clusters")
    # Adjacent cluster means differ by more than CLUSTER_TOL, so two nodes
    # differ by |w_p − w_q| >= |√b_p − √b_q| > CLUSTER_TOL / 2 = 5e-9.
    nodes = f_z(0.5 - 1j, reps)
    dec = b.decomposition
    matrix = dec.apply(f_z(0.5 - 1j, dec.eigenvalues))
    result = np.eye(b.dim, dtype=np.complex128)
    denom = 1.0 + 0j
    for j in range(m):
        if j == k:
            continue
        result = result @ (matrix - nodes[j] * np.eye(b.dim))
        denom *= nodes[k] - nodes[j]
    return hermitize(result / denom)


# ---------------------------------------------------------------------------
# Non-uniqueness search
# ---------------------------------------------------------------------------

def find_nonuniqueness_witness(*, trials: int = 100, dims=(2,),
                               t_values=(1.0,), seed: int = 0,
                               gap_threshold: float = 0.01,
                               commuting_only: bool = False) -> dict:
    """Search for (A, B, t) separating the phased product from Lüders.

    Maximizes ‖A ∘_t B − A ∘ B‖_op over random draws.  For a 2x2 witness
    the reported ``theta`` is t·(ln a² − ln b²) with a² the larger
    eigenvalue of A, the phase that twists the off-diagonal entry.
    """
    dims = tuple(dims)
    t_values = tuple(float(t) for t in t_values)
    _require_schedule(trials, seed, dims=dims, t_values=t_values)
    best = None
    first_hit = None
    for i in range(trials):
        dim = dims[i % len(dims)]
        t = t_values[i % len(t_values)]
        rng = _trial_rng(seed, i)
        if commuting_only:
            a, b = gen_commuting_pair(rng, dim)
        else:
            a, b = gen_generic(rng, dim), gen_generic(rng, dim)
        ph = phased_product(a, b, t)
        lu = luders_product(a, b)
        gap = operator_norm(ph.matrix - lu.matrix)
        if gap > gap_threshold and first_hit is None:
            first_hit = i
        if best is None or gap > best[0]:
            best = (gap, i, dim, t, a, b, ph, lu)
    gap, trial, dim, t, a, b, ph, lu = best
    theta = None
    if dim == 2:
        lam = a.decomposition.eigenvalues
        if lam[0] > 0.0:
            theta = t * (np.log(lam[1]) - np.log(lam[0]))
    return {
        "found": bool(gap > gap_threshold),
        "gap": float(gap),
        "threshold": float(gap_threshold),
        "trial": int(trial),
        "first_hit_trial": first_hit,
        "dim": int(dim),
        "t": float(t),
        "theta": (float(theta) if theta is not None else None),
        "a_eigenvalues": [float(x) for x in a.decomposition.eigenvalues],
        "witness": {
            "a": _doc(a),
            "b": _doc(b),
            "phased": _doc(ph),
            "luders": _doc(lu),
        },
    }
