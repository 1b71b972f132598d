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
plain function ``gen_*(rng, dim)`` of a numpy Generator and an integer dim >= 1.

Trials are independent given per-trial derived seeds, so identical
configuration yields identical reports, witnesses included.  Attempt i of a
check seeded ``seed`` draws on ``np.random.default_rng((seed, i))``, built
bit for bit as a PCG64 on the words of numpy's ``SeedSequence((seed, i))``,
cached per (seed, i) (``_trial_rng``); pair i of the witness search draws on
``np.random.default_rng((seed, i))`` itself, never cached.  Each check is a
draw, which makes a trial's RNG calls on its own stream, and an evaluation,
which builds the derived operands and asks for products in steps, each step
a set of products that depend only on earlier steps.  Drawn effects have
one builder, a stacked QR and eigensystem build in stacks of bounded size:
the suite builds the draws of all its checks per dim in one pass, and the
generators, the converse redraws and the witness search's reported pair
use it too.  The driver keeps its last run's draws, by (axiom, seed, i,
dim), and read-only builds, by dim and trials, up to MEMO_BYTES, so the
next product at that schedule, such as the CLI's next ``--t``, only
evaluates.  The witness search scores its pairs on the same QR and checked
eigensystems, and forms B's matrices alone, in blocks planned from its
schedule alone.  Block k goes to shard k mod n, one shard per CPU the
process may run on (``_cpus``): the caller scores shard 0 and a forked
child each other shard, but only if the process runs no second thread,
Python's or a BLAS's, so a single CPU, a pinned ``taskset -c 0`` or a
multi-threaded BLAS scans inline, and a shard whose fork fails is scored
by the caller.  The shards join on the largest gap,
the earliest trial on ties, and the earliest failing block in plan order
raises, so the report is the inline scan's, bit for bit.
Evaluations are written once, for stacks of trials,
and every product runs through one driver that evaluates the checks of a
dim side by side.  The library's products, ``luders_product`` and
``phased_product`` with t bound by keyword (as the CLI binds it), take
stacks, so each step costs one product call per dim over all checks; any
other product is called once per item of that step, on single effects.  A
check run alone is the same driver with one check.  Failures follow one
rule: if a dim's build, a product call or an evaluation raises, each trial
of the evaluations it interrupted is attempted again as a block of its own,
drawn afresh on its own stream, built and evaluated alone, and a block of
one trial takes the exception as that trial's outcome.  So each failure is
its own trial's, with the message a single-effect run gives.

The k-th spectral projector of B is recovered by Lagrange interpolation of
the matrix f_{1/2−i}(B) = B^{1/2}B^{-i} through the nodes f_{1/2−i}(b_j) at
the eigenvalue cluster means b_j; clusters are CLUSTER_TOL apart, which
keeps the nodes apart.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import pickle
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Callable, NamedTuple, Optional

import numpy as np

from .effects import (
    Effect,
    Projection,
    ValidationError,
    _effect_stack,
    _EffectStack,
    _effects_from_eigensystems,
    _eigensystem_matrices,
    _eigensystems,
    f_z,
    luders_product,
    phased_product,
    product_on_selfadjoint,
)
from .linalg import hermitize, require_tolerance
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
STACK_ENTRIES = 2**14            # matrix entries of the effects all checks build in one pass
MEMO_BYTES = 2**25               # array bytes the driver keeps of its last run's draws and builds
DEFAULT_TRIALS = 1000            # per axiom check
DEFAULT_DIMS = (2, 3, 4, 6)
DEFAULT_WITNESS_TRIALS = 100     # pairs drawn by the non-uniqueness search
DEFAULT_WITNESS_DIMS = (2,)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    dim = _require_int("dim", dim, 1)
    return _haar(*_gaussians(rng, dim))


def _gaussians(rng, dim) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of a Haar basis's Gaussian matrix, in draw order."""
    return tuple(rng.standard_normal((2, dim, dim)))  # one call draws what two would


def _haar(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The Haar unitary of each Gaussian matrix re + i·im of a stack (..., d, d):
    its QR factor Q with the phases of R's diagonal moved into Q's columns."""
    z = np.empty(re.shape, np.complex128)  # (re + 1j·im) / √2 with no complex temporaries
    z.real, z.imag = re * (1 / np.sqrt(2.0)), im * (1 / np.sqrt(2.0))
    q, r = np.linalg.qr(z)
    d = r.diagonal(0, -2, -1)
    return q * (d / np.abs(d))[..., None, :]


class _Draw(NamedTuple):
    """Effects in one Haar eigenbasis, as drawn: the basis's Gaussian parts
    and one spectrum per effect.  Building it makes no RNG call."""

    re: np.ndarray
    im: np.ndarray
    spectra: tuple[np.ndarray, ...]


def _build_one(draw: _Draw) -> tuple[Effect, ...]:
    """The effects of one draw, what a generator returns: ``_build``'s stacks of one."""
    return tuple(effect for stack in _build([[draw]]) for effect in stack)


def _build(columns: list[list[_Draw]]) -> list[_EffectStack]:
    """The effects of trials' draws, all of one dim, as stacks: ``columns``
    holds columns of draws, the draws of one column with the same number of
    spectra, and the result holds one stack per spectrum of each column, in
    order.  One stacked QR gives the bases, and one stacked build the
    effects, each basis checked once."""
    spectra, bases, basis, spans = _laid_out(columns)
    effects = _effects_from_eigensystems(spectra, bases, basis)
    return [effects[span] for span in spans]


def _laid_out(columns: list[list[_Draw]]):
    """``_build``'s eigensystems before the build: the spectra (n, d) in
    stack order, the bases of the draws (m, d, d) from one stacked QR, each
    spectrum's basis index, and the span of the stack of each spectrum of
    each column."""
    draws = [draw for column in columns for draw in column]
    bases = _haar(np.stack([d.re for d in draws]), np.stack([d.im for d in draws]))
    spectra, basis, spans, first = [], [], [], 0
    for column in columns:
        for s in range(len(column[0].spectra)):
            spans.append(slice(len(spectra), len(spectra) + len(column)))
            spectra += [draw.spectra[s] for draw in column]
            basis += range(first, first + len(column))
        first += len(column)
    return np.array(spectra), bases, np.array(basis), spans


def _require_int(name: str, value, least: int) -> int:
    """``value`` as a Python int, which must be a Python or numpy integer
    (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _require_real(name: str, value) -> float:
    """``value`` as a float, which must be a finite Python or numpy real
    (not a bool or a string)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValidationError(f"{name} must be a finite real, got {value!r}")
    return float(value)


def _generator(draw):
    """A public generator ``draw(rng, dim)`` that takes dim as an integer >= 1."""
    @functools.wraps(draw)
    def checked(rng: np.random.Generator, dim: int):
        return draw(rng, _require_int("dim", dim, 1))
    return checked


def _draw_generic(rng, dim) -> _Draw:
    lam = rng.random(dim)
    return _Draw(*_gaussians(rng, dim), (lam,))


def _draw_commuting_pair(rng, dim) -> _Draw:
    g = _gaussians(rng, dim)
    return _Draw(*g, (rng.random(dim), rng.random(dim)))


def _draw_kernel_disjoint_pair(rng, dim) -> _Draw:
    g = _gaussians(rng, dim)
    k = int(rng.integers(1, dim)) if dim >= 2 else 1
    lam_a = np.zeros(dim)
    lam_a[:k] = rng.random(k)
    lam_b = np.zeros(dim)
    lam_b[k:] = rng.random(dim - k)
    return _Draw(*g, (lam_a, lam_b))


@_generator
def gen_generic(rng, dim) -> Effect:
    """Uniform spectrum in [0, 1] in a Haar eigenbasis."""
    return _build_one(_draw_generic(rng, dim))[0]


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
    return _build_one(_draw_commuting_pair(rng, dim))


@_generator
def gen_kernel_disjoint_pair(rng, dim) -> tuple[Effect, Effect]:
    """A pair with disjoint supports in one shared Haar eigenbasis: AB = BA = 0."""
    return _build_one(_draw_kernel_disjoint_pair(rng, dim))


@_generator
def gen_near_boundary(rng, dim) -> Effect:
    """Eigenvalues from {0, 1e-12, 1 − 1e-12, 1}, at least one exactly 0."""
    lam = rng.choice(np.array([0.0, 1e-12, 1.0 - 1e-12, 1.0]), size=dim)
    lam[int(rng.integers(dim))] = 0.0
    return _build_one(_Draw(*_gaussians(rng, dim), (lam,)))[0]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

Product = Callable[[Effect, Effect], Effect]  # total on equal-dimension pairs


@dataclass
class CheckReport:
    """Outcome of one randomized check.

    ``trials`` counts hypothesis-satisfying executions only; ``witness``
    serializes the inputs of the first exception, else of the first trial
    that judged itself failed, else of the worst defect.
    ``worst_violation`` is the largest measured (finite) defect.  The fields
    are declared in report key order, so a shallow copy of them,
    ``dict(vars(report))``, is the report; a deep copy such as
    ``dataclasses.asdict`` gives the same bytes at the cost of copying every
    witness document.
    """

    axiom: str
    trials: int
    failures: int
    worst_violation: float
    seed: int
    witness: Optional[dict]
    breakdown: Optional[dict] = None


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    """``np.random.default_rng((seed, index))``, bit for bit: a PCG64 on the
    cached words of numpy's ``SeedSequence((seed, index))``.  Every trial
    stream is made here: one per attempt drawn, or per kept stream resumed
    (see ``_attempts``), and one more per attempt redone alone (see ``_evaluated``)."""
    return np.random.Generator(np.random.PCG64(_StreamSeed(_stream_words(seed, index))))


@functools.lru_cache(maxsize=8192)  # a 1000-trial suite's six checks
def _stream_words(seed: int, index: int) -> np.ndarray:
    """A stream's PCG64 seed words, shared by the suites at one seed (the CLI's ``--t``)."""
    return np.random.SeedSequence((seed, index)).generate_state(4, np.uint64)


class _StreamSeed:
    """A seed sequence that gives PCG64 four precomputed uint64 words.  The first one registers
    the class as a numpy ``ISeedSequence``; a base class would load numpy.random at import."""

    registered = None

    def __init__(self, words: np.ndarray):
        if not _StreamSeed.registered:  # register gives back the class
            _StreamSeed.registered = np.random.bit_generator.ISeedSequence.register(_StreamSeed)
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _doc(effect: Effect) -> dict:
    return matrix_to_document(effect.matrix)


def _norms(m: np.ndarray) -> list[float]:
    """‖M‖_F of each matrix M of a stack (n, d, d), bit for bit as
    ``np.linalg.norm(M)`` computes it: the sum of its real and imaginary
    parts' dot products, each over the strided part as ``np.linalg.norm``
    takes it, one item per matmul entry."""
    m = np.ascontiguousarray(m)
    re, im = m.real.reshape(len(m), 1, -1), m.imag.reshape(len(m), 1, -1)
    square = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(square[:, 0, 0]).tolist()


def _schedule(trials, seed, dims, **axes) -> tuple[int, int, tuple[int, ...]]:
    """``(trials, seed, dims)`` as Python ints, checked before the first trial:
    trials >= 1, seed >= 0 (no RNG takes less), each dim >= 1, no empty axis."""
    trials = _require_int("trials", trials, 1)
    seed = _require_int("seed", seed, 0)
    dims = tuple(_require_int("dims entry", dim, 1) for dim in dims)
    for name, values in {"dims": dims, **axes}.items():
        if not values:
            raise ValidationError(f"{name} must name at least one value")
    return trials, seed, dims


class _Check(NamedTuple):
    """One row of the driver's table.

    ``draw(rng, dim, i)`` makes attempt i's RNG calls, on its own stream, and
    returns None when its hypothesis cannot be drawn, else a tuple of values,
    each a _Draw or a plain value, any stream last.  ``evaluate(*operands)`` is a generator
    over stacks of the operands of n trials (see ``_operands``): it yields
    steps, each a tuple of requests ``(a, b)``, is sent for each step the
    tuple of the products A∘B, and returns for each trial what
    ``_Tally.record`` takes.  With ``directions``, trial i runs in direction
    ``directions[i % len(directions)]``; ``extra()`` gives the report's
    further ``breakdown`` entries, known once the run is over.
    """

    axiom: str
    draw: Callable
    evaluate: Callable
    directions: Optional[tuple[str, ...]] = None
    extra: Callable[[], dict] = dict


class _Tally:
    """One check's run so far: its attempts, samples, failures and witnesses."""

    def __init__(self, check: _Check, seed: int, ceiling: float):
        self.check, self.seed, self.ceiling = check, seed, ceiling
        self.executed = self.failures = self.attempts = 0
        self.worst = 0.0
        self.worst_witness = self.fail_witness = self.exc_witness = None
        self.breakdown = {f"{d}_{key}": 0 for d in check.directions or ()
                          for key in ("trials", "failures")}

    def record(self, i: int, dim: int, outcome) -> None:
        """Count attempt i: its outcome is None when it is no trial, an
        exception (a failed trial), or ``(defect, witness)``, a sample that
        fails when defect > ceiling.  A trial that judges itself gives
        ``(None, None)`` when it passed and ``(None, witness)`` when it
        failed.  The first exception's witness is kept, then the first
        self-judged failure's, then the worst defect's."""
        self.attempts += 1
        if outcome is None:
            return
        if isinstance(outcome, Exception):
            failed = True
            if self.exc_witness is None:
                self.exc_witness = {"trial": i, "dim": dim, "error": str(outcome)}
        else:
            defect, witness = outcome
            if defect is None:
                failed = witness is not None
                if failed and self.fail_witness is None:
                    self.fail_witness = {"trial": i, "dim": dim, **witness}
            else:
                failed = defect > self.ceiling
                if defect > self.worst:
                    self.worst = defect
                    self.worst_witness = {"trial": i, "dim": dim, **witness}
        self.executed += 1
        self.failures += failed
        if self.check.directions:
            direction = self.check.directions[i % len(self.check.directions)]
            self.breakdown[f"{direction}_trials"] += 1
            self.breakdown[f"{direction}_failures"] += failed

    def report(self) -> CheckReport:
        """The report; only its witness's matrices become matrix documents."""
        witness = self.exc_witness or self.fail_witness or self.worst_witness
        if witness is not None:
            witness = {key: matrix_to_document(value) if isinstance(value, np.ndarray)
                       else value for key, value in witness.items()}
        return CheckReport(
            axiom=self.check.axiom,
            trials=self.executed,
            failures=self.failures,
            worst_violation=self.worst,
            seed=self.seed,
            witness=witness,
            breakdown={**self.breakdown, **self.check.extra()} or None,
        )


class _Memo(dict):
    """One schedule's first draws, by (axiom, seed, i, dim), and stacked
    builds, by the dim and its groups' (axiom, seed, layout, attempt indices).
    An entry is a pure function of its key, so a stale or lost one can only
    miss; none is kept that would take its array bytes, ``size``, past MEMO_BYTES."""

    schedule, size = None, 0

    def keep(self, key, value, size: int) -> None:
        if self.size + size <= MEMO_BYTES:
            self.size += size
            self[key] = value


_memo = _Memo()


def _run_checks(put, trials, dims, seed, ceiling, *checks) -> list[CheckReport]:
    """Run the checks ``checks[k](dims)`` on the product ``put``, check k on the
    streams ``(seed + k, i)``, each until `trials` samples executed or its
    attempts are exhausted, and report each.  Each ``checks[k]`` is called
    with the checked dims once the schedule and ceiling are checked, so it
    checks its own arguments after them.

    Each round draws the attempts every unfinished check still needs, check
    by check in trial order, and evaluates them together (see
    ``_attempts``): all effects of one dim are built in one stacked pass,
    and their evaluations run side by side, in rounds of steps (see
    ``_jointly``).  A check run alone is the
    table of one row.  Any exception raised in a trial, by its draw, by
    building its effects, by the product under test or by a result it
    returned, counts as a failure of that trial and never aborts the run.
    Outcomes are counted in trial order, check by check, so a report does
    not depend on which other checks ran beside it.  The draws and builds,
    which no product changes, are kept in the memo (``_Memo``), emptied
    first unless the last run had the same schedule, each check's (axiom,
    seed), the trials and the dims: the next product there only evaluates.
    """
    global _memo
    trials, seed, dims = _schedule(trials, seed, dims)
    ceiling = require_tolerance("ceiling", ceiling)
    tallies = [_Tally(make(dims), seed + k, ceiling) for k, make in enumerate(checks)]
    if _memo.schedule != (schedule := (trials, dims, *[(t.check.axiom, t.seed) for t in tallies])):
        _memo = _Memo()
        _memo.schedule = schedule
    limit = trials * MAX_ATTEMPT_FACTOR
    # an attempt executes at most one trial, so every attempt drawn is needed
    while rounds := [(tally, tally.attempts, min(trials - tally.executed, limit - tally.attempts))
                     for tally in tallies if tally.executed < trials and tally.attempts < limit]:
        for tally, i, dim, outcome in _attempts(put, dims, rounds):
            tally.record(i, dim, outcome)
    return [tally.report() for tally in tallies]


def _attempts(put, dims, rounds):
    """Yield ``(tally, i, dim, outcome)`` for one round: for each ``(tally,
    first, count)``, attempts first .. first + count − 1 of its check.

    Attempt i draws ``draw(_trial_rng(seed, i), dim, i)`` at
    ``dim = dims[(i // 2) % len(dims)]``, or takes it from the memo, which
    keeps each draw that is a trial, with its effects' matrix entries, and a
    stream it hands on, last, as its state after the draw.  Its outcome is
    None when it is no trial, the exception its draw, its build or its
    evaluation raised, or what its evaluation returned for it.  The round's
    attempts are drawn in blocks whose effects hold at most STACK_ENTRIES
    matrix entries over all checks (an attempt beyond that is a block of its
    own) and evaluated a block at a time (see ``_evaluated``).
    """
    block, entries = [], 0
    for tally, first, count in rounds:
        for i in range(first, first + count):
            dim = dims[(i // 2) % len(dims)]
            key = (tally.check.axiom, tally.seed, i, dim)
            if (kept := _memo.get(key)) is None:
                drawn, size = _drawn(tally, rng := _trial_rng(tally.seed, i), i, dim), 0
                if isinstance(drawn, tuple):
                    size = dim * dim * sum(len(x.spectra) for x in drawn if isinstance(x, _Draw))
                    # a _Draw's arrays hold at most 24 bytes per matrix entry of its effects
                    _memo.keep(key, ((*drawn[:-1], rng.bit_generator.state) if drawn[-1] is rng
                                     else drawn, size), 24 * size)
            else:
                drawn, size = kept
                if isinstance(state := drawn[-1], dict):  # a new stream at the kept state
                    drawn = (*drawn[:-1], _trial_rng(tally.seed, i))
                    drawn[-1].bit_generator.state = state
            if block and entries + size > STACK_ENTRIES:
                yield from _evaluated(block, put, _memo)
                block, entries = [], 0
            block.append((tally, i, dim, drawn))
            entries += size
    yield from _evaluated(block, put, _memo)


def _drawn(tally, rng, i, dim):
    """Attempt i's draw at dim on its own stream ``rng``, or the exception it raised."""
    try:
        return tally.check.draw(rng, dim, i)
    except Exception as exc:
        return exc


def _takes_stacks(put) -> bool:
    """Whether ``put`` is one of the library's products, which take stacks of
    effects: ``luders_product``, or ``phased_product`` with t alone bound,
    by keyword, as the CLI binds it."""
    return put is luders_product or (
        isinstance(put, functools.partial) and put.func is phased_product
        and not put.args and put.keywords.keys() == {"t"})


class _Outputs(list):
    """Single-effect products, one per item, read as a stack."""

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return np.stack([x.matrix for x in self])


def _operands(groups: list[list[tuple]], memo: _Memo, key) -> list[list]:
    """The operands of groups of trials, each group's drawn values in one
    layout: per group, the effects of each _Draw position as read-only
    stacks, which ``_build`` makes from the columns of draws of all groups
    at once, or ``memo`` keeps by ``key``, and each other position's values in a list."""
    if (stacks := memo.get(key)) is None:
        stacks = _build([[drawn[p] for drawn in drawns] for drawns in groups
                         for p, x in enumerate(drawns[0]) if isinstance(x, _Draw)])
        arrays = [y for x in stacks for y in (x.matrix, *vars(x.decomposition).values())]
        for y in arrays:
            y.setflags(write=False)
        memo.keep(key, stacks, sum(y.nbytes for y in arrays))
    stacks = iter(stacks)
    out = []
    for drawns in groups:
        operands = []
        for p, x in enumerate(drawns[0]):
            if isinstance(x, _Draw):
                operands.extend(islice(stacks, len(x.spectra)))
            else:
                operands.append([drawn[p] for drawn in drawns])
        out.append(operands)
    return out


def _products(put, steps: list[tuple]) -> list[tuple]:
    """For each step, the products of its requests ``(a, b)``: a library
    product (see ``_takes_stacks``) makes them in one call on the requests
    of all steps joined into one stack, the right operands as matrices
    alone, any other product in one call per item, on single effects, in
    request order."""
    if not _takes_stacks(put):
        return [tuple(_Outputs(map(put, a, b)) for a, b in step) for step in steps]
    pairs = [pair for step in steps for pair in step]
    # a library product reads its right operand's matrix alone (K B K†)
    right = _EffectStack(np.concatenate([b.matrix for _a, b in pairs]))
    out = put(_EffectStack.of([a for a, _b in pairs]), right)
    ends = accumulate(len(a) for a, _b in pairs)
    parts = iter([out[end - len(a):end] for (a, _b), end in zip(pairs, ends)])
    return [tuple(islice(parts, len(step))) for step in steps]


def _jointly(rows: list[tuple], put):
    """Yield ``(g, result)`` for each row ``(check, operands)``, g its index,
    once its evaluation ``check.evaluate(*operands)`` ends: the outcomes it
    returned, or the exception that interrupted it.

    The evaluations run side by side, in rounds of steps.  A library product
    makes a round's products in one ``_products`` call on all its requests,
    so an exception that call raises interrupts every evaluation of the
    round; any other product is called for one evaluation's step at a time,
    and an exception interrupts that evaluation alone, as does an exception
    an evaluation raises itself.
    """
    evaluations = [check.evaluate(*operands) for check, operands in rows]
    steps = {}

    def advance(g, products):
        try:
            steps[g] = evaluations[g].send(products)
        except StopIteration as stop:
            return stop.value
        except Exception as exc:
            return exc
        return None

    sends = [(g, None) for g in range(len(rows))]
    while sends:
        for g, products in sends:
            if (result := advance(g, products)) is not None:
                yield g, result
        current, sends = list(steps.items()), []
        steps.clear()
        for call in [current] if _takes_stacks(put) else [[request] for request in current]:
            try:
                products = _products(put, [step for _g, step in call])
            except Exception as exc:
                yield from ((g, exc) for g, _step in call)
            else:
                sends += [(g, made) for (g, _step), made in zip(call, products)]


def _evaluated(block, put, memo: _Memo):
    """Yield ``_attempts``' outcomes, in block order, for one block of
    ``(tally, i, dim, drawn)``.

    A check's trials of one dim and one layout of drawn values form a group.
    The draws of all groups of one dim are built in one stacked pass, or
    taken from ``memo``, and evaluated side by side (see ``_jointly``).  A
    build that raises interrupts every group of the dim; a product call or
    an evaluation that raises, the groups ``_jointly`` names.  Each trial of
    an interrupted group is attempted again as a block of its own, with a
    memo of its own: drawn afresh (``_drawn``), built and evaluated alone.
    In a block of one trial the exception is that trial's outcome, so each
    error is its own trial's, with the message a single-effect run gives.
    """
    by_dim, outcomes = {}, {}
    for pos, (tally, _i, dim, drawn) in enumerate(block):
        if isinstance(drawn, tuple):
            layout = tuple(len(x.spectra) if isinstance(x, _Draw) else None for x in drawn)
            by_dim.setdefault(dim, {}).setdefault((tally, layout), []).append(pos)
        else:
            outcomes[pos] = drawn
    for dim, by_group in by_dim.items():
        groups = list(by_group.values())
        key = (dim, *[(tally.check.axiom, tally.seed, layout, *[block[pos][1] for pos in group])
                      for (tally, layout), group in by_group.items()])
        try:
            built = _operands([[block[pos][3] for pos in group] for group in groups], memo, key)
        except Exception as exc:  # the build interrupts every group of the dim
            results = dict.fromkeys(range(len(groups)), exc)
        else:
            results = dict(_jointly([(block[group[0]][0].check, operands)
                                     for group, operands in zip(groups, built)], put))
        for g, group in enumerate(groups):
            if not isinstance(result := results[g], Exception):
                outcomes.update(zip(group, result))
            elif len(block) == 1:
                outcomes[group[0]] = result
            else:
                for pos in group:
                    tally, i, dim = block[pos][:3]
                    drawn = _drawn(tally, _trial_rng(tally.seed, i), i, dim)
                    (*_, outcomes[pos]), = _evaluated([(tally, i, dim, drawn)], put, _Memo())
    for pos, (tally, i, dim, _) in enumerate(block):
        yield tally, i, dim, outcomes[pos]


def _samples(defects, **fields) -> list[tuple[float, dict]]:
    """Item k's sample ``(defects[k], witness)``, for each k: the witness
    holds each stack field's item k as its matrix, and each other field as given."""
    return [(defect, {key: x.matrix[k] if isinstance(x, _EffectStack) else x
                      for key, x in fields.items()})
            for k, defect in enumerate(defects)]


def _worse(*defects) -> list[float]:
    """Per item, the largest of its defects, by Python's ``max``."""
    return [max(values) for values in zip(*defects)]


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------

def _s1(_dims) -> _Check:
    def draw(rng, dim, _i):
        return _draw_generic(rng, dim), _draw_generic(rng, dim), float(rng.random())

    def evaluate(a, b, u):
        c = _effect_stack(np.array(u)[:, None, None] * (np.eye(a.dim) - b.matrix))
        bc = _effect_stack(b.matrix + c.matrix)
        ab, ac, abc = yield (a, b), (a, c), (a, bc)
        defect = _norms(ab.matrix + ac.matrix - abc.matrix)
        top = np.linalg.eigvalsh(ab.matrix + ac.matrix)[:, -1]
        return _samples(_worse(defect, (top - 1.0).tolist()), a=a, b=b, c=c)

    return _Check("S1", draw, evaluate)


def check_s1(put: Product, *, trials: int = DEFAULT_TRIALS, dims=DEFAULT_DIMS,
             seed: int = 0, ceiling: float = DEFAULT_CEILING) -> CheckReport:
    """S1: B ↦ A∘B is additive, and A∘B + A∘C stays below the identity.

    C is drawn as a random mixture of I − B so that B + C <= I holds by
    construction.
    """
    return _run_checks(put, trials, dims, seed, ceiling, _s1)[0]


def _s2(_dims) -> _Check:
    def evaluate(a):
        ident = _effect_stack(np.broadcast_to(np.eye(a.dim), a.matrix.shape))
        ia, = yield ((ident, a),)
        return _samples(_norms(ia.matrix - a.matrix), a=a)

    return _Check("S2", lambda rng, dim, _i: (_draw_generic(rng, dim),), evaluate)


def check_s2(put: Product, *, trials: int = DEFAULT_TRIALS, dims=DEFAULT_DIMS,
             seed: int = 0, ceiling: float = DEFAULT_CEILING) -> CheckReport:
    """S2: I∘A = A."""
    return _run_checks(put, trials, dims, seed, ceiling, _s2)[0]


def _s3(_dims) -> _Check:
    def evaluate(a, b):
        ab, ba = yield (a, b), (b, a)
        return _samples(_worse(_norms(ab.matrix), _norms(ba.matrix)), a=a, b=b)

    return _Check("S3", lambda rng, dim, _i: (_draw_kernel_disjoint_pair(rng, dim),),
                  evaluate)


def check_s3(put: Product, *, trials: int = DEFAULT_TRIALS, dims=DEFAULT_DIMS,
             seed: int = 0, ceiling: float = DEFAULT_CEILING) -> CheckReport:
    """S3: A∘B = 0 implies B∘A = 0.

    Every trial draws a disjoint-support pair, which satisfies the hypothesis
    by construction; generic pairs essentially never do, so none are drawn.
    Such a pair must give A∘B = 0 and B∘A = 0, so the defect is
    max(‖A∘B‖_F, ‖B∘A‖_F), judged against the ceiling like any other.
    """
    return _run_checks(put, trials, dims, seed, ceiling, _s3)[0]


def _s4(_dims) -> _Check:
    def draw(rng, dim, _i):
        return _draw_commuting_pair(rng, dim), _draw_generic(rng, dim)

    def evaluate(a, b, c):
        comp = _effect_stack(np.eye(a.dim) - b.matrix)
        a_comp, comp_a, bc = yield (a, comp), (comp, a), (b, c)
        a_bc, ab = yield (a, bc), (a, b)
        ab_c, = yield ((ab, c),)
        d1 = _norms(a_comp.matrix - comp_a.matrix)
        d2 = _norms(a_bc.matrix - ab_c.matrix)
        return _samples(_worse(d1, d2), a=a, b=b, c=c)

    return _Check("S4", draw, evaluate)


def check_s4(put: Product, *, trials: int = DEFAULT_TRIALS, dims=DEFAULT_DIMS,
             seed: int = 0, ceiling: float = DEFAULT_CEILING) -> CheckReport:
    """S4: if A∘B = B∘A then A∘(I−B) = (I−B)∘A and A∘(B∘C) = (A∘B)∘C.

    The hypothesis is produced by drawing A, B with a shared eigenbasis;
    C is generic.
    """
    return _run_checks(put, trials, dims, seed, ceiling, _s4)[0]


def _s5(_dims) -> _Check:
    def draw(rng, dim, _i):
        g = _gaussians(rng, dim)
        lam_a = rng.random(dim)
        lam_b = rng.random(dim) * (1.0 - lam_a)
        return (_Draw(*g, (lam_a, lam_b, rng.random(dim))),)

    def evaluate(a, b, c):
        ab, = yield ((a, b),)
        s = _effect_stack(a.matrix + b.matrix)
        c_ab, ab_c, c_s, s_c = yield (c, ab), (ab, c), (c, s), (s, c)
        d1 = _norms(c_ab.matrix - ab_c.matrix)
        d2 = _norms(c_s.matrix - s_c.matrix)
        return _samples(_worse(d1, d2), a=a, b=b, c=c)

    return _Check("S5", draw, evaluate)


def check_s5(put: Product, *, trials: int = DEFAULT_TRIALS, dims=DEFAULT_DIMS,
             seed: int = 0, ceiling: float = DEFAULT_CEILING) -> CheckReport:
    """S5: C commuting with A and B commutes with A∘B and with A + B.

    All three effects share one eigenbasis, with the spectra of A and B
    drawn so that A + B <= I always holds.
    """
    return _run_checks(put, trials, dims, seed, ceiling, _s5)[0]


def _commutativity(comm_floor, separation_floor, dims) -> _Check:
    comm_floor = require_tolerance("comm_floor", comm_floor)
    separation_floor = require_tolerance("separation_floor", separation_floor)
    # ‖AB − BA‖_op <= 1/2 for 0 <= A, B <= I (Kittaneh), so ‖AB − BA‖_F <= √d/2:
    # a floor above that at every dim leaves no converse trial to run
    dim = max(dims)
    if comm_floor > (reach := math.sqrt(dim) / 2.0):
        raise ValidationError(
            f"comm_floor {comm_floor!r} exceeds √d/2 = {reach!r}, the bound on "
            f"‖AB − BA‖_F of two effects at d = {dim}, the largest of dims")
    min_gap = None

    def draw(rng, dim, i):
        if i % 2 == 0:
            return "forward", _draw_commuting_pair(rng, dim)
        if dim < 2:
            return None  # every pair commutes; the commutator floor is unreachable
        return "converse", _draw_generic(rng, dim), _draw_generic(rng, dim), rng

    def evaluate(direction, a, b, rngs=None):
        nonlocal min_gap
        if direction[0] == "forward":
            pab, pba = yield (a, b), (b, a)
            defect = _worse(_norms(pab.matrix - pba.matrix),
                            _norms(pab.matrix - a.matrix @ b.matrix))
            return _samples(defect, direction="forward", a=a, b=b)
        a, b, reached = _noncommuting_pairs(a, b, rngs, comm_floor)
        pab, pba = yield (a, b), (b, a)
        out = []
        for k, gap in enumerate(_norms(pab.matrix - pba.matrix)):
            if not reached[k]:
                out.append(None)
                continue
            min_gap = gap if min_gap is None else min(min_gap, gap)
            out.append((None, None) if gap > separation_floor else
                       (None, {"direction": "converse", "gap": gap,
                               "a": a.matrix[k], "b": b.matrix[k]}))
        return out

    return _Check("commutativity", draw, evaluate, ("forward", "converse"),
                  lambda: {"min_converse_gap": min_gap})


def check_commutativity_theorem(
    put: Product, *, trials: int = DEFAULT_TRIALS, dims=DEFAULT_DIMS,
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
    return _run_checks(put, trials, dims, seed, ceiling,
                       functools.partial(_commutativity, comm_floor, separation_floor))[0]


def _noncommuting_pairs(a, b, rngs, comm_floor):
    """Stacks a, b with each pair k whose ‖AB − BA‖_F is below comm_floor
    redrawn from its trial's stream ``rngs[k]``, up to 199 times, and for
    each k whether its pair reaches the floor.  The redraws run on that
    stream itself: a trial attempted again is drawn afresh on a new one
    (see ``_evaluated``), so it redraws the same pairs.  They are built in
    chunks of 1, 2, 4, … pairs within STACK_ENTRIES matrix entries, and the
    first to reach the floor is the pair one-at-a-time redraws take."""
    def reaches(x, y):
        return [value >= comm_floor
                for value in _norms(x.matrix @ y.matrix - y.matrix @ x.matrix)]

    reached = reaches(a, b)
    if all(reached):
        return a, b, reached
    a, b, dim = list(a), list(b), a.dim
    for k in [k for k, hit in enumerate(reached) if not hit]:
        rng, tried = rngs[k], 0
        while tried < 199 and not reached[k]:
            n = min(tried + 1, 199 - tried, max(1, STACK_ENTRIES // (2 * dim * dim)))
            draws = [_draw_generic(rng, dim) for _ in range(2 * n)]
            x, y = _build([draws[0::2], draws[1::2]])
            if True in (hits := reaches(x, y)):
                r = hits.index(True)
                (a[k],), (b[k],) = x[r:r + 1], y[r:r + 1]
                reached[k] = True
            tried += n
    return _EffectStack.of(a), _EffectStack.of(b), reached


def run_axiom_suite(put: Product, *, trials: int = DEFAULT_TRIALS,
                    dims=DEFAULT_DIMS, seed: int = 0,
                    ceiling: float = DEFAULT_CEILING,
                    comm_floor: float = DEFAULT_COMM_FLOOR,
                    separation_floor: float = DEFAULT_SEPARATION_FLOOR) -> list[CheckReport]:
    """All five axiom checks plus the commutativity criterion, check k on
    seed + k, each report the one its ``check_*`` function gives there.  The
    checks are built and evaluated together, per dim and step (see
    ``_run_checks``)."""
    return _run_checks(put, trials, dims, seed, ceiling, _s1, _s2, _s3, _s4, _s5,
                       functools.partial(_commutativity, comm_floor, separation_floor))


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

def _gap_score(lam: np.ndarray, v: np.ndarray, b: np.ndarray, t: float) -> list[float]:
    """‖A ∘_t B − A ∘ B‖_op of each pair, computed in A's eigenbasis, from
    the pairs' A as snapped eigenvalues lam (n, d) and eigenvectors v
    (n, d, d), and B as matrices b (n, d, d).

    With A = V·diag(λ)·V†, k_t = f_{1/2+it}(λ) and k_0 = f_{1/2}(λ), the
    difference is V·M·V† with M = (k_t k_t† − k_0 k_0†) ⊙ (V†·B·V), a
    Hermitian matrix of the same operator norm: max |eigenvalue of M|.
    """
    k_t = f_z(complex(0.5, t), lam)
    k_0 = f_z(0.5, lam)
    weights = k_t[:, :, None] * k_t.conj()[:, None, :] - k_0[:, :, None] * k_0.conj()[:, None, :]
    # named: numpy multiplies a temporary above 256 KiB in place, which rounds differently
    m = v.conj().swapaxes(-1, -2) @ b @ v
    # eigvalsh reads one triangle, so the rounding asymmetry of V†BV is moot
    w = np.linalg.eigvalsh(weights * m)
    return np.abs(w).max(axis=-1).tolist()  # +0.0, never -0.0, for a zero M


def _cpus() -> int:
    """The shards the witness search scores in: the CPUs this process may
    run on, if it can fork and runs a single thread, else 1.  A forked child
    would lack a second thread, and with a BLAS's own threads the two
    processes' BLAS threads would contend for the same CPUs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no /proc: the thread count is unknown
        return 1
    return len(os.sched_getaffinity(0)) if threads == 1 else 1


def _witness_blocks(trials: int, dims, t_values) -> list[tuple[int, float, list[int]]]:
    """The witness search's plan: its blocks ``(dim, t, trials)``, the trials
    of one (dim, t) scored as one stack of at most STACK_ENTRIES matrix
    entries, in the order a scan in trial order fills them: a block as the
    next trial would overflow it, then the open blocks as they were opened."""
    plan, open_blocks = [], {}
    for i in range(trials):
        key = dims[i % len(dims)], t_values[i % len(t_values)]
        if key in open_blocks and 2 * key[0] ** 2 * (len(open_blocks[key]) + 1) > STACK_ENTRIES:
            plan.append((*key, open_blocks.pop(key)))
        open_blocks.setdefault(key, []).append(i)
    return plan + [(*key, block) for key, block in open_blocks.items()]


def _joined(x: tuple, y: tuple) -> tuple:
    """Two reductions ``(best, first_hit, failure)`` of witness-search blocks
    as one: the best ``(gap, i, dim, t, drawn)`` of the larger gap, of the
    earlier trial on ties; the earlier first hit; and the failure
    ``(plan index, error)`` of the earlier block.  None is none yet."""
    keys = (lambda best: (-best[0], best[1]), int, lambda failure: failure[0])
    return tuple(b if a is None or b is not None and key(b) < key(a) else a
                 for a, b, key in zip(x, y, keys))


def _forked(scan: Callable, shard: range) -> tuple[int, int]:
    """(pid, read end of its pipe) of a child process that writes its
    ``scan(shard)`` to the pipe, pickled, with a failure as its plan index
    alone, and leaves through ``os._exit``: it never returns into the
    caller, flushes no stdio buffer and prints nothing."""
    r, w = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                best, first_hit, failure = scan(shard)
                with open(w, "wb", closefd=False) as pipe:
                    pickle.dump((best, first_hit, None if failure is None else failure[0]), pipe)
                status = 0
            finally:
                os._exit(status)
    except BaseException:
        os.close(r)
        raise
    finally:
        os.close(w)
    return pid, r


def _reaped(pid: int, r: int) -> None:
    """Kill and reap child pid and close r, the read end of its pipe.  The
    child may be gone already: a process that ignores SIGCHLD has its
    children reaped for it."""
    from signal import SIGKILL  # Unix alone, as os.fork is
    try:
        os.kill(pid, SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass
    finally:
        os.close(r)


def _received(r: int, shard: range) -> tuple:
    """What the child scoring ``shard`` wrote to pipe end r, read to its end:
    its reduction, or, if it left without one, none with its first block
    as the failed one, so that the caller scores the whole shard."""
    with open(r, "rb", closefd=False) as pipe:
        sent = pipe.read()
    try:
        return pickle.loads(sent)  # bytes a child of this call wrote
    except (EOFError, pickle.UnpicklingError):  # nothing, or cut short
        return None, None, shard[0]


def find_nonuniqueness_witness(*, trials: int = DEFAULT_WITNESS_TRIALS,
                               dims=DEFAULT_WITNESS_DIMS,
                               t_values=(1.0,), seed: int = 0,
                               gap_threshold: float = 0.01,
                               commuting_only: bool = False) -> dict:
    """Search for (A, B, t) separating the phased product from Lüders.

    Scores each random draw by ‖A ∘_t B − A ∘ B‖_op computed in A's
    eigenbasis, without forming either product.  That one score ranks the
    draws, sets ``first_hit_trial``, decides ``found`` and is the reported
    ``gap``.  The draws of each (dim, t) are scored in blocks of at most
    STACK_ENTRIES matrix entries, planned from ``trials``, ``dims`` and
    ``t_values`` alone.  A block's eigensystems have one QR and one check,
    as ``_build`` gives them, and only B's matrices are formed: the score
    reads A's eigensystem alone.  Block k goes to shard k mod n, n =
    min(``_cpus()``, blocks): shard 0 is scored here, any other in a forked
    child, or here if no child can be forked.  So the search forks only with
    two blocks and two CPUs or more, in a process that runs a single OS
    thread: no second thread, Python's or a BLAS's.  A shard draws its pairs in
    trial order and scores its blocks in plan order.  Shards join as pairs
    do, on the largest gap, the earliest trial on ties and the least first
    hit, and the earliest failing block in plan order raises its error: the
    report is an inline scan's, bit for bit, whatever the shard count.  A
    child's failing block, or all of a child's blocks if it leaves no
    reduction, is scored again here; no child or pipe outlives the call.
    The reported pair's two effects are built from its draws after the
    scan, bit for bit as the stacked build gives them, and its two product
    matrices are built for a found witness alone; a failed search reports
    only the gap, with its witness fields None.  For a 2x2 witness the
    reported ``theta`` is t·(ln a² − ln b²) with a² the larger eigenvalue of
    A, the phase that twists the off-diagonal entry.
    """
    t_values = tuple(_require_real("t_values entry", t) for t in t_values)
    trials, seed, dims = _schedule(trials, seed, dims, t_values=t_values)
    gap_threshold = require_tolerance("gap_threshold", gap_threshold)
    plan = _witness_blocks(trials, dims, t_values)

    def scan(ks):
        # the shard's pairs are drawn in trial order, and each of its blocks
        # is scored once drawn, in plan order, up to the first that raises
        outcome, drawn, ks = (None, None, None), {}, list(ks)
        for i in sorted(i for k in ks for i in plan[k][2]):
            rng, d = np.random.default_rng((seed, i)), dims[i % len(dims)]
            drawn[i] = ((_draw_commuting_pair(rng, d),) if commuting_only
                        else (_draw_generic(rng, d), _draw_generic(rng, d)))
            while ks and plan[ks[0]][2][-1] in drawn:
                k = ks.pop(0)
                dim, t, block = plan[k]
                pairs = [drawn.pop(j) for j in block]
                try:
                    spectra, bases, basis, (a, b) = _laid_out(list(zip(*pairs)))
                    w, v, snapped = _eigensystems(spectra, bases, basis)
                    gaps = _gap_score(snapped[a], v[a], _eigensystem_matrices(w[b], v[b]), t)
                except Exception as error:  # raised after the scan, if no earlier block fails
                    return _joined(outcome, (None, None, (k, error)))
                for j, pair, gap in zip(block, pairs, gaps):
                    hit = j if gap > gap_threshold else None
                    outcome = _joined(outcome, ((gap, j, dim, t, pair), hit, None))
        return outcome

    n = min(_cpus(), len(plan))
    shards = [range(s, len(plan), n) for s in range(n)]
    here, children = [shards[0]], []  # children: (pid, read end of its pipe, shard)
    try:
        for shard in shards[1:]:
            try:
                children.append((*_forked(scan, shard), shard))
            except OSError:  # no process or pipe to spare (EAGAIN, ENOMEM, EMFILE)
                here.append(shard)
        outcome = functools.reduce(_joined, map(scan, here))
        for _pid, r, shard in children:
            best, first_hit, failed = _received(r, shard)
            outcome = _joined(outcome, (best, first_hit, None))
            if failed is not None:  # scored here from that block on, for its error
                outcome = _joined(outcome, scan(shard[shard.index(failed):]))
    finally:
        for pid, r, _shard in children:
            _reaped(pid, r)
    best, first_hit, failure = outcome
    if failure is not None:
        raise failure[1]
    gap, trial, dim, t, drawn = best
    report = {"found": False, "gap": gap, "threshold": gap_threshold,
              "trial": None, "first_hit_trial": first_hit, "dim": None,
              "t": None, "theta": None, "a_eigenvalues": None, "witness": None}
    if gap > gap_threshold:
        (a,), (b,) = _build([[draw] for draw in drawn])
        lam = a.decomposition.eigenvalues
        report.update(
            found=True, trial=trial, dim=dim, t=t,
            theta=(float(t * (np.log(lam[1]) - np.log(lam[0])))
                   if dim == 2 and lam[0] > 0.0 else None),
            a_eigenvalues=[float(x) for x in lam],
            witness={"a": _doc(a), "b": _doc(b),
                     "phased": matrix_to_document(product_on_selfadjoint(a, b, t)),
                     "luders": matrix_to_document(product_on_selfadjoint(a, b, 0.0))},
        )
    return report
