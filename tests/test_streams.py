"""Trial streams: ``axioms._trial_rng(seed, i)`` is numpy's own
``np.random.default_rng((seed, i))``, state and draws, for every seed and
index, and every report the driver makes on it is the one those numpy
streams give.  The witness search draws pair i on
``np.random.default_rng((seed, i))`` itself."""

import functools
import random
import sys

import numpy as np
import pytest

import seqprod.axioms
from seqprod import (
    check_commutativity_theorem,
    find_nonuniqueness_witness,
    luders_product,
    phased_product,
    run_axiom_suite,
)
from seqprod.serialize import dumps


def numpy_stream(seed, i):
    return np.random.default_rng((seed, i))


# 1 to 5 entropy words: 0 is one word, 2**32 - 1 the largest one-word seed
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96, 2**128 + 5)
# 2**32 - 1 is the largest one-word index; from 2**32 on, an index is two words
INDICES = (0, 1, 255, 256, 257, 511, 512,
           2**32 - 1, 2**32, 2**32 + 255, 2**32 + 256, 2**33)

DRAWS = {
    "standard_normal": lambda rng: rng.standard_normal(7),
    "uniform": lambda rng: rng.uniform(0.0, 1.0, 7),
    "integers": lambda rng: rng.integers(0, 2**40, 7),
    "permutation": lambda rng: rng.permutation(11),
    "choice": lambda rng: rng.choice(100, 7, replace=False),
}


@pytest.mark.parametrize("seed", SEEDS)
def test_a_trial_stream_is_numpys_default_rng(seed):
    for i in INDICES:
        stream, expected = seqprod.axioms._trial_rng(seed, i), numpy_stream(seed, i)
        assert type(stream.bit_generator) is np.random.PCG64
        assert stream.bit_generator.state == expected.bit_generator.state, (seed, i)
        for name, draw in DRAWS.items():
            stream, expected = seqprod.axioms._trial_rng(seed, i), numpy_stream(seed, i)
            assert np.array_equal(draw(stream), draw(expected)), (seed, i, name)


def test_random_seeds_and_indices_give_numpys_streams():
    r = random.Random(20)
    for _ in range(2000):
        seed, i = r.getrandbits(r.randint(1, 160)), r.getrandbits(r.randint(1, 40))
        stream = seqprod.axioms._trial_rng(seed, i)
        assert stream.bit_generator.state == numpy_stream(seed, i).bit_generator.state, (seed, i)


REPORT_RUNS = {
    "luders suite": lambda seed: [dict(vars(r)) for r in run_axiom_suite(
        luders_product, trials=6, dims=(2, 3), seed=seed)],
    "phased(t=1) suite": lambda seed: [dict(vars(r)) for r in run_axiom_suite(
        functools.partial(phased_product, t=1.0), trials=6, dims=(2, 3), seed=seed)],
    "witness search": lambda seed: find_nonuniqueness_witness(
        trials=12, dims=(2, 16), seed=seed),
    # most d = 2 pairs miss this floor, so the converse redraws on the trial streams
    "converse redraws": lambda seed: dict(vars(check_commutativity_theorem(
        luders_product, trials=6, dims=(2, 3), seed=seed, comm_floor=0.5))),
}


@pytest.mark.parametrize("seed", (0, 2**32 + 1, 2**64 + 3))
@pytest.mark.parametrize("run", REPORT_RUNS.values(), ids=REPORT_RUNS)
def test_reports_are_those_of_numpys_streams(run, seed, monkeypatch):
    report = dumps(run(seed))
    # else the second run would take the first one's draws from the memo
    seqprod.axioms._memo = seqprod.axioms._Memo()
    monkeypatch.setattr(seqprod.axioms, "_trial_rng", numpy_stream)
    same = report == dumps(run(seed))  # no pytest diff of two long one-line documents
    assert same


def test_each_attempt_and_each_scanned_pair_takes_one_stream(monkeypatch):
    # the tests that wrap _trial_rng see every stream the driver draws on,
    # and a wrapped np.random.default_rng every stream the search draws on
    calls, attempts = [], []
    trial_rng, default_rng = seqprod.axioms._trial_rng, np.random.default_rng
    report = seqprod.axioms._Tally.report

    def counted_trial(seed, i):
        calls.append((seed, i))
        return trial_rng(seed, i)

    def counted_default(seed):
        calls.append(seed)
        return default_rng(seed)

    def tallied(tally):
        attempts.append(tally.attempts)
        return report(tally)

    monkeypatch.setattr(seqprod.axioms, "_trial_rng", counted_trial)
    monkeypatch.setattr(np.random, "default_rng", counted_default)
    monkeypatch.setattr(seqprod.axioms._Tally, "report", tallied)
    reports = run_axiom_suite(luders_product, trials=10, dims=(2, 3), seed=5, comm_floor=0.5)
    assert len(attempts) == len(reports) == 6
    assert len(calls) == len(set(calls)) == sum(attempts)
    assert sum(attempts) > 6 * 10  # the converse at d = 2 gives up on some attempts
    calls.clear()
    find_nonuniqueness_witness(trials=30, dims=(2, 3), seed=5)
    assert calls == [(5, i) for i in range(30)]


def test_suites_at_one_seed_share_their_cached_streams(monkeypatch):
    # each attempt's SeedSequence is made once; a second product at the same
    # seed, as the CLI runs its --t values, finds every stream cached, and
    # every draw and stacked build of its attempts kept in the memo
    made, attempts, builds = [], [], []
    seed_sequence, report = np.random.SeedSequence, seqprod.axioms._Tally.report
    build = seqprod.axioms._build

    def counted(*args, **kwargs):
        made.append(args)
        return seed_sequence(*args, **kwargs)

    def tallied(tally):
        attempts.append(tally.attempts)
        return report(tally)

    def recorded(columns):  # by caller: the first draws' blocks or the converse redraws
        builds.append(sys._getframe(1).f_code.co_name)
        return build(columns)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    monkeypatch.setattr(seqprod.axioms._Tally, "report", tallied)
    monkeypatch.setattr(seqprod.axioms, "_build", recorded)
    seqprod.axioms._stream_words.cache_clear()
    run_axiom_suite(luders_product, trials=10, dims=(2, 3), seed=11)
    assert len(attempts) == 6
    assert len(made) == sum(attempts) > 0
    assert builds.count("_operands") == 2  # one per dim
    redraws = [caller for caller in builds if caller != "_operands"]
    made.clear()
    builds.clear()
    run_axiom_suite(functools.partial(phased_product, t=1.0), trials=10, dims=(2, 3), seed=11)
    assert made == [] and builds == redraws


def test_a_suite_registers_its_seed_sequence_with_numpy_once(monkeypatch):
    # the first trial stream of the process registers _StreamSeed as a numpy
    # ISeedSequence; no later stream does it again
    interface = np.random.bit_generator.ISeedSequence
    register, calls = interface.register, []

    def counted(cls):
        calls.append(cls)
        return register(cls)

    monkeypatch.setattr(seqprod.axioms._StreamSeed, "registered", None)
    monkeypatch.setattr(interface, "register", counted)
    run_axiom_suite(luders_product, trials=25, dims=(2, 3, 4, 6), seed=3)
    run_axiom_suite(luders_product, trials=25, dims=(2, 3, 4, 6), seed=4)
    assert calls == [seqprod.axioms._StreamSeed]


def test_a_search_leaves_the_stream_cache_as_it_was():
    # the search takes one stream per scanned pair and never reuses one, so
    # its words are not cached: a search neither adds to the cache the
    # suites share nor looks it up
    seqprod.axioms._stream_words.cache_clear()
    run_axiom_suite(luders_product, trials=4, dims=(2,), seed=3)
    before = seqprod.axioms._stream_words.cache_info()
    assert before.currsize > 0
    find_nonuniqueness_witness(trials=40, dims=(2, 3), seed=3)
    assert seqprod.axioms._stream_words.cache_info() == before
