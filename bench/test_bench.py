"""Tests of the benchmark's own arithmetic, tracing and correctness checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import seqprod  # noqa: E402
import seqprod.cli  # noqa: E402
from tracing import Span, Tracer, self_times, span_names, summarize, traced, work_stats  # noqa: E402
from worker import Runner, measure, measure_traced, tail_percentile  # noqa: E402
from workloads import AxiomSuite, CliIo, Rejected, WitnessScan  # noqa: E402


def test_self_time_subtracts_child_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 0, 0.0),
        Span("a", 1.0, 4.0, 0, 1, 0.0),
        Span("leaf", 2.0, 3.0, 1, 2, 0.0),
        Span("a", 5.0, 9.0, 0, 3, 2.5),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    table = summarize(spans)
    assert table["a"] == {"calls": 2, "self_s": 6.0, "work": 2.5}
    assert table["root"]["self_s"] == 3.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, None, 0, 0.0),
        Span("x", 1.0, 5.0, 0, 1, 0.0),
        Span("x", 3.0, 6.0, 0, 2, 0.0),
        Span("x", 9.0, 12.0, 0, 3, 0.0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tail_keeps_ten_samples_beyond():
    value, pct = tail_percentile(range(1, 101))
    assert (value, pct) == (90, 90.0)
    samples = [1.0] * 5 + [2.0] * 20
    value, pct = tail_percentile(samples)
    assert sum(s > value for s in samples) >= 10
    assert (value, pct) == (1.0, 20.0)
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def _bindings():
    mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "seqprod"]
    snapshot = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snapshot.update({("Effect", k): v for k, v in vars(seqprod.Effect).items()})
    return snapshot


def test_traced_run_restores_every_binding():
    before = _bindings()
    eig, product = seqprod.linalg.hermitian_eig, seqprod.effects.phased_product
    tracer = Tracer()
    a = seqprod.Effect(np.diag([0.81, 0.25]))
    with pytest.raises(RuntimeError), traced(tracer):
        assert seqprod.effects.hermitian_eig is seqprod.linalg.hermitian_eig is not eig
        assert seqprod.axioms.phased_product is seqprod.cli.phased_product is not product
        seqprod.phased_product(a, a, 1.0)
        raise RuntimeError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.spans}
    assert {"effects.phased_product", "effects.Effect", "linalg.hermitian_eig"} <= names
    count = len(tracer.spans)
    seqprod.phased_product(a, a, 1.0)
    assert len(tracer.spans) == count


class _FakeWorkload:
    pass_length = 3
    items_per_call = 2

    def argv(self, k):
        return ["product", str(k % 3)]

    def check(self, argv, rc, text):
        return 1e-15

    def accuracy_digits(self, error):
        return 15.0


class _FakeCli:
    @staticmethod
    def main(argv):
        print(f"output {argv[1]}")
        return 0


def test_emitted_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    workload = _FakeWorkload()
    runner = Runner(workload, _FakeCli)
    end_to_end = set(measure(runner, workload, 0.02)["metrics"]) | {"setup_s"}
    assert end_to_end == {m["name"] for m in spec["end_to_end"]}
    layers = measure_traced(runner, workload, 0.0, tmp_path / "spans.jsonl.gz")["metrics"]
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert runner.failed == 0 and runner.attempted > 0
    assert len(span_names()) + len(work_stats()) > 10


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert seqprod.cli.main(argv) == 0
    return out.getvalue()


def test_axiom_check_rejects_corrupted_report(tmp_path):
    workload = AxiomSuite(3, tmp_path)
    argv = workload.argv(0)
    text = _stdout(argv)
    assert 0 < workload.check(argv, 0, text) < 1e-9
    report = json.loads(text)
    flipped = dict(report, all_passed=False)
    with pytest.raises(Rejected):
        workload.check(argv, 0, json.dumps(flipped))
    short = copy.deepcopy(report)
    short["groups"][0]["reports"][2]["trials"] -= 1
    with pytest.raises(Rejected):
        workload.check(argv, 0, json.dumps(short))
    with pytest.raises(Rejected):
        workload.check(argv, 3, text)


def test_cli_io_checks_reject_off_results(tmp_path):
    workload = CliIo(3, tmp_path)
    workload.setup()
    product = next(a for a in workload.commands if a[0] == "product")
    channel = next(a for a in workload.commands if a[0] == "channel")
    text = _stdout(product)
    assert workload.check(product, 0, text) < 1e-12
    doc = json.loads(text)
    doc["entries"][5][0] += 1e-6
    with pytest.raises(Rejected):
        workload.check(product, 0, json.dumps(doc))
    text = _stdout(channel)
    assert workload.check(channel, 0, text) < 1e-12
    for key, value in (("min_choi_eigenvalue", -1e-6), ("trace", 1.0 + 1e-6)):
        with pytest.raises(Rejected):
            workload.check(channel, 0, json.dumps(dict(json.loads(text), **{key: value})))


def test_witness_check_rejects_wrong_gap(tmp_path):
    workload = WitnessScan(3, tmp_path)
    argv = workload.argv(0)
    text = _stdout(argv)
    assert workload.check(argv, 0, text) < 1e-10
    report = json.loads(text)
    with pytest.raises(Rejected):
        workload.check(argv, 0, json.dumps(dict(report, gap=report["gap"] + 1e-6)))
    with pytest.raises(Rejected):
        workload.check(argv, 0, json.dumps(dict(report, found=False)))


def test_repeated_call_must_print_identical_stdout():
    class Drifting(_FakeCli):
        calls = 0

        @staticmethod
        def main(argv):
            Drifting.calls += 1
            print(Drifting.calls)
            return 0

    runner = Runner(_FakeWorkload(), Drifting)
    runner.call(["product", "0"])
    runner.call(["product", "0"])
    assert (runner.attempted, runner.failed) == (4, 2)
    assert "differs" in runner.problems[0]
