"""One benchmark process: set up a workload, then measure it.

Started by ``run.py`` in a fresh interpreter with the BLAS thread count pinned.
It imports seqprod from the checkout's ``src``, generates the workload's inputs
and makes one warm-up call, then writes a ``{"ready": true}`` line to stdout;
the parent times set-up up to that line.  With ``--mode setup`` it stops there.
Otherwise it calls ``seqprod.cli.main(argv)`` in-process, stdout captured, for
``--seconds`` seconds and writes one JSON result line:

* ``--mode run``: untraced closed loop over the workload's argv sequence,
  giving the end-to-end figures;
* ``--mode trace``: alternating untraced and traced passes over the first
  ``pass_length`` invocations, giving per-layer figures and trace overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, span_names, summarize, traced, work_stats, write_spans
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"


TAIL_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile).

    The value is the 11th largest sample, stepped down past ties so that ten
    samples lie strictly above it; the percentile is the share at or below it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs at least {TAIL_BEYOND + 1} samples, got {n}")
    i = n - TAIL_BEYOND - 1
    while i > 0 and ordered[i] == ordered[i + 1]:
        i -= 1
    return ordered[i], 100.0 * (i + 1) / n


class Runner:
    """Calls the CLI in-process and accounts items, failures and accuracy."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.errors: list[float] = []  # one per checked output
        self.problems: list[str] = []
        self._seen: dict[tuple, tuple[str, bool]] = {}  # argv -> (digest, ok)

    def call(self, argv) -> tuple[float, int]:
        """Run one invocation; returns (seconds inside main, items)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed call, never an abort
            rc = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        items = self.workload.items_per_call
        self.attempted += items
        if not self._accept(argv, rc, out.getvalue(), err.getvalue()):
            self.failed += items
        return elapsed, items

    def _accept(self, argv, rc, text, errors) -> bool:
        key = tuple(argv)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if key in self._seen:
            first, ok = self._seen[key]
            if digest != first:
                self._problem(argv, "stdout differs from an earlier identical call")
                return False
            return ok
        try:
            error = self.workload.check(argv, rc, text)
        except Exception as exc:  # Rejected, or output too malformed to read
            self._problem(argv, f"{type(exc).__name__}: {exc} {errors.strip()}")
            self._seen[key] = (digest, False)
            return False
        self.errors.append(error)
        self._seen[key] = (digest, True)
        return True

    def _problem(self, argv, message: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(f"{' '.join(argv)}: {message}")


def run_pass(runner, argvs) -> float:
    """Items per second of call time over one pass of ``argvs``."""
    busy = items = 0
    for argv in argvs:
        elapsed, n = runner.call(argv)
        busy += elapsed
        items += n
    return items / busy


class Yardstick:
    """Fixed numpy work, independent of seqprod, timed between calls.

    The speed of a shared host drifts by tens of percent within seconds, for
    interpreted code and BLAS alike.  Each call's time is scaled by
    ``NOMINAL_S / median yardstick time within WINDOW_S of the call``, which
    removes most of that drift from the timing metrics; the raw figures go to
    the details line.
    """

    NOMINAL_S = 0.007  # about its time on a 2-core Xeon VM, numpy 2.4, OpenBLAS 0.3.31
    INTERVAL_S = 0.1   # at most one sample per this much call time
    WINDOW_S = 2.0

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small, self.large = (_random_hermitian(rng, 4), _random_hermitian(rng, 64))
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def __call__(self) -> None:
        start = time.perf_counter()
        for _ in range(100):  # small-matrix calls, dominated by interpreter time
            w, v = np.linalg.eigh(self.small)
            float(np.linalg.norm(v @ self.small @ v.conj().T)) + sum(map(float, w))
        for _ in range(2):    # d = 64 LAPACK and GEMM work
            w, v = np.linalg.eigh(self.large)
            float(np.linalg.norm(v @ self.large @ v.conj().T))
        self.samples.append((start, time.perf_counter() - start))

    def scale_at(self, when: float) -> float:
        near = [d for t, d in self.samples if abs(t - when) <= self.WINDOW_S]
        return self.NOMINAL_S / statistics.median(near or [d for _, d in self.samples])


def _random_hermitian(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def measure(runner, workload, seconds: float) -> dict:
    times, items = [], 0
    yardstick = Yardstick()
    yardstick()
    start = since_sample = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or len(times) < TAIL_BEYOND + 1:
        called = time.perf_counter()
        elapsed, n = runner.call(workload.argv(k))
        times.append((called, elapsed))
        items += n
        k += 1
        if time.perf_counter() - since_sample >= Yardstick.INTERVAL_S:
            yardstick()
            since_sample = time.perf_counter()
    raw = [elapsed for _, elapsed in times]
    scaled = [elapsed * yardstick.scale_at(called) for called, elapsed in times]
    tail, pct = tail_percentile(scaled)
    return {
        "metrics": {
            "items_per_s": (items / sum(scaled), "1/s"),
            "call_p50_ms": (1e3 * statistics.median(scaled), "ms"),
            "call_tail_ms": (1e3 * tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_share": (1.0 - runner.failed / runner.attempted, "ratio"),
            "accuracy_digits": (
                workload.accuracy_digits(statistics.median(runner.errors)), "digits"),
        },
        "details": {"calls": len(times), "items": items,
                    "call_tail_percentile": pct,
                    "worst_accuracy_digits": workload.accuracy_digits(max(runner.errors)),
                    "time_scale": sum(scaled) / sum(raw),
                    "yardstick_samples": len(yardstick.samples),
                    "raw_items_per_s": items / sum(raw),
                    "raw_call_p50_ms": 1e3 * statistics.median(raw),
                    "raw_call_tail_ms": 1e3 * tail_percentile(raw)[0]},
    }


def measure_traced(runner, workload, seconds: float, spans_path: Path) -> dict:
    argvs = [workload.argv(k) for k in range(workload.pass_length)]
    tracer = Tracer()
    untraced_rates, traced_rates, passes = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        untraced_rates.append(run_pass(runner, argvs))
        tracer.reset()
        with traced(tracer):
            traced_rates.append(run_pass(runner, argvs))
        passes.append(summarize(tracer.spans))
        if len(passes) == 1:
            write_spans(spans_path, tracer.spans)
    first = passes[0]
    empty = {"calls": 0, "self_s": 0.0, "work": 0.0}
    metrics = {}
    for name in span_names():
        row = first.get(name, empty)
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(p.get(name, empty)["self_s"] for p in passes), "s")
        if name in work_stats():
            stat, unit = work_stats()[name]
            metrics[f"{name}.{stat}"] = (row["work"], unit)
    products = first.get("effects.phased_product", empty)["calls"]
    eigs = first.get("linalg.hermitian_eig", empty)["calls"]
    metrics["effects.eig_per_product"] = (eigs / products if products else 0.0, "ratio")
    untraced = statistics.median(untraced_rates)
    metrics["trace.overhead_share"] = (
        (statistics.median(traced_rates) - untraced) / untraced, "ratio")
    repeat = all({n: r["calls"] for n, r in p.items()}
                 == {n: r["calls"] for n, r in first.items()} for p in passes)
    return {"metrics": metrics,
            "details": {"passes": len(passes), "pass_calls": len(argvs),
                        "counts_repeat_across_passes": repeat,
                        "spans_file": str(spans_path)}}


def _openblas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import seqprod.cli

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        workload.setup()
        runner = Runner(workload, seqprod.cli)
        runner.call(workload.argv(0))  # warm-up, checked like any call
        print(json.dumps({"ready": True}), flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "run":
            result = measure(runner, workload, args.seconds)
        else:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            result = measure_traced(runner, workload, args.seconds, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        attempted=runner.attempted, failed=runner.failed,
        problems=runner.problems, environment=environment(),
        seqprod=str(Path(seqprod.cli.__file__).resolve().relative_to(ROOT)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
