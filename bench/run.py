"""seqprod benchmark driver.

    python3 bench/run.py --workload axiom_suite --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Workloads: ``axiom_suite``, ``witness_scan``, ``cli_io``
(see ``bench/workloads.py`` and ``bench/README.md``).

Every measurement runs in a fresh ``worker.py`` process with the BLAS pinned
to one thread and ``SEQPROD_SEED`` unset.  ``setup_s`` is the median over
``SETUPS`` such processes of the time from spawn to the end of the warm-up
call.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last stdout line is the result object; the line before
it records the environment and the details behind the figures.  With
``--workload all`` it runs every workload in turn and prints a table instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("axiom_suite", "witness_scan", "cli_io")  # as in workloads.py, without numpy
SETUPS = 7
TIME_LIMIT_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SEQPROD_SEED"}
    env.update(PINNED_ENV)
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str,
          deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns (seconds from spawn to ready, result or None)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if rc != 0 or json.loads(ready or "{}").get("ready") is not True:
        raise RuntimeError(f"{workload} worker ({mode}) exited with code {rc}")
    return setup_s, (json.loads(rest[-1]) if mode != "setup" else None)


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    """(details, result) of one benchmark run; the result is the contract line."""
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = [spawn(workload, seed, seconds, "setup", deadline)[0]
              for _ in range(SETUPS - 1)]
    setup_s, out = spawn(workload, seed, seconds, "trace" if trace else "run", deadline)
    setups.append(setup_s)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in out["metrics"].items()}
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    details = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "setup_s_samples": setups, "details": out["details"],
        "problems": out["problems"], "environment": out["environment"],
        "seqprod": out["seqprod"],
    }
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    return details, result


def main() -> int:
    parser = argparse.ArgumentParser(description="seqprod benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="'all' runs every workload and prints a table")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "seqprod" / "cli.py").is_file():
        print(f"error: no seqprod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        try:
            details, result = run_workload(workload, args.seed, args.seconds,
                                           bool(args.trace))
        except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.workload != "all":
            print(json.dumps(details))
            print(json.dumps(result))
            continue
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']} ({details['details']})")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
