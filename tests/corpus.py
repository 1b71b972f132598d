"""The report corpus: recorded CLI runs that every change replays.

``tests/corpus/manifest.json`` holds, for each entry of ``ENTRIES``, the
argv, the exit code, the sha256 of stdout and of stderr, and stdout itself
(as its lines) when it is at most ``STORED_LIMIT`` bytes.  It also holds the
input documents of the ``product`` and ``channel`` runs, generated at a fixed
seed, and the environment it was recorded in: the numpy version, its BLAS and
the SIMD extensions numpy found on the CPU, on which its log, sin and cos
dispatch.

``tests/test_corpus.py`` replays every entry in-process through
``seqprod.cli.main``.  In the recorded environment it compares bytes;
elsewhere it compares exit codes, keys and counts exactly and floats within
``REL_TOL`` of the larger magnitude or of 1, whichever is larger.

Rewrite the manifest with::

    PYTHONPATH=src python tests/corpus.py --regen

and name each entry that changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np

from seqprod import gen_generic
from seqprod.cli import main as seqprod_main
from seqprod.serialize import dumps, matrix_to_document

MANIFEST = Path(__file__).with_name("corpus") / "manifest.json"
STORED_LIMIT = 64 * 1024  # bytes of stdout kept in the manifest, beyond its digest
# Float agreement outside the recorded environment, relative to the larger
# magnitude but never to less than 1: an effect's entries and spectrum are of
# unit scale, so a defect or residual of 1e-16 is rounding noise on it.
REL_TOL = 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
INPUT_SEED = 5
INPUT_DIM = 8

# (name, argv); "{dir}" is the directory holding the input documents
ENTRIES = [
    ("axioms-luders", "axioms --product luders --trials 25 --dims 2,3 --seed 7"),
    ("axioms-raw", "axioms --product raw --trials 25 --dims 2,3 --seed 3"),
    ("axioms-phased-five-t",
     "axioms --product phased --t=-1,0,0.5,1,3 --trials 10 --dims 2 --seed 7"),
    ("axioms-phased-huge-t", "axioms --product phased --t 1e307 --dims 1,2,3 --trials 10"),
    ("axioms-unreachable-comm-floor",
     "axioms --product luders --trials 20 --dims 2,3 --tol comm_floor=5"),
    ("axioms-raised-comm-floor", "axioms --product luders --trials 40 --tol comm_floor=0.5"),
    ("axioms-luders-dim-one", "axioms --product luders --dims 1,2 --trials 20"),
    ("nonuniqueness-default", "nonuniqueness"),
    ("nonuniqueness-commuting", "nonuniqueness --kind commuting"),
    ("nonuniqueness-d16-d64", "nonuniqueness --dims 16,64 --trials 20"),
    ("nonuniqueness-interleaved-blocks",
     "nonuniqueness --dims 2,16,64 --t=-1,1,3 --trials 90 --seed 11"),
    ("product-phased", "product {dir}/a.json {dir}/b.json --t 1"),
    ("product-luders", "product {dir}/a.json {dir}/b.json --form luders"),
    ("product-right-operand-over-one", "product {dir}/a.json {dir}/over.json"),
    ("channel", "channel {dir}/dec.json {dir}/rho.json --t=-1"),
    ("json-out", "axioms --product luders --trials 10 --dims 2 --seed 7 "
                 "--json-out {dir}/report.json"),
    ("axioms-raw-raised-comm-floor",
     "axioms --product raw --trials 40 --dims 2,3 --seed 1 --tol comm_floor=0.5"),
    ("axioms-raw-dim-one", "axioms --product raw --trials 60 --dims 1,2,3,4,6 --seed 0"),
    ("axioms-huge-t-raised-comm-floor",
     "axioms --product phased --t 1e307 --trials 60 --dims 1,2,3 --seed 4 --tol comm_floor=0.3"),
    # two suites at one seed: the second replays the first's converse streams
    ("axioms-phased-two-t-raised-comm-floor",
     "axioms --product phased --t=-1,1 --trials 40 --dims 2,3 --seed 2 --tol comm_floor=0.5"),
    # the first suite redoes its raising trials alone; the second runs on what the first kept
    ("axioms-phased-huge-t-then-one",
     "axioms --product phased --t 1e307,1 --trials 60 --dims 1,2,3 --seed 4"),
    # one exit-2 entry per input check whose message names no file
    ("axioms-negative-seed", "axioms --seed -1"),
    ("axioms-zero-trials", "axioms --trials 0"),
    ("axioms-zero-dim", "axioms --dims 2,0"),
    ("axioms-nan-t", "axioms --product phased --t nan"),
    ("axioms-negative-tol", "axioms --tol defect=-1"),
    ("axioms-unread-tol", "axioms --tol gap=1"),
    ("product-two-t", "product {dir}/a.json {dir}/b.json --t 1,2"),
    ("product-non-hermitian", "product {dir}/a.json {dir}/non_hermitian.json"),
    ("channel-sum-off-identity", "channel {dir}/dec_short.json {dir}/rho.json"),
    ("channel-state-trace-two", "channel {dir}/dec.json {dir}/rho_trace_two.json"),
]


def environment() -> dict:
    """What a report's bits depend on beyond the code: numpy, its BLAS, the CPU's SIMD."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26: show_config only prints
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "simd": config.get("SIMD Extensions", {}).get("found", []),
    }


def make_inputs() -> dict:
    """The input documents by file name, from a fixed seed."""
    rng = np.random.default_rng(INPUT_SEED)
    a, b, r = (gen_generic(rng, INPUT_DIM).matrix for _ in range(3))
    over = np.diag([0.5] * (INPUT_DIM - 1) + [1 + 1e-6])
    skew = np.diag([0.5] * INPUT_DIM).astype(np.complex128)
    skew[0, 1] = 0.1
    return {
        "a.json": matrix_to_document(a),
        "b.json": matrix_to_document(b),
        "over.json": matrix_to_document(over),
        "dec.json": [matrix_to_document(a), matrix_to_document(np.eye(INPUT_DIM) - a)],
        "rho.json": matrix_to_document(r / np.trace(r).real),
        "non_hermitian.json": matrix_to_document(skew),
        "dec_short.json": [matrix_to_document(a)],
        "rho_trace_two.json": matrix_to_document(2 * r / np.trace(r).real),
    }


def write_inputs(inputs: dict, directory: Path) -> None:
    for name, doc in inputs.items():
        (directory / name).write_text(dumps(doc) + "\n", encoding="utf-8")


def replay(argv: str, directory: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = seqprod_main(argv.format(dir=directory).split())
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(directory: Path) -> dict:
    inputs = make_inputs()
    write_inputs(inputs, directory)
    entries = []
    for name, argv in ENTRIES:
        code, out, err = replay(argv, directory)
        entry = {"name": name, "argv": argv, "exit_code": code,
                 "stdout_sha256": sha256(out), "stderr_sha256": sha256(err),
                 "stderr": err}
        if len(out.encode("utf-8")) <= STORED_LIMIT:
            entry["stdout_lines"] = out.split("\n")
        entries.append(entry)
    return {"environment": environment(), "inputs": inputs, "entries": entries}


def floats_close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(1.0, abs(x), abs(y))


def assert_close(recorded, replayed, path: str = "$") -> None:
    """Equal JSON values, floats within REL_TOL; the rest, keys and counts exactly."""
    if isinstance(recorded, float) and isinstance(replayed, float):
        assert floats_close(recorded, replayed), (path, recorded, replayed)
        return
    assert type(recorded) is type(replayed), (path, recorded, replayed)
    if isinstance(recorded, dict):
        assert list(recorded) == list(replayed), (path, list(recorded), list(replayed))
        for key in recorded:
            assert_close(recorded[key], replayed[key], f"{path}.{key}")
    elif isinstance(recorded, list):
        assert len(recorded) == len(replayed), (path, len(recorded), len(replayed))
        for k, (x, y) in enumerate(zip(recorded, replayed)):
            assert_close(x, y, f"{path}[{k}]")
    else:
        assert recorded == replayed, (path, recorded, replayed)


def assert_text_close(recorded: str, replayed: str) -> None:
    """Equal text but for its numbers, which agree within REL_TOL."""
    assert NUMBER.split(recorded) == NUMBER.split(replayed), (recorded, replayed)
    for x, y in zip(NUMBER.findall(recorded), NUMBER.findall(replayed)):
        assert floats_close(float(x), float(y)), (recorded, replayed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record the report corpus.")
    parser.add_argument("--regen", action="store_true", required=True,
                        help="rewrite the manifest")
    parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        manifest = record(Path(directory))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(manifest['entries'])} entries to {MANIFEST}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
