"""The three benchmark workloads: argv sequences, inputs, items and checks.

Each workload derives everything from the benchmark seed and hands it to the
program only as ``--seed`` values or as generated input files.  ``argv(k)`` is
the k-th invocation of the timed loop and does ``items_per_call`` items; the
first ``pass_length`` invocations make one pass, the fixed unit of work of the
traced run.

``check(argv, rc, text)`` verifies one invocation's exit code and stdout and
returns the error that feeds ``accuracy_digits``.  It raises :class:`Rejected`
when the call failed or its output is wrong -- a nonzero exit, a failed axiom
trial, ``found: false``, a mismatch with the reference -- and then every item
of the call counts as failed.  References are plain numpy, recomputed from the
inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EPS = float(np.finfo(np.float64).eps)
# The CLI's default axiom failure ceiling (--tol defect), which the suite passes.
DEFECT_CEILING = 1e-9
REFERENCE_TOL = 1e-10
# Eigenvalues at or below this count as zero in the references.  Generated
# inputs keep their spectra far from it.
SUPPORT_CUTOFF = 1e-10


class Rejected(ValueError):
    """An output failed a correctness check."""


def _seed(seed: int, k: int) -> int:
    """The program's k-th ``--seed``: non-negative, distinct across benchmark seeds."""
    return seed % 2**31 * 100_000 + k


def document_matrix(doc) -> np.ndarray:
    n = int(doc["dim"])
    flat = np.array([complex(re, im) for re, im in doc["entries"]])
    if flat.shape != (n * n,):
        raise Rejected(f"matrix document of dim {n} has {flat.size} entries")
    return flat.reshape(n, n)


def matrix_document(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]),
            "entries": [[float(v.real), float(v.imag)] for v in m.reshape(-1)]}


def _hermitian(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def reference_kraus(a: np.ndarray, t: float) -> np.ndarray:
    """A^{1/2} A^{it}, as the product of the two separate spectral functions."""
    lam, v = np.linalg.eigh(_hermitian(a))
    keep = lam > SUPPORT_CUTOFF
    safe = np.where(keep, lam, 1.0)
    root = (v * np.where(keep, np.sqrt(safe), 0.0)) @ v.conj().T
    phase = (v * np.where(keep, np.exp(1j * t * np.log(safe)), 0.0)) @ v.conj().T
    return root @ phase


def reference_product(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """A^{1/2} A^{it} B A^{-it} A^{1/2}; t = 0 is the Lüders product."""
    k = reference_kraus(a, t)
    return k @ b @ k.conj().T


def _random_unitary(rng, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_effect(rng, d: int) -> np.ndarray:
    """Effect with spectrum in [0.05, 0.95], far from the support cutoff."""
    v = _random_unitary(rng, d)
    return _hermitian((v * rng.uniform(0.05, 0.95, d)) @ v.conj().T)


def _wishart(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, 2 * d)) + 1j * rng.standard_normal((d, 2 * d))
    return g @ g.conj().T


def random_decomposition(rng, d: int, k: int) -> list[np.ndarray]:
    """k full-rank effects S^{-1/2} P_j S^{-1/2} summing to the identity."""
    parts = [_wishart(rng, d) for _ in range(k)]
    lam, v = np.linalg.eigh(_hermitian(sum(parts)))
    inv_root = (v / np.sqrt(lam)) @ v.conj().T
    return [_hermitian(inv_root @ p @ inv_root) for p in parts]


def random_density(rng, d: int) -> np.ndarray:
    w = _wishart(rng, d)
    return _hermitian(w / np.trace(w).real)


class Workload:
    """Defaults: no input files, accuracy as -log10 of the error."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        pass

    def accuracy_digits(self, error: float) -> float:
        return -math.log10(max(error, EPS))


class AxiomSuite(Workload):
    """Criterion-1 variants of ``seqprod axioms``; an item is one axiom trial."""

    name = "axiom_suite"
    VARIANTS = (("--product", "luders"),
                *(("--product", "phased", "--t", t)
                  for t in ("-1", "0", "0.5", "1", "3")))
    TRIALS = 25
    CHECKS = 6  # S1-S5 and the commutativity criterion
    items_per_call = CHECKS * TRIALS
    pass_length = len(VARIANTS)

    def argv(self, k: int) -> list[str]:
        return ["axioms", *self.VARIANTS[k % len(self.VARIANTS)],
                "--trials", str(self.TRIALS), "--dims", "2,3,4,6",
                "--seed", str(_seed(self.seed, k // len(self.VARIANTS)))]

    def check(self, argv, rc, text):
        if rc != 0:
            raise Rejected(f"exit code {rc}")
        report = json.loads(text)
        groups = report["groups"]
        reports = [r for g in groups for r in g["reports"]]
        if len(groups) != 1 or len(reports) != self.CHECKS:
            raise Rejected(f"{len(groups)} groups / {len(reports)} reports")
        for r in reports:
            if r["trials"] != self.TRIALS:
                raise Rejected(f"{r['axiom']} ran {r['trials']} of {self.TRIALS} trials")
        failures = sum(r["failures"] for r in reports)
        if report["all_passed"] is not True or failures or groups[0]["failures"]:
            raise Rejected(f"all_passed={report['all_passed']}, {failures} failures")
        return max(r["worst_violation"] for r in reports)

    def accuracy_digits(self, error: float) -> float:
        return math.log10(DEFECT_CEILING / max(error, EPS))


class WitnessScan(Workload):
    """``seqprod nonuniqueness`` at d = 16 and 64; an item is one scanned pair."""

    name = "witness_scan"
    TRIALS = 160
    items_per_call = TRIALS
    pass_length = 2

    def argv(self, k: int) -> list[str]:
        return ["nonuniqueness", "--kind", "generic", "--t", "1",
                "--dims", "16,64", "--trials", str(self.TRIALS),
                "--seed", str(_seed(self.seed, k))]

    def check(self, argv, rc, text):
        if rc != 0:
            raise Rejected(f"exit code {rc}")
        report = json.loads(text)
        if report["found"] is not True:
            raise Rejected("no witness found")
        w = {key: document_matrix(doc) for key, doc in report["witness"].items()}
        t = float(report["t"])
        error = max(
            float(np.linalg.norm(w["phased"] - reference_product(w["a"], w["b"], t))),
            float(np.linalg.norm(w["luders"] - reference_product(w["a"], w["b"], 0.0))),
            abs(report["gap"] - float(np.linalg.norm(w["phased"] - w["luders"], 2))),
        )
        if not error <= REFERENCE_TOL:
            raise Rejected(f"witness differs from the reference by {error:.3e}")
        return error


class CliIo(Workload):
    """Interleaved ``seqprod product`` (d = 64) and ``seqprod channel`` (d = 16)
    commands on generated matrix-document files; an item is one command."""

    name = "cli_io"
    EFFECTS, PRODUCT_DIM = 4, 64
    DECOMPOSITIONS, CHANNEL_DIM, KRAUS = 2, 16, 4
    T = 1.0
    items_per_call = 1

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.matrices: dict[str, object] = {}
        self.commands: list[list[str]] = []

    @property
    def pass_length(self) -> int:
        return len(self.commands)

    def _write(self, name: str, value) -> str:
        path = self.workdir / name
        docs = ([matrix_document(m) for m in value] if isinstance(value, list)
                else matrix_document(value))
        path.write_text(json.dumps(docs), encoding="utf-8")
        self.matrices[str(path)] = value
        return str(path)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed % 2**31)
        self.workdir.mkdir(parents=True, exist_ok=True)
        effects = [self._write(f"a{i}.json", random_effect(rng, self.PRODUCT_DIM))
                   for i in range(self.EFFECTS)]
        decs = [self._write(f"dec{i}.json",
                            random_decomposition(rng, self.CHANNEL_DIM, self.KRAUS))
                for i in range(self.DECOMPOSITIONS)]
        rhos = [self._write(f"rho{i}.json", random_density(rng, self.CHANNEL_DIM))
                for i in range(self.DECOMPOSITIONS)]
        t = format(self.T, "g")
        products = [["product", a, b, *form]
                    for a in effects for b in effects if a != b
                    for form in (("--form", "phased", "--t", t), ("--form", "luders"))]
        channels = [["channel", dec, rho, "--t", t] for dec in decs for rho in rhos]
        # Two channels per product puts the median call in the upper quartile
        # of the channel calls, where their times are compact; the product
        # calls, about twice as slow, make the tail.  With more products the
        # median lands in the products' long fast-phase lower tail and moves
        # by tens of percent from run to run.
        for i, product in enumerate(products):
            self.commands += [product, channels[2 * i % len(channels)],
                              channels[(2 * i + 1) % len(channels)]]

    def argv(self, k: int) -> list[str]:
        return self.commands[k % len(self.commands)]

    def check(self, argv, rc, text):
        if rc != 0:
            raise Rejected(f"exit code {rc}")
        report = json.loads(text)
        if argv[0] == "product":
            t = float(argv[argv.index("--t") + 1]) if "--t" in argv else 0.0
            ref = reference_product(self.matrices[argv[1]], self.matrices[argv[2]], t)
            error = float(np.linalg.norm(document_matrix(report) - ref))
            if not error <= REFERENCE_TOL:
                raise Rejected(f"product differs from the reference by {error:.3e}")
            return error
        rho = self.matrices[argv[2]]
        kraus = [reference_kraus(a, self.T) for a in self.matrices[argv[1]]]
        ref = sum(k @ rho @ k.conj().T for k in kraus)
        out_error = float(np.linalg.norm(document_matrix(report["output"]) - ref))
        trace_error = abs(report["trace"] - 1.0)
        choi_error = max(0.0, -report["min_choi_eigenvalue"])
        if not max(out_error, trace_error, choi_error) <= REFERENCE_TOL:
            raise Rejected(f"channel: output error {out_error:.3e}, |trace-1| "
                           f"{trace_error:.3e}, min Choi eigenvalue "
                           f"{report['min_choi_eigenvalue']:.3e}")
        return max(out_error, trace_error, choi_error)


WORKLOADS = {w.name: w for w in (AxiomSuite, WitnessScan, CliIo)}
