"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import json
import math

import numpy as np

from seqprod import Effect, EffectDecomposition, DensityOperator, haar_unitary
from seqprod.effects import SUPPORT_CUTOFF, f_z


def complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(rng, dim, scale=1.0) -> np.ndarray:
    g = complex_gaussian(rng, dim) * scale
    return (g + g.conj().T) / 2


def random_effect(rng, dim) -> Effect:
    return Effect.from_eigensystem(rng.uniform(0.0, 1.0, dim), haar_unitary(dim, rng))


def reference_basis(re, im) -> np.ndarray:
    """The Haar basis of the Gaussian matrix re + i·im, one draw at a time in
    plain numpy: the QR factor Q with the phases of R's diagonal moved into
    its columns."""
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    d = r.diagonal()
    return q * (d / np.abs(d))


def reference_effects(v, *spectra) -> tuple[Effect, ...]:
    """The effects with these spectra in the basis v, one at a time in plain
    numpy, the arithmetic the library's builder must match bit for bit: a
    stable argsort of the spectrum, V·diag(w)·V† as (V * w) @ V†, its
    Hermitian part, and eigenvalues at or below SUPPORT_CUTOFF snapped to 0,
    the rest clamped to 1."""
    out = []
    for lam in spectra:
        order = np.argsort(lam, kind="stable")
        w, u = np.asarray(lam, dtype=np.float64)[order], v[:, order]
        m = (u * w) @ u.conj().T
        snapped = np.where(w > SUPPORT_CUTOFF, np.minimum(w, 1.0), 0.0)
        out.append(Effect._built((m + m.conj().T) / 2.0, snapped, u))
    return tuple(out)


def reference_gap_score(a: Effect, b: Effect, t: float) -> float:
    """‖A ∘_t B − A ∘ B‖_op of one pair, in A's eigenbasis: max |eigenvalue|
    of (k_t k_t† − k_0 k_0†) ⊙ (V†·B·V), with k_z = f_z(λ).  The witness
    search's stacked score must match it bit for bit."""
    dec = a.decomposition
    lam, v = dec.eigenvalues, dec.eigenvectors
    k_t = f_z(complex(0.5, t), lam)
    k_0 = f_z(0.5, lam)
    weights = np.outer(k_t, k_t.conj()) - np.outer(k_0, k_0.conj())
    w = np.linalg.eigvalsh(weights * (v.conj().T @ b.matrix @ v))
    return float(np.abs(w).max())


def random_projection_matrix(rng, dim, rank) -> np.ndarray:
    lam = np.zeros(dim)
    lam[:rank] = 1.0
    v = haar_unitary(dim, rng)
    return (v * lam) @ v.conj().T


def random_density(rng, dim) -> DensityOperator:
    g = complex_gaussian(rng, dim)
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def random_effect_decomposition(rng, dim, count) -> EffectDecomposition:
    """count effects summing to I, built by whitening count-1 random Wisharts.

    A ridge keeps the total well conditioned so the whitened sum matches the
    identity to near machine precision.
    """
    parts = []
    for _ in range(count - 1):
        g = complex_gaussian(rng, dim)
        parts.append(g @ g.conj().T)
    ridge = 0.1 + float(rng.uniform(0.0, 0.4))
    total = sum(parts) + ridge * np.eye(dim) if parts else ridge * np.eye(dim)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    effects = [Effect(inv_sqrt @ p @ inv_sqrt) for p in parts]
    effects.append(Effect(ridge * (inv_sqrt @ inv_sqrt)))
    return EffectDecomposition(effects)


def power_iteration_norm(m: np.ndarray, iters: int = 500) -> float:
    """Independent spectral-norm estimate: power iteration on M†M."""
    gram = m.conj().T @ m
    x = np.ones(gram.shape[0], dtype=np.complex128)
    x /= np.linalg.norm(x)
    for _ in range(iters):
        y = gram @ x
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        x = y / ny
    return float(np.sqrt((x.conj() @ gram @ x).real))


def reference_dumps(obj, pad: str = "") -> str:
    """Independent JSON writer: ``json.dumps(obj, indent=2)``'s layout, floats at 17
    digits, one recursive call per value.  ``seqprod.serialize.dumps`` must match
    it byte for byte and raise the same errors."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {float(obj)!r}")
        return format(obj, ".17g")
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(inner + json.dumps(key) + ": " + reference_dumps(value, inner))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        items = [inner + reference_dumps(value, inner) for value in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(obj)
