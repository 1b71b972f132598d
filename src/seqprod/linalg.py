"""Dense complex-Hermitian linear algebra.

Matrices are plain numpy arrays of dtype complex128.  Hermitian data is kept
Hermitian *by construction*: every routine that manufactures a Hermitian
matrix runs it through :func:`hermitize`, which averages away last-ulp drift
instead of rejecting it.  Strict rejection (for I/O boundaries) is a separate
concern, see :func:`is_hermitian`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "NonConvergence",
    "SpectralDecomposition",
    "hermitize",
    "is_hermitian",
    "hermitian_eig",
    "apply_spectral_function",
    "operator_norm",
    "is_psd",
]


PSD_TOL = 1e-10  # admissible negative eigenvalue of a positive semidefinite matrix
HERMITICITY_TOL = 1e-8  # admissible ‖M − M†‖_F per unit of max(1, ‖M‖_F)


class NonConvergence(RuntimeError):
    """The eigensolver failed to converge (pathological input)."""


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("matrices must have dimension >= 1")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def hermitize(matrix) -> np.ndarray:
    """Hermitian part (M + M†)/2; exact on already-Hermitian input."""
    m = _as_square(matrix)
    return (m + m.conj().T) / 2.0


def is_hermitian(matrix) -> bool:
    """Strict check ``‖M − M†‖_F <= HERMITICITY_TOL · max(1, ‖M‖_F)``."""
    m = _as_square(matrix)
    drift = float(np.linalg.norm(m - m.conj().T))
    return drift <= HERMITICITY_TOL * max(1.0, float(np.linalg.norm(m)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues paired with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    @cached_property
    def projectors(self) -> np.ndarray:
        """Stack of rank-one eigenprojectors; each slice is exactly Hermitian."""
        v = self.eigenvectors
        return np.einsum("ik,jk->kij", v, v.conj())

    def apply(self, values) -> np.ndarray:
        """Sum values[k] * v_k v_k† over k in a fixed order.

        Real values give an exactly Hermitian result, and conjugating the
        values conjugate-transposes the result bit for bit; both effects
        follow from the projector slices being stored exactly Hermitian.
        """
        values = np.asarray(values)
        return np.einsum("k,kij->ij", values, self.projectors)

    def reconstruct(self) -> np.ndarray:
        return self.apply(self.eigenvalues)


def hermitian_eig(matrix) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is symmetrized first, so callers may pass data carrying
    last-ulp drift.  Raises :class:`NonConvergence` if the solver gives up.
    """
    m = hermitize(matrix)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver did not converge: {exc}") from exc
    return SpectralDecomposition(w, v)


def apply_spectral_function(
    decomp: SpectralDecomposition, f: Callable[[float], complex]
) -> np.ndarray:
    """f(A) = sum of f(λ_k) v_k v_k† for a scalar function on the spectrum."""
    values = np.array([complex(f(float(u))) for u in decomp.eigenvalues])
    return decomp.apply(values)


def operator_norm(matrix) -> float:
    """Largest singular value; equals max |eigenvalue| for Hermitian input."""
    m = _as_square(matrix)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def is_psd(matrix) -> bool:
    """True iff the smallest eigenvalue of the Hermitian part is >= -PSD_TOL."""
    return bool(np.linalg.eigvalsh(hermitize(matrix))[0] >= -PSD_TOL)

