"""Dense complex-Hermitian linear algebra.

Matrices are plain numpy arrays of dtype complex128.  Hermitian data is kept
Hermitian *by construction*: every routine that manufactures a Hermitian
matrix runs it through :func:`hermitize`, which averages away last-ulp drift
instead of rejecting it.  :meth:`SpectralDecomposition.apply`, the one
assembly V·diag(values)·V†, is a single GEMM and Hermitian only up to
rounding, so the callers that need a Hermitian result hermitize it: effect
construction, ``Effect.support`` and the projector interpolation.
:func:`hermitian_eig` does not, as ``eigh`` reads one triangle: a caller with
drifted data hermitizes first.  Strict rejection (for I/O boundaries) is a
separate concern, see :func:`is_hermitian`.  :func:`hermitize` and
:func:`hermitian_eig` take a matrix or a stack (n, d, d) of them, with the
same checks and messages, and compute each item bit for bit as the single
matrix: the effect constructor builds one effect and a stack of them
through the same two calls.

Invalid input raises :class:`ValidationError`, the base of every invalid-input
error in the package; a solver's numpy ``LinAlgError`` propagates as raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ValidationError",
    "require_tolerance",
    "SpectralDecomposition",
    "hermitize",
    "is_hermitian",
    "hermitian_eig",
    "operator_norm",
]


HERMITICITY_TOL = 1e-8  # admissible ‖M − M†‖_F per unit of max(1, ‖M‖_F)


class ValidationError(ValueError):
    """Invalid input: a construction invariant was violated."""


def require_tolerance(name: str, value) -> float:
    """``value`` as a float, which every tolerance must be: a finite real >= 0.

    A NaN would compare false against every defect, so it is rejected like a
    negative or infinite value, and so is a bool, which ``float`` takes as 0
    or 1; ``value`` may be the text of a CLI flag.
    """
    try:
        tol = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError):
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"{name} must be a finite real >= 0, got {value!r}")
    return tol


def _as_square(matrix, ndims=(2,)) -> np.ndarray:
    """``matrix`` as complex128, if a square matrix, or with ``ndims`` (2, 3)
    a stack (n, d, d) of them, of dimension >= 1 with finite entries."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim not in ndims or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] == 0:
        raise ValidationError("matrices must have dimension >= 1")
    if not np.isfinite(m).all():
        raise ValidationError("matrix contains NaN or Inf entries")
    return m


def hermitize(matrix) -> np.ndarray:
    """Hermitian part (M + M†)/2; exact on already-Hermitian input.

    For a stack (n, d, d), each item's, bit for bit.
    """
    m = _as_square(matrix, (2, 3))
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def is_hermitian(matrix) -> bool:
    """Strict check ``‖M − M†‖_F <= HERMITICITY_TOL · max(1, ‖M‖_F)``.

    Both sides are taken of M·2^−max(0, e), e the binary exponent of the
    largest real or imaginary part.  The scaling is exact, so it moves no
    decision, and it keeps both norms finite: ``inf <= tol·inf`` would accept
    any matrix.
    """
    m = _as_square(matrix)
    top = max(float(np.abs(m.real).max()), float(np.abs(m.imag).max()))
    scale = 2.0 ** -max(0, math.frexp(top)[1])
    m = m * scale
    drift = float(np.linalg.norm(m - m.conj().T))
    return drift <= HERMITICITY_TOL * max(scale, float(np.linalg.norm(m)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues paired with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, values) -> np.ndarray:
        """V·diag(values)·V†: the matrix of a function of the eigenvalues.

        For a stack, V (n, d, d) and values (n, d), each item's, bit for bit.
        """
        v = self.eigenvectors
        if v.ndim == 2:
            return (v * values) @ v.conj().T
        if v.shape[-1] > 1:
            scaled = v * values[:, None, :]
        else:
            # numpy takes a 1 x 1 item's product above through its unfused
            # complex multiply, and a stack of them through its fused one
            scaled = np.stack([x * y for x, y in zip(v, values)])
        return scaled @ v.conj().swapaxes(-1, -2)

    def reconstruct(self) -> np.ndarray:
        return self.apply(self.eigenvalues)


def hermitian_eig(matrix) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    ``eigh`` reads one triangle, so a caller with drifted data passes
    ``hermitize(m)``.  numpy's ``LinAlgError`` propagates if the solver gives up.
    For a stack (n, d, d), eigenvalues (n, d) and eigenvectors (n, d, d), each
    item's bit for bit.
    """
    w, v = np.linalg.eigh(_as_square(matrix, (2, 3)))
    return SpectralDecomposition(w, v)


def operator_norm(matrix) -> float:
    """Largest singular value; equals max |eigenvalue| for Hermitian input."""
    m = _as_square(matrix)
    return float(np.linalg.svd(m, compute_uv=False)[0])

