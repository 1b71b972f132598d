"""Quantum effects and their sequential products.

An effect is a Hermitian matrix with spectrum inside [0, 1].  Two sequential
products are provided:

* the Lüders product        ``A ∘ B   = A^{1/2} B A^{1/2}``
* the phased family         ``A ∘_t B = A^{1/2} A^{it} B A^{-it} A^{1/2}``

with ``t = 0`` recovering Lüders through the identical code path.  Both are
computed as A ∘_t S = K S K† from one spectral decomposition of the left
operand, where K = A^{1/2} A^{it} (:func:`kraus_operator`) is also the Kraus
operator of the channel the product induces.

Eigenvalues at or below the support cutoff are treated as exactly zero.  The
scalar phase e^{it ln u} oscillates without limit as u → 0, so a hard cutoff
is the only stable choice; the product is then exact on the support of A and
annihilates the kernel block.  The cutoff is applied once, when an effect is
built: its decomposition holds exact zeros there (its matrix is unchanged).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import (
    PSD_TOL,
    SpectralDecomposition,
    ValidationError,
    hermitian_eig,
    hermitize,
)

__all__ = [
    "DomainError",
    "ValidationError",
    "Effect",
    "Projection",
    "DensityOperator",
    "f_z",
    "effect_power_it",
    "kraus_operator",
    "sqrt_effect",
    "luders_product",
    "phased_product",
    "closed_form_2d",
    "product_on_selfadjoint",
]

# Admissible excursion of an effect's spectrum outside [0, 1], and of a
# projection's spectrum from {0, 1}, at validation.
SPECTRUM_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-8  # admissible ‖V†V − I‖_F / dim in Effect.from_eigensystem
IDEMPOTENCE_TOL = 1e-11  # admissible ‖P² − P‖_F of a projection
# Admissible excursion outside [0, 1] of the argument of f_z and of the
# spectrum of the 2x2 operand of closed_form_2d.
DOMAIN_SLACK = 1e-12
# Eigenvalues <= SUPPORT_CUTOFF become exactly 0 when an effect is built; a
# validated effect has ‖A‖_op <= 1 + SPECTRUM_TOL, so it needs no norm scaling.
SUPPORT_CUTOFF = 1e-10


class DomainError(ValidationError):
    """A scalar argument lies outside its admissible domain."""


def f_z(z: complex, u: float) -> complex:
    """exp(z·ln u) for u in (0, 1], and exactly 0 at u = 0."""
    if not (math.isfinite(u) and -DOMAIN_SLACK <= u <= 1.0 + DOMAIN_SLACK):
        raise DomainError(f"u = {u!r} lies outside [0, 1]")
    u = min(max(float(u), 0.0), 1.0)
    if u == 0.0:
        return 0j
    return cmath.exp(complex(z) * math.log(u))


def _require_finite(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    return t


class Effect:
    """Hermitian matrix with spectrum in [0, 1].

    Instances are immutable by convention and carry their eigendecomposition
    (eigenvalues clamped to [0, 1], those at or below the support cutoff set
    to exactly 0), so repeated products with the same left operand decompose
    it only once.
    """

    matrix: np.ndarray
    decomposition: SpectralDecomposition

    def __init__(self, matrix):
        m = hermitize(matrix)
        dec = hermitian_eig(m)
        self._finish(m, dec.eigenvalues, dec.eigenvectors)

    def _finish(self, m, w, v):
        lo, hi = float(w[0]), float(w[-1])
        if lo < -SPECTRUM_TOL or hi > 1.0 + SPECTRUM_TOL:
            raise ValidationError(
                f"effect spectrum [{lo:.6e}, {hi:.6e}] escapes [0, 1] "
                f"by more than {SPECTRUM_TOL:g}"
            )
        w = np.where(w > SUPPORT_CUTOFF, np.minimum(w, 1.0), 0.0)
        self.matrix = m
        self.decomposition = SpectralDecomposition(w, v)

    @staticmethod
    def from_eigensystem(eigenvalues, eigenvectors) -> "Effect":
        """Build an effect from a known eigensystem, skipping re-decomposition."""
        w = np.asarray(eigenvalues, dtype=np.float64)
        v = np.asarray(eigenvectors, dtype=np.complex128)
        if w.ndim != 1 or v.shape != (w.shape[0], w.shape[0]):
            raise ValidationError("eigensystem shapes do not match")
        if not (np.isfinite(w).all() and np.isfinite(v).all()):
            raise ValidationError("eigensystem contains NaN or Inf")
        gram = float(np.linalg.norm(v.conj().T @ v - np.eye(w.shape[0])))
        if gram > ORTHONORMALITY_TOL * w.shape[0]:
            raise ValidationError(
                f"eigenvector columns are not orthonormal (defect {gram:.3e})"
            )
        order = np.argsort(w, kind="stable")
        w = w[order]
        v = v[:, order]
        eff = object.__new__(Effect)
        eff._finish(hermitize((v * w) @ v.conj().T), w, v)
        return eff

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def support(self) -> np.ndarray:
        """Projection onto the range of the effect."""
        dec = self.decomposition
        return dec.apply((dec.eigenvalues > 0.0).astype(np.float64))

    def _support_weights(self, t: float, *, root: bool = True) -> np.ndarray:
        """√λ·e^{it ln λ} per eigenvalue (e^{it ln λ} alone without ``root``).

        Weights of the kernel (eigenvalues exactly 0) are exactly 0.  The
        angle array is built from |t| and the sign applied on the imaginary
        part, so weights for t and -t are exact complex conjugates bit for bit.
        """
        t = _require_finite(t)
        lam = self.decomposition.eigenvalues
        mask = lam > 0.0
        support = lam[mask]
        # ascending in (0, 1]: the smallest λ gives the largest |t·ln λ|
        if support.size and not math.isfinite(abs(t) * math.log(support[0])):
            raise DomainError(f"t = {t!r} overflows the phase t·ln λ")
        theta = abs(t) * np.log(support)
        c, s = np.cos(theta), np.sin(theta)
        phase = c + 1j * s if t >= 0 else c - 1j * s
        w = np.zeros(lam.shape[0], dtype=np.complex128)
        w[mask] = np.sqrt(support) * phase if root else phase
        return w

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class Projection(Effect):
    """Sharp effect: idempotent, spectrum within SPECTRUM_TOL of {0, 1}."""

    def __init__(self, matrix):
        super().__init__(matrix)
        w = self.decomposition.eigenvalues
        if float(np.abs(w - np.rint(w)).max()) > SPECTRUM_TOL:
            raise ValidationError(
                f"projection spectrum is not within {SPECTRUM_TOL:g} of {{0, 1}}"
            )
        m = self.matrix
        idem = float(np.linalg.norm(m @ m - m))
        if idem > IDEMPOTENCE_TOL:
            raise ValidationError(f"matrix is not idempotent (‖P²−P‖ = {idem:.3e})")


class DensityOperator:
    """Positive semidefinite matrix of unit trace."""

    def __init__(self, matrix, *, trace_tol: float = 1e-10):
        m = hermitize(matrix)
        lowest = float(np.linalg.eigvalsh(m)[0])
        if lowest < -PSD_TOL:
            raise ValidationError(
                f"density operator has eigenvalue {lowest:.3e} < -{PSD_TOL:g}"
            )
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > trace_tol:
            raise ValidationError(f"density operator trace {tr!r} is not 1")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


def effect_power_it(a: Effect, t: float) -> np.ndarray:
    """A^{it}: the unitary-on-support phase factor of the effect.

    Returns f_{it}(A) with the kernel block mapped to zero, so that
    A^{it} A^{-it} equals the support projection and (A^{it})† = A^{-it}
    holds exactly.
    """
    return a.decomposition.apply(a._support_weights(t, root=False))


def sqrt_effect(a: Effect) -> Effect:
    """Positive square root; spectrum stays in [0, 1]."""
    return Effect.from_eigensystem(
        a._support_weights(0.0).real, a.decomposition.eigenvectors
    )


def kraus_operator(a: Effect, t: float) -> np.ndarray:
    """K = A^{1/2} A^{it}, zero on A's kernel: A ∘_t S = K S K†, and K is A's
    Kraus operator in the channel of a decomposition of the identity."""
    v = a.decomposition.eigenvectors
    return (v * a._support_weights(t)) @ v.conj().T


def _sandwich(a: Effect, s: np.ndarray, t: float) -> np.ndarray:
    """A^{1/2} A^{it} S A^{-it} A^{1/2} = K S K† for Hermitian S."""
    k = kraus_operator(a, t)
    if a.dim != s.shape[0]:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {s.shape[0]}")
    return k @ s @ k.conj().T


def phased_product(a: Effect, b: Effect, t: float = 1.0) -> Effect:
    """A ∘_t B = A^{1/2} A^{it} B A^{-it} A^{1/2}.

    Computed as K B K† with K = kraus_operator(a, t) from a single
    decomposition; t = 0 is the Lüders product through the same code path.
    """
    return Effect(_sandwich(a, b.matrix, t))


def luders_product(a: Effect, b: Effect) -> Effect:
    """A ∘ B = A^{1/2} B A^{1/2} (the phased product at t = 0)."""
    return phased_product(a, b, 0.0)


def product_on_selfadjoint(b: Effect, operand, t: float = 1.0) -> np.ndarray:
    """B^{1/2} B^{it} S B^{-it} B^{1/2} for an arbitrary Hermitian S.

    This is the unique linear extension of the effect product to
    self-adjoint operands: the formula is linear in S, so differences and
    real scalings of effects are handled in one shot.  On an effect S it is
    bit for bit the matrix of the phased product.
    """
    return hermitize(_sandwich(b, hermitize(operand), t))


def closed_form_2d(a: float, b: float, x: float, y: complex, z: float,
                   t: float = 1.0) -> np.ndarray:
    """Product of A = diag(a², b²) with B = [[x, y], [ȳ, z]] in closed form.

    For a, b > 0 the off-diagonal entry picks up the phase e^{iθ} with
    θ = t·(ln a² − ln b²); a vanishing a or b collapses the corresponding
    row and column.  The case split is at exact zero: small positive a or b
    are *not* snapped, since the closed form is evaluated directly from the
    scalars rather than through a spectral cutoff.
    """
    t = _require_finite(t)
    for name, val in (("a", a), ("b", b)):
        if not (math.isfinite(val) and 0.0 <= val <= 1.0):
            raise DomainError(f"{name} = {val!r} lies outside [0, 1]")
    y = complex(y)
    if not all(math.isfinite(v) for v in (x, z, y.real, y.imag)):
        raise DomainError("matrix entries must be finite")
    spectrum = np.linalg.eigvalsh(
        np.array([[x, y], [y.conjugate(), z]], dtype=np.complex128)
    )
    if spectrum[0] < -DOMAIN_SLACK or spectrum[-1] > 1.0 + DOMAIN_SLACK:
        raise DomainError(
            f"[[x, y], [ȳ, z]] is not an effect "
            f"(spectrum [{spectrum[0]:.3e}, {spectrum[-1]:.3e}])"
        )
    if a > 0.0 and b > 0.0:
        theta = t * (math.log(a * a) - math.log(b * b))
        if not math.isfinite(theta):
            raise DomainError(f"t = {t!r} overflows the phase θ = t·(ln a² − ln b²)")
        off = a * b * cmath.exp(1j * theta) * y
        return np.array(
            [[a * a * x, off], [off.conjugate(), b * b * z]], dtype=np.complex128
        )
    if a > 0.0:
        return np.array([[a * a * x, 0.0], [0.0, 0.0]], dtype=np.complex128)
    if b > 0.0:
        return np.array([[0.0, 0.0], [0.0, b * b * z]], dtype=np.complex128)
    return np.zeros((2, 2), dtype=np.complex128)
