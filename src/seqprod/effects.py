"""Quantum effects and their sequential products.

An effect is a Hermitian matrix with spectrum inside [0, 1].  Two sequential
products are provided:

* the Lüders product        ``A ∘ B   = A^{1/2} B A^{1/2}``
* the phased family         ``A ∘_t B = A^{1/2} A^{it} B A^{-it} A^{1/2}``

with ``t = 0`` recovering Lüders through the identical code path.  Both are
computed as A ∘_t S = K S K† from one spectral decomposition of the left
operand, where K = A^{1/2} A^{it} (:func:`kraus_operator`) is also the Kraus
operator of the channel the product induces.

Every function of an effect is V·f_z(Λ)·V† for one scalar kernel
f_z(u) = exp(z ln u) on (0, 1], f_z(0) = 0 (:func:`f_z`), assembled by
``SpectralDecomposition.apply``: K = f_{1/2+it}(A), A^{it} = f_{it}(A),
A^{1/2} = f_{1/2}(A) and the support projection f_0(A).

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


def f_z(z: complex, u):
    """exp(z·ln u) for u in (0, 1], and exactly 0 at u = 0; u is a scalar or an array.

    With z = x + it the magnitude is u**x (numpy evaluates u**0.5 as
    np.sqrt) and the phase is built from |t| with the sign put on the
    imaginary part, so f_z(z̄, u) is the exact conjugate of f_z(z, u).
    A non-finite z, or a phase t·ln u or magnitude u**x that overflows, is
    a DomainError.
    """
    z = complex(z)
    x, t = z.real, z.imag
    if not (math.isfinite(x) and math.isfinite(t)):
        raise DomainError(f"z = {z!r} is not finite")
    u = np.asarray(u, dtype=np.float64)
    # one pass over plain floats: a NaN or Inf makes the sum non-finite
    vals = u.ravel().tolist() or [0.0]
    lo, hi = min(vals), max(vals)
    if not (math.isfinite(sum(vals)) and -DOMAIN_SLACK <= lo and hi <= 1.0 + DOMAIN_SLACK):
        bad = next(v for v in vals if not -DOMAIN_SLACK <= v <= 1.0 + DOMAIN_SLACK)
        raise DomainError(f"u = {bad!r} lies outside [0, 1]")
    if lo < 0.0 or hi > 1.0:
        u = np.clip(u, 0.0, 1.0)
    mask = ... if lo > 0.0 else u > 0.0  # no zeros: evaluate in place, no gather
    pos = u[mask]
    w = np.zeros(u.shape, dtype=np.complex128)
    if pos.size:
        # the smallest u gives the largest |t·ln u| and, for x < 0, the largest u**x
        smallest = min(pos.ravel().tolist())
        if not math.isfinite(abs(t) * math.log(smallest)):
            raise DomainError(f"t = {t!r} overflows the phase t·ln λ")
        try:
            math.pow(smallest, x)
        except OverflowError:
            raise DomainError(f"x = {x!r} overflows the magnitude u**x") from None
        theta = abs(t) * np.log(pos)
        c, s = np.cos(theta), np.sin(theta)
        w[mask] = pos ** x * (c + 1j * s if t >= 0 else c - 1j * s)
    return w[()]  # a scalar for scalar u


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
        self._finish(m, hermitian_eig(m))

    def _finish(self, m, dec):
        w = dec.eigenvalues
        lo, hi = float(w[0]), float(w[-1])
        if lo < -SPECTRUM_TOL or hi > 1.0 + SPECTRUM_TOL:
            raise ValidationError(
                f"effect spectrum [{lo:.6e}, {hi:.6e}] escapes [0, 1] "
                f"by more than {SPECTRUM_TOL:g}"
            )
        w = np.where(w > SUPPORT_CUTOFF, np.minimum(w, 1.0), 0.0)
        self.matrix = m
        self.decomposition = SpectralDecomposition(w, dec.eigenvectors)

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
        dec = SpectralDecomposition(w[order], v[:, order])
        eff = object.__new__(Effect)
        eff._finish(hermitize(dec.reconstruct()), dec)
        return eff

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def support(self) -> np.ndarray:
        """Projection f_0(A) onto the range of the effect."""
        dec = self.decomposition
        return hermitize(dec.apply(f_z(0.0, dec.eigenvalues).real))

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

    Returns f_{it}(A) with the kernel block mapped to zero.  It is built for
    |t| and conjugate-transposed for t < 0, and t = 0 gives the support
    projection, so A^{it} A^{-it} equals the support projection and
    (A^{it})† = A^{-it} holds exactly.
    """
    t = float(t)
    if t == 0.0:
        return a.support
    dec = a.decomposition
    f = dec.apply(f_z(complex(0.0, abs(t)), dec.eigenvalues))
    return f if t > 0.0 else f.conj().T


def sqrt_effect(a: Effect) -> Effect:
    """Positive square root f_{1/2}(A); spectrum stays in [0, 1]."""
    dec = a.decomposition
    return Effect.from_eigensystem(f_z(0.5, dec.eigenvalues).real, dec.eigenvectors)


def kraus_operator(a: Effect, t: float) -> np.ndarray:
    """K = A^{1/2} A^{it} = f_{1/2+it}(A), zero on A's kernel: A ∘_t S = K S K†,
    and K is A's Kraus operator in the channel of a decomposition of the identity."""
    dec = a.decomposition
    return dec.apply(f_z(complex(0.5, t), dec.eigenvalues))


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

    For a², b² > 0 the off-diagonal entry picks up the phase e^{iθ} with
    θ = t·(ln a² − ln b²); a vanishing a² or b² collapses the corresponding
    row and column.  The case split is at exact zero of a² and b²: small
    positive squares are *not* snapped, since the closed form is evaluated
    directly from the scalars rather than through a spectral cutoff.
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
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
    a2, b2 = a * a, b * b
    if a2 > 0.0 and b2 > 0.0:
        theta = t * (math.log(a2) - math.log(b2))
        if not math.isfinite(theta):
            raise DomainError(f"t = {t!r} overflows the phase θ = t·(ln a² − ln b²)")
        off = a * b * cmath.exp(1j * theta) * y
        return np.array([[a2 * x, off], [off.conjugate(), b2 * z]], dtype=np.complex128)
    if a2 > 0.0:
        return np.array([[a2 * x, 0.0], [0.0, 0.0]], dtype=np.complex128)
    if b2 > 0.0:
        return np.array([[0.0, 0.0], [0.0, b2 * z]], dtype=np.complex128)
    return np.zeros((2, 2), dtype=np.complex128)
