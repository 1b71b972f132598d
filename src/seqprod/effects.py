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
annihilates the kernel block.  The cutoff is applied once, to an effect's
decomposition, which holds exact zeros there (its matrix is unchanged).

The kernel also runs on stacks of effects of one dim (``_EffectStack``), as
the axiom checks evaluate many trials at once: f_z, ``apply``,
:func:`kraus_operator` and the products act item by item, each item's result
bit for bit the single-effect one.  Effects from matrices are decomposed by
one :func:`hermitian_eig` on a whole stack (``_decomposed``), whose checks
read the whole stack, so one failing item fails the stack.
``Effect(matrix)``, ``Projection`` and ``DensityOperator`` are decomposed
when built, as stacks of one.  A stack built inside the library, a stacked
product's output or a check's derived operand (``_effect_stack``), has its
spectrum checked when it is built, and is decomposed and snapped when first
read: most are read as matrices alone.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import (
    SpectralDecomposition,
    ValidationError,
    _as_square,
    hermitian_eig,
    hermitize,
    require_tolerance,
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

# Admissible excursion of an effect's spectrum outside [0, 1] at validation.
SPECTRUM_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-8  # admissible ‖V†V − I‖_F / dim in Effect.from_eigensystem
IDEMPOTENCE_TOL = 1e-11  # admissible ‖P² − P‖_F of a projection, its one check
# Admissible excursion outside [0, 1] of the argument of f_z and of the
# spectrum of the 2x2 operand of closed_form_2d.
DOMAIN_SLACK = 1e-12
# Eigenvalues <= SUPPORT_CUTOFF become exactly 0 in an effect's decomposition; a
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
    lo, hi = (u.min(), u.max()) if u.size else (0.0, 0.0)  # a NaN propagates to both
    if not (-DOMAIN_SLACK <= lo and hi <= 1.0 + DOMAIN_SLACK):
        flat = u.ravel()
        bad = flat[~((-DOMAIN_SLACK <= flat) & (flat <= 1.0 + DOMAIN_SLACK))][0]
        raise DomainError(f"u = {float(bad)!r} lies outside [0, 1]")
    if lo < 0.0 or hi > 1.0:
        u = np.clip(u, 0.0, 1.0)
    mask = ... if lo > 0.0 else u > 0.0  # no zeros: evaluate in place, no gather
    pos = u[mask]
    w = np.zeros(u.shape, dtype=np.complex128)
    if pos.size:
        # the smallest u gives the largest |t·ln u| and, for x < 0, the largest u**x
        smallest = float(pos.min())
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


def _snapped(w: np.ndarray, lo: float, hi: float, top: float = 1.0) -> np.ndarray:
    """Spectra w, whose least and greatest eigenvalues are lo and hi, with
    eigenvalues <= SUPPORT_CUTOFF set to exactly 0 and the rest clamped to 1;
    a spectrum escaping [0, top] by more than SPECTRUM_TOL is rejected."""
    if lo < -SPECTRUM_TOL or hi > top + SPECTRUM_TOL:
        raise ValidationError(
            f"effect spectrum [{lo!r}, {hi!r}] escapes [0, {top!r}] "
            f"by more than {SPECTRUM_TOL:g}"
        )
    return np.where(w > SUPPORT_CUTOFF, np.minimum(w, 1.0), 0.0)


def _eigensystems(w, bases, basis=...):
    """The eigensystems with spectra w (n, d) and eigenvector columns
    ``bases[basis]`` (n, d, d), checked, sorted ascending and snapped, as
    ``(w, v, snapped)``: the sorted spectra, the columns in their order and
    the spectra snapped as an effect's decomposition holds them; or, for
    w (d,) and a basis (d, d), that one eigensystem.  ``basis`` may index
    the distinct bases (m, d, d) the stack shares out, so that each basis
    is checked once.

    Each check reads the whole stack, so every item passes when it passes:
    the orthonormality defect is the Frobenius norm over all bases, which
    bounds each basis's.  The first check to fail raises the error it raises
    for a single effect.
    """
    w = np.asarray(w, dtype=np.float64)
    v = np.asarray(bases, dtype=np.complex128)
    each = v[basis]
    if each.shape != w.shape + w.shape[-1:]:
        raise ValidationError("eigensystem shapes do not match")
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise ValidationError("eigensystem contains NaN or Inf")
    dim = w.shape[-1]
    # ‖V†V − I‖_F as np.linalg.norm computes it, two real dot products, minus its dispatch
    g = (v.conj().swapaxes(-1, -2) @ v - np.eye(dim)).ravel()
    gram = math.sqrt(g.real.dot(g.real) + g.imag.dot(g.imag))
    if gram > ORTHONORMALITY_TOL * dim:
        raise ValidationError(
            f"eigenvector columns are not orthonormal (defect {gram:.3e})"
        )
    order = np.argsort(w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, -1)
    v = np.take_along_axis(each, order[..., None, :], -1)
    return w, v, _snapped(w, float(w[..., 0].min()), float(w[..., -1].max()))


def _eigensystem_matrices(w, v) -> np.ndarray:
    """Each V·diag(w)·V†, hermitized, for sorted eigensystems from :func:`_eigensystems`."""
    return hermitize((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2))


def _effects_from_eigensystems(w, bases, basis=...):
    """The stack of effects with the eigensystems :func:`_eigensystems`
    checks, sorts and snaps, each with the matrix V·diag(w)·V† of its sorted
    spectrum, hermitized; or, for w (d,) and a basis (d, d), that one effect."""
    w, v, snapped = _eigensystems(w, bases, basis)
    m = _eigensystem_matrices(w, v)
    if w.ndim == 1:
        return Effect._built(m, snapped, v)
    return _EffectStack(m, SpectralDecomposition(snapped, v))


def _decomposed(m: np.ndarray, top: float = 1.0) -> SpectralDecomposition:
    """The decomposition of the hermitized matrices m (n, d, d): one
    hermitian_eig on the stack, every spectrum checked against [0, top] and
    snapped.  Any item failing a check fails the stack with the error a stack
    of one raises."""
    # hermitian_eig checks the entries again: hermitizing may overflow
    dec = hermitian_eig(m)
    w = dec.eigenvalues
    return SpectralDecomposition(
        _snapped(w, float(w[:, 0].min()), float(w[:, -1].max()), top), dec.eigenvectors)


def _effect_stack(matrices) -> "_EffectStack":
    """The effects with matrices (n, d, d), a stack built inside the library
    (the products' outputs and the checks' derived operands): each item
    hermitized and its entries checked, and every spectrum certified inside
    [0, 1] by one Cholesky factorization of the stack
    [M + SPECTRUM_TOL·I ; (1 + SPECTRUM_TOL)·I − M].  Its decomposition is
    pending until read (see :class:`_EffectStack`), each item's then bit for
    bit ``Effect(matrices[k])``'s.  A stack the certificate fails is
    decomposed at once, so a spectrum escaping [0, 1] fails it here with the
    error a stack of one raises."""
    m = _as_square(hermitize(matrices), (3,))  # hermitizing may overflow
    eye = np.eye(m.shape[-1])
    try:
        np.linalg.cholesky(np.concatenate([m + SPECTRUM_TOL * eye,
                                           (1.0 + SPECTRUM_TOL) * eye - m]))
    except np.linalg.LinAlgError:
        return _EffectStack(m, _decomposed(m))
    return _EffectStack(m)


def _decomposed_effect(matrix, top: float = 1.0) -> tuple[np.ndarray, SpectralDecomposition]:
    """The matrix and decomposition of the effect with this matrix, hermitized
    and decomposed at once as a stack of one, its spectrum checked against
    [0, top]."""
    m = hermitize(_as_square(matrix)[None])
    dec = _decomposed(m, top)
    return m[0], SpectralDecomposition(dec.eigenvalues[0], dec.eigenvectors[0])


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
        self.matrix, self.decomposition = _decomposed_effect(matrix)

    @staticmethod
    def _built(m, w, v) -> "Effect":
        """The effect with matrix m and the checked, snapped eigensystem (w, v)."""
        eff = object.__new__(Effect)
        eff.matrix = m
        eff.decomposition = SpectralDecomposition(w, v)
        return eff

    @staticmethod
    def from_eigensystem(eigenvalues, eigenvectors) -> "Effect":
        """Build an effect from a known eigensystem, skipping re-decomposition,
        by the checks and arithmetic of :func:`_effects_from_eigensystems`."""
        w = np.asarray(eigenvalues, dtype=np.float64)
        if w.ndim != 1:
            raise ValidationError("eigensystem shapes do not match")
        return _effects_from_eigensystems(w, eigenvectors)

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
    """Sharp effect: an idempotent effect.  ‖P² − P‖_F >= |μ(1 − μ)| for each
    eigenvalue μ, so idempotence alone puts the spectrum within SPECTRUM_TOL
    of {0, 1}."""

    def __init__(self, matrix):
        super().__init__(matrix)
        m = self.matrix
        idem = float(np.linalg.norm(m @ m - m))
        if idem > IDEMPOTENCE_TOL:
            raise ValidationError(f"matrix is not idempotent (‖P²−P‖ = {idem:.3e})")


class DensityOperator(Effect):
    """State: an effect of unit trace."""

    def __init__(self, matrix, *, trace_tol: float = 1e-10):
        trace_tol = require_tolerance("trace_tol", trace_tol)
        # a positive matrix's spectrum is bounded by its trace, here 1 + trace_tol
        self.matrix, self.decomposition = _decomposed_effect(matrix, 1.0 + trace_tol)
        tr = float(np.trace(self.matrix).real)
        if abs(tr - 1.0) > trace_tol:
            raise ValidationError(f"density operator trace {tr!r} is not 1")


class _EffectStack:
    """Effects of one dim held as stacks: ``matrix`` (n, d, d) and a
    ``decomposition`` with eigenvalues (n, d) and eigenvectors (n, d, d).
    Item k holds what a single :class:`Effect` holds, and the products
    compute each item bit for bit as they compute a single effect's.
    Iterating gives the items as effects, which share the stacks' memory.

    The spectrum is checked when a stack is built, and decomposed and
    snapped when first read.  A stack built from matrices holds no
    decomposition until then (see :func:`_effect_stack`); read, it is
    ``_decomposed`` of the matrix, and a slice decomposes only its own items.
    """

    __slots__ = ("matrix", "_decomposition")

    def __init__(self, matrix, decomposition=None):
        self.matrix, self._decomposition = matrix, decomposition

    @staticmethod
    def of(parts) -> "_EffectStack":
        """The items of these effects, or stacks of effects, of one dim, in one
        stack, in order; a join holds its parts' decompositions, pending ones made here."""
        if len(parts) == 1 and isinstance(parts[0], _EffectStack):
            return parts[0]
        join = np.concatenate if isinstance(parts[0], _EffectStack) else np.stack
        decs = [x.decomposition for x in parts]
        return _EffectStack(join([x.matrix for x in parts]), SpectralDecomposition(
            join([dec.eigenvalues for dec in decs]), join([dec.eigenvectors for dec in decs])))

    @property
    def decomposition(self) -> SpectralDecomposition:
        if self._decomposition is None:
            self._decomposition = _decomposed(self.matrix)
        return self._decomposition

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, items: slice) -> "_EffectStack":
        dec = self._decomposition
        if dec is None:
            return _EffectStack(self.matrix[items])
        return _EffectStack(self.matrix[items], SpectralDecomposition(
            dec.eigenvalues[items], dec.eigenvectors[items]))

    def __iter__(self):
        dec = self.decomposition
        return map(Effect._built, self.matrix, dec.eigenvalues, dec.eigenvectors)


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
    and K is A's Kraus operator in the channel of a decomposition of the identity.
    For a stack of effects, the stack of their Kraus operators."""
    dec = a.decomposition
    return dec.apply(f_z(complex(0.5, t), dec.eigenvalues))


def _sandwich(a: Effect, s: np.ndarray, t: float) -> np.ndarray:
    """A^{1/2} A^{it} S A^{-it} A^{1/2} = K S K† for Hermitian S, or for
    each item of stacks a and s."""
    k = kraus_operator(a, t)
    if a.dim != s.shape[-1]:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {s.shape[-1]}")
    return k @ s @ k.conj().swapaxes(-1, -2)


def phased_product(a: Effect, b: Effect, t: float = 1.0) -> Effect:
    """A ∘_t B = A^{1/2} A^{it} B A^{-it} A^{1/2}.

    Computed as K B K† with K = kraus_operator(a, t) from a single
    decomposition; t = 0 is the Lüders product through the same code path.
    On two stacks of effects of one dim (what the axiom checks pass) it
    returns the stack of the items' products, each bit for bit the single
    product; one item failing a check fails the stack.
    """
    m = _sandwich(a, b.matrix, t)
    return _effect_stack(m) if isinstance(a, _EffectStack) else Effect(m)


def luders_product(a: Effect, b: Effect) -> Effect:
    """A ∘ B = A^{1/2} B A^{1/2} (the phased product at t = 0), on effects
    or on stacks of them."""
    return phased_product(a, b, 0.0)


def product_on_selfadjoint(b: Effect, operand, t: float = 1.0) -> np.ndarray:
    """B^{1/2} B^{it} S B^{-it} B^{1/2} for an arbitrary Hermitian S.

    This is the unique linear extension of the effect product to
    self-adjoint operands: the formula is linear in S, so differences and
    real scalings of effects are handled in one shot.  ``operand`` is a
    matrix, symmetrized first, or an :class:`Effect`, whose matrix is
    Hermitian already.  On an effect S it is bit for bit the matrix of the
    phased product.
    """
    s = operand.matrix if isinstance(operand, Effect) else hermitize(operand)
    return hermitize(_sandwich(b, s, t))


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
            f"(spectrum [{float(spectrum[0])!r}, {float(spectrum[-1])!r}])"
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
