"""Kraus-operator quantum operations built from effects.

Every effect B induces the (generally trace-non-increasing) Lüders
operation T ↦ B^{1/2} T B^{1/2}, and every decomposition of the identity
into effects {A_j} induces the trace-preserving channel

    ρ ↦ Σ_j K_j ρ K_j†,     K_j = A_j^{1/2} A_j^{it},

whose Kraus Gram sum Σ K_j†K_j telescopes back to Σ A_j = I.  Complete
positivity is certified through the Choi matrix, assembled with the
column-stacking convention: block (j, k) holds the channel applied to the
matrix unit e_jk, equivalently Choi = Σ |vec K⟩⟨vec K|.
"""

from __future__ import annotations

import math

import numpy as np

from .effects import DensityOperator, Effect, ValidationError, kraus_operator
from .linalg import hermitize

__all__ = [
    "DecompositionError",
    "QuantumChannel",
    "EffectDecomposition",
    "luders_channel",
    "phased_channel",
    "apply_channel",
    "apply_operation",
    "dual_apply",
    "choi_matrix",
    "choi_input_marginal",
    "compose",
]

TP_TOL = 1e-10
DECOMPOSITION_TOL = 1e-8


class DecompositionError(ValidationError):
    """The supplied effects do not sum to the identity."""


class QuantumChannel:
    """A finite family of Kraus operators on one Hilbert space.

    ``trace_preserving`` is detected at construction from the Gram sum
    Σ K†K; channels that are not trace-preserving must still be
    trace-non-increasing (Σ K†K <= I within ``tp_tol``, which the channel
    keeps).
    """

    def __init__(self, kraus, label: str = "", *,
                 require_trace_preserving: bool = False,
                 tp_tol: float = TP_TOL):
        ops = [np.asarray(k, dtype=np.complex128) for k in kraus]
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for k in ops:
            if k.shape != (dim, dim):
                raise ValidationError(
                    f"Kraus operators must all be {dim}x{dim}, got {k.shape}"
                )
            if not np.isfinite(k).all():
                raise ValidationError("Kraus operator contains NaN or Inf")
        gram = sum(k.conj().T @ k for k in ops)
        deviation = float(np.linalg.norm(gram - np.eye(dim)))
        self.trace_preserving = deviation <= tp_tol
        if require_trace_preserving and not self.trace_preserving:
            raise ValidationError(
                f"channel is not trace-preserving (‖ΣK†K − I‖_F = {deviation:.3e})"
            )
        if not self.trace_preserving:
            top = float(np.linalg.eigvalsh(hermitize(gram))[-1])
            if top > 1.0 + tp_tol:
                raise ValidationError(
                    f"channel increases trace (max eigenvalue of ΣK†K = {top:.6e})"
                )
        self.kraus = tuple(ops)
        self.dim = dim
        self.label = label
        self.tp_tol = tp_tol

    def __repr__(self) -> str:
        return (f"QuantumChannel(label={self.label!r}, dim={self.dim}, "
                f"kraus={len(self.kraus)})")


class EffectDecomposition:
    """Finite list of effects summing to the identity."""

    def __init__(self, effects, *, sum_tol: float = DECOMPOSITION_TOL):
        effects = tuple(effects)
        if not effects:
            raise DecompositionError("decomposition needs at least one effect")
        for e in effects:
            if not isinstance(e, Effect):
                raise DecompositionError(f"expected Effect, got {type(e).__name__}")
        dim = effects[0].dim
        if any(e.dim != dim for e in effects):
            raise DecompositionError("effects have mismatched dimensions")
        total = sum(e.matrix for e in effects)
        deviation = float(np.linalg.norm(total - np.eye(dim)))
        if deviation > sum_tol:
            raise DecompositionError(
                f"effects sum deviates from the identity by {deviation:.3e} "
                f"(tolerance {sum_tol:g})"
            )
        self.effects = effects
        self.dim = dim
        self.sum_deviation = deviation
        self.sum_tol = sum_tol

    def __len__(self) -> int:
        return len(self.effects)


def luders_channel(b: Effect) -> QuantumChannel:
    """Single-Kraus operation T ↦ B^{1/2} T B^{1/2}.

    Trace-non-increasing in general; trace-preserving only for B = I.
    """
    return QuantumChannel([kraus_operator(b, 0.0)], label="luders")


def phased_channel(decomposition, t: float = 1.0) -> QuantumChannel:
    """Channel with Kraus elements A_j^{1/2} A_j^{it} over a decomposition.

    Trace preservation holds by construction: Σ K†K = Σ A_j = I, to the
    tolerance the decomposition was validated with.
    """
    if not isinstance(decomposition, EffectDecomposition):
        decomposition = EffectDecomposition(decomposition)
    kraus = [kraus_operator(e, t) for e in decomposition.effects]
    return QuantumChannel(
        kraus, label=f"phased(t={t:g})",
        require_trace_preserving=True, tp_tol=decomposition.sum_tol,
    )


def apply_channel(channel: QuantumChannel, rho: DensityOperator) -> DensityOperator:
    """Σ K ρ K† for a trace-preserving channel.

    The output trace is checked at the channel's ``tp_tol``, since
    |tr Φ(ρ) − 1| <= ‖Σ K†K − I‖_op <= tp_tol.
    """
    if not channel.trace_preserving:
        raise ValidationError(
            "channel is not trace-preserving; use apply_operation for "
            "sub-normalized outputs"
        )
    return DensityOperator(apply_operation(channel, rho), trace_tol=channel.tp_tol)


def _kraus_sum(kraus, dim: int, operator) -> np.ndarray:
    """Σ K X K† over the given d x d Kraus operators for any Hermitian X."""
    x = hermitize(getattr(operator, "matrix", operator))
    if x.shape[0] != dim:
        raise ValidationError(f"dimension mismatch: {dim} vs {x.shape[0]}")
    return hermitize(sum(k @ x @ k.conj().T for k in kraus))


def apply_operation(channel: QuantumChannel, operator) -> np.ndarray:
    """Σ K X K† for any Hermitian X; allows trace-non-increasing operations."""
    return _kraus_sum(channel.kraus, channel.dim, operator)


def dual_apply(channel: QuantumChannel, operator) -> np.ndarray:
    """Dual (Heisenberg) map Σ K† X K, satisfying tr[Φ(T)X] = tr[T Φ*(X)]."""
    return _kraus_sum([k.conj().T for k in channel.kraus], channel.dim, operator)


def choi_matrix(channel: QuantumChannel) -> np.ndarray:
    """dim² x dim² Choi matrix, column-stacking convention.

    Positive semidefinite iff the channel is completely positive; tracing
    out the output index returns the identity iff it is trace-preserving.
    """
    d = channel.dim
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in channel.kraus:
        v = k.reshape(-1, order="F")
        choi += np.outer(v, v.conj())
    return choi


def choi_input_marginal(choi: np.ndarray) -> np.ndarray:
    """Partial trace of a Choi matrix over the output index."""
    n = choi.shape[0]
    d = math.isqrt(n)
    if d * d != n:
        raise ValidationError(f"Choi matrix size {n} is not a perfect square")
    return np.einsum("jiki->jk", choi.reshape(d, d, d, d))


def compose(second: QuantumChannel, first: QuantumChannel) -> QuantumChannel:
    """Channel performing `first`, then `second`; Kraus set of all products."""
    if second.dim != first.dim:
        raise ValidationError(f"dimension mismatch: {second.dim} vs {first.dim}")
    kraus = [k2 @ k1 for k2 in second.kraus for k1 in first.kraus]
    return QuantumChannel(kraus, label=f"{second.label} after {first.label}")
