"""Deterministic JSON serialization and the matrix document format.

A matrix document is ``{"dim": n, "entries": [[re, im], ...]}`` with the
entries row-major, length n².  Reports use the layout of
``json.dumps(obj, indent=2)``, except that floats are written with 17
significant digits, so that serialized reports are byte-identical across
runs and round-trip float64 exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .effects import ValidationError
from .linalg import hermitize, is_hermitian

__all__ = [
    "dumps",
    "matrix_to_document",
    "document_to_matrix",
]

INDENT = "  "  # one nesting level of the written JSON


def _encode(obj, pad: str) -> str:
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {float(obj)!r}")
        return format(obj, ".17g")
    inner = pad + INDENT
    if isinstance(obj, dict) and obj:
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(inner + json.dumps(key) + ": " + _encode(value, inner))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        items = [inner + _encode(value, inner) for value in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(obj)  # None, bool, int, str, {} and []; else json's TypeError


def dumps(obj) -> str:
    """Serialize to JSON in ``json.dumps(obj, indent=2)``'s layout, floats at 17 digits."""
    return _encode(obj, "")


def matrix_to_document(matrix) -> dict:
    m = np.asarray(matrix, dtype=np.complex128)
    entries = m.reshape(-1).view(np.float64).reshape(-1, 2).tolist()
    return {"dim": m.shape[0], "entries": entries}


def document_to_matrix(doc) -> np.ndarray:
    """Parse a matrix document into a symmetrized Hermitian matrix.

    ``dim`` must be a JSON integer and every entry a JSON number (``int`` or
    ``float``; booleans and strings are rejected).  Rejects documents that
    fail :func:`seqprod.linalg.is_hermitian`; smaller drift is absorbed by
    symmetrization, which is exact on already-Hermitian input.
    """
    if not isinstance(doc, dict):
        raise ValidationError("matrix document must be a JSON object")
    try:
        dim = doc["dim"]
        entries = doc["entries"]
    except KeyError as exc:
        raise ValidationError(f"matrix document missing field: {exc}") from exc
    if type(dim) is not int or dim < 1:
        raise ValidationError(f"matrix document dim must be an integer >= 1, got {dim!r}")
    try:
        pairs = np.asarray(entries, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"matrix document entries are not [re, im] reals: {exc}") from exc
    if pairs.shape != (dim * dim, 2):
        raise ValidationError(f"matrix document needs {dim * dim} [re, im] entries, "
                              f"got shape {pairs.shape}")
    if not np.isfinite(pairs).all():
        raise ValidationError("matrix document entries are not all finite")
    kinds = {type(x) for pair in entries for x in pair} - {int, float}
    if kinds:
        raise ValidationError("matrix document entries must be JSON numbers, got "
                              + ", ".join(sorted(k.__name__ for k in kinds)))
    m = pairs.view(np.complex128).reshape(dim, dim)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: checked below
        if not is_hermitian(m):
            raise ValidationError("matrix document is not Hermitian")
        m = hermitize(m)
    if not np.isfinite(m).all():
        raise ValidationError("matrix document entries overflow when symmetrized")
    return m
