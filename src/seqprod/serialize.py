"""Deterministic JSON serialization and the matrix document format.

A matrix document is ``{"dim": n, "entries": [[re, im], ...]}`` with the
entries row-major, length n².  Floats are written with 17 significant
digits so that serialized reports are byte-identical across runs and
round-trip float64 exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .effects import ValidationError
from .linalg import hermitize, is_hermitian

__all__ = [
    "dumps",
    "format_float",
    "matrix_to_document",
    "document_to_matrix",
]


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


INDENT = "  "  # one nesting level of the written JSON


def _emit(obj, out: list, level: int) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad = INDENT * (level + 1)
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad)
            out.append(json.dumps(key))
            out.append(": ")
            _emit(value, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(INDENT * level)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        pad = INDENT * (level + 1)
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _emit(value, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(INDENT * level)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to JSON with deterministic 17-digit float formatting."""
    out: list = []
    _emit(obj, out, 0)
    return "".join(out)


def matrix_to_document(matrix) -> dict:
    m = np.asarray(matrix, dtype=np.complex128)
    n = m.shape[0]
    entries = [[float(v.real), float(v.imag)] for v in m.reshape(-1)]
    return {"dim": n, "entries": entries}


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
