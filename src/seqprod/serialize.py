"""Deterministic JSON serialization and the matrix document format.

A matrix document is ``{"dim": n, "entries": [[re, im], ...]}`` with the
entries row-major, length n².  Reports use the layout of
``json.dumps(obj, indent=2)``, except that floats are written with 17
significant digits, so that serialized reports are byte-identical across
runs and round-trip float64 exactly.

The writer builds a report in one pass: every nesting level appends its
pieces to one list, which ``dumps`` joins once into the string it returns,
so writing a report costs about twice its size in memory.  A float matrix --
a non-empty list of equal-length, non-empty lists of ``float``, such as a
document's ``entries`` -- is one piece: a template of ``%.17g`` slots filled
by a single ``%``, which formats each value as ``format(x, ".17g")`` does.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .effects import ValidationError
from .linalg import hermitize, is_hermitian

__all__ = [
    "dumps",
    "matrix_to_document",
    "document_to_matrix",
]

INDENT = "  "  # one nesting level of the written JSON


def _require_finite(x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {float(x)!r}")


def _float_rows(obj: list | tuple) -> list | None:
    """Row-major values of a list of equal-length, non-empty float lists, else None;
    a non-finite value raises ``ValueError``, as the recursive path would."""
    if not (type(obj) is list and set(map(type, obj)) == {list}
            and len(set(map(len, obj))) == 1):
        return None
    flat = list(chain.from_iterable(obj))
    if set(map(type, flat)) != {float}:  # also refuses empty rows
        return None
    if not math.isfinite(sum(flat)):  # a non-finite value, or a sum that overflowed
        for x in flat:
            _require_finite(x)
    return flat


def _matrix_template(rows: int, width: int, pad: str) -> str:
    """``json.dumps(indent=2)``'s layout of a rows x width list at ``pad``, one slot a value."""
    inner = pad + INDENT
    row = inner + "[\n" + ",\n".join([inner + INDENT + "%.17g"] * width) + "\n" + inner + "]"
    return "[\n" + ",\n".join([row] * rows) + "\n" + pad + "]"


def _encode(obj, pad: str, out: list) -> None:
    inner = pad + INDENT
    if isinstance(obj, float):
        _require_finite(obj)
        out.append(format(obj, ".17g"))
    elif isinstance(obj, dict) and obj:
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append((",\n" if k else "{\n") + inner + json.dumps(key) + ": ")
            _encode(value, inner, out)
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)) and obj and (flat := _float_rows(obj)) is not None:
        out.append(_matrix_template(len(obj), len(obj[0]), pad) % tuple(flat))
    elif isinstance(obj, (list, tuple)) and obj:
        for k, value in enumerate(obj):
            out.append((",\n" if k else "[\n") + inner)
            _encode(value, inner, out)
        out.append("\n" + pad + "]")
    else:
        out.append(json.dumps(obj))  # None, bool, int, str, {} and []; else json's TypeError


def dumps(obj) -> str:
    """Serialize to JSON in ``json.dumps(obj, indent=2)``'s layout, floats at 17 digits."""
    _encode(obj, "", out := [])
    return "".join(out)


def matrix_to_document(matrix) -> dict:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:  # what document_to_matrix reads
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
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
        shaped = len(entries) == dim * dim and set(map(len, entries)) == {2}
    except TypeError:  # entries, or one of them, is not a sequence
        shaped = False
    if not shaped:
        raise ValidationError(f"matrix document needs {dim * dim} [re, im] entries, "
                              f"got shape {np.shape(np.array(entries, dtype=object))}")
    flat = list(chain.from_iterable(entries))
    try:
        values = np.array(flat, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        raise ValidationError(f"matrix document entries are not [re, im] reals: {exc}") from exc
    if not np.isfinite(values).all():
        raise ValidationError("matrix document entries are not all finite")
    kinds = set(map(type, flat)) - {int, float}
    if kinds:
        raise ValidationError("matrix document entries must be JSON numbers, got "
                              + ", ".join(sorted(k.__name__ for k in kinds)))
    m = values.view(np.complex128).reshape(dim, dim)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: checked below
        if not is_hermitian(m):
            raise ValidationError("matrix document is not Hermitian")
        m = hermitize(m)
    if not np.isfinite(m).all():
        raise ValidationError("matrix document entries overflow when symmetrized")
    return m
