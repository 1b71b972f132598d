"""Span tracing of seqprod's public functions, installed from outside the package.

``traced(tracer)`` replaces each target function by a timing wrapper in every
seqprod namespace that binds it -- ``from .linalg import hermitian_eig`` gives
``seqprod.effects`` its own binding, so patching only the defining module would
miss most calls -- and patches ``Effect.__init__`` and ``Effect.from_eigensystem``
on the class.  Every original object is put back on exit, so untraced runs
execute unpatched code.

A span is (name, start, end, parent, call_id, work).  Spans stay in memory and
are summarised per name as call counts, self time and the target's work
measure; self time is the span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import defaultdict, namedtuple

PACKAGE = "seqprod"

Span = namedtuple("Span", "name start end parent call_id work")


def _product_gflop(args, kwargs, _result) -> float:
    # Computed from d, not measured: a product is 4 complex d x d GEMMs, each
    # d^3 complex multiply-adds of 8 real flops.
    a = args[0] if args else kwargs["a"]
    return 32.0 * a.dim ** 3 / 1e9


def _text_bytes(_args, _kwargs, result) -> float:
    return float(len(result))  # dumps escapes non-ASCII, so chars == bytes


_DRIVERS = ("check_s1", "check_s2", "check_s3", "check_s4", "check_s5",
            "check_commutativity_theorem", "run_axiom_suite",
            "find_nonuniqueness_witness")

# (module, attribute, span name, (work stat, unit, measure) or None)
TARGETS = [
    ("linalg", "hermitian_eig", "linalg.hermitian_eig", None),
    ("linalg", "hermitize", "linalg.hermitize", None),
    ("linalg", "operator_norm", "linalg.operator_norm", None),
    ("effects", "Effect.__init__", "effects.Effect", None),
    ("effects", "Effect.from_eigensystem", "effects.from_eigensystem", None),
    ("effects", "phased_product", "effects.phased_product",
     ("gflop_computed", "Gflop", _product_gflop)),
    ("axioms", "haar_unitary", "axioms.haar_unitary", None),
    *[("axioms", name, "axioms.driver", None) for name in _DRIVERS],
    ("serialize", "matrix_to_document", "serialize.matrix_to_document", None),
    ("serialize", "dumps", "serialize.dumps", ("bytes", "B", _text_bytes)),
    ("serialize", "document_to_matrix", "serialize.document_to_matrix", None),
    ("channels", "phased_channel", "channels.phased_channel", None),
    ("channels", "apply_channel", "channels.apply_channel", None),
    ("channels", "choi_matrix", "channels.choi_matrix", None),
    ("cli", "main", "cli.main", None),
]


def span_names() -> list[str]:
    return list(dict.fromkeys(span for _m, _a, span, _w in TARGETS))


def work_stats() -> dict[str, tuple[str, str]]:
    """Span name -> (stat name, unit) for targets that measure work."""
    return {span: work[:2] for _m, _a, span, work in TARGETS if work}


class Tracer:
    """Collects spans from the wrappers it makes; single-threaded."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def wrap(self, fn, name: str, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = work[2] if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(call_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                amount = (measure(args, kwargs, result)
                          if measure is not None and result is not None else 0.0)
                spans[call_id] = Span(name, start, end, parent, call_id, amount)

        return wrapper


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install ``tracer``'s wrappers for every target; restore on exit."""
    modules = _package_modules()
    patches = []  # (owner, attribute, original object)
    try:
        for module_name, attr, span, work in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[name]
                if isinstance(original, staticmethod):
                    patched = staticmethod(tracer.wrap(original.__func__, span, work))
                else:
                    patched = tracer.wrap(original, span, work)
                setattr(owner, name, patched)
                patches.append((owner, name, original))
                continue
            original = getattr(module, attr)
            patched = tracer.wrap(original, span, work)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, patched)
                        patches.append((m, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(children.get(s.call_id, ()), s.start, s.end)
            for s in spans]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Span name -> {"calls", "self_s", "work"} totals."""
    out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": 0.0})
    for s, own in zip(spans, self_times(spans)):
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += own
        row["work"] += s.work
    return dict(out)


def write_spans(path, spans) -> None:
    """One JSON array [name, start, end, parent, call_id, work] per line."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(list(s)) + "\n")


if __name__ == "__main__":
    # Trace one seqprod invocation and print its per-function table, e.g.
    #   python3 bench/tracing.py axioms --product phased --t 1 --trials 1000
    import io
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    import seqprod.cli

    tracer = Tracer()
    with traced(tracer), contextlib.redirect_stdout(io.StringIO()):
        rc = seqprod.cli.main(sys.argv[1:])
    table = summarize(tracer.spans)
    for name in span_names():
        row = table.get(name, {"calls": 0, "self_s": 0.0, "work": 0.0})
        print(f"{name:32s} calls {row['calls']:8d}  self {row['self_s']:9.4f} s"
              f"  work {row['work']:.6g}")
    print(f"exit code {rc}")
