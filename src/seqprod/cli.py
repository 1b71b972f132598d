"""Command-line surface.

Subcommands: ``product`` | ``axioms`` | ``nonuniqueness`` | ``channel``.
Matrices travel as JSON documents with explicit [re, im] entry pairs and
floats printed to 17 significant digits, so identical configuration yields
byte-identical reports.

Exit codes partition outcomes for CI pipelines:
    0  success
    1  internal numerical failure (numpy's LinAlgError)
    2  invalid input, any ValidationError (message names the violated invariant)
    3  an axiom check reported failures
    4  no non-uniqueness witness found
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .axioms import DEFAULT_DIMS, DEFAULT_TRIALS, DEFAULT_WITNESS_DIMS, DEFAULT_WITNESS_TRIALS
from .axioms import find_nonuniqueness_witness, run_axiom_suite
from .channels import (
    EffectDecomposition,
    apply_channel,
    choi_min_eigenvalue,
    phased_channel,
)
from .effects import DensityOperator, Effect, ValidationError, _effect_stack
from .effects import luders_product, phased_product, product_on_selfadjoint
from .linalg import require_tolerance
from .serialize import document_to_matrix, dumps, matrix_to_document

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INVALID_INPUT = 2
EXIT_AXIOM_FAILURE = 3
EXIT_NO_WITNESS = 4

# The --tol names each subcommand reads, mapped to the keyword of the library
# call they feed.  Only overridden values are passed, so the library's
# defaults are the only defaults.
TOL_KEYWORDS = {
    "axioms": {"defect": "ceiling", "separation": "separation_floor",
               "comm_floor": "comm_floor"},
    "nonuniqueness": {"gap": "gap_threshold"},
    "channel": {"decomp": "sum_tol"},
}


@dataclass
class RunConfig:
    dims: list[int]
    trials: int
    seed: int
    t_values: list[float]
    tolerance_overrides: dict[str, float]


def _parse_csv_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"--dims expects a csv of integers: {exc}") from exc


def _parse_csv_floats(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"--t expects a csv of reals: {exc}") from exc
    if not values or not all(math.isfinite(v) for v in values):
        raise ValidationError("--t entries must be finite reals")
    return values


def _parse_tolerances(args) -> dict[str, float]:
    """The --tol overrides by name; a name the subcommand does not read is an error."""
    names = TOL_KEYWORDS[args.command]
    overrides: dict[str, float] = {}
    for pair in args.tol or ():
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValidationError(f"--tol expects name=value, got {pair!r}")
        if name not in names:
            raise ValidationError(
                f"{args.command} reads no tolerance {name!r}; "
                f"its names: {', '.join(sorted(names))}"
            )
        overrides[name] = require_tolerance(f"--tol {name}", value)
    return overrides


def _tol_kwargs(args, overrides: dict[str, float]) -> dict[str, float]:
    """The overrides keyed by the library keyword each name feeds."""
    return {TOL_KEYWORDS[args.command][name]: v for name, v in overrides.items()}


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        dims=_parse_csv_ints(args.dims),
        trials=args.trials,
        seed=args.seed,
        t_values=_parse_csv_floats(args.t),
        tolerance_overrides=_parse_tolerances(args),
    )


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an int past the digit limit
        raise ValidationError(f"{path} is not valid UTF-8 JSON: {exc}") from exc


def _load_effect(path: str) -> Effect:
    return Effect(document_to_matrix(_load_json(path)))


def _emit(args, payload) -> None:
    text = dumps(payload)
    # the newline as a write of its own: text + "\n" would copy the whole report
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.write("\n")
        except OSError as exc:
            raise ValidationError(f"cannot write {args.json_out}: {exc}") from exc
    sys.stdout.write(text)
    sys.stdout.write("\n")


def _raw_matrix_product(a: Effect, b: Effect) -> Effect:
    # Deliberately broken product for exercising the failure path: the bare
    # matrix product symmetrized, which is not closed on effects.
    return Effect(a.matrix @ b.matrix)


def _single_t(args) -> float:
    t_values = _parse_csv_floats(args.t)
    if len(t_values) != 1:
        raise ValidationError(f"{args.command} expects exactly one value in --t")
    return t_values[0]


def cmd_product(args) -> int:
    a = _load_effect(args.a_file)
    # the product reads B's matrix alone (K B K†): certified an effect, not decomposed
    b = _effect_stack(document_to_matrix(_load_json(args.b_file))[None])
    t = _single_t(args)
    # phased_product's matrix bit for bit; 0 <= KBK† <= KK† <= I needs no Effect check
    product = product_on_selfadjoint(a, b.matrix[0], 0.0 if args.form == "luders" else t)
    _emit(args, matrix_to_document(product))
    return EXIT_OK


def cmd_axioms(args) -> int:
    config = _config_from_args(args)
    tols = _tol_kwargs(args, config.tolerance_overrides)
    if args.product == "phased":
        products = [(f"phased(t={t:g})", t, functools.partial(phased_product, t=t))
                    for t in config.t_values]
    else:
        products = [(args.product, None,
                     luders_product if args.product == "luders" else _raw_matrix_product)]
    groups = []
    all_passed = True
    for label, t, put in products:
        reports = run_axiom_suite(put, trials=config.trials, dims=config.dims,
                                  seed=config.seed, **tols)
        failed = sum(r.failures for r in reports)
        all_passed = all_passed and failed == 0
        groups.append({
            "label": label,
            "t": t,
            "failures": failed,
            "reports": [dict(vars(r)) for r in reports],
        })
    _emit(args, {
        "command": "axioms",
        "product": args.product,
        "config": asdict(config),
        "groups": groups,
        "all_passed": all_passed,
    })
    return EXIT_OK if all_passed else EXIT_AXIOM_FAILURE


def cmd_nonuniqueness(args) -> int:
    config = _config_from_args(args)
    result = find_nonuniqueness_witness(
        trials=config.trials,
        dims=config.dims,
        t_values=config.t_values,
        seed=config.seed,
        commuting_only=(args.kind == "commuting"),
        **_tol_kwargs(args, config.tolerance_overrides),
    )
    _emit(args, {
        "command": "nonuniqueness",
        "config": asdict(config),
        "kind": args.kind,
        **result,
    })
    return EXIT_OK if result["found"] else EXIT_NO_WITNESS


def cmd_channel(args) -> int:
    t = _single_t(args)
    tols = _tol_kwargs(args, _parse_tolerances(args))
    docs = _load_json(args.decomposition_file)
    if not isinstance(docs, list):
        raise ValidationError("decomposition file must be a JSON array of matrix documents")
    effects = [Effect(document_to_matrix(doc)) for doc in docs]
    decomposition = EffectDecomposition(effects, **tols)
    rho = DensityOperator(document_to_matrix(_load_json(args.rho_file)))
    channel = phased_channel(decomposition, t)
    out = apply_channel(channel, rho)
    _emit(args, {
        "command": "channel",
        "t": t,
        "output": matrix_to_document(out.matrix),
        "trace": float(np.trace(out.matrix).real),
        "min_choi_eigenvalue": choi_min_eigenvalue(channel),
    })
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``main`` dispatches to ``cmd_<command>``."""
    parser = argparse.ArgumentParser(
        prog="seqprod",
        description="Sequential products on quantum effects: compute products, "
                    "verify the axioms, demonstrate non-uniqueness, build channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, trials=None, dims=None, tol_names=None):
        if trials is not None:
            p.add_argument("--seed", type=int, default=0, help="RNG seed")
            p.add_argument("--trials", type=int, default=trials)
            p.add_argument("--dims", default=",".join(map(str, dims)),
                           help="csv of dimensions")
        p.add_argument("--t", default="1", help="csv of phase parameters")
        p.add_argument("--json-out", default=None, help="also write the JSON here")
        if tol_names:
            p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                           help="override a tolerance (repeatable); names: "
                                + ", ".join(sorted(tol_names)))

    p = sub.add_parser("product", help="product of two effects from files")
    p.add_argument("a_file")
    p.add_argument("b_file")
    p.add_argument("--form", choices=("luders", "phased"), default="phased")
    common(p)

    p = sub.add_parser("axioms", help="run the S1-S5 suite plus the commutativity check")
    p.add_argument("--product", choices=("luders", "phased", "raw"), default="phased",
                   help="'raw' is a deliberately broken product for failure-path tests")
    common(p, trials=DEFAULT_TRIALS, dims=DEFAULT_DIMS, tol_names=TOL_KEYWORDS["axioms"])

    p = sub.add_parser("nonuniqueness", help="search for a phased-vs-Lüders witness")
    p.add_argument("--kind", choices=("generic", "commuting"), default="generic")
    common(p, trials=DEFAULT_WITNESS_TRIALS, dims=DEFAULT_WITNESS_DIMS,
           tol_names=TOL_KEYWORDS["nonuniqueness"])

    p = sub.add_parser("channel", help="apply a phased channel built from a decomposition")
    p.add_argument("decomposition_file")
    p.add_argument("rho_file")
    common(p, tol_names=TOL_KEYWORDS["channel"])

    return parser


def _attach_t_values(argv: list[str]) -> list[str]:
    """``--t V`` as ``--t=V`` when V starts like a negative number, which
    argparse would take for an option string (``-1,0,1``, ``-.5,1``)."""
    out: list[str] = []
    for arg in argv:
        if out[-1:] == ["--t"] and re.match(r"-\.?\d", arg):
            out[-1] = f"--t={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_attach_t_values(argv))
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return exc.code
    try:
        # looked up at call time, so a rebound cmd_<command> is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
