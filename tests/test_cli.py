import argparse
import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqprod.cli
from seqprod import (
    DecompositionError,
    DomainError,
    Effect,
    ValidationError,
    find_nonuniqueness_witness,
    haar_unitary,
    hermitize,
    phased_product,
    run_axiom_suite,
)
from seqprod.cli import TOL_KEYWORDS, main
from seqprod.serialize import document_to_matrix, dumps, matrix_to_document

import helpers


def write_doc(path, matrix):
    path.write_text(dumps(matrix_to_document(matrix)) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# matrix documents
# ---------------------------------------------------------------------------

def test_document_round_trip_is_exact():
    # document -> Effect -> document must not drift on Hermitian input
    rng = np.random.default_rng(0)
    m = helpers.random_effect(rng, 3).matrix
    doc = matrix_to_document(m)
    effect = Effect(document_to_matrix(doc))
    assert np.array_equal(effect.matrix, m)
    assert matrix_to_document(effect.matrix) == doc


def test_document_json_round_trip_17_digits():
    rng = np.random.default_rng(1)
    m = helpers.random_effect(rng, 2).matrix
    text = dumps(matrix_to_document(m))
    back = document_to_matrix(json.loads(text))
    assert np.array_equal(back, m)


def test_document_rejects_non_hermitian_and_malformed():
    from seqprod import ValidationError
    with pytest.raises(ValidationError):
        document_to_matrix({"dim": 2, "entries": [[0, 0], [1, 0], [0, 0], [0, 0]]})
    with pytest.raises(ValidationError):
        document_to_matrix({"dim": 2, "entries": [[0, 0]]})
    with pytest.raises(ValidationError, match=r"needs 4 \[re, im\] entries, got shape \(4,\)"):
        document_to_matrix({"dim": 2, "entries": [1, 2, 3, 4]})  # entries that are no sequences
    with pytest.raises(ValidationError):
        document_to_matrix({"entries": []})
    with pytest.raises(ValidationError):
        document_to_matrix({"dim": 1, "entries": [[math.nan, 0]]})
    with pytest.raises(ValidationError, match="not all finite"):
        document_to_matrix({"dim": 1, "entries": [[None, 0]]})
    with pytest.raises(ValidationError, match="not \\[re, im\\] reals"):
        document_to_matrix({"dim": 1, "entries": [["x", 0]]})
    with pytest.raises(ValidationError, match="overflow"):
        document_to_matrix({"dim": 1, "entries": [[1e308, 0]]})
    # a JSON integer past float range
    with pytest.raises(ValidationError, match="not \\[re, im\\] reals: int too large"):
        document_to_matrix({"dim": 1, "entries": [[10 ** 400, 0]]})
    # dim is a JSON integer, entries are JSON numbers: nothing is coerced
    for dim in (1.9, "1", True, 1.0):
        with pytest.raises(ValidationError, match="dim must be an integer >= 1"):
            document_to_matrix({"dim": dim, "entries": [[0.5, 0]]})
    for entry in (["0.5", 0], [0.5, False], [True, 0]):
        with pytest.raises(ValidationError, match="must be JSON numbers"):
            document_to_matrix({"dim": 1, "entries": [entry]})
    with pytest.raises(ValidationError):
        document_to_matrix({"dim": 1.9, "entries": [["0.5", False]]})


FLOAT_FREE = {
    "nested": {"a": 1, "b": [True, None, "x"], "c": {"d": [[], {}, ()], "e": {"f": [1, [2]]}}},
    "empty-dict": {},
    "empty-list": [],
    "empty-tuple": (),
    "tuple": (1, "two"),
    "non-ascii": "Lüders ρ",
    "true": True,
    "none": None,
}
FLOATS = {"0.1": 0.1, "-0.0": -0.0, "1e-300": 1e-300, "5e-324": 5e-324, "1.0": 1.0,
          "float64": np.float64(1e-5)}


@pytest.mark.parametrize("value, expected", [
    pytest.param(0.45, "0.45000000000000001", id="0.45"),
    pytest.param({"a": 1, "b": [True, None, "x"]},
                 '{\n  "a": 1,\n  "b": [\n    true,\n    null,\n    "x"\n  ]\n}',
                 id="layout"),
    *[pytest.param(x, json.dumps(x, indent=2), id=f"json-{name}")
      for name, x in FLOAT_FREE.items()],
    *[pytest.param(x, format(float(x), ".17g"), id=name) for name, x in FLOATS.items()],
    pytest.param(math.nan, ValueError, id="nan"),
    pytest.param({1: 0.5}, TypeError, id="int-key"),
    # numpy scalars other than float64 are not JSON values
    pytest.param(np.int64(1), TypeError, id="numpy-int"),
])
def test_dumps_formats_floats_deterministically(value, expected):
    if isinstance(expected, str):
        assert dumps(value) == expected
    else:
        with pytest.raises(expected):
            dumps(value)


def _outcome(write, obj):
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# floats the formatter treats specially: signed zero, subnormals, either side of
# the switch to exponent notation (1e16 | 1e17, 1e-4 | 1e-5), and pairs whose
# sum overflows
_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310, 1e16, 1e17, 1e-4, 1e-5,
                                1e308, -1e308])
_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS
_SCALAR = (_FLOAT | st.integers(-3, 3) | st.booleans()
           | _FLOAT.map(np.float64) | st.integers(-3, 3).map(np.int64))
_FLOAT_MATRIX = st.integers(1, 3).flatmap(
    lambda width: st.lists(st.lists(_FLOAT, min_size=width, max_size=width),
                           min_size=1, max_size=4))
_ROWS = st.lists(st.lists(_FLOAT | _SCALAR, min_size=1, max_size=3), min_size=1, max_size=4)
_JSONISH = st.recursive(
    _FLOAT_MATRIX | _ROWS | st.tuples(_FLOAT, _FLOAT) | _SCALAR,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(obj=_JSONISH)
def test_dumps_matches_the_recursive_writer_byte_for_byte(obj):
    assert _outcome(dumps, obj) == _outcome(helpers.reference_dumps, obj)


@settings(max_examples=40, deadline=None)
@given(matrix=_FLOAT_MATRIX, bad=st.sampled_from([math.inf, -math.inf, math.nan]),
       where=st.integers(0, 11))
def test_dumps_rejects_a_non_finite_matrix_entry_as_the_recursive_writer_does(matrix, bad,
                                                                             where):
    row = matrix[where % len(matrix)]
    row[where % len(row)] = bad
    doc = {"entries": matrix}
    expected = (ValueError, f"cannot serialize non-finite float {bad!r}")
    assert _outcome(dumps, doc) == _outcome(helpers.reference_dumps, doc) == expected


_RNG = np.random.default_rng(9)
_COMPLEX = _RNG.normal(size=(5, 5)) + 1j * _RNG.normal(size=(5, 5))


@pytest.mark.parametrize("matrix", [
    _COMPLEX,
    _COMPLEX.T,
    _RNG.normal(size=(4, 4)),
    np.array([[-0.0, 0.5 - 0.0j], [complex(0.5, -0.0), -0.0]]),
], ids=["complex", "transpose-view", "real", "negative-zeros"])
def test_matrix_document_matches_the_entrywise_walk(matrix):
    walk = [[float(v.real), float(v.imag)] for v in np.asarray(matrix).reshape(-1)]
    doc = matrix_to_document(matrix)
    assert doc["dim"] == matrix.shape[0]
    assert dumps(doc["entries"]) == dumps(walk)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2), (0, 0)])
def test_matrix_document_refuses_a_shape_its_reader_rejects(shape):
    # the shapes gave dim 2 with 6 entries, dim 4 with 4, dim 2 with 8 and dim 0
    with pytest.raises(ValidationError) as exc:
        matrix_to_document(np.zeros(shape))
    assert str(exc.value) == f"expected a square matrix, got shape {shape}"


def test_a_square_matrix_round_trips_through_its_document():
    m = helpers.random_hermitian(np.random.default_rng(4), 4)
    doc = matrix_to_document(m)
    assert doc["dim"] == 4
    assert np.array_equal(document_to_matrix(json.loads(dumps(doc))), m)


def test_dumps_holds_about_two_copies_of_a_report_at_its_peak():
    # its pieces and the string they join into; joined at every nesting level it held three
    rng = np.random.default_rng(3)
    payload = {"groups": [{"reports": [
        {"witness": {key: matrix_to_document(helpers.random_hermitian(rng, 64))
                     for key in ("phased", "luders")}}
        for _ in range(3)
    ]}]}
    size = len(dumps(payload))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        dumps(payload)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 2.2 * size


def test_emit_writes_the_text_dumps_returns_and_a_newline_to_each_sink(monkeypatch):
    # two writes a sink, as text + "\n" would copy the whole report once more
    returned = []

    def recording_dumps(obj):
        returned.append(dumps(obj))
        return returned[-1]

    class Sink(list):
        write = list.append  # keeps the object written, not a copy

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

    stdout, json_out = Sink(), Sink()
    monkeypatch.setattr(seqprod.cli, "dumps", recording_dumps)
    monkeypatch.setattr(seqprod.cli.sys, "stdout", stdout)
    monkeypatch.setattr(seqprod.cli, "open", lambda *args, **kwargs: json_out, raising=False)
    seqprod.cli._emit(argparse.Namespace(json_out="report.json"), {"gap": 0.5})
    (text,) = returned
    for sink in (stdout, json_out):
        assert len(sink) == 2 and sink[0] is text and sink[1] == "\n"


# ---------------------------------------------------------------------------
# product command
# ---------------------------------------------------------------------------

def test_product_identity_echoes_operand(tmp_path, capsys):
    rng = np.random.default_rng(2)
    b = helpers.random_effect(rng, 2).matrix
    a_file = write_doc(tmp_path / "a.json", np.eye(2))
    b_file = write_doc(tmp_path / "b.json", b)
    code = main(["product", a_file, b_file, "--form", "phased", "--t", "1"])
    assert code == 0
    out = document_to_matrix(json.loads(capsys.readouterr().out))
    assert np.abs(out - b).max() < 1e-12


def test_product_phased_vs_luders_off_diagonal(tmp_path, capsys):
    a = np.diag([0.81, 0.25])
    b = np.array([[0.5, 0.2], [0.2, 0.5]])
    a_file = write_doc(tmp_path / "a.json", a)
    b_file = write_doc(tmp_path / "b.json", b)

    assert main(["product", a_file, b_file, "--form", "phased", "--t", "1"]) == 0
    phased = document_to_matrix(json.loads(capsys.readouterr().out))
    theta = math.log(0.81) - math.log(0.25)
    expected = 0.45 * complex(math.cos(theta), math.sin(theta)) * 0.2
    assert abs(phased[0, 1] - expected) < 1e-12

    assert main(["product", a_file, b_file, "--form", "luders"]) == 0
    luders = document_to_matrix(json.loads(capsys.readouterr().out))
    assert abs(luders[0, 1] - 0.45 * 0.2) < 1e-12


def test_product_decomposes_its_left_operand_alone(tmp_path, capsys, monkeypatch):
    calls, solves = [], []
    init, eigh = Effect.__init__, np.linalg.eigh

    def counted(self, matrix):
        calls.append(None)
        init(self, matrix)

    def counted_eigh(matrix, *args, **kwargs):
        solves.append(np.shape(matrix))
        return eigh(matrix, *args, **kwargs)

    rng = np.random.default_rng(6)
    a, b = (helpers.random_effect(rng, 4).matrix for _ in range(2))
    a_file, b_file = write_doc(tmp_path / "a.json", a), write_doc(tmp_path / "b.json", b)
    monkeypatch.setattr(Effect, "__init__", counted)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    assert main(["product", a_file, b_file, "--t", "1"]) == 0
    # A is an Effect, decomposed for its Kraus operator; B, read as a matrix
    # alone, is certified an effect without an eigensolve; the product is no Effect
    assert len(calls) == 1 and solves == [(1, 4, 4)]
    monkeypatch.undo()
    out = document_to_matrix(json.loads(capsys.readouterr().out))
    assert np.array_equal(out, phased_product(Effect(a), Effect(b), 1.0).matrix)


def test_product_rejects_a_right_operand_outside_zero_one_as_effect_does(tmp_path, capsys):
    a_file = write_doc(tmp_path / "a.json", np.eye(3) / 2)
    for b in (np.diag([0.5, 0.2, 1.0 + 1e-6]), np.diag([-3e-10, 0.5, 0.5])):
        b_file = write_doc(tmp_path / "b.json", b)
        assert main(["product", a_file, b_file]) == 2
        with pytest.raises(ValidationError) as rejected:
            Effect(b)
        assert capsys.readouterr() == ("", f"error: {rejected.value}\n")


def test_product_invalid_input_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    ok = write_doc(tmp_path / "ok.json", np.eye(2))
    assert main(["product", str(bad), ok]) == 2
    assert "error" in capsys.readouterr().err

    non_effect = write_doc(tmp_path / "neg.json", np.diag([-0.2, 0.5]))
    assert main(["product", non_effect, ok]) == 2
    err = capsys.readouterr().err
    assert "spectrum" in err

    non_hermitian = tmp_path / "nh.json"
    non_hermitian.write_text(dumps({"dim": 2, "entries": [[0, 0], [1, 0], [0, 0], [0, 0]]}))
    assert main(["product", str(non_hermitian), ok]) == 2
    assert "Hermitian" in capsys.readouterr().err

    # an anti-Hermitian pair whose norms overflow is not Hermitian either;
    # symmetrized it would read as 0.5·I
    for entry in (1e155, 1e200, 1.7e308):
        anti = tmp_path / "anti.json"
        anti.write_text(dumps({"dim": 2, "entries": [[0.5, 0], [entry, 0],
                                                     [-entry, 0], [0.5, 0]]}))
        assert main(["product", ok, str(anti), "--t", "1"]) == 2
        captured = capsys.readouterr()
        assert "not Hermitian" in captured.err and captured.out == ""

    missing = str(tmp_path / "missing.json")
    assert main(["product", missing, ok]) == 2
    capsys.readouterr()

    big = tmp_path / "big.json"
    big.write_text(dumps({"dim": 2, "entries": [[1e308, 0]] * 4}))
    assert main(["product", str(big), ok]) == 2
    assert "overflow" in capsys.readouterr().err

    huge = tmp_path / "huge.json"
    huge.write_text('{"dim": 2, "entries": [[1' + "0" * 400 + ', 0], [0, 0], [0, 0], [0, 0]]}')
    assert main(["product", str(huge), ok]) == 2
    captured = capsys.readouterr()
    assert "int too large" in captured.err and captured.out == ""

    coerced = tmp_path / "coerced.json"
    coerced.write_text('{"dim": 1, "entries": [["0.5", false]]}')
    one = write_doc(tmp_path / "one.json", np.eye(1))
    assert main(["product", str(coerced), one]) == 2
    assert "JSON numbers" in capsys.readouterr().err


def test_product_and_channel_reject_flags_they_do_not_read(tmp_path, capsys):
    a_file = write_doc(tmp_path / "a.json", np.eye(2))
    assert main(["product", a_file, a_file, "--seed", "1"]) == 2
    assert main(["product", a_file, a_file, "--tol", "defect=1"]) == 2
    d_file = tmp_path / "d.json"
    d_file.write_text(dumps([matrix_to_document(np.eye(2))]))
    rho_file = write_doc(tmp_path / "rho.json", np.eye(2) / 2)
    assert main(["channel", str(d_file), rho_file, "--trials", "3"]) == 2
    assert main(["channel", str(d_file), rho_file, "--tol", "defect=1"]) == 2
    assert "its names: decomp" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe{\x00}\x00", b"1" * 5000],
                         ids=["utf16", "int-digit-limit"])
def test_input_that_is_not_utf8_json_exits_two(content, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    ok = write_doc(tmp_path / "ok.json", np.eye(2))
    assert main(["product", str(bad), ok]) == 2
    captured = capsys.readouterr()
    assert "not valid UTF-8 JSON" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-parent", "directory"])
def test_json_out_that_cannot_be_written_exits_two(target, tmp_path, capsys):
    a_file = write_doc(tmp_path / "a.json", np.eye(2))
    out_path = str(tmp_path / target)
    assert main(["product", a_file, a_file, "--json-out", out_path]) == 2
    captured = capsys.readouterr()
    assert f"cannot write {out_path}" in captured.err
    assert captured.out == ""


def test_json_out_writes_same_bytes(tmp_path, capsys):
    a_file = write_doc(tmp_path / "a.json", np.eye(2))
    out_path = tmp_path / "result.json"
    code = main(["product", a_file, a_file, "--json-out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == capsys.readouterr().out


# ---------------------------------------------------------------------------
# axioms command
# ---------------------------------------------------------------------------

def test_axioms_exit_zero_and_replay_determinism(capsys):
    argv = ["axioms", "--product", "phased", "--trials", "40",
            "--dims", "2,3", "--t", "0,1", "--seed", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["all_passed"] is True
    assert [g["t"] for g in payload["groups"]] == [0.0, 1.0]
    axioms = [r["axiom"] for r in payload["groups"][0]["reports"]]
    assert axioms == ["S1", "S2", "S3", "S4", "S5", "commutativity"]


@pytest.mark.parametrize("flags, labels, code", [
    (["--product", "luders"], ["luders"], 0),
    (["--product", "raw"], ["raw"], 3),
    (["--product", "phased", "--t", "-1,0.5"], ["phased(t=-1)", "phased(t=0.5)"], 0),
], ids=["luders", "raw", "phased"])
def test_axioms_luders_single_group(flags, labels, code, capsys):
    assert main(["axioms", *flags, "--trials", "20", "--dims", "2", "--seed", "1"]) == code
    payload = json.loads(capsys.readouterr().out)
    assert [g["label"] for g in payload["groups"]] == labels


def test_axioms_trivial_scalar_config(capsys):
    assert main(["axioms", "--trials", "1", "--dims", "1"]) == 0
    capsys.readouterr()


def test_axioms_broken_product_exits_three(capsys):
    code = main(["axioms", "--product", "raw", "--trials", "40",
                 "--dims", "3,4", "--seed", "0"])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is False
    assert payload["groups"][0]["failures"] > 0


def test_seed_comes_from_the_flag_alone(capsys, monkeypatch):
    # no environment variable overrides --seed
    argv = ["axioms", "--trials", "10", "--dims", "2", "--seed", "5"]
    assert main(argv) == 0
    baseline = capsys.readouterr().out
    assert json.loads(baseline)["config"]["seed"] == 5
    monkeypatch.setenv("SEQPROD_SEED", "99")
    assert main(argv) == 0
    assert capsys.readouterr().out == baseline


def test_tol_override_flag(capsys):
    # an absurdly strict ceiling makes rounding noise count as failure
    code = main(["axioms", "--product", "phased", "--trials", "20",
                 "--dims", "4", "--tol", "defect=1e-18"])
    assert code == 3
    capsys.readouterr()
    assert main(["axioms", "--trials", "5", "--dims", "2",
                 "--tol", "bogus=1"]) == 2
    capsys.readouterr()
    # a name another subcommand reads is rejected too
    assert main(["axioms", "--trials", "5", "--dims", "2", "--tol", "gap=5"]) == 2
    assert "its names: comm_floor, defect, separation" in capsys.readouterr().err
    assert main(["axioms", "--trials", "5", "--dims", "2", "--tol", "hypothesis=1"]) == 2
    capsys.readouterr()
    assert main(["nonuniqueness", "--trials", "5", "--tol", "decomp=1"]) == 2
    assert "its names: gap" in capsys.readouterr().err


def test_an_unreachable_comm_floor_exits_two_with_nothing_on_stdout(capsys):
    # no two effects at d <= 3 reach ‖AB − BA‖_F = 5; √3/2 is the bound
    assert main(["axioms", "--product", "luders", "--trials", "20", "--dims", "2,3",
                 "--tol", "comm_floor=5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: comm_floor 5.0 exceeds √d/2 = 0.8660254037844386")


def test_tol_defaults_are_forwarded_not_restated(capsys):
    # every --tol name set to the default of the keyword it feeds must
    # reproduce the run without --tol
    def run(argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def at_defaults(command, library_call):
        params = inspect.signature(library_call).parameters
        return [arg for name, keyword in TOL_KEYWORDS[command].items()
                for arg in ("--tol", f"{name}={params[keyword].default!r}")]

    argv = ["axioms", "--trials", "20", "--dims", "2,3"]
    plain = run(argv)
    forwarded = run(argv + at_defaults("axioms", run_axiom_suite))
    assert len(forwarded["config"]["tolerance_overrides"]) == 3
    assert dumps(forwarded["groups"]) == dumps(plain["groups"])

    argv = ["nonuniqueness", "--trials", "20"]
    plain = run(argv)
    forwarded = run(argv + at_defaults("nonuniqueness", find_nonuniqueness_witness))
    assert forwarded.pop("config")["tolerance_overrides"] == {"gap": 0.01}
    plain.pop("config")
    assert dumps(forwarded) == dumps(plain)


@pytest.mark.parametrize("argv", [
    ["axioms", "--trials", "5", "--dims", "2,3", "--t", "-1,0,0.5,1,3"],
    ["axioms", "--trials", "5", "--dims", "2,3", "--t", "-.5,1"],
    ["nonuniqueness", "--trials", "10", "--t", "-1,2"],
])
def test_t_takes_a_negative_csv_after_a_space(argv, capsys):
    # argparse would read "-1,0,..." as an option string; the value must be
    # taken as if written --t=-1,0,...
    def run(args):
        code = main(args)
        return code, capsys.readouterr().out

    i = argv.index("--t")
    spaced = run(argv)
    assert spaced == run(argv[:i] + [f"--t={argv[i + 1]}"] + argv[i + 2:])
    assert json.loads(spaced[1])["config"]["t_values"] == [
        float(t) for t in argv[i + 1].split(",")]


def test_single_t_takes_a_negative_value_after_a_space(tmp_path, capsys):
    a_file = write_doc(tmp_path / "a.json", np.diag([0.81, 0.25]))
    b_file = write_doc(tmp_path / "b.json", np.array([[0.5, 0.2], [0.2, 0.5]]))
    assert main(["product", a_file, b_file, "--t", "-1e-1"]) == 0
    spaced = capsys.readouterr().out
    assert main(["product", a_file, b_file, "--t=-1e-1"]) == 0
    assert capsys.readouterr().out == spaced


@pytest.mark.parametrize("argv, invariant", [
    (["nonuniqueness", "--trials", "0"], "trials must be >= 1, got 0"),
    (["nonuniqueness", "--trials", "-3"], "trials must be >= 1, got -3"),
    (["axioms", "--trials", "0"], "trials must be >= 1, got 0"),
    (["axioms", "--trials", "5", "--tol", "defect=nan"], "--tol defect must be a finite"),
    (["nonuniqueness", "--tol", "gap=inf"], "--tol gap must be a finite"),
    (["axioms", "--trials", "5", "--tol", "defect=-1"], "--tol defect must be a finite"),
])
def test_trials_and_tolerances_out_of_domain_exit_two(argv, invariant, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert invariant in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, invariant", [
    (["axioms", "--dims", "x"], "--dims expects a csv of integers"),
    (["axioms", "--dims", "0"], "dims entry must be >= 1, got 0"),
    (["nonuniqueness", "--dims", "2,-1"], "dims entry must be >= 1, got -1"),
    (["axioms", "--dims", ","], "dims must name at least one value"),
    (["axioms", "--t", "x"], "--t expects a csv of reals"),
    (["axioms", "--t", "nan"], "--t entries must be finite reals"),
    (["axioms", "--tol", "defect"], "--tol expects name=value"),
    (["axioms", "--tol", "defect=abc"], "--tol defect must be a finite"),
    (["product", "eye.json", "eye.json", "--t", "1,2"], "expects exactly one value in --t"),
    (["channel", "object.json", "rho.json"], "must be a JSON array of matrix documents"),
    (["product", "array.json", "eye.json"], "matrix document must be a JSON object"),
], ids=["dims-not-int", "dims-zero", "dims-negative", "dims-empty", "t-not-real", "t-nan",
        "tol-no-value", "tol-not-real", "product-two-t", "decomposition-object",
        "matrix-array"])
def test_malformed_cli_inputs_exit_two(argv, invariant, tmp_path, capsys):
    write_doc(tmp_path / "eye.json", np.eye(2))
    write_doc(tmp_path / "rho.json", np.eye(2) / 2)
    (tmp_path / "object.json").write_text("{}")
    (tmp_path / "array.json").write_text("[]")
    assert main([str(tmp_path / arg) if arg.endswith(".json") else arg
                 for arg in argv]) == 2
    captured = capsys.readouterr()
    assert invariant in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["axioms", "--seed", "-1", "--trials", "2"],
    ["nonuniqueness", "--seed", "-5", "--trials", "2"],
], ids=["flag", "nonuniqueness-flag"])
def test_negative_seed_exits_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "seed must be >= 0, got " in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# nonuniqueness command
# ---------------------------------------------------------------------------

def test_nonuniqueness_finds_witness(capsys):
    code = main(["nonuniqueness", "--trials", "100", "--dims", "2",
                 "--t", "1", "--seed", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] and payload["gap"] > 0.01
    assert payload["theta"] is not None


def test_nonuniqueness_commuting_restriction_exits_four(capsys):
    code = main(["nonuniqueness", "--kind", "commuting", "--trials", "50",
                 "--dims", "2", "--t", "1"])
    assert code == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] <= 1e-9
    assert payload["witness"] is None and payload["trial"] is None


def test_nonuniqueness_t_zero_exits_four(capsys):
    code = main(["nonuniqueness", "--trials", "50", "--dims", "2", "--t", "0"])
    assert code == 4
    assert json.loads(capsys.readouterr().out)["gap"] == 0.0


# ---------------------------------------------------------------------------
# channel command
# ---------------------------------------------------------------------------

def test_channel_identity_decomposition(tmp_path, capsys):
    d_file = tmp_path / "d.json"
    d_file.write_text(dumps([matrix_to_document(np.eye(2))]))
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    rho_file = write_doc(tmp_path / "rho.json", rho)
    assert main(["channel", str(d_file), rho_file, "--t", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["trace"] - 1.0) < 1e-12
    out = document_to_matrix(payload["output"])
    assert np.abs(out - rho).max() < 1e-12


def test_channel_two_effect_decomposition(tmp_path, capsys):
    rng = np.random.default_rng(3)
    a = helpers.random_effect(rng, 2).matrix
    d_file = tmp_path / "d.json"
    d_file.write_text(dumps([matrix_to_document(a),
                             matrix_to_document(np.eye(2) - a)]))
    rho_file = write_doc(tmp_path / "rho.json", helpers.random_density(rng, 2).matrix)
    assert main(["channel", str(d_file), rho_file, "--t", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["trace"] - 1.0) <= 1e-11
    assert payload["min_choi_eigenvalue"] >= -1e-10


def test_channel_invalid_decomposition_exits_two(tmp_path, capsys):
    rng = np.random.default_rng(4)
    a = helpers.random_effect(rng, 2).matrix
    d_file = tmp_path / "d.json"
    d_file.write_text(dumps([matrix_to_document(a), matrix_to_document(a)]))
    rho_file = write_doc(tmp_path / "rho.json", np.eye(2) / 2)
    assert main(["channel", str(d_file), rho_file]) == 2
    assert "identity" in capsys.readouterr().err


def test_channel_decomp_tolerance_override(tmp_path, capsys):
    # effects summing to I + Δ with ‖Δ‖_F = 1e-7; Δ is traceless against ρ,
    # so the output state keeps unit trace
    a = np.diag([0.3, 0.6])
    delta = 1e-7 / np.sqrt(2) * np.array([[0.0, 1.0], [1.0, 0.0]])
    d_file = tmp_path / "d.json"
    d_file.write_text(dumps([matrix_to_document(a),
                             matrix_to_document(np.eye(2) - a + delta)]))
    rho_file = write_doc(tmp_path / "rho.json", np.diag([0.7, 0.3]))
    assert main(["channel", str(d_file), rho_file]) == 2
    assert "identity" in capsys.readouterr().err
    assert main(["channel", str(d_file), rho_file, "--tol", "decomp=1e-6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["trace"] - 1.0) <= 1e-12


def test_channel_member_is_an_effect_at_spectrum_tol_whatever_decomp(tmp_path, capsys):
    # {P, I − P + 3e-9·I} sums to I within decomp (deviation 4.2e-9), but its
    # second member leaves [0, 1], and decomp bounds only the sum
    p = np.diag([1.0, 0.0])
    d_file = tmp_path / "d.json"
    d_file.write_text(dumps([matrix_to_document(p),
                             matrix_to_document(np.eye(2) - p + 3e-9 * np.eye(2))]))
    rho_file = write_doc(tmp_path / "rho.json", np.eye(2) / 2)
    for tol in ([], ["--tol", "decomp=1e-6"]):
        assert main(["channel", str(d_file), rho_file, *tol]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: effect spectrum [3e-09, 1.000000003] "
                                "escapes [0, 1.0] by more than 1e-10\n")
        assert captured.out == ""


def test_channel_output_trace_checked_at_decomposition_tolerance(tmp_path, capsys):
    # effects summing to (1 + 2.5e-8)·I at d = 16 (‖Δ‖_F = 1e-7): the output
    # state's trace is off by 2.5e-8, inside the overridden tolerance
    rng = np.random.default_rng(5)
    a = Effect.from_eigensystem(rng.uniform(0.1, 0.9, 16), haar_unitary(16, rng)).matrix
    d_file = tmp_path / "d.json"
    d_file.write_text(dumps([matrix_to_document(a),
                             matrix_to_document((1.0 + 2.5e-8) * np.eye(16) - a)]))
    rho_file = write_doc(tmp_path / "rho.json", helpers.random_density(rng, 16).matrix)
    assert main(["channel", str(d_file), rho_file]) == 2
    assert "identity" in capsys.readouterr().err
    assert main(["channel", str(d_file), rho_file, "--tol", "decomp=1e-6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["trace"] - 1.0) <= 1e-6


def test_usage_error_exits_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def _raise(error):
    def command(args):
        raise error
    return command


def _nan_matrix(args):
    hermitize(np.full((2, 2), np.nan))


@pytest.mark.parametrize("command, code, err", [
    (_raise(ValidationError("bad input")), 2, "error: bad input\n"),
    (_raise(DomainError("u out of domain")), 2, "error: u out of domain\n"),
    (_raise(DecompositionError("sum is not I")), 2, "error: sum is not I\n"),
    (_nan_matrix, 2, "error: matrix contains NaN or Inf entries\n"),
    (_raise(np.linalg.LinAlgError("Eigenvalues did not converge")), 1,
     "numerical failure: Eigenvalues did not converge\n"),
], ids=["ValidationError", "DomainError", "DecompositionError", "nan_matrix", "LinAlgError"])
def test_error_raised_in_a_subcommand_maps_to_its_exit_code(command, code, err,
                                                            monkeypatch, capsys):
    monkeypatch.setattr(seqprod.cli, "cmd_product", command)
    assert main(["product", "a.json", "b.json"]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert captured.out == ""


def test_parser_is_built_once_per_process(capsys):
    seqprod.cli.build_parser.cache_clear()
    reports = []
    for _ in range(2):
        assert main(["nonuniqueness", "--trials", "3", "--t=-1"]) == 0
        reports.append(capsys.readouterr().out)
    info = seqprod.cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert reports[0] == reports[1]


def test_overflowing_phase_exits_two(tmp_path, capsys):
    small = write_doc(tmp_path / "small.json", np.diag([1e-9, 0.5]))
    b2 = write_doc(tmp_path / "b2.json", np.array([[0.5, 0.2], [0.2, 0.5]]))
    for argv in (["product", small, b2, "--t", "1e307"],
                 ["nonuniqueness", "--t", "1e308", "--trials", "3"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "overflows the phase" in captured.err
        assert captured.out == ""


@pytest.mark.filterwarnings("error")
def test_overflowing_phase_is_a_counted_axiom_failure(capsys):
    assert main(["axioms", "--t", "1e308", "--trials", "4", "--dims", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    (group,) = json.loads(captured.out)["groups"]
    assert group["failures"] > 0
    failed = [r for r in group["reports"] if r["failures"]]
    assert all(r["witness"]["error"] == "t = 1e+308 overflows the phase t·ln λ"
               for r in failed)
