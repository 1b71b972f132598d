"""Replays the recorded report corpus (see corpus.py) through the CLI in-process.

In the recorded environment every entry must give the recorded bytes;
elsewhere the same exit code, keys and counts, and floats within
corpus.REL_TOL.  Each test id starts with the comparison it makes:
``bytes-`` or ``close-``.
"""

import json

import pytest

import corpus

MANIFEST = json.loads(corpus.MANIFEST.read_text(encoding="utf-8"))
SAME_ENVIRONMENT = MANIFEST["environment"] == corpus.environment()
COMPARISON = "bytes" if SAME_ENVIRONMENT else "close"


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    corpus.write_inputs(MANIFEST["inputs"], directory)
    return directory


@pytest.mark.parametrize("entry", MANIFEST["entries"],
                         ids=[f"{COMPARISON}-{e['name']}" for e in MANIFEST["entries"]])
def test_a_corpus_entry_replays_as_recorded(entry, input_dir):
    code, out, err = corpus.replay(entry["argv"], input_dir)
    assert code == entry["exit_code"]
    if "--json-out" in entry["argv"]:
        written = (input_dir / "report.json").read_text(encoding="utf-8")
        assert written == out
    if SAME_ENVIRONMENT:
        assert err == entry["stderr"]
        if "stdout_lines" in entry:
            assert out.split("\n") == entry["stdout_lines"]
        assert corpus.sha256(out) == entry["stdout_sha256"], "stdout bytes differ"
        return
    corpus.assert_text_close(entry["stderr"], err)
    if "stdout_lines" in entry:
        recorded = "\n".join(entry["stdout_lines"])
        if recorded:
            corpus.assert_close(json.loads(recorded), json.loads(out))
        else:
            assert out == ""
    # a digest-only entry outside the recorded environment: exit code and stderr alone


def test_the_corpus_is_current():
    # every entry of corpus.ENTRIES is recorded, with the argv it runs
    recorded = [(e["name"], e["argv"]) for e in MANIFEST["entries"]]
    assert recorded == corpus.ENTRIES
