"""Golden CLI output: the stdout and exit code of every subcommand over the
workspaces in tests/fixtures, and the -h text of fibcat and of each
subcommand.

The cases are derived from the fixture JSON, not from fibcat, so a change
to the library cannot change which commands are checked.  After an
intended change of output, re-record with

    python tests/test_golden.py
"""

import contextlib
import functools
import glob
import io
import json
import os
import sys

import pytest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS_DIR, "golden.json")

SUBCOMMANDS = (
    "validate", "fibres", "reindex", "check-fib", "elements", "straighten",
    "roundtrip", "factorize", "check-initial", "check-final", "comma",
    "pullback", "mcg", "classify-mcg", "parse", "semantics", "dot",
)


def cases():
    """Every argv to record, with workspace paths relative to TESTS_DIR."""
    argvs = [["-h"]] + [[name, "-h"] for name in SUBCOMMANDS]
    argvs += [["mcg", n] for n in ("0", "1", "3", "a", "a,b", "")]
    paths = sorted(glob.glob(os.path.join(TESTS_DIR, "fixtures", "**", "*.json"), recursive=True))
    for path in paths:
        ws = os.path.relpath(path, TESTS_DIR).replace(os.sep, "/")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        cats = doc.get("categories", {})
        argvs += [["validate", ws], ["fibres", ws, "nope"]]
        argvs += [["dot", ws, c] for c in cats]
        for p, fdoc in doc.get("functors", {}).items():
            for cmd in (
                ["fibres"], ["check-fib", "--discrete"], ["check-fib", "--cloven"],
                ["straighten"], ["roundtrip"], ["factorize", "--opfib"],
                ["factorize", "--fib"], ["check-initial"], ["check-final"],
                ["classify-mcg"], ["dot"],
            ):
                argvs.append(cmd + [ws, p])
            for m in cats[fdoc["cod"]]["morphisms"]:
                argvs.append(["reindex", ws, p, m["id"]])
            for q in doc["functors"]:
                argvs += [["comma", ws, p, q], ["pullback", ws, p, q]]
        for w in doc.get("presheaves", {}):
            argvs += [["elements", ws, w], ["roundtrip", ws, w], ["dot", ws, w]]
        for lex in doc.get("lexicons", {}):
            for corpus, sentences in doc.get("corpora", {}).items():
                for conv in ([], ["--convention", "lambek"]):
                    argvs.append(["semantics", ws, "--lexicon", lex, "--corpus", corpus, *conv])
                    for s in sentences:
                        words = s.split() if isinstance(s, str) else s
                        for sentence in (words, words[::-1]):
                            argvs.append(
                                ["parse", "--lexicon", ws, "--lexicon-name", lex, *conv,
                                 " ".join(sentence)]
                            )
    return argvs


def run(argv):
    """(exit code, stdout) of one command, run from TESTS_DIR at 80 columns."""
    from fibcat import cli

    out = io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    os.chdir(TESTS_DIR)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv, out=out)
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue()


@functools.lru_cache(maxsize=None)
def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {tuple(rec["argv"]): rec for rec in json.load(fh)}


CASES = cases()


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) for a in CASES])
def test_cli_output_matches_the_recording(argv):
    rec = _golden()[tuple(argv)]
    code, text = run(argv)
    assert (code, text) == (rec["code"], rec["stdout"])


def test_recording_covers_every_case():
    assert set(_golden()) == {tuple(a) for a in CASES}


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(TESTS_DIR), "src"))
    records = []
    for argv in CASES:
        code, text = run(argv)
        records.append({"argv": argv, "code": code, "stdout": text})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"recorded {len(records)} cases in {GOLDEN}")
