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
import subprocess
import sys
from unittest import mock

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


def run(argv, err=None):
    """(exit code, stdout) of one command, run from TESTS_DIR at 80 columns;
    its stderr goes to err when given."""
    from fibcat import cli

    out = io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    os.chdir(TESTS_DIR)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err or io.StringIO()):
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


def test_no_command_calls_print():
    """Each command writes its lines to out itself, so the output of every
    case stays the recorded one with print made to raise."""
    with mock.patch("builtins.print", side_effect=AssertionError("print called")):
        for argv in CASES:
            rec = _golden()[tuple(argv)]
            assert run(argv) == (rec["code"], rec["stdout"]), argv


def test_recording_covers_every_case():
    assert set(_golden()) == {tuple(a) for a in CASES}


def run_process(argv):
    """(exit code, stdout, stderr) of `python -m fibcat.cli argv`, one
    process per command as a shell user runs it, from TESTS_DIR at 80 columns."""
    src = os.path.join(os.path.dirname(TESTS_DIR), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "fibcat.cli", *argv],
        cwd=TESTS_DIR, env=env, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


PROCESS_CASES = [
    ["-h"], ["validate", "fixtures/fig2.json"], ["fibres", "fixtures/fig2.json", "nope"],
]


@pytest.mark.parametrize("argv", PROCESS_CASES, ids=[" ".join(a) for a in PROCESS_CASES])
def test_one_process_per_command_matches_the_recording(argv):
    rec = _golden()[tuple(argv)]
    code, text, _ = run_process(argv)
    assert (code, text) == (rec["code"], rec["stdout"])


def test_a_usage_error_is_the_same_in_a_process_and_in_process():
    argv = ["check-fib", "fixtures/fig2.json", "p"]
    code, text, err = run_process(argv)
    assert (code, text) == (2, "")
    assert err.startswith("usage: fibcat check-fib")
    for _ in range(2):  # the first call may build the parser, the second reuses it
        captured = io.StringIO()
        assert run(argv, captured) == (2, "")
        assert captured.getvalue() == err


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
