"""The command line's exact output, usage errors included, against a
recorded transcript.

Each invocation runs ``ga41.cli.main`` in process and records its exit
code, stdout and stderr; timings are replaced by ``-``.  To re-record
after an intended output change:

    PYTHONPATH=src python tests/test_cli_transcript.py > tests/data/cli_transcript.txt
"""

import contextlib
import io
import os
import re
import sys
from pathlib import Path
from unittest import mock

from ga41.cli import main

_IDENTITY = " ".join("1" if i % 6 == 0 else "0" for i in range(25))
_TILTED = " ".join("1" if i % 6 == 0 else ("0.1" if i == 1 else "0") for i in range(25))
_SINGULAR = " ".join("0" for _ in range(25))
_EM = ["frame", "--em", "--potential", "0", "0", "0", "0"]

INVOCATIONS = (
    # usage errors
    ["planewave", "1", "2"],
    ["planewave", "3", "0", "0", "4", "--grid", "-1"],
    ["planewave", "5", "3", "0", "0", "3"],
    ["planewave", "nan", "0", "0", "1"],
    ["planewave", "5", "3", "0", "0", "inf"],
    ["planewave", "1e200", "0", "0", "0", "1e200"],
    ["eigen", "0", "0", "0", "0"],
    ["eigen", "0", "inf", "0", "1"],
    ["eigen", "0", "0", "0", "1e200"],
    ["frame", "--em"],
    [*_EM, "--mass", "0"],
    [*_EM, "--charge", "nan"],
    ["frame", "--matrix", "1 2 3"],
    ["frame", "--matrix", "1 2 x"],
    ["frame", "--matrix", _SINGULAR],
    ["frame", "--point", "nan", "0", "0", "0", "0"],
    [*_EM, "--point", "0", "inf", "0", "0", "0"],
    ["verify", "--check", "no_such_check"],
    ["verify", "--tolerance", "no_such_check=1"],
    ["verify", "--tolerance", "blade_squares=-1"],
    ["verify", "--seed", "-1"],
    ["verify", "--step-h", "0"],
    ["verify", "--step-h", "nan"],
    # usage errors that argparse reports, with a usage line 80 columns wide
    ["verify", "--tolerance", "not-a-pair"],
    ["verify", "--tolerance", "blade_squares=abc"],
    # normal output
    ["planewave", "3", "0", "0", "4"],
    ["planewave", "5", "3", "0", "0", "4", "--grid", "3"],
    ["planewave", "3", "0", "0", "4", "--negative-energy"],
    ["eigen", "0", "0", "2", "1.5"],
    ["eigen", "0.3", "-1.2", "2", "0.5"],
    ["frame"],
    ["frame", "--matrix", _IDENTITY],
    ["frame", "--matrix", _TILTED, "--point", "1", "2", "3", "4", "5"],
    ["frame", "--em", "--potential", "0.7", "0", "0", "0", "--charge", "-1", "--mass", "1"],
    ["projectors"],
    ["table"],
    ["verify", "--list"],
    ["verify"],
    ["verify", "--seed", "5", "--output", "json"],
    ["verify", "--check", "monogenic_residual", "--tolerance", "monogenic_residual=1e-20"],
    ["verify", "--check", "monogenic_residual", "--step-h", "1e-300", "--output", "json"],
    ["verify", "--step-h", "1e308"],
)

_TIMINGS = (
    (re.compile(r"\(\d+\.\d ms\)"), "(- ms)"),
    (re.compile(r'"elapsed_ms": [^,\n]+'), '"elapsed_ms": "-"'),
)


def transcript() -> str:
    parts = []
    for argv in INVOCATIONS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            code = main(argv)
        text = f"$ ga41 {' '.join(repr(a) if ' ' in a else a for a in argv)}\n"
        text += f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        for pattern, repl in _TIMINGS:
            text = pattern.sub(repl, text)
        parts.append(text)
    return "\n".join(parts)


def test_cli_output_matches_the_recorded_transcript():
    want = (Path(__file__).resolve().parent / "data" / "cli_transcript.txt").read_text()
    assert transcript() == want


if __name__ == "__main__":
    sys.stdout.write(transcript())
