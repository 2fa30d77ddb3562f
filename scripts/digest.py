#!/usr/bin/env python3
"""Print SHA-256 digests that change when any residual of the checks, or
any output of the field and eigen A/B suites, moves.

Line 1 covers ``report_json(run_checks(seed=s), seed=s,
omit_timings=True)`` for s = 0..39, then seed 3 at step h 1e-4, 5e-4 and
2e-3, as the concatenated UTF-8 texts in that order.  Then comes one
``name digest`` line per check, in registry order, over the float64
bytes of the samples ``definition.run(ctx)`` yields, each array or float
flattened in yield order (what ``np.fromiter`` gives for a tree whose
checks yield floats one at a time), for seeds 0..39 at the default step
h, in seed order.  A report keeps only each
check's largest sample; the per-check lines count every sample, with
its position, and the line that differs names the check that moved.
Last comes one ``key digest`` line per key of the suites of
``ab_fields.py`` and ``ab_eigen.py``, in suite order, over the bytes of
that key's call outputs in call order (an array's buffer, a tuple's
arrays in turn).  The check and pass suites add none: line 1 and the
per-check lines cover their reports.

Two trees whose residuals and outputs agree bit for bit print the same
lines, so a change that must not move a bit is compared against its
parent with

    PYTHONPATH=<parent>/src python scripts/digest.py > parent.txt
    PYTHONPATH=src python scripts/digest.py > change.txt
    diff parent.txt change.txt

There are no options: it exits 0 after printing the lines, and 2 when
given any argument.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

import ga41
from ga41.algebra import _sample_array
from ga41.checks import CheckContext, _check_rng, check_definitions, report_json, run_checks

sys.path.insert(0, str(Path(__file__).resolve().parent))  # the A/B suites sit beside this script
import ab_eigen  # noqa: E402
import ab_fields  # noqa: E402

SEEDS = range(40)
STEP_H = 1e-3
#: (seed, step h) runs after the default-step seeds
STEP_RUNS = ((3, 1e-4), (3, 5e-4), (3, 2e-3))
#: the A/B suites with a line per key, in print order
SUITES = (ab_fields.suite, ab_eigen.suite)


def report_digest() -> str:
    sha = hashlib.sha256()
    runs = [(s, {}) for s in SEEDS] + [(s, {"step_h": h}) for s, h in STEP_RUNS]
    for seed, kw in runs:
        sha.update(report_json(run_checks(seed=seed, **kw), seed=seed, omit_timings=True).encode())
    return sha.hexdigest()


def sample_digests() -> list[tuple[str, str]]:
    """(check name, hex digest) per check, in registry order."""
    lines = []
    for definition in check_definitions():
        sha = hashlib.sha256()
        for seed in SEEDS:
            ctx = CheckContext(_check_rng(seed, definition.name), STEP_H)
            sha.update(_sample_array(definition.run(ctx)).tobytes())
        lines.append((definition.name, sha.hexdigest()))
    return lines


def _bytes(value) -> bytes:
    """The bytes of one call's output: an array, or a tuple of them in turn."""
    if isinstance(value, tuple):
        return b"".join(_bytes(v) for v in value)
    return np.asarray(value).tobytes()


def suite_digests(src: Path) -> list[tuple[str, str]]:
    """(key, hex digest) per key of SUITES on the ga41 package in src."""
    lines = []
    for suite in SUITES:
        for key, calls in suite(src, "digest").items():
            lines.append((key, hashlib.sha256(b"".join(_bytes(call()) for call in calls)).hexdigest()))
    return lines


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv:
        print("error: digest.py takes no arguments", file=sys.stderr)
        return 2
    print(report_digest())
    for name, digest in sample_digests() + suite_digests(Path(ga41.__path__[0]).resolve().parent):
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
