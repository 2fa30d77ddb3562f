#!/usr/bin/env python3
"""Print SHA-256 digests that change when any residual of the checks, or
any output of the field and eigen A/B suites, moves.

Every line is ``key digest`` for one key of one loop over SUITES, each a
function ``(src, label) -> {key: [zero-argument calls]}`` as the A/B
harness takes, in suite order.  A line hashes its key's call outputs in
call order, through ``_bytes``: a string's UTF-8 text, an array's buffer,
a tuple's parts in turn.  The keys are:

- ``report``: ``report_json(run_checks(seed=s), seed=s,
  omit_timings=True)`` for s = 0..39, then seed 3 at step h 1e-4, 5e-4
  and 2e-3;
- one per check, in registry order: the float64 samples
  ``definition.run(ctx)`` yields for seeds 0..39 at the default step h,
  each array or float flattened in yield order (what ``np.fromiter``
  gives for a tree whose checks yield floats one at a time).  A report
  keeps only each check's largest sample; these lines count every
  sample, with its position, and the line that differs names the check
  that moved;
- one per key of the suites of ``ab_fields.py`` and ``ab_eigen.py``.

The check and pass suites add none: the ``report`` and per-check lines
cover their reports.  ``tests/data/digest.txt`` records the output of
this tree, and a Tier-1 test names each key whose line moved.  A change
that moves bytes on purpose re-records it, in a commit of its own:

    PYTHONPATH=src python3 scripts/digest.py > tests/data/digest.txt

There are no options: it exits 0 after printing the lines, and 2 when
given any argument.
"""

import hashlib
import sys
from functools import partial
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


def _report(seed, kw) -> str:
    return report_json(run_checks(seed=seed, **kw), seed=seed, omit_timings=True)


def _samples(definition, seed) -> np.ndarray:
    return _sample_array(definition.run(CheckContext(_check_rng(seed, definition.name), STEP_H)))


def registry(src: Path, label: str) -> dict:
    """{"report": [its reports], check: [its samples per seed]} on the
    imported ga41, which is the tree in src when main hands it."""
    runs = [(s, {}) for s in SEEDS] + [(s, {"step_h": h}) for s, h in STEP_RUNS]
    keys = {"report": [partial(_report, seed, kw) for seed, kw in runs]}
    for definition in check_definitions():
        keys[definition.name] = [partial(_samples, definition, seed) for seed in SEEDS]
    return keys


#: the suites with a line per key, in print order
SUITES = (registry, ab_fields.suite, ab_eigen.suite)


def _bytes(value) -> bytes:
    """The bytes of one call's output: a string, an array, or a tuple of them in turn."""
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, tuple):
        return b"".join(_bytes(v) for v in value)
    return np.asarray(value).tobytes()


def digests(src: Path, suites):
    """(key, hex digest) per key of suites on the ga41 package in src, in order."""
    for suite in suites:
        for key, calls in suite(src, "digest").items():
            yield key, hashlib.sha256(b"".join(_bytes(call()) for call in calls)).hexdigest()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv:
        print("error: digest.py takes no arguments", file=sys.stderr)
        return 2
    for key, digest in digests(Path(ga41.__path__[0]).resolve().parent, SUITES):
        print(f"{key} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
