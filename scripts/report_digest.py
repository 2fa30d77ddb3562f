#!/usr/bin/env python3
"""Print one SHA-256 digest over many timing-free verify reports.

The digest covers ``report_json(run_checks(seed=s), seed=s,
omit_timings=True)`` for s = 0..39, then seed 3 at step h 1e-4, 5e-4 and
2e-3, as the concatenated UTF-8 texts in that order.  Two trees whose
residuals agree bit for bit print the same line, so a change that must
not move a bit can be compared against its parent in one command:

    PYTHONPATH=src python scripts/report_digest.py

There are no options: it exits 0 after printing the line, and 2 when
given any argument.
"""

import hashlib
import sys

from ga41.checks import report_json, run_checks

SEEDS = range(40)
#: (seed, step h) runs after the default-step seeds
STEP_RUNS = ((3, 1e-4), (3, 5e-4), (3, 2e-3))


def digest() -> str:
    sha = hashlib.sha256()
    runs = [(s, {}) for s in SEEDS] + [(s, {"step_h": h}) for s, h in STEP_RUNS]
    for seed, kw in runs:
        sha.update(report_json(run_checks(seed=seed, **kw), seed=seed, omit_timings=True).encode())
    return sha.hexdigest()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv:
        print("error: report_digest.py takes no arguments", file=sys.stderr)
        return 2
    print(digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
