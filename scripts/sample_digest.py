#!/usr/bin/env python3
"""Print one SHA-256 digest per check over its raw residual samples.

For each check, in registry order, the digest covers the float64 bytes of
``np.fromiter(definition.run(ctx), dtype=float)`` for seeds 0..39 at the
default step h, in seed order.  A verify report keeps only each check's
largest sample, so two trees can print the same report digest while a
sample moved; here every sample counts, with its position, and the line
that differs names the check that moved:

    PYTHONPATH=src python scripts/sample_digest.py

There are no options: it exits 0 after printing the lines, and 2 when
given any argument.
"""

import hashlib
import sys

import numpy as np

from ga41.checks import CheckContext, _check_rng, check_definitions

SEEDS = range(40)
STEP_H = 1e-3


def digests() -> list[tuple[str, str]]:
    """(check name, hex digest) per check, in registry order."""
    lines = []
    for definition in check_definitions():
        sha = hashlib.sha256()
        for seed in SEEDS:
            ctx = CheckContext(_check_rng(seed, definition.name), STEP_H)
            sha.update(np.fromiter(definition.run(ctx), dtype=float).tobytes())
        lines.append((definition.name, sha.hexdigest()))
    return lines


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv:
        print("error: sample_digest.py takes no arguments", file=sys.stderr)
        return 2
    for name, digest in digests():
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
