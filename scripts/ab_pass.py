#!/usr/bin/env python3
"""Time the whole check registry pass of two ga41 trees in one process,
interleaved.

    python scripts/ab_pass.py PARENT_SRC CHANGE_SRC [ROUNDS]

A suite of the harness in ``ab_checks.py``, which loads, times, prints
and exits.  Its one key is the registry pass, ``run_checks`` of every
check at each seed of SEEDS.  That is what one ``ga41 verify`` run does,
with the checks sharing the process's caches as they do there, which
one-check calls do not show.
"""

import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # ab_checks sits beside this script
from ab_checks import SEEDS, load, run  # noqa: E402


def suite(src: Path, label: str) -> dict:
    """{"registry pass": [the pass at each seed]} for the tree in src."""
    (checks,) = load(src, label, "checks")
    return {"registry pass": [partial(checks.run_checks, seed=s) for s in SEEDS]}


def main(argv=None) -> int:
    return run(argv, suite, "pass")


if __name__ == "__main__":
    sys.exit(main())
