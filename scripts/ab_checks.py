#!/usr/bin/env python3
"""Time two ga41 trees in one process, interleaved; the harness of
``ab_fields.py``, ``ab_eigen.py`` and ``ab_pass.py`` too.

    python scripts/ab_checks.py PARENT_SRC CHANGE_SRC [ROUNDS]

Each SRC holds a ``ga41`` package, such as the ``src`` of a checkout,
loaded under a name of its own (``ga41_parent``, ``ga41_change``), so
neither depends on ``PYTHONPATH``.  ``run`` takes a suite, a function
``(src, label) -> {key: [zero-argument calls]}``, and times every key's
calls on both trees in each of ROUNDS rounds (10 by default), the parent
first in even rounds and the change first in odd ones.  It prints one
line per key and one for their total, with the median microseconds per
call on each tree and the ratio change / parent; then in how many rounds
the change took less time in total (ties count for neither).  It only
times; ``digest.py`` compares output bytes, one tree per process.  It
exits 0, and 2 on bad arguments or when the trees give different keys.

Here a key is a check, its calls ``run_checks`` of that check alone at
each seed of SEEDS.
"""

import importlib.util
import statistics
import sys
import time
from functools import partial
from pathlib import Path

SEEDS = (0, 1, 7)
TREES = ("parent", "change")


def load(src: Path, label: str, *names: str) -> list:
    """The modules ``names`` of the ga41 package in src, loaded as ga41_<label>."""
    name = f"ga41_{label}"
    package = src / "ga41"
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]  # an earlier load, of this tree or another
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return [importlib.import_module(f"{name}.{n}") for n in names]


def suite(src: Path, label: str) -> dict:
    """{check: [its run alone at each seed]} for the tree in src."""
    (checks,) = load(src, label, "checks")
    return {name: [partial(checks.run_checks, [name], seed=s) for s in SEEDS] for name in checks.check_names()}


def _parse(argv):
    if len(argv) not in (2, 3):
        raise ValueError("expected PARENT_SRC CHANGE_SRC [ROUNDS]")
    srcs = [Path(a) for a in argv[:2]]
    for src in srcs:
        if not (src / "ga41" / "__init__.py").is_file():
            raise ValueError(f"no ga41 package in {src}")
    rounds = argv[2] if len(argv) == 3 else "10"
    if not rounds.isdigit() or int(rounds) < 1:
        raise ValueError(f"ROUNDS must be a positive integer: {rounds}")
    return srcs, int(rounds)


def run(argv, suite, title: str) -> int:
    """Time suite on the two trees argv names, print, return the exit code."""
    try:
        srcs, rounds = _parse(sys.argv[1:] if argv is None else argv)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    trees = {label: suite(src, label) for label, src in zip(TREES, srcs)}
    keys = list(trees["parent"])
    if keys != list(trees["change"]):
        print("error: the trees give different keys", file=sys.stderr)
        return 2
    times = {label: {key: [] for key in keys} for label in TREES}
    for r in range(rounds):
        for key in keys:
            for label in TREES if r % 2 == 0 else TREES[::-1]:
                calls = trees[label][key]
                start = time.perf_counter()
                for call in calls:
                    call()
                times[label][key].append((time.perf_counter() - start) / len(calls) * 1e6)
    rows = {key: [times[label][key] for label in TREES] for key in keys}
    total = f"total ({rounds} rounds)"
    rows[total] = [[sum(each) for each in zip(*times[label].values())] for label in TREES]
    width = max(map(len, [title, *rows]))
    print(f"{title:{width}s} {'parent us':>11s} {'change us':>11s} {'ratio':>7s}")
    for key, (parent, change) in rows.items():
        before, after = statistics.median(parent), statistics.median(change)
        print(f"{key:{width}s} {before:11.2f} {after:11.2f} {after / before:7.3f}")
    won = sum(c < p for p, c in zip(*rows[total]))
    print(f"change faster in {won} of {rounds} rounds")
    return 0


def main(argv=None) -> int:
    return run(argv, suite, "check")


if __name__ == "__main__":
    sys.exit(main())
