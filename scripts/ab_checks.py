#!/usr/bin/env python3
"""Time two ga41 trees in one process, interleaved, and compare their
output bytes; the harness of ``ab_fields.py`` and ``ab_eigen.py`` too.

    python scripts/ab_checks.py PARENT_SRC CHANGE_SRC [ROUNDS]

Each SRC holds a ``ga41`` package, such as the ``src`` of a checkout,
loaded under a name of its own (``ga41_parent``, ``ga41_change``), so
neither depends on ``PYTHONPATH``.  ``run`` takes a suite, a function
``(src, label) -> {key: [zero-argument calls]}``, and times every key's
calls on both trees in each of ROUNDS rounds (10 by default), the parent
first in even rounds and the change first in odd ones.  It prints one
line per key and one for their total, with the median microseconds per
call on each tree and the ratio change / parent; then in how many rounds
the change took less time in total (ties count for neither); then
whether the outputs of the first round are byte-identical, naming the
keys that differ.  An output is a str, an array, a tuple of them or a
zero-argument call giving one, made bytes untimed.  It exits 0 when all
agree, 1 when any differ, and 2 on bad arguments or different keys.

Here a key is a check, its calls ``run_checks`` of that check alone at
each seed of SEEDS, and their bytes its timing-free ``report_json``.
"""

import importlib.util
import statistics
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

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

    def run_one(name, seed):  # the run is timed, its report is not
        results = checks.run_checks([name], seed=seed)
        return lambda: checks.report_json(results, seed, omit_timings=True)

    return {d.name: [partial(run_one, d.name, s) for s in SEEDS] for d in checks.check_definitions()}


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


def _bytes(value) -> bytes:
    """The bytes of one call's output: a str, an array or a tuple of them,
    or a zero-argument call that gives one."""
    if callable(value):
        value = value()
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, tuple):
        return b"".join(_bytes(v) for v in value)
    return np.asarray(value).tobytes()


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
    outputs = {label: {} for label in TREES}
    for r in range(rounds):
        for key in keys:
            for label in TREES if r % 2 == 0 else TREES[::-1]:
                calls = trees[label][key]
                start = time.perf_counter()
                values = [call() for call in calls]
                times[label][key].append((time.perf_counter() - start) / len(calls) * 1e6)
                if r == 0:
                    outputs[label][key] = [_bytes(v) for v in values]
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
    differ = [key for key in keys if outputs["parent"][key] != outputs["change"][key]]
    print(f"outputs: differ at {', '.join(differ)}" if differ else "outputs: identical")
    return 1 if differ else 0


def main(argv=None) -> int:
    return run(argv, suite, "check")


if __name__ == "__main__":
    sys.exit(main())
