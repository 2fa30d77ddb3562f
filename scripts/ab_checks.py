#!/usr/bin/env python3
"""Time the checks of two ga41 trees in one process, interleaved.

    python scripts/ab_checks.py PARENT_SRC CHANGE_SRC [ROUNDS]

Each SRC is a directory that holds a ``ga41`` package, such as the
``src`` of a checkout.  Both trees are loaded under names of their own
(``ga41_parent``, ``ga41_change``), so neither depends on ``PYTHONPATH``.
Each round runs ``run_checks`` on both trees for each seed in SEEDS, the
parent first in even rounds and the change first in odd ones, so that
drift in the machine's speed falls on both sides alike.  ROUNDS defaults
to 10.

It prints one line per check with the median of its ``elapsed_ms`` on
each tree and their ratio (change over parent), then the same for the
whole pass (the sum of a run's ``elapsed_ms``), then the number of
rounds whose passes over SEEDS took the change less time in total than
the parent (ties count for neither side), then one line per seed that
says whether the two trees' ``report_json(..., omit_timings=True)`` texts
are byte-identical.  It exits 0 after printing when every seed's reports
are identical, 1 when any differ, and 2 on bad arguments, or when the
trees register different checks.
"""

import importlib
import importlib.util
import statistics
import sys
from pathlib import Path

SEEDS = (0, 1, 7)
TREES = ("parent", "change")


def load(src: Path, label: str):
    """The ga41.checks module of the tree in src, loaded as ga41_<label>."""
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
    return importlib.import_module(f"{name}.checks")


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


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        srcs, rounds = _parse(argv)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    checks = {label: load(src, label) for label, src in zip(TREES, srcs)}
    names = {label: [d.name for d in c.check_definitions()] for label, c in checks.items()}
    if names["parent"] != names["change"]:
        print("error: the trees register different checks", file=sys.stderr)
        return 2
    times = {label: {name: [] for name in names[label]} for label in TREES}
    passes = {label: [] for label in TREES}
    reports = {label: {} for label in TREES}
    for r in range(rounds):
        for seed in SEEDS:
            for label in TREES if r % 2 == 0 else TREES[::-1]:
                results = checks[label].run_checks(seed=seed)
                for result in results:
                    times[label][result.name].append(result.elapsed_ms)
                passes[label].append(sum(result.elapsed_ms for result in results))
                if r == 0:
                    text = checks[label].report_json(results, seed=seed, omit_timings=True)
                    reports[label][seed] = text
    print(f"{'check':32s} {'parent ms':>10s} {'change ms':>10s} {'ratio':>7s}")
    rows = [(name, times["parent"][name], times["change"][name]) for name in names["parent"]]
    rows.append((f"pass ({rounds} rounds x {len(SEEDS)} seeds)", passes["parent"], passes["change"]))
    for name, parent, change in rows:
        before, after = statistics.median(parent), statistics.median(change)
        print(f"{name:32s} {before:10.3f} {after:10.3f} {after / before:7.3f}")
    n = len(SEEDS)  # passes per round and tree
    totals = [[sum(passes[label][r * n : r * n + n]) for r in range(rounds)] for label in TREES]
    won = sum(c < p for p, c in zip(*totals))
    print(f"change faster in {won} of {rounds} rounds")
    same = [reports["parent"][seed] == reports["change"][seed] for seed in SEEDS]
    for seed, identical in zip(SEEDS, same):
        print(f"report seed {seed}: {'identical' if identical else 'differs'}")
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
