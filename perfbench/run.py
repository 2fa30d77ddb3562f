#!/usr/bin/env python3
"""ga41 benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify_full --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ga41 is imported from ``src/`` of that
checkout and from nowhere else.  With ``--trace 0`` the run measures the
end-to-end metrics with no wrappers installed; with ``--trace 1`` it
measures the per-layer metrics in a separate traced pass.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The environment and the full
run record go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads; children inherit it
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh interpreters timed for setup_s, after one untimed child
SETUP_CHILDREN = 45
#: fresh interpreters run under -X importtime for the import metrics
IMPORT_CHILDREN = 5
#: seconds a fresh interpreter may take before the run fails
CHILD_TIMEOUT = 60
#: reference kernel time that defines the nominal machine (see reference_s)
REF_NOMINAL_S = 0.020
#: iterations of the reference kernel; about REF_NOMINAL_S on the nominal machine
REF_LOOPS = 1500
#: ops run untimed before the timed loop of a --trace 0 run
WARMUP_OPS = {"verify_full": 1, "field_sweep": 16, "eigen_sweep": 32}
#: modules whose import time is reported: numpy cumulative, ga41 self
IMPORT_MODULES = (
    "numpy",
    "ga41",
    "ga41.algebra",
    "ga41.matrices",
    "ga41.monogenic",
    "ga41.dirac",
    "ga41.projectors",
    "ga41.frames",
    "ga41.checks",
    "ga41.cli",
)
WORKLOAD_NAMES = ("verify_full", "field_sweep", "eigen_sweep")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_ga41():
    """Import ga41 from this checkout's src/, or exit with code 2."""
    if not (SRC / "ga41" / "__init__.py").is_file():
        print(f"error: {SRC / 'ga41'} not found; run from the root of a ga41 checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ga41

    if Path(ga41.__file__).resolve().parent != SRC / "ga41":
        print(f"error: ga41 imported from {ga41.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead
        blas = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_pin": BLAS_PIN,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }


# -- end-to-end --------------------------------------------------------------

_REF_VECTOR = np.linspace(-1.0, 1.0, 32)
_REF_MATRIX = np.eye(4, dtype=complex) + 0.1j


def reference_s() -> float:
    """Time one run of a fixed kernel that does not touch ga41.

    The kernel mixes what ga41 ops spend their time on: interpreter
    loops, small numpy arrays and 4x4 complex products.  The speed of a
    shared machine drifts by tens of percent over seconds to minutes;
    timing this kernel between blocks measures the drift, and dividing
    it out reports every end-to-end time on the nominal machine, where
    the kernel takes REF_NOMINAL_S.
    """
    start = perf_counter()
    acc = 0.0
    for i in range(REF_LOOPS):
        v = np.outer(_REF_VECTOR, _REF_VECTOR).ravel()[:32] * (i % 7)
        acc += float(np.max(np.abs(v))) + float(np.abs(np.trace(_REF_MATRIX @ _REF_MATRIX)))
        cell = {"i": i, "acc": acc}
        acc += cell["i"] * 1e-9
    elapsed = perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return elapsed



def run_ops(workload, cases, gate, count, first=0, tracer=None):
    """Closed loop, one caller: ``count`` ops on cases[first],
    cases[first + 1], ... (cycling), back to back.

    Returns (latencies in s, wall s, failed count, largest gate ratio,
    outputs).  The outputs are gated after the loop, with no wrapper
    recording; an op that raises counts as failed.
    """
    from workloads import gate_failed, worst

    latencies, outputs = [], []
    start = t1 = perf_counter()
    for n in range(count):
        if tracer is not None:
            tracer.op, tracer.active = n, True
        t0 = perf_counter()
        try:
            out = workload.op(cases[(first + n) % len(cases)])
        except Exception:  # a crashing op is a failed op; keep measuring
            traceback.print_exc()
            out = None
        t1 = perf_counter()
        if tracer is not None:
            tracer.active = False
        latencies.append(t1 - t0)
        outputs.append(out)
    wall = t1 - start
    failed, ratios = 0, [0.0]
    for n, out in enumerate(outputs):
        if out is None:
            failed += 1
            continue
        gated = gate(cases[(first + n) % len(cases)], out)
        failed += gate_failed(gated)
        ratios.extend(gated.values())
    return latencies, wall, failed, worst(ratios), outputs


def setup_seconds() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters running ``import ga41.cli``, and
    the reference kernel times after each child, the untimed first one
    included, so that every timed child has a reference on both sides."""
    cmd = [sys.executable, "-c", "import ga41.cli"]
    times, refs = [], []
    for n in range(SETUP_CHILDREN + 1):
        t0 = perf_counter()
        subprocess.run(cmd, env=_child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT,
                       stdout=subprocess.DEVNULL)
        if n:  # the first child may compile bytecode
            times.append(perf_counter() - t0)
        refs.append(reference_s())
    return times, refs


def slowness(refs: list[float]) -> list[float]:
    """Slowness of the machine over each interval between two reference
    timings: their mean over REF_NOMINAL_S."""
    return [(a + b) / (2.0 * REF_NOMINAL_S) for a, b in zip(refs, refs[1:])]


def end_to_end(name, seed, seconds):
    """Timed blocks of ops, back to back, until ``seconds`` pass.

    A block is a fixed run of ops (one pass over the inputs, or one
    registry pass), so every run does whole passes and the same mix of
    work.  The reference kernel runs before the first block and after
    each.  Op latencies are divided by the machine's slowness over their
    block; ops/s is multiplied by the slowness over the whole run (the
    mean of all reference timings, which is steadier than any one).  The
    raw figures go to the record.
    """
    import workloads

    workload = workloads.WORKLOADS[name]
    cases = workload.build(seed)
    gate = workload.make_gate()
    block = workload.block_ops or len(cases)
    warmup = WARMUP_OPS[name]
    _, _, failed, ratio, _ = run_ops(workload, cases, gate, count=warmup)
    attempted = warmup
    refs = [reference_s() for _ in range(3)][-1:]
    block_s, ms, nominal_ms = [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds:
        latencies, wall, block_failed, block_ratio, _ = run_ops(
            workload, cases, gate, count=block, first=len(block_s) * block
        )
        attempted += block
        failed += block_failed
        ratio = workloads.worst([ratio, block_ratio])
        block_s.append(wall)
        ms.extend(t * 1e3 for t in latencies)
        refs.append(reference_s())
        slow = slowness(refs[-2:])[0]
        nominal_ms.extend(t * 1e3 / slow for t in latencies)
    setups, setup_refs = setup_seconds()
    nominal_setups = [t / slow for t, slow in zip(setups, slowness(setup_refs))]
    raw = {
        "ops_per_s": len(ms) / sum(block_s),
        "op_ms_p50": statistics.median(ms),
        "setup_s": statistics.median(setups),
    }
    run_slowness = statistics.fmean(refs) / REF_NOMINAL_S
    metrics = {
        "ops_per_s": (raw["ops_per_s"] * run_slowness, "1/s"),
        "op_ms_p50": (statistics.median(nominal_ms), "ms"),
        "setup_s": (statistics.median(nominal_setups), "s"),
    }
    extra = {
        "raw": raw,
        "slowness": run_slowness,
        "ops_timed": len(ms),
        "blocks": len(block_s),
        "failed_ratio": failed / attempted,
        "worst_gate_ratio": ratio,
        # op_ms_p90 needs at least ten ops beyond it
        "op_ms_p90": statistics.quantiles(nominal_ms, n=10)[-1] if len(ms) >= 100 else None,
        "block_s": block_s,
        "reference_s": refs,
        "setup_children_s": setups,
        "setup_reference_s": setup_refs,
    }
    return metrics, attempted, failed, extra


# -- per layer ---------------------------------------------------------------


def import_ms() -> dict:
    """Median -X importtime of each module over fresh interpreters."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import ga41.cli"]
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_CHILDREN):
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, module = (f.strip() for f in line[12:].split("|"))
            if module in samples:
                us = cumulative_us if module == "numpy" else self_us
                samples[module].append(float(us) / 1e3)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def per_layer(name, seed):
    import workloads
    from ga41.checks import check_names
    from spans import Tracer, installed, layer_metrics

    workload = workloads.WORKLOADS[name]
    cases = workload.build(seed)
    n = len(cases)
    gate = workload.make_gate()
    warmup = min(WARMUP_OPS[name], n)
    _, _, warm_failed, _, _ = run_ops(workload, cases, gate, count=warmup)
    _, plain_wall, plain_failed, ratio, outputs = run_ops(workload, cases, gate, count=n)
    check_ms = {}
    if name == "verify_full":
        # CheckResult.elapsed_ms of the untraced pass, per op
        for results in outputs:
            for r in results:
                check_ms[r.name] = check_ms.get(r.name, 0.0) + r.elapsed_ms / n

    tracer = Tracer()
    with installed(tracer):
        traced_cases = workload.build(seed)
        _, traced_wall, traced_failed, traced_ratio, _ = run_ops(
            workload, traced_cases, gate, count=n, tracer=tracer
        )
    OUT.mkdir(exist_ok=True)
    spans = tracer.dump(OUT / f"spans-{name}-seed{seed}.npz")

    metrics = {}
    for metric, value in layer_metrics(tracer, n).items():
        unit = "calls/op" if metric.endswith("_calls") else "s/op"
        metrics[metric] = (value, unit)
    for check in check_names():
        metrics[f"checks.{check}_ms"] = (check_ms.get(check, 0.0), "ms/op")
    for module, ms in import_ms().items():
        metrics[f"{module}.import_ms"] = (ms, "ms")
    # traced ops/s over untraced ops/s, the same ops in the same process
    metrics["trace.overhead_ratio"] = (plain_wall / traced_wall, "ratio")
    extra = {
        "spans": spans,
        "ops_traced": n,
        "untraced_ops_per_s": n / plain_wall,
        "traced_ops_per_s": n / traced_wall,
        "worst_gate_ratio": workloads.worst([ratio, traced_ratio]),
    }
    return metrics, warmup + 2 * n, warm_failed + plain_failed + traced_failed, extra


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ga41 benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    _import_ga41()
    import workloads

    problems = workloads.gate_self_test()
    if problems:
        print("gate self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 3
    print("gate self-test: NaN and inf residuals fail every gate, zero and doubled fields fail")

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, attempted, failed, extra = per_layer(args.workload, args.seed)
    else:
        metrics, attempted, failed, extra = end_to_end(args.workload, args.seed, args.seconds)

    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value:.6g} {unit}")
    for key, value in extra.items():
        if not isinstance(value, list):
            print(f"{key} = {value}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "extra": extra, "result": result}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
