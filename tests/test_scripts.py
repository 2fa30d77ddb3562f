"""The plotting and demo scripts: defaults, output shape, exit codes."""

import csv
import hashlib
import importlib.util
import io
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ga41 import MomentumVector, plane_wave
from ga41.checks import check_names

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def grid():
    return _load("planewave_grid")


@pytest.fixture(scope="module")
def demo():
    return _load("wavepacket_demo")


@pytest.fixture(scope="module")
def digest():
    return _load("digest")


def test_grid_defaults_write_81_rows_and_a_header(grid, capsys):
    assert grid.main(["0.3", "0.2", "-0.1", "1"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 82
    assert rows[0][:6] == ["x0", "x1", "x2", "x3", "x4", "1"]
    assert all(len(row) == 5 + 32 for row in rows)
    # 81 distinct points, each with the value of a pointwise evaluation
    points = [tuple(float(c) for c in row[:5]) for row in rows[1:]]
    assert len(set(points)) == 81
    wave = plane_wave(MomentumVector.from_mass_momentum((0.3, 0.2, -0.1), 1.0))
    for x, row in zip(points, rows[1:]):
        assert row[5:] == [f"{c:.12g}" for c in wave(np.array(x)).coeffs]


@pytest.mark.parametrize(
    "extra",
    [
        ["--points", "-1"],
        ["--points", "0"],
        ["--extent", "nan"],
        ["--extent", "inf"],
        ["--axes", "0,x"],
        ["--axes", "1,1"],
        ["--axes", "4,4"],
    ],
)
def test_grid_rejects_bad_counts_and_extents(grid, capsys, extra):
    assert grid.main(["0", "0", "0", "1", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("extent", ["1e308", "-1e308", "1.7976931348623157e308"])
@pytest.mark.parametrize("points", ["1", "9"])
def test_grid_rejects_an_extent_whose_grid_is_not_finite(grid, capsys, extent, points):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        args = ["0", "0", "0", "1", f"--extent={extent}", "--points", points, "--residuals"]
        assert grid.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --extent is too large: the grid it spans is not finite\n"


def test_grid_spans_the_largest_finite_extents(grid, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grid.main(["0", "0", "0", "1", "--extent", "8e307", "--residuals"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 82
    assert sorted({float(row[0]) for row in rows[1:]}) == [k * 2e307 for k in range(-4, 5)]


def test_demo_defaults_pass(demo, capsys):
    assert demo.main([]) == 0
    assert "worst residual" in capsys.readouterr().out


@pytest.mark.parametrize("degree", ["0", "1", "3"])
def test_demo_passes_at_every_degree(demo, capsys, degree):
    # at degree 3 the central difference carries a truncation term of a
    # few 1e-8, within its own bound but above the analytic one
    assert demo.main(["--degree", degree]) == 0
    assert "worst residual" in capsys.readouterr().out


def test_demo_fails_on_a_wrong_numeric_derivative(demo, capsys, monkeypatch):
    real = demo.vector_derivative

    def off_when_numeric(field, x, h=None):
        out = real(field, x, h=h)
        return out + 1e-3 if h is not None else out

    monkeypatch.setattr(demo, "vector_derivative", off_when_numeric)
    assert demo.main(["--degree", "3"]) == 1
    assert "worst residual: 1.00e-03" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra",
    [
        ["--mass", "nan"],
        ["--mass", "inf"],
        ["--mass", "1e200"],
        ["--degree", "5"],
        ["--degree", "-1"],
        ["--samples", "0"],
        ["--samples", "-3"],
    ],
)
def test_demo_rejects_bad_input(demo, capsys, extra):
    assert demo.main(extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_demo_fails_on_a_nan_residual(demo, capsys, monkeypatch):
    real = demo.vector_derivative

    def nan_when_numeric(field, x, h=None):
        out = real(field, x, h=h)
        return out * math.nan if h is not None else out

    monkeypatch.setattr(demo, "vector_derivative", nan_when_numeric)
    assert demo.main(["--samples", "2"]) == 1
    assert "worst residual: nan" in capsys.readouterr().out


def test_digest_prints_the_report_line_then_one_line_per_check_then_per_suite_key(
    digest, capsys, monkeypatch
):
    runs = []

    def run_checks(seed=0, step_h=1e-3):
        runs.append((seed, step_h))
        return [f"résumé {seed} {step_h}"]

    def report_json(results, seed, omit_timings=False):
        assert omit_timings is True
        return f"{results[0]} seed={seed};"

    def definition(name, offsets):
        def run(ctx):  # the stub generator is the seed itself
            yield from (ctx.rng + offset for offset in offsets)
            yield ctx.step_h

        return SimpleNamespace(name=name, run=run)

    def calls(n):  # an array, then a tuple of arrays
        return [lambda: np.arange(3.0) + n, lambda: (np.ones(2), np.int8(n))]

    def suite(keys):  # on the tree that gives the registry lines
        return lambda src, label: {key: calls(len(key)) for key in keys} if src == Path(SRC) else {}

    checks = (("zeta", (0.5, -0.5)), ("alpha", (-1.0,)), ("step", ()))
    suites = (("b key", "a"), ("crosscheck",))
    monkeypatch.setattr(digest, "run_checks", run_checks)
    monkeypatch.setattr(digest, "report_json", report_json)
    monkeypatch.setattr(digest, "_check_rng", lambda seed, name: seed)
    monkeypatch.setattr(digest, "check_definitions", lambda: tuple(definition(*c) for c in checks))
    monkeypatch.setattr(digest, "SUITES", (digest.registry, *(suite(keys) for keys in suites)))
    assert digest.main([]) == 0
    want = [(s, 1e-3) for s in range(40)] + [(3, 1e-4), (3, 5e-4), (3, 2e-3)]
    assert runs == want
    text = "".join(f"résumé {s} {h} seed={s};" for s, h in want)
    lines = [f"report {hashlib.sha256(text.encode('utf-8')).hexdigest()}"]
    for name, offsets in checks:  # registry order, not sorted
        samples = [[s + offset for offset in offsets] + [1e-3] for s in range(40)]
        lines.append(f"{name} {hashlib.sha256(np.array(samples, dtype=float).tobytes()).hexdigest()}")
    for key in (key for keys in suites for key in keys):  # suite order, not sorted
        outputs = np.arange(3.0) + len(key), np.ones(2), np.int8(len(key))
        lines.append(f"{key} {hashlib.sha256(b''.join(o.tobytes() for o in outputs)).hexdigest()}")
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_digest_takes_no_arguments(digest, capsys):
    assert digest.main(["--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


SRC = str(SCRIPTS.parent / "src")
FIELD_KEYS = [f"{kind} {op}" for kind in ("plane", "column0", "column3", "packet1", "packet2", "packet3")
              for op in ("value", "derivative", "derivative_h", "laplacian", "covariant")
              if not (kind.startswith("column") and op == "covariant")]
EIGEN_KEYS = ["dirac_system", "order_eigensystem", "from_matrix", "to_matrix",
              "energy_project", "helicity_project", "crosscheck"]
#: script: its key column's title and its keys in order
SUITES = {
    "ab_checks": ("check", list(check_names())),
    "ab_fields": ("field operator", FIELD_KEYS),
    "ab_eigen": ("call", EIGEN_KEYS),
    "ab_pass": ("pass", ["registry pass"]),
}
#: a one-ulp mutant as (module, text, its replacement), and the digest
#: lines of the field and eigen suites that it moves
MUTANTS = {
    "packet_mass": (
        ("monogenic", "(energy * ONE + mass * e(0, 4))",
         "(energy * ONE + mass * 1.0000000000000002 * e(0, 4))"),
        [key for key in FIELD_KEYS if key.startswith("packet")],
    ),
    "lam_sign": (
        ("dirac", "_LAM_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])",
         "_LAM_SIGNS = np.array([1.0, 1.0, -1.0, -1.0000000000000002])"),
        [key for key in FIELD_KEYS if key.startswith("column3")] + ["dirac_system", "order_eigensystem"],
    ),
}

#: script: what its inputs must keep (the seeds 0, 1 and 7; eight points,
#: one with a -0.0 coordinate; five momenta, the first at p = 0; the
#: pass at the seeds 0, 1 and 7)
INPUTS = {
    "ab_checks": lambda ab: ab.SEEDS == (0, 1, 7),
    "ab_fields": lambda ab: ab.POINTS.shape == (8, 5) and math.copysign(1.0, ab.POINTS[0, 3]) < 0,
    "ab_eigen": lambda ab: len(ab.MOMENTA) == 5 and ab.MOMENTA[0][0] == (0.0, 0.0, 0.0),
    "ab_pass": lambda ab: ab.SEEDS == (0, 1, 7),
}


@pytest.fixture(scope="module", params=list(SUITES))
def ab(request):
    """(the script's name, the script loaded as a module), one per suite."""
    return request.param, _load(request.param)


def _mutant(tmp_path, module, text, replacement):
    """A copy of this tree's ga41 with one text of one module replaced."""
    shutil.copytree(Path(SRC) / "ga41", tmp_path / "ga41", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "ga41" / f"{module}.py"
    source = path.read_text()
    assert source.count(text) == 1
    path.write_text(source.replace(text, replacement))
    return str(tmp_path)


def test_ab_times_a_tree_against_itself(ab, capsys):
    title, keys = SUITES[ab[0]]
    assert INPUTS[ab[0]](ab[1])
    assert ab[1].main([SRC, SRC, "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == [*title.split(), "parent", "us", "parent", "IQR", "change", "us", "ratio"]
    assert [line.rsplit(maxsplit=4)[0] for line in lines[1:-1]] == [*keys, "total (2 rounds)"]
    for line in lines[1:-1]:
        parent, iqr, change, ratio = (float(x) for x in line.split()[-4:])
        assert parent > 0.0 and iqr >= 0.0 and change > 0.0 and ratio > 0.0
    won = lines[-1].split()
    assert won[:3] == ["change", "faster", "in"] and won[4:] == ["of", "2", "rounds"]
    assert int(won[3]) in (0, 1, 2)


def _manifest(text):
    """{key: digest} of digest.py's lines, in order."""
    return dict(line.rsplit(" ", 1) for line in text.splitlines())


RECORDED = (Path(__file__).resolve().parent / "data" / "digest.txt").read_text()


@pytest.fixture(scope="module")
def printed():
    """digest.py's stdout on the tree in src alone, in a process of its own, as a re-recording runs it."""
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "digest.py")], env=env, capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("key", list(_manifest(RECORDED)))
def test_digest_prints_the_recorded_line_of_each_key(printed, key):
    # one case per recorded line, so a moved or vanished line fails under its key's name
    assert _manifest(printed).get(key) == _manifest(RECORDED)[key]


def test_digest_prints_the_recorded_manifest(printed):
    got, want = _manifest(printed), _manifest(RECORDED)
    moved = [key for key in {**want, **got} if got.get(key) != want.get(key)]
    assert not moved, f"lines moved, appeared or vanished: {', '.join(moved)}"
    assert printed == RECORDED  # and in the recorded order


@pytest.fixture(scope="module")
def suite_lines(digest):
    """digest.py's (key, digest) lines of the field and eigen suites on this tree."""
    return list(digest.digests(Path(SRC), digest.SUITES[1:]))


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_digest_moves_exactly_the_suite_lines_of_a_one_ulp_mutant(digest, suite_lines, tmp_path, mutant):
    change, moved = MUTANTS[mutant]
    lines = digest.digests(Path(_mutant(tmp_path, *change)), digest.SUITES[1:])
    assert [key for (key, got), (_, want) in zip(lines, suite_lines) if got != want] == moved


#: script: a mutant that moves its outputs' bytes; a report byte added at
#: seed 7 for the checks and the pass
REPORT_BYTE = ("checks", "json.dumps(report, indent=2, allow_nan=False)",
               "json.dumps(report, indent=2, allow_nan=False) + ' ' * (seed == 7)")
BYTE_MUTANTS = {"ab_checks": REPORT_BYTE, "ab_fields": MUTANTS["packet_mass"][0],
                "ab_eigen": MUTANTS["lam_sign"][0], "ab_pass": REPORT_BYTE}


def test_ab_only_times_and_exits_0_when_the_outputs_differ(ab, capsys, tmp_path):
    assert ab[1].main([SRC, _mutant(tmp_path, *BYTE_MUTANTS[ab[0]]), "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(maxsplit=4)[0] for line in lines[1:-1]] == [*SUITES[ab[0]][1], "total (1 rounds)"]
    assert lines[-1].split()[:3] == ["change", "faster", "in"]


def test_ab_exits_2_when_the_trees_give_different_keys(ab, capsys, tmp_path, monkeypatch):
    script, module = ab
    if script == "ab_checks":  # the second tree registers no associativity check
        append = "_REGISTRY.append(CheckDefinition(name, anchor, tolerance, fn))"
        change = _mutant(tmp_path, "checks", append, f"name == 'associativity' or {append}")
    else:  # these suites' keys do not depend on the tree; the second one loses its last
        suite = module.suite

        def last_dropped(src, label):
            return dict(list(suite(src, label).items())[: -1 if label == "change" else None])

        monkeypatch.setattr(module, "suite", last_dropped)
        change = SRC
    assert module.main([SRC, change, "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the trees give different keys\n"


@pytest.mark.parametrize(
    "argv",
    [[], [SRC], [SRC, SRC, "0"], [SRC, SRC, "two"], [SRC, SRC, "-1"], [SRC, SRC, "2", "3"],
     [SRC, str(SCRIPTS)], [str(SCRIPTS), SRC]],
)
def test_ab_rejects_bad_arguments(ab, argv, capsys):
    assert ab[1].main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
