"""The plotting and demo scripts: defaults, output shape, exit codes."""

import csv
import hashlib
import importlib.util
import io
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ga41 import MomentumVector, plane_wave

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


@pytest.fixture(scope="module")
def ab():
    return _load("ab_checks")


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


def _stub_reports(digest, monkeypatch):
    """Stub the verify runs; return the runs made and the expected line."""
    runs = []

    def run_checks(seed=0, step_h=1e-3):
        runs.append((seed, step_h))
        return [f"résumé {seed} {step_h}"]

    def report_json(results, seed, omit_timings=False):
        assert omit_timings is True
        return f"{results[0]} seed={seed};"

    monkeypatch.setattr(digest, "run_checks", run_checks)
    monkeypatch.setattr(digest, "report_json", report_json)
    want = [(s, 1e-3) for s in range(40)] + [(3, 1e-4), (3, 5e-4), (3, 2e-3)]
    text = "".join(f"résumé {s} {h} seed={s};" for s, h in want)
    return runs, want, hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stub_registry(digest, monkeypatch):
    """Stub the registry; return the expected ``name digest`` lines."""

    def definition(name, offsets):
        def run(ctx):  # the stub generator is the seed itself
            yield from (ctx.rng + offset for offset in offsets)
            yield ctx.step_h

        return SimpleNamespace(name=name, run=run)

    checks = (("zeta", (0.5, -0.5)), ("alpha", (-1.0,)), ("step", ()))
    monkeypatch.setattr(digest, "_check_rng", lambda seed, name: seed)
    monkeypatch.setattr(
        digest, "check_definitions", lambda: tuple(definition(*c) for c in checks)
    )
    want = []
    for name, offsets in checks:
        samples = [[s + offset for offset in offsets] + [1e-3] for s in range(40)]
        sha = hashlib.sha256(np.array(samples, dtype=float).tobytes()).hexdigest()
        want.append(f"{name} {sha}")
    return want


def test_digest_hashes_the_reports_of_seeds_0_to_39_then_three_steps(digest, capsys, monkeypatch):
    runs, want, report = _stub_reports(digest, monkeypatch)
    _stub_registry(digest, monkeypatch)
    assert digest.main([]) == 0
    assert runs == want
    assert capsys.readouterr().out.splitlines()[0] == report


def test_digest_hashes_each_checks_samples_of_seeds_0_to_39(digest, capsys, monkeypatch):
    _stub_reports(digest, monkeypatch)
    want = _stub_registry(digest, monkeypatch)
    assert digest.main([]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == want


def test_digest_prints_the_report_line_then_one_line_per_check(digest, capsys, monkeypatch):
    _, _, report = _stub_reports(digest, monkeypatch)
    lines = _stub_registry(digest, monkeypatch)
    assert digest.main([]) == 0
    out = capsys.readouterr().out
    assert out == "\n".join([report, *lines]) + "\n"
    # registry order, not sorted: the stub lists zeta before alpha
    assert [line.split(" ")[0] for line in out.splitlines()[1:]] == ["zeta", "alpha", "step"]
    assert all(len(line.split(" ")[-1]) == 64 for line in out.splitlines())


def test_digest_takes_no_arguments(digest, capsys):
    assert digest.main(["--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


SRC = str(SCRIPTS.parent / "src")


def test_ab_checks_times_a_tree_against_itself(ab, capsys):
    assert ab.main([SRC, SRC, "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [d.name for d in ab.load(Path(SRC), "change").check_definitions()]
    assert lines[0].split() == ["check", "parent", "ms", "change", "ms", "ratio"]
    assert [line.split()[0] for line in lines[1 : 1 + len(names)]] == names
    assert lines[1 + len(names)].startswith("pass (2 rounds x 3 seeds)")
    for line in lines[1 : 2 + len(names)]:
        parent, change, ratio = (float(x) for x in line.split()[-3:])
        assert parent > 0.0 and change > 0.0 and ratio > 0.0
    won = lines[2 + len(names)].split()
    assert won[:3] == ["change", "faster", "in"] and won[4:] == ["of", "2", "rounds"]
    assert int(won[3]) in (0, 1, 2)
    assert lines[3 + len(names) :] == [f"report seed {s}: identical" for s in ab.SEEDS]


@pytest.mark.parametrize(
    "argv",
    [[], [SRC], [SRC, SRC, "0"], [SRC, SRC, "two"], [SRC, SRC, "2", "3"], [SRC, str(SCRIPTS)]],
)
def test_ab_checks_rejects_bad_arguments(ab, capsys, argv):
    assert ab.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
