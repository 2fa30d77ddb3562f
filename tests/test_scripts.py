"""The plotting and demo scripts: defaults, output shape, exit codes."""

import csv
import importlib.util
import io
import math
from pathlib import Path

import pytest

from ga41 import ONE

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


def test_grid_defaults_write_81_rows_and_a_header(grid, capsys):
    assert grid.main(["0.3", "0.2", "-0.1", "1"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 82
    assert rows[0][:6] == ["x0", "x1", "x2", "x3", "x4", "1"]
    assert all(len(row) == 5 + 32 for row in rows)


@pytest.mark.parametrize(
    "extra",
    [
        ["--points", "-1"],
        ["--points", "0"],
        ["--extent", "nan"],
        ["--extent", "inf"],
        ["--axes", "0,x"],
    ],
)
def test_grid_rejects_bad_counts_and_extents(grid, capsys, extra):
    assert grid.main(["0", "0", "0", "1", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_demo_defaults_pass(demo, capsys):
    assert demo.main([]) == 0
    assert "worst residual" in capsys.readouterr().out


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
        return ONE * math.nan if h is not None else real(field, x)

    monkeypatch.setattr(demo, "vector_derivative", nan_when_numeric)
    assert demo.main(["--samples", "2"]) == 1
    assert "worst residual: nan" in capsys.readouterr().out
