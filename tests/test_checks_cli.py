"""Verification registry semantics and the command-line surface.

The recorded reports ``tests/data/report_seed{0,1,7}.json`` are
``report_json(run_checks(seed=s), s, omit_timings=True)``.  To re-record
them after an intended change of a residual's bytes:

    PYTHONPATH=src python tests/test_checks_cli.py
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ga41
from ga41 import Multivector, MomentumVector, algebra, checks, monogenic, plane_wave
from ga41.algebra import _sample_array
from ga41.checks import (
    EXPECTED_CHECK_NAMES,
    check_definitions,
    check_names,
    report_dict,
    report_json,
    run_checks,
)
from ga41.cli import main


def test_registry_complete_and_ordered():
    assert check_names() == EXPECTED_CHECK_NAMES
    assert len(EXPECTED_CHECK_NAMES) == 31
    assert len(set(EXPECTED_CHECK_NAMES)) == 31
    for d in check_definitions():
        assert d.anchor
        assert d.tolerance >= 0.0


def test_full_run_passes(full_run_seed0):
    results = full_run_seed0
    assert len(results) == 31
    assert [r.name for r in results] == list(EXPECTED_CHECK_NAMES)
    for r in results:
        assert r.status == "pass", (r.name, r.residual, r.tolerance)
        assert r.residual <= r.tolerance


def test_rng_keyed_per_check(full_run_seed0):
    # a check sees the same stream whether run alone or with the others
    alone = run_checks(names=["dirac_spectrum"], seed=0)[0]
    together = next(r for r in full_run_seed0 if r.name == "dirac_spectrum")
    assert alone.residual == together.residual


def test_seed_changes_randomized_residuals():
    a = next(r for r in run_checks(names=["phi_homomorphism"], seed=0))
    b = next(r for r in run_checks(names=["phi_homomorphism"], seed=1))
    assert a.status == b.status == "pass"
    assert a.residual != b.residual


def test_run_checks_validation():
    with pytest.raises(ValueError):
        run_checks(names=["no_such_check"])
    with pytest.raises(ValueError, match="collection of check names"):
        run_checks("blade_squares")
    with pytest.raises(ValueError):
        run_checks(tolerances={"no_such_check": 1.0})
    with pytest.raises(ValueError):
        run_checks(step_h=0.0)
    for value in (math.nan, math.inf, -1.0, None, [1], True, "1e-3"):
        with pytest.raises(ValueError, match="finite and non-negative"):
            run_checks(tolerances={"blade_squares": value})


def test_tolerance_override_forces_failure():
    results = run_checks(
        names=["monogenic_residual"], tolerances={"monogenic_residual": 1e-20}
    )
    assert results[0].status == "fail"
    assert results[0].residual > 1e-20


def test_step_h_feeds_derivative_checks():
    # the tolerance is anchored at the default step; a much larger step
    # must push the truncation error past it
    coarse = run_checks(names=["monogenic_residual"], seed=3, step_h=2e-3)[0]
    fine = run_checks(names=["monogenic_residual"], seed=3, step_h=1e-3)[0]
    assert coarse.status == fine.status == "pass"
    assert coarse.residual != fine.residual
    huge = run_checks(names=["monogenic_residual"], seed=3, step_h=1e-2)[0]
    assert huge.status == "fail"


@pytest.mark.parametrize("step", ["1e30", "1e3"])
def test_monogenic_residual_fails_a_step_that_sees_no_second_derivative(step):
    # such steps cannot resolve a second derivative, so the positive
    # control's known laplacian -(g.g) f is missed by far
    result = run_checks(names=["monogenic_residual"], seed=0, step_h=float(step))[0]
    assert result.status == "fail" and result.residual > 1e5
    code, _ = _run_quietly(["verify", "--check", "monogenic_residual", "--step-h", step])
    assert code == 1


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=1.8e307, max_value=1.7976931348623157e308))
@example(1e308)
def test_derivative_order_fails_a_step_whose_base_overflows(h):
    # the check differences at 10 h, which is inf for these finite steps
    result = run_checks(names=["derivative_order"], seed=0, step_h=h)[0]
    assert result.status == "fail" and result.residual == math.inf


def test_verify_runs_every_check_at_a_step_whose_base_overflows():
    out = io.StringIO()
    with np.errstate(all="ignore"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--step-h", "1e308"])
    assert code == 1
    failed = [line.split()[1] for line in out.getvalue().splitlines() if line.startswith("FAIL")]
    assert failed == ["monogenic_residual", "derivative_order"]
    assert "29 passed, 2 failed, 31 run" in out.getvalue()


def test_verify_at_an_overflowing_step_writes_nothing_to_stderr():
    # the overflowing samples fail their checks; numpy's warnings about
    # them must not reach the terminal
    paths = [str(Path(ga41.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "ga41", "verify", "--step-h", "1e308"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert "29 passed, 2 failed, 31 run" in proc.stdout


GOLDEN = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_report_matches_the_recorded_report(seed):
    # recorded by this module's __main__; any change to a residual's last
    # bit shows here
    want = (GOLDEN / f"report_seed{seed}.json").read_text()
    assert report_json(run_checks(seed=seed), seed, omit_timings=True) == want


#: (check, _product calls, _to_matrices calls, _from_matrices calls, samples)
BATCHED_CHECKS = (
    ("associativity", 4, 0, 0, 1000),
    ("vector_decomposition", 2, 0, 0, 400),
    ("cross_product_link", 2, 0, 0, 400),
    ("phi_homomorphism", 1, 3, 0, 1000),
    ("phi_round_trip", 0, 2, 2, 1000),
)


@pytest.mark.parametrize("name, products, forward, inverse, samples", BATCHED_CHECKS)
def test_sampled_checks_make_a_fixed_number_of_batched_calls(
    monkeypatch, name, products, forward, inverse, samples
):
    # each kernel call handles every sample at once, so the call count is
    # fixed and far below the sample count; no single-multivector product
    # is made per sample
    calls = Counter()

    def counted(label, fn):
        def wrapper(*args):
            calls[label] += 1
            return fn(*args)

        return wrapper

    for label in ("_product", "_to_matrices", "_from_matrices"):
        monkeypatch.setattr(checks, label, counted(label, getattr(checks, label)))
    for op in ("__mul__", "__xor__", "__or__"):
        monkeypatch.setattr(Multivector, op, counted(op, getattr(Multivector, op)))
    definition = next(d for d in check_definitions() if d.name == name)
    ctx = checks.CheckContext(checks._check_rng(0, name), 1e-3)
    assert _sample_array(definition.run(ctx)).size == samples
    assert calls == Counter(_product=products, _to_matrices=forward, _from_matrices=inverse)


#: (check, _rows calls, _partials calls, _product calls): the batched
#: calls of the fields the check builds through harmonic_field, and the
#: product kernel calls, building the fields included; a wave's A I and
#: the flat vector derivative are signed gathers, and the latter calls the
#: product kernel only on non-finite partials
FIELD_CHECKS = (
    ("monogenic_residual", 2, 1, 0),
    ("derivative_order", 2, 1, 0),
    ("phase_sign_exclusivity", 0, 1, 0),
    ("dirac_column_fields", 1, 1, 1),
)


@pytest.mark.parametrize("share", [1, 3])
@pytest.mark.parametrize("name, rows, partials, products", FIELD_CHECKS)
def test_field_checks_make_calls_that_do_not_depend_on_the_sample_count(
    monkeypatch, name, rows, partials, products, share
):
    # the check draws a third of its momenta when share is 3; it builds one
    # family of waves and makes the same calls either way
    calls = Counter()

    def counted(label, fn):
        def wrapper(*args):
            calls[label] += 1
            return fn(*args)

        return wrapper

    def counted_field(*args):
        field = real_field(*args)
        return dataclasses.replace(
            field, _rows=counted("_rows", field._rows), _partials=counted("_partials", field._partials)
        )

    real_field, real_draw = checks.harmonic_field, checks._random_momenta
    monkeypatch.setattr(checks, "harmonic_field", counted_field)
    monkeypatch.setattr(
        checks, "_random_momenta",
        lambda rng, count, *args, **kw: real_draw(rng, -(-count // share), *args, **kw),
    )
    for module in (checks, monogenic):
        monkeypatch.setattr(module, "_product", counted("_product", module._product))
    definition = next(d for d in check_definitions() if d.name == name)
    ctx = checks.CheckContext(checks._check_rng(0, name), 1e-3)
    samples = _sample_array(definition.run(ctx))
    assert np.all(np.isfinite(samples))
    assert calls == Counter(_rows=rows, _partials=partials, _product=products)


def test_frame_duality_makes_no_scalar_product_or_multivector_arithmetic(monkeypatch):
    calls = Counter()

    def counted(label, fn):
        def wrapper(*args):
            calls[label] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(algebra, "scalar_product", counted("scalar_product", algebra.scalar_product))
    for op in ("__add__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Multivector, op, counted(op, getattr(Multivector, op)))
    definition = next(d for d in check_definitions() if d.name == "frame_duality")
    ctx = checks.CheckContext(checks._check_rng(0, "frame_duality"), 1e-3)
    # 100 frames, each row a: three gaps for each b, then the combination
    assert _sample_array(definition.run(ctx)).size == 100 * 5 * 16
    assert not hasattr(checks, "scalar_product")
    assert calls == Counter()


def test_report_shape_and_summary():
    results = run_checks(names=["blade_squares", "anticommutation"], seed=0)
    d = report_dict(results, seed=0)
    assert d["version"] == 1
    assert d["seed"] == 0
    assert d["summary"] == {"pass": 2, "fail": 0, "skip": 29}
    assert all("elapsed_ms" in row for row in d["results"])
    trimmed = report_dict(results, seed=0, omit_timings=True)
    assert all("elapsed_ms" not in row for row in trimmed["results"])


def test_report_json_deterministic_for_fixed_seed():
    subset = ["blade_squares", "vector_decomposition", "null_annihilation"]
    first = report_json(run_checks(names=subset, seed=42), seed=42, omit_timings=True)
    second = report_json(run_checks(names=subset, seed=42), seed=42, omit_timings=True)
    assert first == second
    parsed = json.loads(first)
    assert [row["name"] for row in parsed["results"]] == subset


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "--check", "blade_squares"]) == 0
    capsys.readouterr()
    assert main(["verify", "--check", "no_such_check"]) == 2
    assert "no_such_check" in capsys.readouterr().err
    code = main(
        ["verify", "--check", "monogenic_residual",
         "--tolerance", "monogenic_residual=1e-20"]
    )
    assert code == 1
    capsys.readouterr()


def test_cli_verify_json_output(capsys):
    assert main(["verify", "--seed", "5", "--output", "json",
                 "--check", "blade_squares", "--check", "triblade_squares"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 5
    assert [row["name"] for row in payload["results"]] == [
        "blade_squares", "triblade_squares"
    ]
    assert payload["summary"]["fail"] == 0


def test_cli_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_CHECK_NAMES:
        assert name in out


def test_cli_bad_tolerance_usage(capsys):
    assert main(["verify", "--tolerance", "not-a-pair"]) == 2
    capsys.readouterr()
    assert main(["verify", "--tolerance", "blade_squares=abc"]) == 2
    capsys.readouterr()
    for value in ("nan", "inf", "-inf", "-1", "-1e-300"):
        assert main(["verify", "--tolerance", f"blade_squares={value}"]) == 2, value
        assert capsys.readouterr().err.startswith("error:")
    assert main(["verify", "--check", "blade_squares", "--tolerance", "blade_squares=0.0"]) == 0
    capsys.readouterr()


def test_cli_table(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    # the signed product table covers all 32 blades plus the header
    assert any(line.lstrip().startswith("e01234") for line in lines)
    assert "-1" in out


def test_cli_planewave_derives_energy(capsys):
    assert main(["planewave", "3", "0", "0", "4"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "energy: 5" in out
    assert "5 + 3*e01 + 4*e04" in out
    assert "5*e0 + 3*e1 + 4*e4" in out


def test_cli_planewave_five_numbers_and_grid(capsys):
    assert main(["planewave", "5", "3", "0", "0", "4", "--grid", "2"]) == 0
    out = capsys.readouterr().out
    assert "|" in out
    assert main(["planewave", "3", "0", "0", "4", "--negative-energy"]) == 0
    assert "energy: -5" in " ".join(capsys.readouterr().out.split())


def test_cli_planewave_grid_rows_are_the_point_values(capsys):
    assert main(["planewave", "1", "-0.5", "2", "0.8", "--grid", "6"]) == 0
    rows = capsys.readouterr().out.split("\n\n", 1)[1].splitlines()
    wave = plane_wave(MomentumVector.from_mass_momentum((1.0, -0.5, 2.0), 0.8))
    want = []
    for j in range(6):
        x = 0.1 * j * np.ones(5)
        head = " ".join(f"{v:.12g}" for v in x)
        want.append(head + " | " + " ".join(f"{c:.12g}" for c in wave.value(x).coeffs))
    assert rows == want


def test_cli_planewave_usage_errors(capsys):
    assert main(["planewave", "1", "2"]) == 2
    capsys.readouterr()
    # non-null quadruple: E^2 != p^2 + m^2
    assert main(["planewave", "5", "3", "0", "0", "3"]) == 2
    capsys.readouterr()


def test_cli_planewave_negative_grid_is_usage_error(capsys):
    assert main(["planewave", "3", "0", "0", "4", "--grid", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["planewave", "3", "0", "0", "4", "--grid", "0"]) == 0
    assert "|" not in capsys.readouterr().out


def test_cli_eigen(capsys):
    assert main(["eigen", "0", "0", "2", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "2.5" in out
    start = out.index("{")
    payload = json.loads(out[start:])
    assert payload["spectrum"] == [2.5, 2.5, -2.5, -2.5]
    for key, value in payload.items():
        if key.endswith("residual"):
            assert value <= 1e-10, key


def test_cli_eigen_zero_momentum_is_usage_error(capsys):
    # E = 0: the operator vanishes and has no ordered eigensystem
    assert main(["eigen", "0", "0", "0", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@st.composite
def _numbers_with_one_non_finite(draw, count):
    finite = draw(st.lists(st.floats(-10, 10), min_size=count, max_size=count))
    # fixed-point text, so argparse never mistakes a negative number for a flag
    values = [f"{v:f}" for v in finite]
    values[draw(st.integers(0, count - 1))] = draw(st.sampled_from(["nan", "inf"]))
    return values


def _run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(_numbers_with_one_non_finite(4))
def test_cli_eigen_rejects_non_finite(numbers):
    code, err = _run_quietly(["eigen", *numbers])
    assert code == 2
    assert err.startswith("error:") and "finite" in err


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 5]).flatmap(_numbers_with_one_non_finite))
def test_cli_planewave_rejects_non_finite(numbers):
    code, err = _run_quietly(["planewave", *numbers])
    assert code == 2
    assert err.startswith("error:") and "finite" in err


@settings(max_examples=40, deadline=None)
@given(_numbers_with_one_non_finite(6))
def test_cli_em_frame_rejects_non_finite(numbers):
    potential, (charge, mass) = numbers[:4], numbers[4:]
    argv = ["frame", "--em", "--potential", *potential, "--charge", charge, "--mass", mass]
    code, err = _run_quietly(argv)
    assert code == 2
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize(
    "numbers",
    [
        # (charge/mass) overflows; an infinite mass ratio times a zero potential
        ["1", "0", "0", "0", "1e300", "1e-300"],
        ["0", "0", "0", "0", "1", "5e-324"],
        # the tilt is finite, its square is not
        ["1e200", "0", "0", "0", "1", "1"],
    ],
)
def test_cli_em_frame_rejects_a_tilt_that_is_not_finite(numbers):
    # these printed NaN or Infinity in the JSON, with RuntimeWarnings, and exited 0
    potential, (charge, mass) = numbers[:4], numbers[4:]
    argv = ["frame", "--em", "--potential", *potential, "--charge", charge, "--mass", mass]
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
            code = main(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: tilt (charge/mass) A and its square must be finite")


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf])))
@example(math.nan)
@example(math.inf)
@example(-1.0)
def test_step_h_must_be_finite_and_positive(h):
    with pytest.raises(ValueError, match="finite and positive"):
        run_checks(names=["monogenic_residual"], step_h=h)
    code, err = _run_quietly(["verify", "--check", "monogenic_residual", f"--step-h={h!r}"])
    assert code == 2
    assert err.startswith("error:") and "finite and positive" in err


@pytest.mark.parametrize("h", [True, "0.001", 1e-3 + 0j])
def test_step_h_must_be_a_real_number_and_not_a_bool(h):
    # True ran every check at h = 1.0; a string or complex step raised TypeError
    with pytest.raises(ValueError, match="finite and positive"):
        run_checks(names=["monogenic_residual"], step_h=h)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=5, max_size=5),
    st.integers(0, 4),
    # argparse reads a bare "-inf" as an option; with a leading space it
    # stays a number and float() still parses it
    st.sampled_from(["nan", "inf", " -inf"]),
    st.booleans(),
)
def test_cli_frame_rejects_non_finite_point(finite, index, bad, em):
    point = [f"{v:f}" for v in finite]
    point[index] = bad
    head = ["frame", "--em", "--potential", "0", "0", "0", "0"] if em else ["frame"]
    code, err = _run_quietly([*head, "--point", *point])
    assert code == 2
    assert err.startswith("error:") and "finite" in err


def test_cli_rejects_momenta_too_large_to_square():
    for argv in (
        ["planewave", "1e200", "0", "0", "0", "1e200"],
        ["eigen", "0", "0", "0", "1e200"],
    ):
        code, err = _run_quietly(argv)
        assert code == 2, argv
        assert err.startswith("error:") and "too large" in err


def test_cli_projectors(capsys):
    assert main(["projectors"]) == 0
    out = capsys.readouterr().out
    assert "0.25" in out
    start = out.index("{")
    payload = json.loads(out[start:])
    assert payload["ok"] is True


def test_cli_frame_em(capsys):
    code = main(
        ["frame", "--em", "--potential", "0.7", "0", "0", "0",
         "--charge", "-1", "--mass", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["reciprocal"][4] == "0.7*e0 + e4"
    assert payload["inverse_metric"][4][4] == pytest.approx(0.51)


def test_cli_frame_matrix_and_default(capsys):
    assert main(["frame"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reciprocal"][0] == "-e0"
    numbers = " ".join(str(v) for v in np.eye(5).flatten())
    assert main(["frame", "--matrix", numbers]) == 0
    capsys.readouterr()
    assert main(["frame", "--matrix", "1 2 3"]) == 2
    capsys.readouterr()


def test_cli_requires_subcommand(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_seed_must_fit_in_64_bits():
    top = 2**64 - 1
    assert run_checks(names=["dirac_spectrum"], seed=top)[0].status == "pass"
    code, _ = _run_quietly(["verify", "--check", "dirac_spectrum", f"--seed={top}"])
    assert code == 0
    for seed in (-1, 2**64, 10**23):
        with pytest.raises(ValueError, match="seed"):
            run_checks(names=["dirac_spectrum"], seed=seed)
        code, err = _run_quietly(["verify", "--check", "dirac_spectrum", f"--seed={seed}"])
        assert code == 2, seed
        assert err.startswith("error:") and "seed" in err


@pytest.mark.parametrize("seed", [True, False, np.True_, 1.5, np.float64(3.0), "3", None])
def test_a_seed_that_is_not_an_integer_raises_value_error(seed):
    with pytest.raises(ValueError) as info:
        run_checks(names=["dirac_spectrum"], seed=seed)
    assert str(info.value) == f"seed must be in [0, 2**64): {seed}"


@pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(5), 2**64 - 1])
def test_numpy_and_python_integer_seeds_run(seed):
    # the report writes the seed as the int the integer rule returns
    want = report_json(run_checks(["dirac_spectrum"], seed=int(seed)), seed=int(seed), omit_timings=True)
    got = run_checks(["dirac_spectrum"], seed=seed)
    assert report_json(got, seed=seed, omit_timings=True) == want
    assert type(report_dict(got, seed)["seed"]) is int


@pytest.mark.parametrize("seed", [True, False, np.True_, 2.5, np.float64(3.0), -3, 2**64, "3", None])
def test_a_report_seed_outside_the_integer_rule_raises_value_error(seed):
    results = run_checks(["blade_squares"], seed=0)
    for report in (report_dict, report_json):
        with pytest.raises(ValueError) as info:
            report(results, seed)
        assert str(info.value) == f"seed must be in [0, 2**64): {seed}"


def _with_nan_sample(run, position):
    def wrapped(ctx):
        samples = list(run(ctx))
        at = {"first": 0, "middle": len(samples) // 2, "last": len(samples)}[position]
        return samples[:at] + [math.nan] + samples[at:]

    return wrapped


def test_a_nan_sample_fails_every_check(monkeypatch):
    # the NaN goes first, in the middle or last, cycling over the
    # registry, so one run covers every check and every position
    positions = itertools.cycle(("first", "middle", "last"))
    wrapped = [
        dataclasses.replace(d, run=_with_nan_sample(d.run, next(positions)))
        for d in check_definitions()
    ]
    monkeypatch.setattr(checks, "_REGISTRY", wrapped)
    results = run_checks(seed=0)
    assert [r.name for r in results] == list(EXPECTED_CHECK_NAMES)
    for r in results:
        assert r.status == "fail" and math.isnan(r.residual), (r.name, r.residual)


def _one_by_one(samples):
    """The samples as Python floats, one cell at a time in yield order."""
    return [float(v) for s in samples for v in np.asarray(s, dtype=float).reshape(-1)]


@pytest.mark.parametrize("name", EXPECTED_CHECK_NAMES)
def test_the_fold_of_a_check_is_the_max_of_its_flattened_samples(name):
    definition = next(d for d in check_definitions() if d.name == name)
    samples = list(definition.run(checks.CheckContext(checks._check_rng(0, name), 1e-3)))
    flat = _one_by_one(samples)
    assert _sample_array(iter(samples)).tolist() == flat
    assert checks._fold(iter(samples)) == max(flat)
    assert run_checks([name], seed=0)[0].residual == max(flat)


def test_dirac_column_fields_fails_when_samples_are_nan(monkeypatch):
    # only the first of the 160 samples is finite: the check makes one
    # batched call, and every row after the first turns NaN
    real = checks.reduced_vector_derivative
    shapes = []

    def mostly_nan(field, x, mass):
        rows = real(field, x, mass)
        shapes.append(rows.shape)
        rows.reshape(-1, 32)[1:] = math.nan
        return rows

    monkeypatch.setattr(checks, "reduced_vector_derivative", mostly_nan)
    result = run_checks(names=["dirac_column_fields"], seed=0)[0]
    assert shapes == [(80, 2, 32)]
    assert result.status == "fail" and math.isnan(result.residual)


@pytest.mark.parametrize("nan_points", ["every", "first_of_each_pair"])
def test_phase_sign_exclusivity_fails_on_nan_derivatives(monkeypatch, nan_points):
    # a NaN residual violates both the canonical bound and the
    # non-canonical one, so its margin, and the check's residual, is NaN;
    # the NaN goes into the batched rows of every point, or of the first of
    # each variant's two
    real = checks.vector_derivative

    def patched(field, x, *args, **kwargs):
        rows = real(field, x, *args, **kwargs)
        assert rows.shape == (200, 2, 32)
        rows[:, : 1 if nan_points == "first_of_each_pair" else 2] = math.nan
        return rows

    monkeypatch.setattr(checks, "vector_derivative", patched)
    result = run_checks(names=["phase_sign_exclusivity"], seed=0)[0]
    assert result.status == "fail"
    assert math.isnan(result.residual)


@pytest.mark.parametrize(
    "canonical, other, status",
    [
        ((1e-10, 0), (1e-8, 0), "fail"),  # a residual equal to the other signs' bound fails
        ((1e-10, 0), (1e-8, 1), "pass"),  # one float above it passes
        ((1e-10, 1), (1.0, 0), "fail"),  # the canonical residual one float above its bound
        ((0.0, 0), (0.0, 0), "fail"),
    ],
)
def test_phase_sign_exclusivity_keeps_its_bounds_exactly(monkeypatch, canonical, other, status):
    # each wave's residual is (factor, up): factor times its amplitude's
    # scale, one float up when up is 1; the check asks at most 1e-10 scale
    # of the canonical sign and more than 1e-8 scale of the others
    scales = []
    real = checks.harmonic_field

    def field(amplitudes, grads):
        scales.append(np.max(np.abs(amplitudes[::4]), axis=1))
        return real(amplitudes, grads)

    def residual(factor, up):
        r = factor * scales[0]
        return np.nextafter(r, math.inf) if up else r

    def derivative(waves, x):
        rows = np.zeros(x.shape[:-1] + (32,))
        rows[:, 0, 0] = np.stack([residual(*canonical)] + 3 * [residual(*other)], 1).ravel()
        return rows

    monkeypatch.setattr(checks, "harmonic_field", field)
    monkeypatch.setattr(checks, "vector_derivative", derivative)
    assert run_checks(names=["phase_sign_exclusivity"], seed=0)[0].status == status


def test_json_report_writes_a_nan_residual_as_null():
    out = io.StringIO()
    with np.errstate(all="ignore"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--check", "monogenic_residual", "--step-h", "1e-300",
                     "--output", "json"])
    assert code == 1

    def reject(token):
        raise ValueError(f"not standard JSON: {token}")

    report = json.loads(out.getvalue(), parse_constant=reject)
    assert report["results"][0]["status"] == "fail"
    assert report["results"][0]["residual"] is None


def test_json_report_of_a_passing_run_is_unchanged(full_run_seed0):
    # strict output changes nothing while every residual is finite
    assert report_json(full_run_seed0, seed=0) == json.dumps(
        report_dict(full_run_seed0, seed=0), indent=2
    )


def test_nan_second_order_samples_fail_monogenic_residual():
    # at h = 1e-300 every second-order sample is 0/0 = NaN
    out = io.StringIO()
    with np.errstate(all="ignore"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--check", "monogenic_residual", "--step-h", "1e-300"])
    assert code == 1
    assert out.getvalue().startswith("FAIL monogenic_residual")
    assert "residual=nan" in out.getvalue()


def test_verify_at_an_underflowing_step_runs_every_check():
    # monogenic_residual halves the step for its Richardson stencil, and
    # half of 5e-324 is 0: that check cannot compute and fails, the rest run
    paths = [str(Path(ga41.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "ga41", "verify", "--step-h", "5e-324"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "29 passed, 2 failed, 31 run" in proc.stdout
    failed = [line.split()[1:3] for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    assert failed[0] == ["monogenic_residual", "residual=inf"]
    assert [name for name, _ in failed] == ["monogenic_residual", "derivative_order"]


def test_a_check_that_cannot_compute_fails_instead_of_raising():
    (result,) = run_checks(["monogenic_residual"], step_h=5e-324)
    assert result.status == "fail" and result.residual == math.inf


def _raising(exc_type):
    def run(ctx):
        yield 0.0
        raise exc_type("cannot compute")

    return run


@pytest.mark.parametrize("exc_type", [ValueError, ArithmeticError, ZeroDivisionError])
def test_a_raising_check_fails_with_residual_inf_and_the_next_runs(monkeypatch, exc_type):
    first, second = check_definitions()[:2]
    broken = dataclasses.replace(first, run=_raising(exc_type))
    monkeypatch.setattr(checks, "_REGISTRY", [broken, second])
    results = run_checks(seed=0)
    assert [(r.name, r.status, r.residual) for r in results] == [
        (first.name, "fail", math.inf),
        (second.name, "pass", 0.0),
    ]


def test_a_programming_error_in_a_check_propagates(monkeypatch):
    first = check_definitions()[0]
    monkeypatch.setattr(checks, "_REGISTRY", [dataclasses.replace(first, run=_raising(TypeError))])
    with pytest.raises(TypeError, match="cannot compute"):
        run_checks(seed=0)


if __name__ == "__main__":
    for seed in (0, 1, 7):
        report = report_json(run_checks(seed=seed), seed, omit_timings=True)
        (GOLDEN / f"report_seed{seed}.json").write_text(report)
