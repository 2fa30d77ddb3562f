"""Sampled checks that draw each input array in one generator call and
evaluate all their samples on the row kernels, from a fixed number of
kernel calls; the frame-duality draw order is that of the per-sample loop
it replaced; the blade-image check compares one exact Gram matrix with
4 I.  The samples themselves, at seeds 0-39, are pinned by the per-check
lines of ``tests/data/digest.txt``."""

import contextlib
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from ga41 import Multivector, checks
from ga41.checks import CheckContext, _check_rng, check_definitions, check_names, run_checks
from ga41.algebra import _sample_array, _scalar_products
from ga41.frames import build_frame
from ga41.monogenic import MomentumVector, _axis_sum

# -- the per-sample loop the frame-duality check replaced, kept as a reference


def _old_frame_duality(ctx, accept=lambda n: True):
    # one build_frame call per accepted candidate; the residuals as the check
    # evaluates them
    frames = []
    for _ in range(1000):
        n = np.eye(5) + ctx.rng.uniform(-0.2, 0.2, (5, 5))
        if np.linalg.cond(n) <= 100 and accept(n):
            with contextlib.suppress(ValueError):
                frames.append(build_frame(n))
        if len(frames) == 100:
            break
    vectors = np.array([[v.coeffs for v in f.vectors] for f in frames])
    reciprocal = np.array([[v.coeffs for v in f.reciprocal] for f in frames])
    metric = np.array([f.metric for f in frames])
    inverse = np.array([f.inverse_metric for f in frames])

    def gram(a, b):
        return _scalar_products(a[:, :, None], b[:, None])

    yield from np.abs(gram(vectors, vectors) - metric).ravel()
    yield from np.abs(gram(reciprocal, vectors) - np.eye(5)).ravel()
    yield from np.abs(gram(reciprocal, reciprocal) - inverse).ravel()
    combo = _axis_sum(metric[..., None] * reciprocal[:, None])
    yield from np.max(np.abs(combo - vectors), axis=-1).ravel()


def _context(name, seed):
    return CheckContext(_check_rng(seed, name), 1e-3)


def _samples(name, seed=0):
    definition = next(d for d in check_definitions() if d.name == name)
    return _sample_array(definition.run(_context(name, seed)))


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize(
    "count, shape, kw",
    [(100, (2,), {}), (5, (), {}), (50, (4, 2), {"min_mass": 0.1, "min_p": 0.1}),
     (20, (4, 2), {"min_mass": 0.05})],
)
def test_random_momenta_are_one_draw_per_array_byte_for_byte(seed, count, shape, kw):
    # the draws of monogenic_residual, derivative_order,
    # phase_sign_exclusivity and dirac_column_fields, against the same four
    # draws made by hand and one MomentumVector per sample
    ours, theirs = _check_rng(seed, "x"), _check_rng(seed, "x")
    rows, *got = checks._random_momenta(ours, count, shape, **kw)
    min_mass, min_p = kw.get("min_mass", 0.01), kw.get("min_p", 0.0)
    masses = theirs.uniform(min_mass, 5.0, count)
    directions = theirs.normal(size=(count, 3))
    radii = theirs.uniform(min_p, 4.9, count)
    points = theirs.uniform(-1.0, 1.0, (count, *shape, 5))
    units = directions / np.linalg.norm(directions, axis=-1)[:, None]
    momenta = [MomentumVector.from_mass_momentum(r * u, m) for r, u, m in zip(radii, units, masses)]
    amplitudes = np.array([k.amplitude.coeffs for k in momenta])
    want = [amplitudes, np.array([k.phase_gradient for k in momenta]), points]
    assert rows.tobytes() == np.array([[k.energy, *k.momentum, k.mass] for k in momenta]).tobytes()
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert ours.random() == theirs.random()  # the streams stay in step
    norms = np.linalg.norm(rows[:, 1:4], axis=1)
    assert np.all((min_mass <= rows[:, 4]) & (rows[:, 4] < 5.0))
    assert np.all((min_p - 1e-12 <= norms) & (norms < 4.9 + 1e-12))


def test_a_rekeyed_generator_draws_the_stream_of_a_new_one():
    # used part way first: a 32-bit draw buffered, the Philox buffer half read
    used = _check_rng(3, "other")
    used.integers(0, 2**32, 3, dtype=np.uint32)
    used.random(5)
    rekeyed, fresh = _check_rng(7, "x", used), _check_rng(7, "x")
    assert rekeyed is used
    for draw in (lambda g: g.integers(0, 2**32, 3, dtype=np.uint32), lambda g: g.random(9),
                 lambda g: g.normal(size=4), lambda g: g.uniform(-1.0, 1.0, (2, 5))):
        assert draw(rekeyed).tobytes() == draw(fresh).tobytes()


def test_a_registry_pass_builds_one_philox_per_run_checks_call(monkeypatch):
    built, real = [], np.random.Philox

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    want = run_checks(seed=5)
    # the pass and json_determinism's two nested runs; each check's
    # residual is that of a run of it alone
    assert len(built) == 3
    got = [run_checks([d.name], seed=5)[0] for d in check_definitions()]
    assert [(r.name, r.residual) for r in got] == [(r.name, r.residual) for r in want]


#: generator calls per check, one per input array, 47 a pass; a check not
#: listed draws nothing (json_determinism's nested runs have generators of
#: their own)
DRAWS = {
    "associativity": 1, "vector_decomposition": 1, "cross_product_link": 1,
    "exp_closed_forms": 2, "rotor_unitarity": 1, "phi_homomorphism": 1, "phi_round_trip": 1,
    # the masses, directions and radii of the momenta, then their points
    "monogenic_residual": 4, "derivative_order": 4, "phase_sign_exclusivity": 4,
    "dirac_spectrum": 3, "lambda_involution": 3, "psi_determinism": 3,
    "dirac_column_fields": 4, "custom_quadruple_generators": 1, "frame_duality": 1,
    # and then the gauge cases' phase coefficients and potentials
    "nonmonogenic_identity": 6, "em_covariance": 6,
}


@pytest.mark.parametrize("name", check_names())
def test_each_check_draws_each_input_array_in_one_generator_call(name):
    # a proxy of the check's generator that records each method call
    rng = mock.Mock(wraps=_check_rng(0, name))
    definition = next(d for d in check_definitions() if d.name == name)
    assert _sample_array(definition.run(CheckContext(rng, 1e-3))).size
    assert len(rng.method_calls) == DRAWS.get(name, 0) <= 6


#: (check, checks._product calls, eigvalsh calls, samples)
BATCHED_CHECKS = (
    ("exp_closed_forms", 0, 0, 24),
    ("rotor_unitarity", 1, 0, 100),
    ("null_annihilation", 3, 0, 18),
    ("sets_not_aligned", 2, 0, 1),
    ("dirac_spectrum", 0, 1, 200),
    ("blade_images_span", 0, 0, 32),
)


@pytest.mark.parametrize("name, products, eigvalsh, samples", BATCHED_CHECKS)
def test_batched_checks_make_a_fixed_number_of_kernel_calls(
    monkeypatch, name, products, eigvalsh, samples
):
    calls = Counter()
    # products inside Multivector.exp and the quadruple builders are theirs
    inside = []

    def counted(label, fn):
        def wrapper(*args):
            if not inside:
                calls[label] += 1
            return fn(*args)

        return wrapper

    def shielded(fn):
        def wrapper(*args):
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapper

    for kernel in ("_product", "_gather", "_contract"):
        monkeypatch.setattr(checks, kernel, counted(kernel, getattr(checks, kernel)))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "matrix_rank", counted("matrix_rank", np.linalg.matrix_rank))
    for method in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Multivector, method, counted(method, getattr(Multivector, method)))
    monkeypatch.setattr(Multivector, "exp", shielded(Multivector.exp))
    for builder in ("build_f_set", "build_e_set"):
        monkeypatch.setattr(checks, builder, shielded(getattr(checks, builder)))
    assert _samples(name).size == samples
    # null_annihilation scales e0 by -1 once, for all six quadruples;
    # exp_closed_forms gathers its series operand once for its 30 terms
    scalings = 1 if name == "null_annihilation" else 0
    series = int(name == "exp_closed_forms")
    want = Counter(_product=products, eigvalsh=eigvalsh, __rmul__=scalings,
                   _gather=series, _contract=30 * series)
    assert calls == +want


def test_the_blade_images_span_check_is_their_exact_gram_matrix():
    assert _samples("blade_images_span").tobytes() == np.zeros(32).tobytes()


def test_a_nan_blade_row_makes_the_span_check_nan(monkeypatch):
    rows = checks._BLADE_ROWS.copy()
    rows[7, 3] = math.nan
    monkeypatch.setattr(checks, "_BLADE_ROWS", rows)
    result = run_checks(["blade_images_span"], seed=0)[0]
    assert result.status == "fail"
    assert math.isnan(result.residual)


@pytest.mark.parametrize("name", ["exp_closed_forms", "rotor_unitarity"])
def test_the_exponential_checks_make_one_kernel_call(monkeypatch, name):
    calls = Counter()
    real_rows, real_exp = checks._exp_rows, Multivector.exp

    def rows(batch):
        calls["_exp_rows", len(batch)] += 1
        return real_rows(batch)

    def exp(self):
        calls["exp"] += 1
        return real_exp(self)

    monkeypatch.setattr(checks, "_exp_rows", rows)
    monkeypatch.setattr(Multivector, "exp", exp)
    samples = _samples(name)
    assert calls == Counter({("_exp_rows", samples.size): 1})


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_frame_duality_builds_its_frames_in_one_kernel_call(monkeypatch, seed):
    calls = []
    real = checks._frames

    def frames(mats):
        calls.append(len(mats))
        return real(mats)

    monkeypatch.setattr(checks, "_frames", frames)
    assert _samples("frame_duality", seed).size == 100 * (3 * 25 + 5)
    assert calls == [100]


def test_frame_duality_accepts_the_first_candidates_in_draw_order(monkeypatch):
    # a quarter of the candidates read as ill-conditioned, so a second chunk
    # is needed, and the samples are those of the loop with the same rule
    real = checks._frames
    calls = []

    def picky(mats):
        calls.append(len(mats))
        cond, *rest = real(mats)
        return (np.where(mats[:, 0, 0] > 1.1, 1e3, cond), *rest)

    monkeypatch.setattr(checks, "_frames", picky)
    want = _old_frame_duality(_context("frame_duality", 0), accept=lambda n: n[0, 0] <= 1.1)
    assert _samples("frame_duality").tobytes() == np.fromiter(want, dtype=float).tobytes()
    assert calls == [100, 100]


#: (check, samples, the calls of the momentum, operator, eigensystem and
#: inverse-map kernels with the shape of their first argument)
EIGENSYSTEM_CHECKS = (
    ("dirac_spectrum", 200, [("_momentum_rows", (200, 3)), ("_operators", (200, 5))]),
    ("lambda_involution", 50, [("_momentum_rows", (50, 3)), ("_eigensystems", (50, 5))]),
    (
        "psi_determinism",
        5,
        [("_momentum_rows", (5, 3)), ("_eigensystems", (5, 5)), ("_eigensystems", (5, 5))],
    ),
    (
        "dirac_column_fields",
        20 * 4 * 2,
        [
            ("_momentum_rows", (20, 3)),
            ("_eigensystems", (20, 5)),
            ("_from_matrices", (20, 4, 4, 4)),
        ],
    ),
)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name, samples, kernels", EIGENSYSTEM_CHECKS)
def test_eigensystem_checks_make_one_kernel_call_per_stage(
    monkeypatch, seed, name, samples, kernels
):
    # however many momenta a check draws, each stage is one call on all of them
    from ga41 import dirac, monogenic

    calls = []

    def counted(module, label):
        real = getattr(module, label)

        def wrapper(*args):
            calls.append((label, args[0].shape))
            return real(*args)

        monkeypatch.setattr(module, label, wrapper)

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-momentum constructor was called")

    for label in ("_momentum_rows", "_eigensystems", "_operators"):
        counted(checks, label)
    counted(dirac, "_from_matrices")
    monkeypatch.setattr(monogenic.MomentumVector, "__post_init__", forbidden)
    for fn in ("dirac_system", "order_eigensystem", "build_dirac_operator"):
        monkeypatch.setattr(dirac, fn, forbidden)
    assert _samples(name, seed).size == samples
    assert calls == kernels
