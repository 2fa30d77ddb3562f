"""Sampled checks that evaluate all their samples on the row kernels: each
yields the samples of its old per-sample loop byte for byte, in order, from
a fixed number of kernel calls; the blade-image check compares one exact
Gram matrix with 4 I."""

import contextlib
import math
from collections import Counter

import numpy as np
import pytest

from ga41 import Multivector, ONE, checks
from ga41.algebra import e
from ga41.checks import CheckContext, _check_rng, check_definitions, run_checks
from ga41.algebra import _sample_array, _scalar_products
from ga41.dirac import build_dirac_operator, dirac_system, order_eigensystem
from ga41.frames import GaugeField, build_frame, gauge_covariance_residual, phase_shift_residual
from ga41.matrices import from_matrix
from ga41.monogenic import (
    MomentumVector,
    _axis_sum,
    harmonic_field,
    plane_wave,
    reduced_vector_derivative,
)
from ga41.projectors import build_e_set, build_f_set

# -- the per-sample loops the checks replaced, kept as references ----------


def _old_exp_closed_forms(ctx):
    def series(b):
        term = ONE
        acc = ONE
        for n in range(1, 31):
            term = term * b * (1.0 / n)
            acc = acc + term
        return acc

    layouts = ([0b00110], [0b00011], [0b00001, 0b10000], [0b00110, 0b01010, 0b01100])
    for trial in range(24):
        theta = ctx.rng.uniform(0.1, 2.0) * (1 if trial % 2 else -1)
        kind = trial % 4
        coeffs = np.zeros(32)
        if kind < 3:
            coeffs[layouts[kind]] = theta
        else:
            c = ctx.rng.uniform(-1.0, 1.0, 3)
            coeffs[layouts[kind]] = c * (theta / np.linalg.norm(c))
        b = Multivector(coeffs)
        yield (b.exp() - series(b)).max_abs()


def _old_rotor_unitarity(ctx):
    bivector_masks = [(1 << i) | (1 << j) for i in range(1, 5) for j in range(i + 1, 5)]
    for _ in range(100):
        coeffs = np.zeros(32)
        coeffs[bivector_masks] = ctx.rng.uniform(-1.5, 1.5, 6)
        rotor = (-0.5 * Multivector(coeffs)).exp()
        yield (rotor.reverse() * rotor - ONE).max_abs()


def _old_null_annihilation(ctx):
    for energy, p, mass in checks.NULL_QUADRUPLES:
        k = MomentumVector(energy, p, mass)
        u = k.vector
        yield (u * u).max_abs()
        yield (u * k.amplitude).max_abs()
        yield (k.amplitude - u * (-1.0 * e(0))).max_abs()


def _old_random_momentum(rng, min_mass=0.01, min_p=0.0):
    mass = rng.uniform(min_mass, 5.0)
    direction = rng.normal(size=3)
    direction /= np.sqrt((direction * direction).sum())
    radius = rng.uniform(min_p, 4.9)
    return MomentumVector.from_mass_momentum(radius * direction, mass)


def _old_momenta_and_points(ctx, count, shape, **momentum_kw):
    momenta, points = [], []
    for _ in range(count):
        momenta.append(_old_random_momentum(ctx.rng, **momentum_kw))
        points.append(ctx.rng.uniform(-1.0, 1.0, shape + (5,)))
    amplitudes = np.array([k.amplitude.coeffs for k in momenta])
    return momenta, amplitudes, np.array([k.phase_gradient for k in momenta]), np.array(points)


def _old_dirac_spectrum(ctx):
    for _ in range(200):
        k = _old_random_momentum(ctx.rng, min_mass=0.05)
        vals = np.linalg.eigvalsh(build_dirac_operator(k))
        want = np.array([-k.energy, -k.energy, k.energy, k.energy])
        yield float(np.max(np.abs(vals - want)))


def _old_sets_not_aligned(ctx):
    fs, es = build_f_set(), build_e_set()
    products = (fi * ej for fi in fs.elements for ej in es.elements)
    found = any(p.max_abs() > 0.0 and (p * p - p).max_abs() > 0.0 for p in products)
    yield 0.0 if found else 1.0


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


def _old_lambda_involution(ctx):
    for _ in range(50):
        k = _old_random_momentum(ctx.rng, min_mass=0.05)
        system = order_eigensystem(dirac_system(k))
        lam_inv = np.diag(1.0 / np.diag(system.lam))
        diff = k.energy * k.energy * lam_inv - system.lam
        yield float(np.max(np.abs(diff)))


def _old_psi_determinism(ctx):
    for _ in range(5):
        k = _old_random_momentum(ctx.rng, min_mass=0.05)
        first = order_eigensystem(dirac_system(k))
        second = order_eigensystem(dirac_system(k))
        same = np.array_equal(first.psi_bar, second.psi_bar) and np.array_equal(
            first.lam, second.lam
        )
        yield 0.0 if same else 1.0


def _old_column_parts(system, index):
    column = np.zeros((4, 4), dtype=complex)
    column[:, index] = system.psi_bar[:, index]
    lam = float(np.real(system.lam[index, index]))
    return from_matrix(column).coeffs, np.array([-lam, *system.k.momentum, 0.0])


def _old_dirac_column_fields(ctx):
    momenta, _, _, points = _old_momenta_and_points(ctx, 20, (4, 2), min_mass=0.05)
    systems = (order_eigensystem(dirac_system(k)) for k in momenta)
    amplitudes, grads = zip(*(_old_column_parts(s, index) for s in systems for index in range(4)))
    masses = np.repeat([k.mass for k in momenta], 4)[:, None]
    waves = harmonic_field(np.array(amplitudes), np.array(grads))
    rows = reduced_vector_derivative(waves, points.reshape(-1, 2, 5), masses)
    yield from checks._residuals(rows.reshape(-1, 32))


def _old_gauge_cases(ctx, min_mass):
    for _ in range(2):
        k = _old_random_momentum(ctx.rng, min_mass=min_mass)
        coefs = ctx.rng.uniform(-0.8, 0.8, 4)
        potential = ctx.rng.uniform(-1.0, 1.0, 4)
        field = GaugeField(
            potential,
            charge=-1.0,
            mass=k.mass,
            phase=lambda x, c=coefs: float(c @ x[:4]),
            phase_gradient=lambda x, c=coefs: np.array([*c, 0.0]),
        )
        yield plane_wave(k), field, ctx.rng.uniform(-1.0, 1.0, (3, 5))


def _old_nonmonogenic_identity(ctx):
    for wave, field, points in _old_gauge_cases(ctx, min_mass=0.1):
        yield phase_shift_residual(wave, field, points)


def _old_em_covariance(ctx):
    for wave, field, points in _old_gauge_cases(ctx, min_mass=0.5):
        yield gauge_covariance_residual(wave, field, points)


OLD_LOOPS = {
    "exp_closed_forms": _old_exp_closed_forms,
    "rotor_unitarity": _old_rotor_unitarity,
    "null_annihilation": _old_null_annihilation,
    "dirac_spectrum": _old_dirac_spectrum,
    "sets_not_aligned": _old_sets_not_aligned,
    "frame_duality": _old_frame_duality,
    "lambda_involution": _old_lambda_involution,
    "psi_determinism": _old_psi_determinism,
    "dirac_column_fields": _old_dirac_column_fields,
    "nonmonogenic_identity": _old_nonmonogenic_identity,
    "em_covariance": _old_em_covariance,
}


def _context(name, seed):
    return CheckContext(_check_rng(seed, name), 1e-3)


def _samples(name, seed=0):
    definition = next(d for d in check_definitions() if d.name == name)
    return _sample_array(definition.run(_context(name, seed)))


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", list(OLD_LOOPS))
def test_batched_samples_are_the_old_loops_samples_byte_for_byte(name, seed):
    want = np.fromiter(OLD_LOOPS[name](_context(name, seed)), dtype=float)
    assert _samples(name, seed).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize(
    "count, shape, kw",
    [(100, (2,), {}), (5, (), {}), (50, (4, 2), {"min_mass": 0.1, "min_p": 0.1}),
     (20, (4, 2), {"min_mass": 0.05})],
)
def test_momenta_and_points_are_the_old_draws_byte_for_byte(seed, count, shape, kw):
    # the draws of monogenic_residual, derivative_order,
    # phase_sign_exclusivity and dirac_column_fields
    momenta, *want = _old_momenta_and_points(_context("x", seed), count, shape, **kw)
    rows, *got = checks._momenta_and_points(_context("x", seed), count, shape, **kw)
    assert rows.tobytes() == np.array([[k.energy, *k.momentum, k.mass] for k in momenta]).tobytes()
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


#: the (low, high) of every draw the registry makes per sample, through
#: checks._uniform: the masses, the radii, the points and the gauge cases'
#: draws, the exponentials' angles and directions, the phase coefficients
AFFINE_DRAWS = [
    (0.01, 5.0), (0.05, 5.0), (0.1, 5.0), (0.5, 5.0), (0.0, 4.9), (0.1, 4.9),
    (-1.0, 1.0), (0.1, 2.0), (-0.8, 0.8),
]


@pytest.mark.parametrize("size", [None, 3, (4, 2, 5)])
@pytest.mark.parametrize("low, high", AFFINE_DRAWS)
def test_the_affine_draw_is_rng_uniform_byte_for_byte(low, high, size):
    ours, theirs = _check_rng(7, "x"), _check_rng(7, "x")
    got = [checks._uniform(ours, low, high, size) for _ in range(500)]
    want = [theirs.uniform(low, high, size) for _ in range(500)]
    assert type(got[0]) is type(want[0])
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert ours.random() == theirs.random()  # the streams stay in step


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


def test_a_registry_pass_draws_per_sample_at_those_bounds_only(monkeypatch):
    seen = set()
    real = checks._uniform

    def recorded(rng, low, high, size=None):
        seen.add((low, high))
        return real(rng, low, high, size)

    monkeypatch.setattr(checks, "_uniform", recorded)
    assert all(r.status == "pass" for r in run_checks(seed=0))
    assert seen == set(AFFINE_DRAWS)


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
