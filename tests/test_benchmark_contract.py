"""What the traced benchmark run needs of the field builders.

The benchmark traces fields from the outside: it wraps the field
builders by module attribute, and it swaps each built field's one-point
``value`` and ``derivative`` for recording wrappers with
``dataclasses.replace``.  These tests pin that contract for every
builder, without importing the benchmark.
"""

import dataclasses

import numpy as np
import pytest

from ga41 import dirac, frames, monogenic

_K = monogenic.MomentumVector.from_mass_momentum((0.4, -0.9, 1.1), 0.8)
_X = np.array([0.3, -0.6, 0.2, 0.7, -0.1])
_GAUGE = frames.GaugeField((0.2, -0.4, 0.1, 0.3), charge=-1.0, mass=1.2)


def _built():
    basis = monogenic.monogenic_polynomials_3d(2)
    phase = frames.GaugeField(
        (0.0, 0.1, 0.0, 0.0), charge=1.0, mass=1.0, phase=lambda x: 0.3 * x[0] - 0.2 * x[3]
    )
    return {
        "harmonic_field": monogenic.harmonic_field(_K.amplitude, _K.phase_gradient),
        "plane_wave": monogenic.plane_wave(_K),
        "column_wave": dirac.column_wave(dirac.order_eigensystem(dirac.dirac_system(_K)), 1),
        "separable_wavepacket": monogenic.separable_wavepacket(basis[0], (1.2, 1.2)),
        "monogenic_polynomials_3d": basis[3],
        "gauge_transform": frames.gauge_transform(monogenic.plane_wave(_K), phase)[0],
    }


_BUILT = _built()


def _timed_outputs(field):
    """The outputs the field workload times at one point."""
    return [
        field(_X),
        monogenic.vector_derivative(field, _X),
        monogenic.vector_derivative(field, _X, h=1e-3),
        monogenic.laplacian(field, _X, h=1e-3, richardson=True),
        frames.covariant_derivative(field, frames.em_frame(_GAUGE, _X), _X),
    ]


@pytest.mark.parametrize("builder", list(_BUILT))
def test_a_traced_field_records_its_one_point_calls_and_keeps_its_results(builder):
    field = _BUILT[builder]
    calls = []

    def value(x):
        calls.append("value")
        return field.value(x)

    def derivative(x, axis):
        calls.append("derivative")
        return field.derivative(x, axis)

    traced = dataclasses.replace(field, value=value, derivative=derivative)
    assert type(traced) is type(field)
    assert traced(_X).coeffs.tobytes() == field(_X).coeffs.tobytes()
    assert calls == ["value"]
    assert traced.derivative(_X, 2).coeffs.tobytes() == field.derivative(_X, 2).coeffs.tobytes()
    assert calls == ["value", "derivative"]
    for got, want in zip(_timed_outputs(traced), _timed_outputs(field)):
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("builder, module", [("plane_wave", monogenic), ("column_wave", dirac)])
def test_wave_builders_reach_harmonic_field_by_module_attribute(monkeypatch, builder, module):
    # wrapping harmonic_field where a module holds it traces these waves too
    built = []
    real = monogenic.harmonic_field

    def wrapped(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(module, "harmonic_field", wrapped)
    if builder == "plane_wave":
        field = monogenic.plane_wave(_K)
    else:
        field = dirac.column_wave(dirac.order_eigensystem(dirac.dirac_system(_K)), 3)
    assert built == [field]
