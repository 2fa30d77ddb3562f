"""Span tracing of ga41 from the outside, for the traced benchmark run.

``installed(tracer)`` replaces the public ga41 functions the per-layer
metrics name, wherever a ga41 module has bound them (``ga41.checks``
and ``ga41.frames`` hold their own ``vector_derivative``, for example),
plus the arithmetic operator slots of ``Multivector``, with wrappers that
record a span around each call.  The field builders are wrapped so that
the value and derivative closures of every field they return record
spans too.  Everything is restored on exit from the context.

A span records its name, start, end, parent span and op.  Self time is
the span's duration minus the time covered by its direct children.  A
function that calls itself (``laplacian`` with ``richardson=True``)
counts as one span.  Wrappers record only while ``tracer.active`` is
set, so inputs built with the wrappers installed cost nothing in the
per-op figures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from ga41.algebra import Multivector


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, child seconds, original fn]
        self._name = array("h")
        self._parent = array("l")
        self._op = array("l")
        self._start = array("d")
        self._end = array("d")

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][2] is fn:
            return fn(*args, **kwargs)
        idx = len(self._start)
        self._name.append(self._name_id(name))
        self._parent.append(stack[-1][0] if stack else -1)
        self._op.append(self.op)
        frame = [idx, 0.0, fn]
        stack.append(frame)
        start = perf_counter()
        self._start.append(start)
        self._end.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self._end[idx] = end
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if stack:
                stack[-1][1] += duration

    def dump(self, path) -> int:
        """Write every span to an .npz file; returns the span count."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int16),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            op=np.frombuffer(self._op, dtype=np.int64),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )
        return len(self._start)


#: (module, attribute, span name) of the wrapped public functions
FUNCTIONS = (
    ("ga41.matrices", "to_matrix", "to_matrix"),
    ("ga41.matrices", "from_matrix", "from_matrix"),
    ("ga41.monogenic", "laplacian", "laplacian"),
    ("ga41.dirac", "eigendecompose", "eigendecompose"),
    ("ga41.dirac", "order_eigensystem", "order_eigensystem"),
    ("ga41.dirac", "column_wave", "column_wave"),
    ("ga41.frames", "build_frame", "build_frame"),
    ("ga41.frames", "em_frame", "em_frame"),
    ("ga41.frames", "covariant_derivative", "covariant_derivative"),
    ("ga41.projectors", "energy_project", "energy_project"),
    ("ga41.projectors", "helicity_project", "helicity_project"),
    ("ga41.projectors", "validate_idempotent_set", "validate_idempotent_set"),
    ("ga41.projectors", "conjugated_unit_quadruple", "conjugated_unit_quadruple"),
    ("ga41.projectors", "idempotents_to_generators", "idempotents_to_generators"),
)

#: Multivector attributes and their span names; ``*`` is handled apart
#: because its name depends on the right operand
MULTIVECTOR_ATTRS = {
    **dict.fromkeys(
        ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__rmul__", "__truediv__"),
        "linear",
    ),
    "__xor__": "outer",
    "__or__": "inner",
    "exp": "exp",
}


def _plain(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def _vector_derivative(tracer: Tracer, fn):
    def wrapper(field, x, h=None, *args, **kwargs):
        if not tracer.active:
            return fn(field, x, h, *args, **kwargs)
        name = "vector_derivative" if h is None else "vector_derivative_fd"
        return tracer.call(name, fn, (field, x, h, *args), kwargs)

    return wrapper


def _mul(tracer: Tracer, fn):
    def wrapper(self, other):
        if not tracer.active:
            return fn(self, other)
        name = "product" if isinstance(other, Multivector) else "linear"
        return tracer.call(name, fn, (self, other), {})

    return wrapper


def _traced_field(tracer: Tracer, field):
    derivative = field.derivative
    return dataclasses.replace(
        field,
        value=_plain(tracer, "field_value", field.value),
        derivative=None if derivative is None else _plain(tracer, "field_derivative", derivative),
    )


def _field_builder(tracer: Tracer, fn, shape: str):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if shape == "list":
            return [_traced_field(tracer, f) for f in out]
        if shape == "pair":
            return (_traced_field(tracer, out[0]), out[1])
        return _traced_field(tracer, out)

    return wrapper


#: builders whose returned fields get traced closures, with the shape of
#: what they return
FIELD_BUILDERS = (
    ("ga41.monogenic", "harmonic_field", "field"),
    ("ga41.monogenic", "separable_wavepacket", "field"),
    ("ga41.monogenic", "monogenic_polynomials_3d", "list"),
    ("ga41.frames", "gauge_transform", "pair"),
)


def _ga41_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "ga41" or name.startswith("ga41.")]


def _rebind_everywhere(original, wrapper, restore: list) -> None:
    for module in _ga41_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                restore.append((module, attr, value))
                setattr(module, attr, wrapper)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the traced ga41 functions for the duration of the context.

    A function or attribute that ga41 no longer has is skipped, so its
    metrics read 0.
    """
    import ga41.checks  # noqa: F401  (load every module that rebinds names)
    import ga41.cli  # noqa: F401

    restore: list = []
    try:
        wrappers = [(m, a, lambda fn, name=name: _plain(tracer, name, fn))
                    for m, a, name in FUNCTIONS]
        wrappers.append(("ga41.monogenic", "vector_derivative",
                         lambda fn: _vector_derivative(tracer, fn)))
        wrappers += [(m, a, lambda fn, shape=shape: _field_builder(tracer, fn, shape))
                     for m, a, shape in FIELD_BUILDERS]
        for module_name, attr, wrap in wrappers:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is not None:
                _rebind_everywhere(original, wrap(original), restore)
        attrs = [(a, lambda fn, name=name: _plain(tracer, name, fn))
                 for a, name in MULTIVECTOR_ATTRS.items()]
        attrs.append(("__mul__", lambda fn: _mul(tracer, fn)))
        for attr, wrap in attrs:
            original = getattr(Multivector, attr, None)
            if original is not None:
                restore.append((Multivector, attr, original))
                setattr(Multivector, attr, wrap(original))
        yield tracer
    finally:
        tracer.active = False
        for obj, attr, value in reversed(restore):
            setattr(obj, attr, value)


#: per-layer metric -> (span names summed, "calls" or "s")
LAYER_METRICS = {
    "algebra.product_calls": (("product",), "calls"),
    "algebra.product_s": (("product",), "s"),
    "algebra.graded_product_calls": (("outer", "inner"), "calls"),
    "algebra.graded_product_s": (("outer", "inner"), "s"),
    "algebra.linear_calls": (("linear",), "calls"),
    "algebra.linear_s": (("linear",), "s"),
    "algebra.exp_calls": (("exp",), "calls"),
    "algebra.exp_s": (("exp",), "s"),
    "matrices.to_matrix_calls": (("to_matrix",), "calls"),
    "matrices.to_matrix_s": (("to_matrix",), "s"),
    "matrices.from_matrix_calls": (("from_matrix",), "calls"),
    "matrices.from_matrix_s": (("from_matrix",), "s"),
    "monogenic.vector_derivative_calls": (("vector_derivative",), "calls"),
    "monogenic.vector_derivative_fd_calls": (("vector_derivative_fd",), "calls"),
    "monogenic.vector_derivative_s": (("vector_derivative", "vector_derivative_fd"), "s"),
    "monogenic.laplacian_calls": (("laplacian",), "calls"),
    "monogenic.laplacian_s": (("laplacian",), "s"),
    "monogenic.field_value_calls": (("field_value",), "calls"),
    "monogenic.field_value_s": (("field_value",), "s"),
    "monogenic.field_derivative_calls": (("field_derivative",), "calls"),
    "dirac.eigendecompose_calls": (("eigendecompose",), "calls"),
    "dirac.eigendecompose_s": (("eigendecompose",), "s"),
    "dirac.order_eigensystem_calls": (("order_eigensystem",), "calls"),
    "dirac.order_eigensystem_s": (("order_eigensystem",), "s"),
    "dirac.column_wave_s": (("column_wave",), "s"),
    "frames.build_frame_calls": (("build_frame",), "calls"),
    "frames.build_frame_s": (("build_frame",), "s"),
    "frames.em_frame_calls": (("em_frame",), "calls"),
    "frames.em_frame_s": (("em_frame",), "s"),
    "frames.covariant_derivative_calls": (("covariant_derivative",), "calls"),
    "frames.covariant_derivative_s": (("covariant_derivative",), "s"),
    "projectors.projection_calls": (("energy_project", "helicity_project"), "calls"),
    "projectors.projection_s": (("energy_project", "helicity_project"), "s"),
    "projectors.quadruple_s": (
        ("validate_idempotent_set", "conjugated_unit_quadruple", "idempotents_to_generators"),
        "s",
    ),
}


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op calls and self seconds of each layer metric."""
    out = {}
    for metric, (names, kind) in LAYER_METRICS.items():
        source = tracer.calls if kind == "calls" else tracer.self_s
        out[metric] = sum(source[n] for n in names) / ops
    return out
