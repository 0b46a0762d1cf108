import math

import numpy as np
import pytest

from gammares.errors import QuadratureError
from gammares.quadrature import QuadratureSpec, adaptive_quad

SPEC = QuadratureSpec()


class Recorder:
    """Integrand wrapper that keeps the length of every call."""

    def __init__(self, f):
        self.f = f
        self.lengths = []

    def __call__(self, xs):
        self.lengths.append(len(xs))
        return self.f(xs)


def test_smooth_integrand_to_tolerance():
    res = adaptive_quad(lambda x: np.exp(1j * x), 0.0, 3.0, SPEC)
    exact = (np.exp(3j) - 1.0) / 1j
    assert abs(res.value - exact) <= max(SPEC.abs_tol, SPEC.rel_tol * abs(exact))
    assert res.est_error <= max(SPEC.abs_tol, SPEC.rel_tol * abs(exact))


def test_breaks_are_honoured():
    # a step split at its jumps is exact on the first panels
    jumps = [0.3, 0.7]

    def step(x):
        return np.where(x < 0.3, 1.0, np.where(x < 0.7, 2.0, -1.0)).astype(complex)

    res = adaptive_quad(step, 0.0, 1.0, SPEC, breaks=jumps)
    assert res.panels == len(jumps) + 1
    assert abs(res.value - (0.3 + 0.8 - 0.3)) < 1e-14
    # breaks outside the interval are ignored
    res = adaptive_quad(step, 0.0, 1.0, SPEC, breaks=jumps + [-1.0, 1.0, 2.0])
    assert res.panels == len(jumps) + 1
    # without them the jumps cost many bisections
    assert adaptive_quad(step, 0.0, 1.0, SPEC).panels > 20


def test_one_call_per_sweep():
    f = Recorder(lambda x: np.cos(200.0 * x) + 0j)
    res = adaptive_quad(f, 0.0, 1.0, SPEC)
    assert abs(res.value - math.sin(200.0) / 200.0) < 1e-10
    assert all(n % 15 == 0 for n in f.lengths)
    assert sum(f.lengths) == 15 * res.panels
    # a sweep bisects every panel over its share of the target at once
    assert max(f.lengths) > 30
    assert len(f.lengths) < res.panels / 4


@pytest.mark.parametrize("limit", [7, 50, 4000])
def test_stall_guard_bounds_evaluated_panels(limit):
    # a jump off every dyadic point never converges to 1e-300
    spec = QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300,
                          max_subdivisions=limit)
    f = Recorder(lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0).astype(complex))
    with pytest.raises(QuadratureError):
        adaptive_quad(f, 0.0, 1.0, spec)
    assert sum(f.lengths) <= 15 * limit


def test_reruns_are_bit_identical():
    def f(x):
        return np.exp(-x) * np.sqrt(x) + 1j * np.sin(3.0 * x) / (1.0 + x * x)

    runs = [adaptive_quad(f, 0.0, 20.0, SPEC, breaks=[0.5, 2.0]) for _ in range(3)]
    for res in runs[1:]:
        assert res.value.real.hex() == runs[0].value.real.hex()
        assert res.value.imag.hex() == runs[0].value.imag.hex()
        assert res.est_error == runs[0].est_error
        assert res.panels == runs[0].panels
