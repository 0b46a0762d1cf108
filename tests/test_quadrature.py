import math

import numpy as np
import pytest

from gammares.errors import QuadratureError
from gammares.quadrature import QuadratureSpec, adaptive_quad, product_quad

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


class Sampler:
    """Scalar sampler that records every point it is called at."""

    def __init__(self, f):
        self.f = f
        self.points = []

    def __call__(self, x):
        self.points.append(x)
        return self.f(x)


def test_product_rule_oscillating_kernel():
    # 20 radians of kernel oscillation; the sampler's own smoothness sets
    # the call count, and every sample is taken once
    f = Sampler(lambda x: math.exp(x) / (1.0 + x * x))
    res = product_quad(lambda x: np.exp(20j * x), f, -1.0, 2.0,
                       QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14))
    exact = 0.06246674693048766 + 0.05434383499818053j  # scipy quad, limit 200
    assert abs(res.value - exact) <= res.est_error
    assert res.est_error <= 1e-12 * abs(res.value)
    assert res.panels == len(f.points) == len(set(f.points)) <= 129


def test_product_rule_entire_sampler_stops_early():
    # a cubic is exact from the first level on: the rule stops at n = 16
    f = Sampler(lambda x: x ** 3 - x + 2.0)
    res = product_quad(lambda x: np.exp(-x), f, 0.0, 1.0, SPEC)
    exact = sum(c * m for c, m in zip((2.0, -1.0, 0.0, 1.0), _exp_moments(3)))
    assert res.panels == 17
    assert abs(res.value - exact) <= 1e-14


def _exp_moments(k):
    """int_0^1 x^j e^-x dx, j = 0..k, by the recursion m_j = j m_{j-1} - 1/e."""
    out = [1.0 - math.exp(-1.0)]
    for j in range(1, k + 1):
        out.append(j * out[-1] - math.exp(-1.0))
    return out


def test_product_rule_rounding_floor_fails_fast():
    # the kernel reaches e^40 while the integral stays O(1): the rounding
    # floor 4 eps int|K f| is far above abs_tol, so the rule raises after
    # the second level instead of sampling to the cap
    f = Sampler(lambda psi: 1.0)
    with pytest.raises(QuadratureError, match="rounding floor"):
        product_quad(lambda psi: np.exp(40.0 * np.exp(1j * psi)) * 1j
                     * np.exp(1j * psi), f, -math.pi, math.pi, SPEC)
    assert len(f.points) == 17


def test_product_rule_noisy_sampler_raises():
    # samples with 1e-8 relative noise cannot meet 1e-12: the plateau of the
    # Chebyshev tail keeps the estimate up, and the rule gives up at n = 256
    rng = np.random.default_rng(3)
    f = Sampler(lambda x: math.cos(x) * (1.0 + 1e-8 * rng.standard_normal()))
    with pytest.raises(QuadratureError, match="stalled"):
        product_quad(lambda x: np.ones_like(x, dtype=complex), f, 0.0, 1.0,
                     QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14))
    assert len(f.points) == 257
