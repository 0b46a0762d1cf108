import cmath
import math

import numpy as np
import pytest

import gammares
from gammares.errors import DomainError
from gammares.exactseries import puiseux_q
from gammares.lambertw import (lambert_w, lambert_w_array,
                               lambert_w_near_branch_point, w_polish)

E = math.e
EM1 = 1.0 / math.e


def bisect_real_branch(x, lo, hi, n=200):
    """Independent oracle: bisection on t e^t = x over [lo, hi]."""
    f = lambda t: t * math.exp(t) - x
    a, b = lo, hi
    fa = f(a)
    for _ in range(n):
        m = 0.5 * (a + b)
        if f(m) == 0:
            return m
        if (f(m) > 0) == (fa > 0):
            a, fa = m, f(m)
        else:
            b = m
    return 0.5 * (a + b)


def test_trivial_values():
    assert lambert_w(0.0, 0).w == 0
    assert abs(lambert_w(complex(E), 0).w - 1.0) < 1e-14


def test_branch_point_value():
    for k in (0, -1):
        wv = lambert_w(-EM1, k)
        assert abs(wv.w + 1.0) < 2e-7   # square-root point: O(sqrt(eps)) there
        assert wv.residual <= 1e-13 * max(1.0, EM1)


def test_zero_rejected_off_principal():
    with pytest.raises(DomainError):
        lambert_w(0.0, -1)


def test_real_negative_branch_against_bisection():
    w = lambert_w(-0.1, -1).w
    assert w.imag == 0
    oracle = bisect_real_branch(-0.1, -30.0, -1.0)
    assert abs(w.real - oracle) < 1e-12


def test_real_branch_ordering():
    # W_0 > W_-1 strictly on (-1/e, 0)
    for x in (-0.36, -0.2, -0.05, -0.001):
        w0 = lambert_w(x, 0).w.real
        wm = lambert_w(x, -1).w.real
        assert w0 > wm


def test_defining_relation_across_branches():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(300):
        r = 10.0 ** rng.uniform(-3, 3)
        phi = rng.uniform(-math.pi + 0.02, math.pi - 0.02)
        x = r * cmath.exp(1j * phi)
        for k in (-2, -1, 0, 1, 2):
            wv = lambert_w(x, k)
            worst = max(worst, abs(wv.w * cmath.exp(wv.w) - x) / max(1.0, abs(x)))
    assert worst <= 1e-12


def test_branch_strips():
    """Branch values live in the expected horizontal regions: Im W_0 in
    (-pi, pi); for k != 0 the value sits within pi of 2 pi k, except the
    k = -1 region that touches the real axis from below."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = 10.0 ** rng.uniform(-2, 2)
        phi = rng.uniform(-math.pi + 0.02, math.pi - 0.02)
        x = r * cmath.exp(1j * phi)
        assert abs(lambert_w(x, 0).w.imag) < math.pi
        for k in (1, 2, -2):
            im = lambert_w(x, k).w.imag
            assert (2 * k - 2) * math.pi < im < (2 * k + 2) * math.pi, (x, k)
        im = lambert_w(x, -1).w.imag
        assert -4 * math.pi < im <= 1e-12, x


def test_conjugate_symmetry_off_cut():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        assert abs(lambert_w(x.conjugate(), 0).w
                   - lambert_w(x, 0).w.conjugate()) < 1e-13


def test_cut_values_are_limits_from_above():
    for x, k in ((-1.0, 0), (-1.0, -1), (-0.2 - 0.0j, -1), (-3.0, 1)):
        on_cut = lambert_w(complex(x), k).w
        above = lambert_w(complex(x) + 1e-12j, k).w
        assert abs(on_cut - above) < 1e-10, (x, k)


def test_near_branch_point_matches_puiseux_oracle():
    q_plus = puiseux_q("+", 40)
    q_minus = puiseux_q("-", 40)
    for xi in (0.01, 0.003, 0.05):
        x = -math.exp(-1.0 - xi)
        w_minus = lambert_w_near_branch_point(x, "-")
        w_plus = lambert_w_near_branch_point(x, "+")
        assert abs(w_minus.w + q_plus.evaluate(xi, 0.0)) <= 1e-10
        assert abs(w_plus.w + q_minus.evaluate(xi, 0.0)) <= 1e-10


def test_near_branch_point_exact_at_bp():
    for sign in ("+", "-"):
        assert abs(lambert_w_near_branch_point(-EM1, sign).w + 1.0) < 1e-12


def test_two_evaluators_agree_where_domains_overlap():
    rng = np.random.default_rng(4)
    for _ in range(60):
        xi = complex(rng.uniform(0.001, 0.2), rng.uniform(-0.1, 0.1))
        x = -cmath.exp(-1.0 - xi)
        side = "-" if x.imag >= 0 else "+"
        wv = lambert_w_near_branch_point(x, "-")
        # '-' seed lands on the branch carrying W_-1 on the upper side
        k = -1 if x.imag >= 0 else 1
        direct = lambert_w(x, k)
        rel = abs(wv.w - direct.w) / abs(direct.w)
        assert rel <= 1e-10, xi


def test_array_evaluator_matches_scalar():
    rng = np.random.default_rng(14)
    xs = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
    for k in (-1, 0, 1):
        arr = lambert_w_array(xs, k)
        for x, w in zip(xs, arr):
            assert abs(w - lambert_w(x, k).w) < 1e-13


def test_residual_reported():
    wv = lambert_w(2.5 + 0.5j, 0, tol=1e-13)
    assert wv.residual <= 1e-13 * max(1.0, abs(2.5 + 0.5j))


def test_kernel_name_reported():
    assert gammares.BACKEND == "python"


def test_array_matches_scalar_on_random_points():
    rng = np.random.default_rng(9)
    xs = rng.uniform(-4, 4, 300) + 1j * rng.uniform(-4, 4, 300)
    for k in (-3, -1, 0, 1, 2):
        arr = lambert_w_array(xs, k)
        for x, w in zip(xs, arr):
            ws = lambert_w(x, k).w
            assert abs(w - ws) <= 1e-12 * (1 + abs(ws)), (x, k)


def test_array_matches_scalar_on_cut_and_near_branch_point():
    xs = np.array([-0.5, -1.0, -EM1, -EM1 + 1e-6, complex(-0.3, -0.0),
                   -0.367879], dtype=complex)
    for k in (-1, 0, 1):
        arr = lambert_w_array(xs, k)
        for x, w in zip(xs, arr):
            assert abs(w - lambert_w(x, k).w) <= 1e-11, (x, k)


def test_array_keeps_shape():
    rng = np.random.default_rng(10)
    xs = (rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200)).reshape(20, 10)
    for k in (-1, 0, 1):
        arr = lambert_w_array(xs, k)
        assert arr.shape == xs.shape
        assert np.array_equal(arr.ravel(), lambert_w_array(xs.ravel(), k))


def test_array_input_checks():
    with pytest.raises(DomainError):
        lambert_w_array(np.array([1.0, 0.0]), 1)
    with pytest.raises(DomainError):
        lambert_w_array(np.zeros((2, 2)), -1)
    with pytest.raises(DomainError):
        lambert_w_array(np.array([1.0]), 0, tol=0.0)
    assert lambert_w_array(np.array([0.0, 1.0]), 0)[0] == 0


def test_polish_contract():
    x = 1.7 + 0.3j
    w, res, ok = w_polish(x, 0.5 + 0.1j, 1e-13)
    assert ok and abs(w * cmath.exp(w) - x) <= 1e-13 * abs(x)
    assert res == abs(w * cmath.exp(w) - x)
