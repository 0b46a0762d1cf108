import cmath
import math

import numpy as np
import pytest

from gammares.errors import DomainError
from gammares.quadrature import QuadratureSpec, adaptive_quad
from gammares.reference import (gamma_ref, lambda_ref, log_gamma_ref,
                                log_lambda_ref, nu_ref, reflection_check)


def euler_integral(z, spec=QuadratureSpec(rel_tol=1e-13, abs_tol=1e-14)):
    """Independent Gamma oracle: direct quadrature of the Euler integral,
    valid for Re z >= 1."""
    def f(ts):
        ts = np.asarray(ts, dtype=float)
        return ts ** (z - 1.0) * np.exp(-ts)

    cut = 60.0 + 3.0 * abs(z)
    val = adaptive_quad(f, 0.0, cut, spec).value
    return val


def test_known_values():
    assert abs(gamma_ref(2.0).value - 1.0) < 1e-14
    assert abs(gamma_ref(0.5).value - math.sqrt(math.pi)) < 1e-14
    assert abs(gamma_ref(5.0).value - 24.0) < 1e-12


def test_poles_rejected():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError):
            gamma_ref(z)


def test_against_euler_integral():
    for z in (1.0, 2.3, 3.7, 5.5, 8.0, 10.0):
        ref = gamma_ref(z).value
        orc = euler_integral(z)
        assert abs(ref - orc) / abs(orc) <= 1e-10, z


def test_functional_equation():
    rng = np.random.default_rng(2)
    for _ in range(60):
        z = complex(rng.uniform(0.6, 8.0), rng.uniform(-4.0, 4.0))
        lhs = gamma_ref(z + 1.0).value
        rhs = z * gamma_ref(z).value
        assert abs(lhs - rhs) / abs(lhs) <= 1e-12


def test_reflection_residuals():
    assert reflection_check(0.5) < 1e-14
    assert reflection_check(0.3 + 0.4j) <= 1e-12
    assert reflection_check(-1.2) <= 1e-12


def test_log_gamma_consistency():
    for z in (1.5, 4.0, 9.0 + 2.0j):
        assert abs(cmath.exp(log_gamma_ref(z)) - gamma_ref(z).value) \
            / abs(gamma_ref(z).value) < 1e-12


def test_lambda_normalization_limits():
    # lambda -> 1 along the positive axis
    for z in (50.0, 200.0):
        assert abs(lambda_ref(z) - 1.0) < 1.0 / (10.0 * z)
    # lambda(1) = e / sqrt(2 pi)
    assert abs(lambda_ref(1.0) - math.e / math.sqrt(2 * math.pi)) < 1e-13
    # small-z behaviour: lambda(z) = z^(-1/2) z^(-z) / sqrt(2 pi) * (1 + O(z)),
    # the z^-z factor still contributing ~5% at z = 0.01
    z = 0.01
    assert abs(lambda_ref(z) * z ** (0.5 + z) * math.sqrt(2 * math.pi) - 1.0) < 0.01
    assert abs(lambda_ref(z) * z ** 0.5 * math.sqrt(2 * math.pi) - 1.0) < 2 * abs(z * math.log(z))


def test_lambda_rejects_cut():
    with pytest.raises(DomainError):
        lambda_ref(-3.0)


def test_nu_values():
    z = 0.5
    expect = gamma_ref(1.0).value * math.exp(0.5) * (0.5) ** -0.5 / math.sqrt(2 * math.pi)
    assert abs(nu_ref(z) - expect) < 1e-13
    assert abs(nu_ref(2.0) - gamma_ref(2.5).value
               * math.exp(2.0) / (4.0 * math.sqrt(2 * math.pi))) < 1e-13
    for z in (80.0, 300.0):
        assert abs(nu_ref(z) - 1.0) < 1.0 / (10.0 * z)


def test_est_error_field():
    gv = gamma_ref(3.3 + 1.1j)
    assert gv.est_error <= 1e-12


@pytest.mark.parametrize("r", [20.0, 30.0, 100.0, 1e3, 1e4, 1e6])
def test_log_lambda_accurate_at_large_z(r):
    """log lambda is the small difference of two large terms at large |z|;
    it must still hold double precision against 30-digit mpmath."""
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 30
    for arg in (0.0, 0.7, -0.7, 1.4, -1.4):
        z = r * cmath.exp(1j * arg)
        zm = mp.mpc(z)
        truth = (mp.loggamma(zm) - (zm - 0.5) * mp.log(zm) + zm
                 - mp.log(2 * mp.pi) / 2)
        got = log_lambda_ref(z)
        assert abs(got - complex(truth)) <= 4e-16 * abs(complex(truth)), (r, arg)
        lam = complex(mp.exp(truth))
        assert abs(lambda_ref(z) - lam) <= 4e-16 * abs(lam), (r, arg)
