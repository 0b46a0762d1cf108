"""Independent reference values: Gamma, the normalizations lambda_c and
nu_c, and the reflection-formula residual.

Nothing here touches the Borel-plane machinery, so every resummation test
against this module is a genuine cross-check.  Gamma uses the Lanczos
approximation (g = 7, n = 9 coefficient set of Godfrey/Pugh, accurate to
~1e-13 relative in double precision); the accuracy claim is not trusted
but verified by the functional-equation and Euler-integral tests.

log lambda is small for large |z| while log Gamma and (z - 1/2) log z are
not, so their difference cancels; for |z| >= 20 in the right half-plane
it is instead summed directly from the Stirling series to z^-19, whose
truncation error there is below 1e-20 relative (DLMF 5.11.ii bound).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError
from .exactseries import stirling_series

__all__ = ["GammaValue", "gamma_ref", "log_gamma_ref", "lambda_ref", "nu_ref",
           "reflection_check"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Lanczos g = 7, 9 coefficients (Godfrey's set, widely reproduced).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_EST_REL_ERR = 1e-13

# Stirling series of log lambda: coefficient of z^-n, n = 0..19
_STIRLING = tuple(float(c) for c in stirling_series(19).coeffs)
_STIRLING_MIN_ABS_Z = 20.0


@dataclass(frozen=True)
class GammaValue:
    value: complex
    est_error: float


def _lanczos_sum(z: complex) -> complex:
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z + i - 1.0)
    return acc


def gamma_ref(z: complex) -> GammaValue:
    """Gamma(z); reflection is used for Re z < 1/2."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise DomainError(f"Gamma pole at z = {z.real:g}")
    if z.real < 0.5:
        s = cmath.sin(cmath.pi * z)
        if s == 0:
            raise DomainError(f"Gamma pole at z = {z!r}")
        g = gamma_ref(1.0 - z).value
        return GammaValue(cmath.pi / (s * g), _EST_REL_ERR)
    zz = z - 1.0
    t = zz + _LANCZOS_G + 0.5
    val = _SQRT_2PI * t ** (zz + 0.5) * cmath.exp(-t) * _lanczos_sum(z)
    return GammaValue(val, _EST_REL_ERR)


def _log_sin(w: complex) -> complex:
    """log sin(w), overflow-safe for large |Im w| (value mod 2 pi i)."""
    if abs(w.imag) < 80.0:
        return cmath.log(cmath.sin(w))
    # factor out the dominant exponential
    if w.imag < 0:
        return 1j * w + cmath.log(1.0 - cmath.exp(-2j * w)) - cmath.log(2j)
    return -1j * w + cmath.log(1.0 - cmath.exp(2j * w)) + 1j * math.pi - cmath.log(2j)


def log_gamma_ref(z: complex) -> complex:
    """A branch of log Gamma(z): principal and overflow-safe for
    Re z >= 1/2, continued through the reflection formula otherwise (the
    imaginary part is then only defined mod 2 pi)."""
    z = complex(z)
    if z.real < 0.5:
        if z.imag == 0.0 and z.real == int(z.real):
            raise DomainError(f"Gamma pole at z = {z.real:g}")
        return (math.log(math.pi) - _log_sin(cmath.pi * z)
                - log_gamma_ref(1.0 - z))
    zz = z - 1.0
    t = zz + _LANCZOS_G + 0.5
    return (0.5 * math.log(2.0 * math.pi) + (zz + 0.5) * cmath.log(t) - t
            + cmath.log(_lanczos_sum(z)))


def log_lambda_ref(z: complex, c: complex = 0.0) -> complex:
    """A branch of log of z^-c Gamma(z) / (sqrt(2 pi) z^(z-1/2) e^-z);
    overflow-safe on all of C - (-inf, 0] (imaginary part mod 2 pi when
    Re z <= 1/2)."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError("log_lambda_ref needs z off (-inf, 0]")
    if z.real > 0.0 and abs(z) >= _STIRLING_MIN_ABS_Z:
        u = 1.0 / z
        acc = 0j
        for a in reversed(_STIRLING):
            acc = acc * u + a
        return acc - c * cmath.log(z)
    return (log_gamma_ref(z) - (z - 0.5 + c) * cmath.log(z) + z
            - 0.5 * math.log(2.0 * math.pi))


def lambda_ref(z: complex, c: complex = 0.0) -> complex:
    """z^-c * Gamma(z) / (sqrt(2 pi) z^(z-1/2) e^-z), principal powers,
    for z off (-inf, 0].  (The exponential of the log form is insensitive
    to the mod-2-pi ambiguity of the reflected log-Gamma branch.)"""
    return cmath.exp(log_lambda_ref(z, c))


def nu_ref(z: complex, c: complex = 0.0) -> complex:
    """z^-c * Gamma(z+1/2) / (sqrt(2 pi) z^z e^-z), principal powers."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError("nu_ref needs z off (-inf, 0]")
    return cmath.exp(log_gamma_ref(z + 0.5) - (z + c) * cmath.log(z) + z
                     - 0.5 * math.log(2.0 * math.pi))


def reflection_check(z: complex) -> float:
    """|Gamma(z) Gamma(1-z) sin(pi z)/pi - 1|."""
    z = complex(z)
    val = gamma_ref(z).value * gamma_ref(1.0 - z).value * cmath.sin(cmath.pi * z) / cmath.pi
    return abs(val - 1.0)
