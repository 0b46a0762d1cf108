"""Independent oracle for the benchmark's ops.

Nothing here calls gammares.  Truths are cached by exact input.

- lambda_3_2, chi, mu and the real-major round trips: mpmath loggamma at
  30 digits.
- rho_on_sheet points: the rotated-ray Laplace integral
      rho_c(xi) = int_0^inf e^{-t phi xi} (t phi)^{-c} lambda(t phi) phi dt,
  |arg phi| < pi and Re(phi xi) > 0, which continues rho to every sheet
  |arg xi| < 3 pi / 2.  The substitution t = s^4 removes the t^{-c-1/2}
  endpoint singularity; QUADPACK integrates in s with scipy's loggamma.
  Each point is computed along two ray angles, which must agree; if they
  do not, a third angle between them must agree with one of the two.
"""

from __future__ import annotations

import cmath
import math
import warnings

import mpmath
import scipy
from scipy import integrate, special

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# ray angles stay this far from the poles of Gamma on arg z = +-pi
_POLE_MARGIN = 0.3
# QUADPACK truncation: e^{-Re(phi xi) t} < e^-60 beyond the cut
_RAY_DECAY = 60.0
# two ray angles of a point must agree to this (relative to max(1, |rho|))
SELF_TEST_TOL = 1e-11


class Oracle:
    def __init__(self, dps: int = 30):
        self.ctx = mpmath.mp.clone()
        self.ctx.dps = dps
        self._cache = {}
        self.self_test_worst = 0.0
        self.self_test_failures = []
        self.self_test_third = 0  # points that needed a third ray angle

    def truth(self, op):
        key = (op.kind, op.args)
        if key not in self._cache:
            self._cache[key] = self._compute(op)
        return self._cache[key]

    def _compute(self, op):
        if op.kind in ("lambda_3_2", "chi", "mu"):
            return self._ray_truth(op.kind, op.args[0])
        if op.kind == "roundtrip":
            c, z = op.args
            return complex(self.ctx.exp(self._log_lambda(z) - c * self.ctx.log(z)))
        if op.kind == "point":
            return self._rho(*op.args)
        raise ValueError(f"no oracle for op kind {op.kind!r}")

    # -- Stirling-normalized Gamma, 30 digits ------------------------------

    def _log_lambda(self, z):
        ctx = self.ctx
        z = ctx.mpc(z)
        return (ctx.loggamma(z) - (z - ctx.mpf(0.5)) * ctx.log(z) + z
                - ctx.log(2 * ctx.pi) / 2)

    def _ray_truth(self, kind, z):
        ctx = self.ctx
        mu = self._log_lambda(z)
        if kind == "mu":
            return complex(mu)
        zz = ctx.mpc(z)
        sign = 1 if kind == "lambda_3_2" else -1
        return complex(zz ** ctx.mpf(-1.5) * ctx.exp(sign * mu))

    # -- real-major points --------------------------------------------------

    def _rho(self, c, r, theta):
        lo = max(-theta - math.pi / 2, -math.pi + _POLE_MARGIN) + 0.1
        hi = min(-theta + math.pi / 2, math.pi - _POLE_MARGIN) - 0.1
        if lo >= hi:
            raise ValueError(f"no admissible ray angle for arg xi = {theta}")
        a1 = min(max(-theta, lo), hi)
        far = lo if a1 - lo > hi - a1 else hi
        a2 = 0.5 * (a1 + far)
        v1 = _rotated_ray(c, r, theta, a1)
        v2 = _rotated_ray(c, r, theta, a2)
        gap = _gap(v1, v2)
        if not gap <= SELF_TEST_TOL:
            # QUADPACK can miss on one ray (by 7e-10 at c = -0.5, r = 0.406,
            # theta = -2.755, arg phi = pi - 0.4, where arg phi = 2.7 is
            # right to 5e-16); a third angle between the two decides
            v3 = _rotated_ray(c, r, theta, 0.5 * (a1 + a2))
            gap, v1 = min((_gap(v1, v3), v1), (_gap(v2, v3), v2), key=lambda p: p[0])
            self.self_test_third += 1
        self.self_test_worst = max(self.self_test_worst, gap)
        if not gap <= SELF_TEST_TOL:
            self.self_test_failures.append((c, r, theta, a1, a2, gap))
        return v1


def _gap(u: complex, v: complex) -> float:
    return abs(u - v) / max(1.0, abs(u))


def _rotated_ray(c: float, r: float, theta: float, alpha: float) -> complex:
    phi = cmath.exp(1j * alpha)
    pxi = phi * r * cmath.exp(1j * theta)

    def f(s):
        if s == 0.0:
            return 0j
        z = s ** 4 * phi
        log_lam = special.loggamma(z) - (z - 0.5) * cmath.log(z) + z - _LOG_SQRT_2PI
        return (cmath.exp(-s ** 4 * pxi - c * (4.0 * math.log(s) + 1j * alpha)
                          + log_lam) * phi * 4.0 * s ** 3)

    s_cut = (_RAY_DECAY / pxi.real) ** 0.25
    # break at |z| = 1..5, beside the first poles of Gamma
    breaks = [n ** 0.25 for n in range(1, 6) if n ** 0.25 < s_cut]
    with warnings.catch_warnings():
        # QUADPACK warns when roundoff stops it short of epsrel; the
        # two-angle self-test is what bounds the oracle's error
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(f, 0.0, s_cut, complex_func=True, epsabs=1e-15,
                                  epsrel=1e-13, limit=2000, points=breaks)
    return complex(value)


def is_wrong(op, result, truth) -> bool:
    """True when an op's flat result (see workloads.py) misses the truth
    by more than its own est_error."""
    re, im, est_error = result
    return not abs(complex(re, im) - truth) <= est_error


def versions() -> dict:
    return {"mpmath": mpmath.__version__, "scipy": scipy.__version__}
