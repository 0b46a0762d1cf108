"""Verification suites: every numbered check is a self-contained
cross-validation of one published identity, with its tolerance pinned
here.  The CLI `verify` command and the acceptance test module both run
this registry, so there is a single source of truth for pass/fail.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import reference
from .borelplane import (MINOR_LAMBDA32, SurfacePoint, alien, alien_plus,
                         germ_magnitude, germ_ratio, major_lambda32,
                         minor_chi, minor_germ_sampler, minor_lambda32,
                         ray_sampler, surface_sampler)
from .errors import QuadratureError
from .exactseries import (a_coefficients, double_factorial_odd, lambda_tilde,
                          series_exp, stirling_series)
from .lambertw import lambert_w
from .laplace import (_decay_rate, _tail_radius, laplace_hankel, laplace_ray,
                      laplace_real_major)
from .quadrature import QuadratureSpec, adaptive_quad
from .realmajor import (minor_lambda1_contour, rho_continue, rho_lambda_c,
                        rho_nu_c, rho_on_sheet)

__all__ = ["run_suite", "CHECKS", "FAST", "FULL", "CheckResult",
           "stokes_records"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tol: float
    seconds: float
    detail: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "residual": self.residual, "tol": self.tol,
                "seconds": round(self.seconds, 3), "detail": self.detail}


# --- exact-arithmetic checks -------------------------------------------------

_A_REFERENCE = [Fraction(1), Fraction(1, 3), Fraction(1, 36),
                Fraction(-1, 270), Fraction(1, 4320), Fraction(1, 17010),
                Fraction(-139, 5443200)]


def check_coefficients():
    """a_1..a_7 of the inductive recursion, exact."""
    got = a_coefficients(7)
    bad = sum(1 for g, w in zip(got, _A_REFERENCE) if g != w)
    return float(bad), 0.5, {"a_7": str(got[6])}


def check_exp_identity():
    """Termwise identity between exp of the log series and the direct
    normalization series, through order 12."""
    ex = series_exp(stirling_series(12))
    lt = lambda_tilde(12)
    bad = sum(1 for n in range(13) if ex.coefficient(n) != lt.coefficient(n))
    return float(bad), 0.5, {"orders_checked": 13}


# --- resummation checks ------------------------------------------------------

def check_resum_lambda():
    """Directional Laplace of the minor against z^(-3/2) lambda(z)."""
    spec = QuadratureSpec()
    sampler = ray_sampler("lambda_3_2", 0.0)
    worst = 0.0
    for z in (2.0, 5.0, 10.0, 3 + 3j):
        res = laplace_ray(sampler, 0.0, z, spec, growth=(0.5, 2.0))
        ref = z ** -1.5 * reference.lambda_ref(z)
        worst = max(worst, abs(res.value - ref) / abs(ref))
    return worst, 1e-8, {}


def check_resum_chi():
    """Same for the reciprocal normalization: z^(-3/2)/lambda(z)."""
    spec = QuadratureSpec()
    sampler = ray_sampler("chi", 0.0)
    worst = 0.0
    for z in (2.0, 5.0, 3 + 3j):
        res = laplace_ray(sampler, 0.0, z, spec, growth=(0.1, 3.0))
        ref = z ** -1.5 / reference.lambda_ref(z)
        worst = max(worst, abs(res.value - ref) / abs(ref))
    return worst, 1e-8, {}


def check_resum_mu():
    """Laplace of the meromorphic minor against log lambda(z), absolute."""
    spec = QuadratureSpec()
    sampler = ray_sampler("mu", 0.0)
    worst = 0.0
    for z in (3.0, 5.0, 10.0):
        res = laplace_ray(sampler, 0.0, z, spec, growth=(0.0, 0.2),
                          sqrt_origin=False)
        worst = max(worst, abs(res.value - cmath.log(reference.lambda_ref(z))))
    return worst, 1e-10, {}


def check_hankel_major():
    """Hankel transform of the major: matches the ray transform of the
    minor and is independent of the circle radius."""
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-12)
    major = surface_sampler("lambda_3_2", major=True)
    minor = ray_sampler("lambda_3_2", 0.0)
    worst_ref = 0.0
    worst_delta = 0.0
    for z in (2.0, 5.0, 10.0, 3 + 3j):
        ref = z ** -1.5 * reference.lambda_ref(z)
        vals = {}
        for d in (0.1, 0.5):
            res = laplace_hankel(major, 0.0, z, spec, growth=(0.5, 2.0),
                                 delta=d, minor_ray=minor)
            vals[d] = res.value
            worst_ref = max(worst_ref, abs(res.value - ref) / abs(ref))
        worst_delta = max(worst_delta, abs(vals[0.1] - vals[0.5]) / abs(ref))
    # two sub-tolerances: report the binding one
    resid = max(worst_ref / 1e-7, worst_delta / 1e-9)
    return resid, 1.0, {"vs_reference": worst_ref, "delta_invariance": worst_delta}


# --- real-major checks -------------------------------------------------------

def _laplace_of_reference(fn, xi: complex, spec: QuadratureSpec,
                          alpha: float = 0.0) -> complex:
    """Direct quadrature of int e^{-w xi} fn(w) dw along w = t e^{i alpha},
    t from 0 to inf: the real-major of fn at xi, on any sheet the rotated
    ray reaches with Re(xi e^{i alpha}) > 0.  fn must be analytic on the
    ray and ~1 at infinity.  Kept apart from laplace_ray on purpose."""
    ph = cmath.exp(1j * alpha)
    decay = (complex(xi) * ph).real
    r_cut = (math.log(10.0 / spec.abs_tol) + 4.0) / decay

    def f(ts):
        ts = np.asarray(ts, dtype=float)
        return np.array([cmath.exp(-(t * ph) * xi) * fn(t * ph) * ph for t in ts])

    def f_sub(ss):
        ss = np.asarray(ss, dtype=float)
        return f(ss * ss) * 2.0 * ss

    a = adaptive_quad(f_sub, 0.0, 1.0, spec)
    b = adaptive_quad(f, 1.0, r_cut, spec)
    tail = cmath.exp(-r_cut * ph * xi) / xi
    return a.value + b.value + tail


def check_realmajor_roundtrip():
    """Real-major round trip: the wrapped-contour transform of the
    Q-integral real-major returns lambda(z); and the Q-integral equals the
    direct z-quadrature real-major pointwise."""
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)

    def rho_surface(t, th):
        return complex(rho_on_sheet(0.0, t, th, spec).value)

    worst_rt = 0.0
    for z in (2.0, 5.0, 3 + 2j):
        res = laplace_real_major(rho_surface, 0.0, z, spec, growth=(0.0, 3.0))
        ref = reference.lambda_ref(z)
        worst_rt = max(worst_rt, abs(res.value - ref) / abs(ref))
    worst_pt = 0.0
    for xi in (0.5, 1.0, 1 + 1j):
        direct = _laplace_of_reference(reference.lambda_ref, xi, spec)
        worst_pt = max(worst_pt, abs(complex(rho_lambda_c(0.0, xi, spec).value)
                                     - direct))
    resid = max(worst_rt, worst_pt)
    return resid, 1e-6, {"round_trip": worst_rt, "pointwise": worst_pt}


def check_nu_variant():
    """The e^(Q/2) weighted integral against the direct transform of the
    half-shifted normalization."""
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12)
    worst = 0.0
    for xi in (0.5, 1.0):
        direct = _laplace_of_reference(reference.nu_ref, xi, spec)
        worst = max(worst, abs(complex(rho_nu_c(0.0, xi, spec).value) - direct))
    return worst, 1e-6, {}


def check_contour_coefficients():
    """Cauchy coefficients of the closed-contour minor at radius 0.05
    against (2n+1)!! a_{2n+1} / n!."""
    spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13)
    a = a_coefficients(9)
    m_samples = 32
    rad = 0.05
    vals = np.array([minor_lambda1_contour(rad * cmath.exp(2j * math.pi * k / m_samples), spec)
                     for k in range(m_samples)])
    coeffs = np.fft.fft(vals) / m_samples
    worst = 0.0
    for n in range(4):
        expect = double_factorial_odd(n) * float(a[2 * n]) / math.factorial(n)
        got = coeffs[n] / rad ** n
        worst = max(worst, abs(got - expect) / abs(expect))
    return worst, 1e-7, {}


def check_realmajor_continuation():
    """Continuation of the real-major to sheet angle 5 pi/4 against the
    rotated-ray transform of the reference, plus a nonzero monodromy when
    winding around the singular point over 2 pi i (on the sheet where the
    singularity actually sits, one full turn past the principal sector)."""
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
    theta = 5.0 * math.pi / 4.0
    got = complex(rho_on_sheet(0.0, 1.0, theta, spec).value)
    # oracle: rotate the integration ray of the defining transform
    oracle = _laplace_of_reference(reference.lambda_ref, cmath.exp(1j * theta),
                                   spec, alpha=-0.88 * math.pi)
    resid_cont = abs(got - oracle)

    # winding: out along arg -3 pi/2, once around the point over 2 pi i
    th_t = -1.5 * math.pi
    arc = [cmath.exp(1j * th_t * k / 40) for k in range(41)]
    ray_out = [1j * (1 + t * (2 * math.pi - 2)) for t in np.linspace(0, 1, 25)[1:]]
    start = 1j * (2 * math.pi - 1)
    center = 2j * math.pi
    loop = [center + (start - center) * cmath.exp(1j * s)
            for s in np.linspace(0.0, 2.0 * math.pi, 60)]
    path = arc + ray_out + loop + list(reversed(ray_out)) + list(reversed(arc))
    looped = complex(rho_continue(0.0, path, spec).value)
    base = complex(rho_lambda_c(0.0, 1.0, spec).value)
    monodromy = abs(looped - base)
    passed_mono = monodromy > 1e-8
    resid = resid_cont if passed_mono else math.inf
    return resid, 1e-5, {"continuation": resid_cont, "monodromy": monodromy}


# --- Stokes / alien checks ---------------------------------------------------

# the lateral rays run at arg xi = pi/2 -+ STOKES_OFFSET; both kernels
# decay only for STOKES_OFFSET - pi < arg z < -STOKES_OFFSET
STOKES_OFFSET = 0.12


def stokes_records(z: complex, spec: QuadratureSpec = None) -> dict:
    """Lateral transforms on both sides of the singular direction pi/2,
    the connection factor, and the reflection-formula reconstruction.

    Raises ValueError up front for z whose lateral rays decay too weakly
    to meet the tail bound inside spec.max_radius.  The reflection product
    Gamma(z) Gamma(1-z) sin(pi z) / pi is summed in logs, so it stays
    finite where Gamma itself leaves double range."""
    z = complex(z)
    if not STOKES_OFFSET - math.pi < cmath.phase(z) < -STOKES_OFFSET:
        raise ValueError(f"z must satisfy -pi < arg z < 0, more than "
                         f"{STOKES_OFFSET} away from both ends (the lateral "
                         f"rays arg xi = pi/2 -+ {STOKES_OFFSET} need a "
                         f"decaying kernel)")
    spec = spec or QuadratureSpec(rel_tol=1e-11, abs_tol=1e-12)
    growth = (1.0, 25.0)
    rays = (("below", math.pi / 2 - STOKES_OFFSET),
            ("above", math.pi / 2 + STOKES_OFFSET))
    for _, th in rays:
        try:
            _tail_radius(_decay_rate(z, th), *growth, 0.1 * spec.abs_tol,
                         spec.max_radius, 0.0)
        except QuadratureError as exc:
            raise ValueError(
                f"arg z = {cmath.phase(z):g} is too near the end of its range "
                f"for |z| = {abs(z):g}: on the lateral ray arg xi = {th:g} "
                f"the {exc}") from exc
    lat = {side: laplace_ray(ray_sampler("lambda_3_2", th), th, z, spec,
                             growth=growth).value
           for side, th in rays}
    factor = 1.0 / (1.0 - cmath.exp(-2j * math.pi * z))
    stokes_resid = abs(lat["below"] - factor * lat["above"]) / abs(lat["below"])
    # Gamma on both sides of the reflection formula, reconstructed from
    # the two lateral transforms: log lambda(z) and log lambda(w) for
    # w = e^{i pi} z, plus the Stirling factors
    w = cmath.exp(1j * math.pi) * z
    log_z, log_w = cmath.log(z), cmath.log(w)
    log_lam_plus = cmath.log(lat["below"]) + 1.5 * log_z
    log_lam_minus = -0.5j * math.pi - 1.5 * log_w - cmath.log(lat["above"])
    log_reflection = (log_lam_plus + log_lam_minus + math.log(2.0 * math.pi)
                      + (z - 0.5) * log_z - z + (w - 0.5) * log_w - w
                      + cmath.log(-z) + reference._log_sin(math.pi * z)
                      - math.log(math.pi))
    return {
        "z": [z.real, z.imag],
        "lateral_below": [lat["below"].real, lat["below"].imag],
        "lateral_above": [lat["above"].real, lat["above"].imag],
        "factor": [factor.real, factor.imag],
        "stokes_residual": stokes_resid,
        "reflection_residual": abs(cmath.exp(log_reflection) - 1.0),
    }


def check_stokes_reflection():
    worst = 0.0
    for z in (2 * cmath.exp(-1j * math.pi / 4), 5 * cmath.exp(-1j * math.pi / 3)):
        rec = stokes_records(z)
        worst = max(worst, rec["stokes_residual"], rec["reflection_residual"])
    return worst, 1e-6, {}


def check_alien_operators():
    """Lateral and averaged alien operators at the first branch points:
    germ ratios +-1, +-1/2 and the vanishing right-lateral germ at -4 pi i."""
    f = MINOR_LAMBDA32
    base_up = minor_germ_sampler(f, -math.pi / 2)
    base_dn = minor_germ_sampler(f, -1.5 * math.pi)
    worst = 0.0
    for omega, base, expect in ((2j * math.pi, base_up, 1.0),
                                (-2j * math.pi, base_dn, -1.0)):
        mean, spread = germ_ratio(alien_plus(f, omega), base)
        worst = max(worst, abs(mean - expect) + spread)
    null = germ_magnitude(alien_plus(f, -4j * math.pi))
    refmag = germ_magnitude(base_dn)
    worst = max(worst, null / refmag)
    for omega, base, expect in ((2j * math.pi, base_up, 1.0),
                                (-2j * math.pi, base_dn, -1.0),
                                (4j * math.pi, base_up, 0.5),
                                (-4j * math.pi, base_dn, -0.5)):
        mean, spread = germ_ratio(alien(f, omega), base)
        worst = max(worst, abs(mean - expect) + spread)
    return worst, 1e-6, {"null_germ_vs_reference": null}


def check_symmetry():
    """Reciprocal-normalization minor equals i times the rotated base
    minor on 20 sample points."""
    worst = 0.0
    rng = np.random.default_rng(20)
    for _ in range(20):
        r = float(rng.uniform(0.05, 5.5))
        th = float(rng.uniform(-math.pi - 1.2, -math.pi + 1.2))
        a = minor_chi(SurfacePoint(r, th))
        b = 1j * minor_lambda32(SurfacePoint(r, th - math.pi))
        worst = max(worst, abs(a - b))
    return worst, 1e-12, {}


def check_fast_properties():
    """Defining-relation residuals of Lambert W across branches, and the
    monodromy-variation identity of the major."""
    rng = np.random.default_rng(5)
    worst_w = 0.0
    for _ in range(200):
        r = 10.0 ** rng.uniform(-3, 3)
        phi = rng.uniform(-math.pi + 0.05, math.pi - 0.05)
        x = r * cmath.exp(1j * phi)
        for k in (-2, -1, 0, 1, 2):
            wv = lambert_w(x, k)
            worst_w = max(worst_w, abs(wv.w * cmath.exp(wv.w) - x) / max(1.0, abs(x)))
    worst_var = 0.0
    for r in np.linspace(0.05, 6.2, 24):
        lhs = (major_lambda32(SurfacePoint(r, 0.0))
               - major_lambda32(SurfacePoint(r, -2.0 * math.pi)))
        worst_var = max(worst_var, abs(lhs - minor_lambda32(SurfacePoint(r, 0.0))))
    return max(worst_w, worst_var), 1e-12, {"w_residual": worst_w,
                                            "variation": worst_var}


CHECKS = {
    "coefficients_exact": check_coefficients,
    "exp_identity": check_exp_identity,
    "resum_lambda": check_resum_lambda,
    "resum_chi": check_resum_chi,
    "resum_mu": check_resum_mu,
    "hankel_major": check_hankel_major,
    "realmajor_roundtrip": check_realmajor_roundtrip,
    "nu_variant": check_nu_variant,
    "contour_coefficients": check_contour_coefficients,
    "stokes_reflection": check_stokes_reflection,
    "alien_operators": check_alien_operators,
    "symmetry": check_symmetry,
    "fast_properties": check_fast_properties,
    "realmajor_continuation": check_realmajor_continuation,
}

FAST = ["coefficients_exact", "exp_identity", "resum_lambda", "resum_chi",
        "resum_mu", "symmetry", "alien_operators", "fast_properties"]
FULL = FAST + ["hankel_major", "stokes_reflection", "contour_coefficients",
               "nu_variant", "realmajor_roundtrip", "realmajor_continuation"]


def run_suite(which: str = "fast"):
    """Run a named suite; returns a list of CheckResult."""
    if which == "fast":
        names = FAST
    elif which == "full":
        names = FULL
    else:
        raise ValueError(f"unknown suite {which!r} (use 'fast' or 'full')")
    out = []
    for name in names:
        t0 = time.perf_counter()
        try:
            residual, tol, detail = CHECKS[name]()
            passed = bool(residual <= tol)
        except Exception as exc:  # a crashed check is a failed check
            residual, tol, detail = math.inf, math.nan, {"error": repr(exc)}
            passed = False
        out.append(CheckResult(name, passed, float(residual), float(tol),
                               time.perf_counter() - t0, detail))
    return out
