"""Directional, Hankel and real-major Laplace transforms.

laplace_ray      int_0^{e^{i theta} inf} e^{-z xi} minor(xi) d xi
laplace_hankel   circle of radius delta around 0 over the major, plus the
                 ray integral of its monodromy variation
laplace_real_major
                 (1/2 pi i) x Hankel contour pointing away from the decay
                 direction, applied to a real-major

Ray samplers map an ndarray of radii to values; surface samplers (majors,
real-majors) are scalar callables (r, sheet_theta) -> complex, each call
costing up to milliseconds (a real-major is a Q-path quadrature).  The
Hankel and real-major transforms are one circle piece plus two arms
carrying the difference of two sheets.  Both pieces go through
quadrature.product_quad: the closed-form kernel e^{-+z xi} (with its
Jacobian) enters through its modified moments, and the surface sampler is
called only at nested Chebyshev points, in psi on the circle and in
s = log t on the arms, so the call count follows the sampler's smoothness,
not the kernel's growth e^{|z| delta}.  A given explicit minor ray sampler
(laplace_hankel's `minor_ray`) goes through laplace_ray instead.
`LaplaceResult.panels` counts surface-sampler calls for the product-rule
pieces and Gauss-Kronrod panels for laplace_ray.

The product rule's est_error is never below the target it met,
max(abs_tol, rel_tol |piece|).  Its noise floor includes the rounding of
the kernel, 4 eps int |K f|.  Where that exceeds the target, as on a
circle with |z| delta past about 12 at abs_tol 1e-12, it raises
QuadratureError after 17 samples.

Truncation radii come from caller-supplied linear growth certificates
|f(xi)| <= A |xi| + B on the ray, turned into explicit tail bounds that
are added to the reported error estimate; the arms use laplace_ray's.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureError, StokesJumpError
from .quadrature import QuadratureSpec, QuadResult, adaptive_quad, product_quad
from .reference import gamma_ref

__all__ = [
    "Direction", "HalfPlane", "LaplaceResult", "QuadratureSpec",
    "laplace_ray", "laplace_hankel", "laplace_real_major",
    "glue_directions", "SectorGlue",
    "monomial_minor_sampler", "monomial_major_sampler", "monomial_real_major",
]


@dataclass(frozen=True)
class Direction:
    theta: float


@dataclass(frozen=True)
class HalfPlane:
    """Pi^theta_tau = { -theta-pi/2 < arg z < -theta+pi/2,
    Re(z e^{i theta}) > tau }."""

    theta: float
    tau: float

    def __post_init__(self):
        if self.tau <= 0:
            raise DomainError("HalfPlane needs tau > 0")

    def contains(self, z: complex) -> bool:
        return (complex(z) * cmath.exp(1j * self.theta)).real > self.tau


@dataclass(frozen=True)
class LaplaceResult:
    value: complex
    est_error: float
    panels: int
    z: complex
    theta: float

    def __complex__(self):
        return complex(self.value)

    def to_record(self) -> dict:
        return {
            "z": [self.z.real, self.z.imag],
            "theta": self.theta,
            "value": [self.value.real, self.value.imag],
            "est_error": self.est_error,
            "panels": self.panels,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record())


def _theta_of(theta) -> float:
    return theta.theta if isinstance(theta, Direction) else float(theta)


def _decay_rate(z: complex, theta: float) -> float:
    c = (complex(z) * cmath.exp(1j * theta)).real
    if c <= 1e-3:
        raise DomainError(
            f"z={z!r} is outside the half-plane of direction theta={theta:g}")
    return c


def _tail_radius(c: float, a: float, b: float, target: float, rmax: float,
                 lower: float) -> float:
    """Smallest R >= lower with (A R + B) e^{-c R} <= target (plus margin),
    searched from max(lower, 1/c), past the bound's maximum.  It is about
    30/c, so the kernel's decay spans [lower, R] at every |z|."""
    r = max(lower, 1.0 / c)
    for _ in range(200):
        bound = (a * r + b) * math.exp(-c * r)
        if bound <= target:
            return r
        rn = math.log(max(a * r + b, 1e-300) / target) / c
        r = max(rn, r * 1.1)
        if r > rmax:
            raise QuadratureError(
                f"tail bound unattainable within max_radius={rmax:g}")
    raise QuadratureError("tail radius iteration did not settle")


def _tail_bound(c: float, a: float, b: float, r: float) -> float:
    return math.exp(-c * r) * (a * (r / c + 1.0 / (c * c)) + b / c)


def laplace_ray(minor, theta, z: complex, spec: QuadratureSpec,
                growth=(1.0, 20.0), sqrt_origin: bool = True,
                lower: float = 0.0) -> LaplaceResult:
    """Directional Laplace transform of a minor along arg xi = theta.

    `minor` maps an ndarray of radii t to minor values at xi = t e^{i theta}.
    `growth` = (A, B) certifies |minor| <= A t + B on the ray, fixing the
    truncation radius r_cut: the smallest R >= lower where the bound times
    the kernel falls to 0.1 * spec.abs_tol, about 30 / Re(z e^{i theta}).
    The kernel therefore spans [lower, r_cut] at every |z|, and the
    closed-form tail beyond r_cut is added to est_error.  When the bound
    already holds at `lower`, the value is 0 and est_error is that tail.
    With sqrt_origin the substitution t = s^2 absorbs an integrable
    xi^(1/2)-type singularity at the origin.
    """
    th = _theta_of(theta)
    z = complex(z)
    c = _decay_rate(z, th)
    a_growth, b_growth = growth
    r_cut = _tail_radius(c, a_growth, b_growth, 0.1 * spec.abs_tol,
                         spec.max_radius, lower)
    tail = _tail_bound(c, a_growth, b_growth, r_cut)
    if r_cut == lower:
        return LaplaceResult(0j, tail, 0, z, th)
    ph = cmath.exp(1j * th)
    zp = z * ph

    def g(ts):
        ts = np.asarray(ts, dtype=float)
        return np.exp(-zp * ts) * np.asarray(minor(ts), dtype=complex) * ph

    value = 0j
    err = 0.0
    panels = 0
    lo = lower
    if sqrt_origin and lower == 0.0:
        t0 = min(1.0, 0.5 * r_cut)

        def g_sub(ss):
            ss = np.asarray(ss, dtype=float)
            return g(ss * ss) * 2.0 * ss

        s0 = math.sqrt(t0)
        part = adaptive_quad(g_sub, 0.0, s0, spec)
        value += part.value
        err += part.est_error
        panels += part.panels
        lo = t0
    part = adaptive_quad(g, lo, r_cut, spec)
    value += part.value
    err += part.est_error
    panels += part.panels
    return LaplaceResult(value, err + tail, panels, z, th)


def _hankel_arms(sample, sheets, th: float, z: complex, spec: QuadratureSpec,
                 growth, d: float) -> QuadResult:
    """int_d^inf e^{-z t e^{i th}} D(t) e^{i th} dt for the sheet difference
    D(t) = sample(t, sheets[0]) - sample(t, sheets[1]) of a scalar surface
    sampler, by product_quad in s = log t.  It is truncated at laplace_ray's
    r_cut and carries its tail bound; panels counts sample calls."""
    c = _decay_rate(z, th)
    a_growth, b_growth = growth
    r_cut = _tail_radius(c, a_growth, b_growth, 0.1 * spec.abs_tol,
                         spec.max_radius, d)
    tail = _tail_bound(c, a_growth, b_growth, r_cut)
    if r_cut == d:
        return QuadResult(0j, tail, 0)
    ph = cmath.exp(1j * th)
    zp = z * ph

    def kernel(ss):
        ts = np.exp(ss)
        return np.exp(-zp * ts) * ts * ph

    def difference(s):
        t = math.exp(s)
        return sample(t, sheets[0]) - sample(t, sheets[1])

    arms = product_quad(kernel, difference, math.log(d), math.log(r_cut), spec)
    return QuadResult(arms.value, arms.est_error + tail, 2 * arms.panels)


def _hankel_loop(sample, zk: complex, d: float, psi0: float, psi1: float,
                 spec: QuadratureSpec) -> QuadResult:
    """int e^{zk xi} sample(d, psi) d xi over xi = d e^{i psi}, psi from psi0
    to psi1, by product_quad in psi; panels counts sample calls."""
    def kernel(psis):
        xi = d * np.exp(1j * psis)
        return np.exp(zk * xi) * 1j * xi

    return product_quad(kernel, lambda psi: sample(d, psi), psi0, psi1, spec)


def laplace_hankel(major, theta, z: complex, spec: QuadratureSpec,
                   growth=(1.0, 20.0), delta: float = None,
                   minor_ray=None) -> LaplaceResult:
    """Laplace transform of a singularity through one of its majors.

    `major` maps a surface point (r, sheet_theta) to a value.  The circle
    of radius delta collects the full turn [theta - 2 pi, theta]; the ray
    part integrates the minor from delta outward.  When `minor_ray` (an
    ndarray sampler of radii, as produced by borelplane.ray_sampler) is
    given, laplace_ray integrates it.  Otherwise the minor is taken as the
    pointwise monodromy variation major(t, theta) - major(t, theta - 2 pi)
    and integrated by the product rule -- valid only while the full turn
    at radius t winds around no branch point but the origin, so pass an
    explicit sampler whenever the ray extends past other singular points.
    The circle always uses the product rule.  The result is
    delta-independent.
    """
    th = _theta_of(theta)
    z = complex(z)
    d = spec.hankel_delta if delta is None else float(delta)
    if not 0 < d < 2.0 * math.pi:
        raise DomainError("delta must sit below the first branch point")
    if minor_ray is None:
        ray = _hankel_arms(major, (th, th - 2.0 * math.pi), th, z, spec,
                           growth, d)
    else:
        ray = laplace_ray(minor_ray, th, z, spec, growth=growth,
                          sqrt_origin=False, lower=d)
    circle = _hankel_loop(major, -z, d, th - 2.0 * math.pi, th, spec)
    return LaplaceResult(circle.value + ray.value,
                         circle.est_error + ray.est_error,
                         circle.panels + ray.panels, z, th)


def laplace_real_major(rmajor, theta, z: complex, spec: QuadratureSpec,
                       growth=(0.0, 3.0), delta: float = None) -> LaplaceResult:
    """Laplace transform recovered from a real-major.

    `rmajor` maps (t, sheet_theta) to the real-major value at t e^{i sheet}.
    The contour wraps the ray opposite to theta: two arms on the sheets
    theta -+ pi, whose difference is integrated from delta outward with
    laplace_ray's truncation, plus the connecting circle of radius delta
    with kernel e^{+z xi}, all divided by 2 pi i.  Both pieces use the
    product rule, so `panels` counts rmajor calls.
    """
    th = _theta_of(theta)
    z = complex(z)
    d = spec.hankel_delta if delta is None else float(delta)
    arms = _hankel_arms(rmajor, (th - math.pi, th + math.pi), th, z, spec,
                        growth, d)
    circle = _hankel_loop(rmajor, z, d, th - math.pi, th + math.pi, spec)
    return LaplaceResult((arms.value + circle.value) / (2j * math.pi),
                         (arms.est_error + circle.est_error) / (2.0 * math.pi),
                         arms.panels + circle.panels, z, th)


@dataclass(frozen=True)
class SectorGlue:
    """Agreement record over a singularity-free sector of directions, plus
    an evaluator that picks the best admissible direction per z."""

    directions: tuple
    values: tuple
    max_mismatch: float
    evaluator: Callable[[complex], complex] = None

    def __call__(self, z: complex) -> complex:
        if self.evaluator is None:
            raise DomainError("no evaluator attached to this glue")
        return self.evaluator(z)


def glue_directions(results: Sequence, interval, rel_tol: float,
                    transform: Callable[[float, complex], LaplaceResult] = None) -> SectorGlue:
    """Check that directional transforms computed at a common z agree.

    `results` is a list of (theta or Direction, value) pairs; a pairwise
    mismatch beyond 10 * rel_tol * scale signals a crossed singular
    direction and raises StokesJumpError.  When `transform`(theta, z) is
    given, the returned glue also evaluates on the sector domain, choosing
    the direction in `interval` that maximizes kernel decay for each z.
    """
    lo, hi = float(interval[0]), float(interval[1])
    pairs = [( _theta_of(t), complex(v)) for t, v in results]
    for t, _ in pairs:
        if not lo <= t <= hi:
            raise DomainError(f"direction {t:g} outside the declared sector")
    scale = max(abs(v) for _, v in pairs)
    mism = 0.0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            mism = max(mism, abs(pairs[i][1] - pairs[j][1]))
    if mism > 10.0 * rel_tol * max(scale, 1e-300):
        raise StokesJumpError(
            f"directional values disagree by {mism:.3e} (scale {scale:.3e}): "
            "a singular direction lies inside the sector")

    evaluator = None
    if transform is not None:
        def evaluator(z: complex) -> complex:
            z = complex(z)
            best = min(max(-cmath.phase(z), lo), hi)
            return complex(transform(best, z).value)

    return SectorGlue(tuple(t for t, _ in pairs), tuple(v for _, v in pairs),
                      mism, evaluator)


# ---------------------------------------------------------------------------
# monomial helpers (the elementary singularities with transform z^-c)

def monomial_minor_sampler(c: complex, theta: float):
    """Sampler of xi^(c-1)/Gamma(c) on the ray arg xi = theta."""
    c = complex(c)
    gam = gamma_ref(c).value
    ph = cmath.exp(1j * theta * (c - 1.0))

    def sample(ts):
        ts = np.asarray(ts, dtype=float)
        with np.errstate(divide="ignore"):
            vals = np.power(ts, c - 1.0) * (ph / gam)
        return vals

    return sample


def monomial_major_sampler(c: complex):
    """Surface sampler of the standard major with Laplace transform z^-c:
    xi^(c-1) / ((1 - e^{-2 pi i c}) Gamma(c)) away from positive integer c,
    xi^(c-1) log(xi) / (2 pi i (c-1)!) at positive integers."""
    c = complex(c)
    if c.imag == 0.0 and c.real == int(c.real) and c.real >= 1:
        fact = math.factorial(int(c.real) - 1)

        def sample_int(r: float, th: float) -> complex:
            logxi = math.log(r) + 1j * th
            return (r * cmath.exp(1j * th)) ** (c - 1.0) * logxi / (2j * math.pi * fact)

        return sample_int
    pref = 1.0 / ((1.0 - cmath.exp(-2j * math.pi * c)) * gamma_ref(c).value)

    def sample(r: float, th: float) -> complex:
        return cmath.exp((c - 1.0) * (math.log(r) + 1j * th)) * pref

    return sample


def monomial_real_major(c: complex):
    """Real-major -2 pi i * major(e^{-i pi} xi) of the same singularity."""
    major = monomial_major_sampler(c)

    def sample(t: float, sheet_theta: float) -> complex:
        return -2j * math.pi * major(t, sheet_theta - math.pi)

    return sample
