"""Real-major integrals for the normalized Gamma function and their
analytic continuation by deformation of the integration path.

rho_lambda_c(c, xi) = Gamma(3/2-c)/sqrt(2 pi) * int_R (xi + e^Q - Q - 1)^(c-3/2) dQ
rho_nu_c(c, xi)     = 2^(-3/2)            * int_R (xi + e^Q - Q - 1)^(c-3/2) e^(Q/2) dQ

Both integrands are well defined off xi <= 0 because e^Q - Q - 1 >= 0 on
the real axis.  The zeros of xi + e^Q - Q - 1 in the complex Q-plane are
known in closed form through Lambert W branches,

    Q_j(xi) = -1 + xi - W_j(-e^(-1+xi)),    j in Z,

and they are real exactly when xi in (-inf, 0].  Continuing rho along a
path of the log-Riemann surface therefore amounts to following these roots
and deforming the Q-path so that each root stays on the side of the path
it started on; a nontrivial final configuration is what produces the
monodromy around the branch points 2*pi*i*Z.  The roots are never tracked
numerically: x = -e^(-1+xi) is the x of borelplane's chi kind, so its
branch-transport table folded along the xi-path gives the W label each
root carries at the end, where it is evaluated once in closed form.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .borelplane import _CHI, _fold, _on_line
from .errors import DomainError, QuadratureError, SingularProximityError
from .lambertw import lambert_w
from .quadrature import QuadratureSpec, adaptive_quad
from .reference import gamma_ref

__all__ = [
    "CIndex", "QPath", "RhoResult",
    "rho_lambda_c", "rho_nu_c", "rho_continue", "rho_on_sheet",
    "minor_lambda1_contour", "integrand_roots", "critical_values",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TRACKED_JS = (-3, -2, -1, 0, 1, 2, 3)


@dataclass(frozen=True)
class CIndex:
    """Exponent parameter; the plain real-major integral needs Re c < 1/2,
    the e^(Q/2) variant Re c < 1."""

    c: complex

    def require_below(self, bound: float, what: str):
        if complex(self.c).real >= bound:
            raise DomainError(f"{what} needs Re c < {bound:g}")


def _cval(c) -> complex:
    return complex(c.c) if isinstance(c, CIndex) else complex(c)


@dataclass(frozen=True)
class QPath:
    """Piecewise-linear integration path from -tail_T to +tail_T."""

    nodes: tuple
    tail_T: float


@dataclass(frozen=True)
class RhoResult:
    value: complex
    est_error: float
    panels: int
    qpath: QPath

    def __complex__(self):
        return complex(self.value)


def _check_principal_xi(xi: complex):
    if xi.imag == 0.0 and xi.real <= 0.0:
        raise DomainError("xi must avoid the cut (-inf, 0]")


def _tails(c: complex, spec: QuadratureSpec, half_weight: bool):
    """(T_left, T_right) so truncation errors stay below ~0.1 abs_tol."""
    budget = math.log(10.0 / spec.abs_tol)
    if half_weight:
        t_left = 2.0 * budget + 8.0
        t_right = budget / (1.0 - c.real) + 3.0
    else:
        t_left = budget + 10.0
        t_right = budget / (1.5 - c.real) + 3.0
    return t_left, t_right


def rho_lambda_c(c, xi: complex, spec: QuadratureSpec = QuadratureSpec()) -> RhoResult:
    """Real-major of z^-c * lambda(z), principal branch (xi off (-inf, 0]).

    The Q-integral runs over the real axis; the left tail, where the
    integrand behaves like (xi - Q - 1)^(c-3/2), is added in closed form.
    """
    ci = c if isinstance(c, CIndex) else CIndex(complex(c))
    ci.require_below(0.5, "rho_lambda_c")
    cc = _cval(ci)
    xi = complex(xi)
    _check_principal_xi(xi)
    t_l, t_r = _tails(cc, spec, half_weight=False)
    ex = cc - 1.5

    def integrand(qs):
        qs = np.asarray(qs, dtype=float)
        h = xi + np.exp(qs) - qs - 1.0
        return np.power(h.astype(complex), ex)

    main = adaptive_quad(integrand, -t_l, t_r, spec)
    left_tail = (xi + t_l - 1.0) ** (cc - 0.5) / (0.5 - cc)
    pref = gamma_ref(1.5 - cc).value / _SQRT_2PI
    tail_err = (math.exp(-t_l) + math.exp((cc.real - 1.5) * t_r) / (1.5 - cc.real))
    nodes = (complex(-t_l), complex(t_r))
    return RhoResult(pref * (main.value + left_tail),
                     abs(pref) * (main.est_error + tail_err),
                     main.panels, QPath(nodes, t_l))


def rho_nu_c(c, xi: complex, spec: QuadratureSpec = QuadratureSpec()) -> RhoResult:
    """Real-major variant with the e^(Q/2) weight (the half-shifted
    normalization Gamma(z+1/2)/(sqrt(2 pi) z^z e^-z)); Re c < 1."""
    ci = c if isinstance(c, CIndex) else CIndex(complex(c))
    ci.require_below(1.0, "rho_nu_c")
    cc = _cval(ci)
    xi = complex(xi)
    _check_principal_xi(xi)
    t_l, t_r = _tails(cc, spec, half_weight=True)
    ex = cc - 1.5

    def integrand(qs):
        qs = np.asarray(qs, dtype=float)
        h = xi + np.exp(qs) - qs - 1.0
        return np.power(h.astype(complex), ex) * np.exp(0.5 * qs)

    main = adaptive_quad(integrand, -t_l, t_r, spec)
    pref = 2.0 ** -1.5
    tail_err = (t_l ** max(cc.real - 1.5, -10.0) * 2.0 * math.exp(-0.5 * t_l)
                + math.exp((cc.real - 1.0) * t_r) / (1.0 - cc.real))
    nodes = (complex(-t_l), complex(t_r))
    return RhoResult(pref * main.value, pref * (main.est_error + tail_err),
                     main.panels, QPath(nodes, t_l))


# ---------------------------------------------------------------------------
# roots of the integrand and continuation

def integrand_roots(xi: complex, js: Sequence[int] = _TRACKED_JS) -> dict:
    """Zeros of xi + e^Q - Q - 1 by Lambert W branch index.  On a line
    Im xi = 2*pi*m (borelplane's _on_line) x is put on its cut, so the
    roots are the limits from below the line, where x lies above."""
    xi = complex(xi)
    x = _CHI.x_of(xi)
    if _on_line(xi) is not None:
        x = complex(x.real, 0.0)
    return {j: -1.0 + xi - lambert_w(x, j).w for j in js}


def critical_values(kmax: int) -> list:
    """Critical values of Q -> -e^Q + Q + 1 (critical points solve
    e^Q = 1, i.e. Q = 2*pi*i*k)."""
    out = []
    for k in range(-kmax, kmax + 1):
        q = 2j * math.pi * k
        out.append(-cmath.exp(q) + q + 1.0)
    return out


# two roots sit 2 (2 d)^(1/2) apart at distance d from a point of 2*pi*i*Z,
# so this keeps them 4e-3 apart along the whole path
_PINCH_RADIUS = 2e-6


def _check_pinch(path):
    """Raise when a segment of the xi-path passes within _PINCH_RADIUS of
    2*pi*i*Z, the origin included: there two integrand roots collide."""
    for a, b in zip(path, path[1:]):
        d = b - a
        for m in range(math.floor(min(a.imag, b.imag) / (2.0 * math.pi)),
                       math.ceil(max(a.imag, b.imag) / (2.0 * math.pi)) + 1):
            p = 2j * math.pi * m
            t = min(max(((p - a) / d).real, 0.0), 1.0) if d else 0.0
            if abs(a + t * d - p) < _PINCH_RADIUS:
                raise SingularProximityError(
                    "integrand roots collide: the path is too close to a "
                    "point of 2*pi*i*Z")


def _build_path(roots: dict, flags: dict, t_l: float, t_r: float,
                clearance: float):
    """Polyline from -t_l to t_r keeping every root on its flag side."""
    uppers = []   # path must stay below: (x, y_bound)
    lowers = []   # path must stay above
    for j, q in roots.items():
        if flags[j]:
            if q.imag - clearance < 0.0:
                uppers.append((q.real, q.imag - clearance))
        else:
            if q.imag + clearance > 0.0:
                lowers.append((q.real, q.imag + clearance))
    if not uppers and not lowers:
        return [complex(-t_l, 0.0), complex(t_r, 0.0)]
    w = clearance
    xs = {-t_l, t_r}
    for x0, _ in uppers + lowers:
        for k in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5):
            xs.add(min(max(x0 + k * w, -t_l), t_r))
    nodes = []
    for x in sorted(xs):
        ub = math.inf
        lb = -math.inf
        for x0, b in uppers:
            d = abs(x - x0)
            if d <= w:
                ub = min(ub, b)
            elif d <= 1.5 * w:
                ub = min(ub, b * (1.5 * w - d) / (0.5 * w))
        for x0, b in lowers:
            d = abs(x - x0)
            if d <= w:
                lb = max(lb, b)
            elif d <= 1.5 * w:
                lb = max(lb, b * (1.5 * w - d) / (0.5 * w))
        if lb > ub + 1e-12:
            raise SingularProximityError(
                "integration path pinched between roots (xi too close to "
                "a branch point over 2*pi*i*Z)")
        y = min(max(0.0, lb), ub)
        nodes.append(complex(x, y))
    dedup = [nodes[0]]
    for n in nodes[1:]:
        if abs(n - dedup[-1]) > 1e-12:
            dedup.append(n)
    return dedup


def _tracked_arg(h_of, nodes):
    """Unwrapped argument of h along the polyline, anchored to the
    principal (near-zero) argument at the right end.

    Returns a callable (segment indices, t) -> unwrapped angles, where t
    parameterizes each segment affinely on [0, 1]."""
    q0 = np.asarray(nodes[:-1], dtype=complex)[:, None]
    d = np.diff(np.asarray(nodes, dtype=complex))[:, None]
    samples = 96
    for _ in range(7):
        ts = np.linspace(0.0, 1.0, samples)
        raw = np.unwrap(np.angle(h_of(q0 + ts * d)), axis=1)
        if np.max(np.abs(np.diff(raw, axis=1))) <= 0.9 * math.pi:
            break
        samples *= 2
    else:
        raise QuadratureError("argument tracking failed to resolve winding")
    # chain offsets so the angle is continuous across segment boundaries,
    # then shift everything so the right end carries its principal value
    offsets = np.concatenate(([0.0], np.cumsum(raw[:-1, -1] - raw[1:, 0])))
    right_principal = cmath.phase(complex(h_of(np.array([nodes[-1]]))[0]))
    table = raw + (offsets + right_principal - raw[-1, -1] - offsets[-1])[:, None]

    def angle(seg, ts):
        pos = ts * (samples - 1)
        k = np.minimum(pos.astype(int), samples - 2)
        frac = pos - k
        return (1.0 - frac) * table[seg, k] + frac * table[seg, k + 1]

    return angle


def _integrate_deformed(cc: complex, xi: complex, nodes, spec: QuadratureSpec):
    """Quadrature of (xi + e^Q - Q - 1)^(c-3/2) along the polyline with
    branch tracking, plus the closed-form left tail.

    One adaptive quadrature covers the whole path: s in [0, n_seg] runs
    over segment floor(s), with the polyline nodes as breaks."""
    ex = cc - 1.5
    q0 = np.asarray(nodes[:-1], dtype=complex)
    d = np.diff(np.asarray(nodes, dtype=complex))
    last = len(d) - 1

    def h_of(qs):
        qs = np.asarray(qs, dtype=complex)
        return xi + np.exp(qs) - qs - 1.0

    angle = _tracked_arg(h_of, nodes)

    def integrand(ss):
        ss = np.asarray(ss, dtype=float)
        seg = np.minimum(ss.astype(int), last)
        ts = ss - seg
        qs = q0[seg] + ts * d[seg]
        h = h_of(qs)
        # land the tracked angle on the branch nearest the presampled one
        principal = np.angle(h)
        k = np.round((angle(seg, ts) - principal) / (2.0 * math.pi))
        tracked = principal + 2.0 * math.pi * k
        return np.exp(ex * (np.log(np.abs(h)) + 1j * tracked)) * d[seg]

    part = adaptive_quad(integrand, 0.0, float(len(d)), spec,
                         breaks=range(1, len(d)))
    # closed-form left tail on (-inf, -T] with the tracked branch
    t_l = -nodes[0].real
    h_left = complex(h_of(np.array([nodes[0]]))[0])
    ang_left = float(angle(np.array([0]), np.array([0.0]))[0])
    log_h = math.log(abs(h_left)) + 1j * ang_left
    tail = cmath.exp((cc - 0.5) * log_h) / (0.5 - cc)
    return part.value + tail, part.est_error + math.exp(-t_l), part.panels


def rho_continue(c, path_xi: Sequence[complex],
                 spec: QuadratureSpec = QuadratureSpec()) -> RhoResult:
    """Analytic continuation of rho_lambda_c along a xi-path.

    path_xi is a polyline that starts off (-inf, 0] and keeps
    _PINCH_RADIUS away from 2*pi*i*Z.  The W labels of the roots in
    _TRACKED_JS are folded through it with borelplane's chi transport
    (nodes on a line Im xi = 2*pi*m follow the node rule of
    borelplane._segment_events), and the final roots are evaluated once
    in closed form.  Each root is pinned to the side of the Q-path it
    occupied at the start, and the final path is built from that
    configuration.
    """
    ci = c if isinstance(c, CIndex) else CIndex(complex(c))
    ci.require_below(0.5, "rho_continue")
    cc = _cval(ci)
    path_xi = [complex(p) for p in path_xi]
    _check_principal_xi(path_xi[0])
    t_l, t_r = _tails(cc, spec, half_weight=False)

    roots = integrand_roots(path_xi[0])
    flags = {j: q.imag > 0.0 for j, q in roots.items()}
    for q in roots.values():
        if abs(q.imag) < 1e-12:
            raise SingularProximityError("a root starts on the real path")

    _check_pinch(path_xi)
    labels = _fold(_CHI, _TRACKED_JS,
                   [("seg", a, b) for a, b in zip(path_xi, path_xi[1:])])
    end = integrand_roots(path_xi[-1], labels)
    roots = {j: end[k] for j, k in zip(_TRACKED_JS, labels)}

    sep = min(abs(a - b) for a, b in itertools.combinations(roots.values(), 2))
    clearance = min(0.3, 0.22 * sep)
    if clearance < 1.5e-3:
        raise SingularProximityError("no room to thread the integration path")
    nodes = _build_path(roots, flags, t_l, t_r, clearance)
    value, err, panels = _integrate_deformed(cc, path_xi[-1], nodes, spec)
    pref = gamma_ref(1.5 - cc).value / _SQRT_2PI
    return RhoResult(pref * value, abs(pref) * err, panels,
                     QPath(tuple(nodes), t_l))


def rho_on_sheet(c, r: float, theta: float,
                 spec: QuadratureSpec = QuadratureSpec()) -> RhoResult:
    """rho_lambda_c at the surface point (r, theta) on the canonical sheet
    of the germ: rotation at small radius, then radial march.  The
    rotation radius stays below the first branch points, so any |theta|
    short of where the roots pinch the tails is reachable."""
    if abs(theta) <= math.pi - 0.2:
        return rho_lambda_c(c, r * cmath.exp(1j * theta), spec)
    # chords of at most pi/4 stay r0 cos(pi/8) from the origin and far
    # from 2*pi*i*Z*; nodes at multiples of pi lie on the line Im xi = 0,
    # where rho_continue counts each crossing once
    r0 = min(r, 1.0)
    steps = math.ceil(abs(theta) / (math.pi / 4))
    path = [r0 * cmath.exp(1j * theta * k / steps) for k in range(steps + 1)]
    if r > r0:
        path.append(r * cmath.exp(1j * theta))
    return rho_continue(c, path, spec)


# ---------------------------------------------------------------------------
# contour formula for the minor of the c = 1 normalization

def minor_lambda1_contour(xi: complex,
                          spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """Minor of z^-1 * lambda(z) near the origin, by the closed contour

        1/(2 pi i sqrt 2) * oint (e^Q - Q - 1 - xi)^(-1/2) e^Q dQ

    around the two roots Q_{+-}(xi) = +-(2 xi)^(1/2) + O(xi).  The square
    root is started at the rightmost contour point, where the radicand is
    positive for small real xi, and tracked continuously; single-valuedness
    after a full loop (the radicand winds by exactly 4 pi) is asserted.
    """
    xi = complex(xi)
    if abs(xi) > 2.0:
        raise DomainError("contour formula implemented for |xi| <= 2 "
                          "(inside the first branch points)")
    radius = min(4.8, max(1.6, 3.0 * math.sqrt(2.0 * abs(xi)) + 0.3))

    def h_of(qs):
        return np.exp(qs) - qs - 1.0 - xi

    prev = None
    n = 256
    while n <= 16384:
        s = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        qs = radius * np.exp(1j * s)
        h = h_of(qs)
        if np.min(np.abs(h)) < 1e-10:
            raise QuadratureError("contour passes through a root; move gamma")
        # continuous argument around the closed loop
        full = np.unwrap(np.append(np.angle(h), np.angle(h[0])))
        turn = full[-1] - full[0]
        if abs(turn - 4.0 * math.pi) > 1e-6:
            if n < 16384:
                n *= 2
                continue
            raise QuadratureError(
                f"square-root branch fails to close (winding {turn:.6f}); "
                "gamma does not enclose exactly the two local roots")
        tracked = full[:-1]
        integrand = np.exp(-0.5 * (np.log(np.abs(h)) + 1j * tracked)) \
            * np.exp(qs) * 1j * qs
        val = np.sum(integrand) * (2.0 * math.pi / n)
        if prev is not None and abs(val - prev) <= max(spec.abs_tol,
                                                       spec.rel_tol * abs(val)):
            return complex(val / (2j * math.pi * math.sqrt(2.0)))
        prev = val
        n *= 2
    raise QuadratureError("contour quadrature did not converge")
