"""Quadrature for complex-valued integrands: adaptive Gauss-Kronrod for
cheap vectorized integrands, product integration for a closed-form kernel
times an expensive scalar sampler.

The integrand of `adaptive_quad` receives a 1-D float ndarray of
parameter values and returns a complex ndarray of the same length.  One
call carries the Kronrod nodes of many panels at once (every panel a
refinement sweep bisects, as in Shampine's vectorized quadgk), so the
integrand must act elementwise:
a value may depend only on its own parameter, never on the array's
length or on its neighbours.  `breaks` sets extra initial panel
boundaries, at kinks, jumps or where the integrand changes scale.  The
final sum is taken in panel-position order with compensated summation, so
a given QuadratureSpec always reproduces the same bits.

`product_quad` integrates K(x) f(x) where only f is costly: f is sampled
at nested Chebyshev extreme points, and its Chebyshev coefficients are
paired with modified moments of K (Sloan & Smith, Numer. Math. 34, 1980;
Trefethen, SIAM Review 50, 2008), so the count of f calls follows f's
smoothness, not the kernel's oscillation or growth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

__all__ = ["QuadratureSpec", "QuadResult", "adaptive_quad", "product_quad"]

# Kronrod-15 abscissae on [-1, 1] and weights; Gauss-7 weights sit on the
# odd-index nodes.  Values from the standard QUADPACK tables.
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation limits shared by all the integral
    operators in the package."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_radius: float = 300.0
    hankel_delta: float = 1.0
    max_subdivisions: int = 4000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.hankel_delta < 2.0 * math.pi:
            raise ValueError("hankel_delta must sit below the first branch point")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    est_error: float
    panels: int

    def __complex__(self):
        return complex(self.value)


# Kronrod weights, and Kronrod minus Gauss weights (the error estimate)
_W = np.stack([_WGK, _WGK - np.insert(_WG, range(8), 0.0)], axis=1)


def _sweep(f, lo, hi):
    """Kronrod values and error estimates on every panel [lo_i, hi_i] from
    one call of f on all their nodes."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _XGK
    fv = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
    r = h[:, None] * (fv @ _W)
    return r[:, 0], np.abs(r[:, 1])


def adaptive_quad(f, a: float, b: float, spec: QuadratureSpec,
                  breaks=()) -> QuadResult:
    """Integrate f over [a, b] to the spec tolerances.

    `breaks` are extra initial panel boundaries; those outside (a, b) are
    ignored.  Each sweep bisects the fewest worst panels whose errors leave
    at most the target in the others (so always the worst panel) and
    evaluates all the children in one call of f.  No more than
    spec.max_subdivisions panels are evaluated: when a sweep would pass
    that count, only its worst panels that fit are bisected, and
    QuadratureError is raised once none fits.
    """
    if a == b:
        return QuadResult(0j, 0.0, 0)
    inner = sorted({x for x in breaks if min(a, b) < x < max(a, b)})
    edges = np.array([a] + (inner if a < b else inner[::-1]) + [b], dtype=float)
    # the current panels are the first n entries; a bisected panel keeps
    # its slot for the left child and the right child is appended
    n = count = len(edges) - 1
    cap = max(n, spec.max_subdivisions)
    lo, hi = np.empty(cap), np.empty(cap)
    val, err = np.empty(cap, dtype=complex), np.empty(cap)
    lo[:n], hi[:n] = edges[:-1], edges[1:]
    val[:n], err[:n] = _sweep(f, lo[:n], hi[:n])
    while True:
        target = max(spec.abs_tol, spec.rel_tol * abs(val[:n].sum()))
        toterr = err[:n].sum()
        if toterr <= target:
            break
        room = (spec.max_subdivisions - count) // 2
        if room < 1:
            raise QuadratureError(
                f"quadrature stalled: {count} panels, error {toterr:.3e} "
                f"on [{a:g}, {b:g}]")
        # bisect the fewest worst panels whose errors leave at most the
        # target in the rest (a NaN error sorts last, so it is always
        # bisected), but no more than `room` of them
        order = np.argsort(err[:n], kind="stable")
        keep_n = np.searchsorted(np.cumsum(err[order]), target, side="right")
        split = order[max(keep_n, n - room):]
        k = len(split)
        left, right = lo[split], hi[split]
        mid = 0.5 * (left + right)
        cval, cerr = _sweep(f, np.concatenate((left, mid)),
                            np.concatenate((mid, right)))
        hi[split], val[split], err[split] = mid, cval[:k], cerr[:k]
        lo[n:n + k], hi[n:n + k] = mid, right
        val[n:n + k], err[n:n + k] = cval[k:], cerr[k:]
        n += k
        count += 2 * k
    # deterministic total: order panels by position, compensated sums
    order = np.argsort(lo[:n] if a < b else -lo[:n], kind="stable")
    re = math.fsum(val.real[order])
    im = math.fsum(val.imag[order])
    return QuadResult(complex(re, im), math.fsum(err[order]), count)


# sample counts n of product_quad (f at the n + 1 points cos(pi j / n), each
# level reusing every value of the one before), and the largest kernel grid
_PRODUCT_LADDER = (8, 16, 32, 64, 128, 256)
_KERNEL_MAX_N = 1 << 14
_EPS = float(np.finfo(float).eps)


def _cheb_points(n: int) -> np.ndarray:
    """cos(pi j / n), j = 0..n, exactly symmetric."""
    return np.sin(0.5 * math.pi * np.arange(n, -n - 1, -2) / n)


def _dct1(v: np.ndarray) -> np.ndarray:
    """v_0 + (-1)^k v_n + 2 sum_{j=1}^{n-1} v_j cos(pi j k / n), k = 0..n,
    by one FFT of the even extension."""
    return np.fft.fft(np.concatenate((v, v[-2:0:-1])))[:len(v)]


def _cheb_coeffs(v: np.ndarray) -> np.ndarray:
    """Coefficients of the interpolant sum_k a_k T_k through v at
    _cheb_points(len(v) - 1)."""
    n = len(v) - 1
    a = _dct1(v) / n
    a[0] *= 0.5
    a[n] *= 0.5
    return a


@functools.lru_cache(maxsize=16)
def _cc_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights on _cheb_points(n), from the integrals of
    T_k by one FFT; read-only, n is a power of two."""
    mu = np.zeros(n + 1)
    k = np.arange(0, n + 1, 2)
    mu[::2] = 2.0 / (1.0 - k * k)
    mu[0] *= 0.5
    mu[n] *= 0.5
    sign = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
    w = (_dct1(mu).real + mu[0] + sign * mu[n]) / n
    w[0] *= 0.5
    w[n] *= 0.5
    w.flags.writeable = False
    return w


def _kernel_grid(kernel, mid: float, half: float, n: int):
    """Kernel values on _cheb_points(n) mapped to mid + half x, the moduli
    of their Chebyshev coefficients, and the moments int K T_k dx on
    [-1, 1], k = 0..n, by Clenshaw-Curtis (one FFT each)."""
    kv = np.asarray(kernel(mid + half * _cheb_points(n)), dtype=complex)
    u = _cc_weights(n) * kv
    sign = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
    moments = 0.5 * (_dct1(u) + u[0] + sign * u[n])
    return kv, np.abs(_cheb_coeffs(kv)), moments


def product_quad(kernel, f, a: float, b: float, spec: QuadratureSpec) -> QuadResult:
    """Integrate kernel(x) f(x) over [a, b], calling f as few times as its
    smoothness allows.

    `kernel` is a cheap closed form: it maps an ndarray of x to complex
    values elementwise.  `f` is an expensive scalar callable, called once
    per sample at the Chebyshev extreme points of [a, b] for n = 8, 16,
    ..., 256; each level reuses every earlier value.  The rule pairs f's
    Chebyshev coefficients with the kernel's modified moments
    int K T_k, taken by Clenshaw-Curtis on a kernel grid of N + 1 points,
    with N >= 2n doubled until K's own Chebyshev coefficients beyond
    N - n fall to rounding.  The rule is then exact for K times the
    degree-n interpolant of f.

    The error estimate is |I_n - I_{n/2}| plus a noise floor measured from
    the samples: the plateau of f's Chebyshev tail (its last eighth) times
    int |K|, and at least 4 eps int |K f|, the rounding of a kernel that
    grows far beyond the integral.  The difference measures I_{n/2}, so
    for I_n it is scaled by its ratio to the difference before (the
    ladder's geometric rate, at most 1).  The rule stops at the first n
    where the estimate meets max(abs_tol, rel_tol |I_n|) and reports that
    target as est_error, never less: each sample of f carries its own
    error up to it.  It raises QuadratureError at once when the rounding
    floor exceeds the target, and after n = 256 otherwise.
    QuadResult.panels counts f calls.
    """
    if a == b:
        return QuadResult(0j, 0.0, 0)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = np.empty(0, dtype=complex)
    big_n = 0
    value = diff = None
    for n in _PRODUCT_LADDER:
        x = _cheb_points(n)
        fresh = np.array([f(mid + half * t) for t in (x[1::2] if len(vals) else x)],
                         dtype=complex)
        if not np.all(np.isfinite(fresh)):
            raise QuadratureError(f"non-finite sample on [{a:g}, {b:g}]")
        if len(vals):
            merged = np.empty(n + 1, dtype=complex)
            merged[::2], merged[1::2] = vals, fresh
            fresh = merged
        vals = fresh
        coef = _cheb_coeffs(vals)
        # a kernel grid on which K T_n is resolved, so K p_n is too
        while big_n < 2 * n or kc[big_n - n + 1:].max() > 4.0 * _EPS * kc.max():
            if big_n >= _KERNEL_MAX_N:
                raise QuadratureError(
                    f"kernel unresolved on {big_n + 1} points on [{a:g}, {b:g}]")
            big_n = max(2 * n, 2 * big_n)
            kv, kc, moments = _kernel_grid(kernel, mid, half, big_n)
        prev, value = value, half * np.dot(coef, moments[:n + 1])
        if prev is None:
            continue
        target = max(spec.abs_tol, spec.rel_tol * abs(value))
        rounding = 4.0 * _EPS * abs(half) * np.dot(
            _cc_weights(n), np.abs(kv[::big_n // n] * vals))
        if rounding > target:
            raise QuadratureError(
                f"kernel rounding floor {rounding:.3e} exceeds the target "
                f"{target:.3e} on [{a:g}, {b:g}]")
        abs_k = abs(half) * np.dot(_cc_weights(big_n), np.abs(kv))
        floor = max(np.abs(coef[7 * n // 8:]).max() * abs_k, rounding)
        step = float(abs(value - prev))
        est = step * (min(1.0, step / diff) if diff else 1.0) + floor
        diff = step
        if est <= target:
            return QuadResult(complex(value), float(target), n + 1)
    raise QuadratureError(
        f"product rule stalled: {n + 1} samples, error {est:.3e} above "
        f"{target:.3e} on [{a:g}, {b:g}]")
