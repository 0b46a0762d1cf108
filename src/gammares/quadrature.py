"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

The integrand receives a 1-D float ndarray of parameter values and returns
a complex ndarray of the same length.  One call carries the Kronrod nodes
of many panels at once (every panel a refinement sweep bisects, as in
Shampine's vectorized quadgk), so the integrand must act elementwise:
a value may depend only on its own parameter, never on the array's
length or on its neighbours.  `breaks` sets extra initial panel
boundaries, at kinks, jumps or where the integrand changes scale.  The
final sum is taken in panel-position order with compensated summation, so
a given QuadratureSpec always reproduces the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

__all__ = ["QuadratureSpec", "QuadResult", "adaptive_quad"]

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
