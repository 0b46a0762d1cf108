"""Complex Lambert W on all integer branches.

W_k(x) solves w e^w = x.  Branch cuts follow the standard convention of
Corless, Gonnet, Hare, Jeffrey & Knuth, "On the Lambert W function",
Adv. Comp. Math. 5 (1996): (-inf, -1/e] for the principal branch k = 0
and (-inf, 0] for every other branch, with values on a cut equal to the
limit from above (counterclockwise continuity).  The two real branches
W_0 >= W_{-1} meet at the square-root branch point x = -1/e, which is
where all the Borel-plane branch points of this package come from.

Every value comes from one kernel: a Halley iteration seeded per region
(``w_polish`` / ``w_scalar``), followed by a check of the unwinding
integer that the requested branch was reached; ``w_many`` applies it
element by element.  Accuracy is plain double precision; residuals
|w e^w - x| are always computed and reported, never assumed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = ["BranchIndex", "WValue", "lambert_w", "lambert_w_near_branch_point",
           "lambert_w_array", "BACKEND"]

BranchIndex = int

# name of the only kernel; reported in benchmark records
BACKEND = "python"

_E = 2.718281828459045
_EM1 = 0.36787944117144233  # 1/e


def _log_ccc(x: complex) -> complex:
    """Principal log with values on (-inf, 0) taken as limits from above
    (immune to the sign of a zero imaginary part)."""
    if x.imag == 0.0 and x.real < 0.0:
        return complex(math.log(-x.real), math.pi)
    return cmath.log(x)


def _seed(x: complex, k: int) -> complex:
    ax = abs(x)
    near_bp = abs(x + _EM1) <= (1.5 if k == 0 else 0.35)
    if k == 0:
        if ax <= 1e-3:
            return x * (1.0 - x)
        if near_bp:
            return cmath.sqrt(2.0 * (_E * x + 1.0)) - 1.0
        L = _log_ccc(x)
        return L - cmath.log(L)
    # the sheet adjacent to the real values near -1/e:
    # k = -1 from Im x >= 0 (incl. the cut itself), k = +1 from Im x < 0
    if near_bp and ((k == -1 and x.imag >= 0.0) or (k == 1 and x.imag < 0.0)):
        p = cmath.sqrt(2.0 * (_E * x + 1.0))
        return -1.0 - p - p * p / 3.0
    if k == -1 and x.imag == 0.0 and -_EM1 < x.real < 0.0:
        L = math.log(-x.real)
        if L > -2.0:
            return -1.0 - cmath.sqrt(2.0 * (_E * x + 1.0))
        return complex(L - math.log(-L), 0.0)
    L = _log_ccc(x) + 2j * cmath.pi * k
    return L - cmath.log(L)


def _branch_of(w: complex, x: complex) -> int:
    """Unwinding integer K with w e^w = x: w + Log w = Log x + 2 pi i K.
    Equals the Corless branch index everywhere except exactly on the real
    slice of branch -1 (handled by the caller)."""
    if w.imag == 0.0:
        w = complex(w.real, 0.0)
    val = (w + _log_ccc(w) - _log_ccc(x)) / (2j * cmath.pi)
    return round(val.real)


def _branch_ok(w: complex, x: complex, k: int) -> bool:
    kk = _branch_of(w, x)
    if kk == k:
        return True
    # real slice of branch -1: the unwinding integer reads 0 there
    return (k == -1 and kk == 0 and x.imag == 0.0 and w.imag == 0.0
            and w.real <= -1.0 + 1e-12)


def w_polish(x: complex, w0: complex, tol: float, max_iter: int = 100):
    """Halley iteration on w e^w = x from the seed w0.

    Returns (w, residual, converged).  The caller decides how to treat
    non-convergence; the kernel never raises.
    """
    w = complex(w0)
    scale = max(abs(x), 1e-290)
    for _ in range(max_iter):
        ew = cmath.exp(w)
        f = w * ew - x
        if abs(f) <= tol * scale:
            return w, abs(f), True
        wp1 = w + 1.0
        if wp1 == 0:
            w += 1e-8
            continue
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= dw
        if abs(dw) <= 1e-16 * (2.0 + abs(w)):
            ew = cmath.exp(w)
            return w, abs(w * ew - x), abs(w * ew - x) <= tol * scale
    ew = cmath.exp(w)
    res = abs(w * ew - x)
    return w, res, res <= tol * scale


def w_scalar(x: complex, k: int, tol: float = 1e-13):
    """W_k(x) by seeded Halley iteration with branch verification;
    returns (w, residual, converged)."""
    x = complex(x)
    if x.imag == 0.0:
        x = complex(x.real, 0.0)   # cut values are limits from above
    if x == 0:
        if k == 0:
            return 0j, 0.0, True
        return 0j, float("inf"), False
    w, res, ok = w_polish(x, _seed(x, k), tol)
    if ok and _branch_ok(w, x, k):
        return w, res, True
    # retry from the plain asymptotic seed of the requested branch
    L = _log_ccc(x) + 2j * cmath.pi * k
    if L != 0:
        w2, res2, ok2 = w_polish(x, L - cmath.log(L), tol)
        if ok2 and _branch_ok(w2, x, k):
            return w2, res2, True
    return w, res, False


def w_many(xs: np.ndarray, k: int, tol: float = 1e-13):
    """W_k element by element over an array; returns (w array, max
    relative residual, all ok)."""
    xs = np.asarray(xs, dtype=complex)
    flat = xs.ravel()
    out = np.empty_like(flat)
    worst = 0.0
    ok = True
    for i, x in enumerate(flat):
        w, res, conv = w_scalar(x, k, tol)
        out[i] = w
        scale = max(abs(x), 1e-290)
        worst = max(worst, res / scale)
        ok = ok and conv
    return out.reshape(xs.shape), worst, ok


# Puiseux coefficients of W about the branch point: w = -1 + sum mu_j p^j
# with p = sqrt(2(e x + 1)); used as a high-order seed very close to -1/e.
_BP_SERIES = (-1.0, 1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0,
              769.0 / 17280.0, -221.0 / 8505.0)


@dataclass(frozen=True)
class WValue:
    """A branch value together with its verified residual |w e^w - x|."""

    w: complex
    branch: BranchIndex
    residual: float


def lambert_w(x: complex, k: BranchIndex = 0, tol: float = 1e-13) -> WValue:
    """W_k(x) with residual guarantee |w e^w - x| <= tol * max(1, |x|).

    Raises DomainError for x = 0 on a branch with a logarithmic
    singularity there, ConvergenceError (carrying the last iterate and
    its residual) if the iteration stalls.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    x = complex(x)
    if x == 0 and k != 0:
        raise DomainError("x = 0 is a logarithmic singularity for k != 0")
    w, res, ok = w_scalar(x, k, tol)
    if not ok:
        raise ConvergenceError(
            f"lambert_w(x={x!r}, k={k}) stalled with residual {res:.3e}",
            last=w, residual=res)
    return WValue(w, k, res)


def lambert_w_array(xs, k: BranchIndex, tol: float = 1e-13):
    """W_k over an array of any shape; returns the bare complex array
    (hot path for the quadrature samplers).  Raises DomainError where
    `lambert_w` would (tol <= 0, x = 0 on a branch k != 0) and
    ConvergenceError if any entry stalls."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    xs = np.asarray(xs, dtype=complex)
    if k != 0 and np.any(xs == 0):
        raise DomainError("x = 0 is a logarithmic singularity for k != 0")
    out, worst, ok = w_many(xs, k, tol)
    if not ok:
        raise ConvergenceError(
            f"lambert_w_array(k={k}) stalled; worst relative residual {worst:.3e}",
            last=out, residual=worst)
    return out


def lambert_w_near_branch_point(x: complex, sign: str, tol: float = 1e-13) -> WValue:
    """W near the branch point -1/e, with the sheet chosen by `sign`.

    The seed is the truncated Puiseux series w = -1 + p - p^2/3 + ... with
    p = +-sqrt(2(e x + 1)) (principal square root): '+' selects the sheet
    carrying W_0 on the real slice, '-' the one carrying W_{-1}.  The seed
    is polished by the same Halley iteration as `lambert_w`, so the
    returned residual has the same meaning.
    """
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    x = complex(x)
    p = cmath.sqrt(2.0 * (_E * x + 1.0))
    if p == 0:
        return WValue(-1.0 + 0j, 0 if sign == "+" else -1, abs(-cmath.exp(-1.0) - x))
    if sign == "-":
        p = -p
    w0 = 0j
    for c in reversed(_BP_SERIES):
        w0 = w0 * p + c
    w, res, ok = w_polish(x, w0, tol)
    if not ok:
        raise ConvergenceError(
            f"near-branch-point iteration stalled at x={x!r}", last=w, residual=res)
    return WValue(w, 0 if sign == "+" else -1, res)
