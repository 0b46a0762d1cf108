"""Borel-plane evaluators with branch-tracked analytic continuation.

The two germ families implemented here are built from Lambert W values of
x(xi) = -exp(-1 - xi)   (the "lambda" kind, anchored on arg xi = 0), and
x(xi) = -exp(-1 + xi)   (the "chi" kind, anchored on arg xi = -pi).

Both have square-root branch points exactly over 2*pi*i*Z, because x hits
the W branch point -1/e precisely when xi is a multiple of 2*pi*i.  A
point of the Riemann surface of log is carried around by updating a pair
of W branch indices each time the path crosses one of the horizontal
lines Im xi = 2*pi*m, where x crosses the real axis.

Frozen branch-transport table (x-plane crossings, standard W branch cuts,
values on a cut = limits from above; verified against small-step
continuation in the test suite):

    x crosses (-inf, -1/e)  downward:  k -> k+1           upward: k -> k-1
    x crosses (-1/e, 0)     downward:  0 -> 0, -1 -> 1,   else k -> k+1
                            upward:    0 -> 0,  1 -> -1,  else k -> k-1

"Downward" means Im x passes from + to -.  For the lambda kind, xi
crossing a line Im xi = 2*pi*m upward makes x cross upward, and Re xi > 0
lands on the inner segment (-1/e, 0); for the chi kind both flip.
"""

from __future__ import annotations

import cmath
import csv
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PathError, SingularProximityError
from .exactseries import bernoulli
from .lambertw import lambert_w, lambert_w_array

__all__ = [
    "SurfacePoint", "BorelFunction", "BranchPath", "SingularityData",
    "MINOR_LAMBDA32", "MAJOR_LAMBDA32", "MINOR_CHI", "MAJOR_CHI",
    "minor_lambda32", "major_lambda32", "minor_chi", "major_chi", "minor_mu",
    "continue_minor", "continue_labels", "alien_plus", "alien",
    "minor_germ_sampler", "germ_ratio", "germ_magnitude",
    "ray_sampler", "surface_sampler", "export_grid_csv", "PROXIMITY_RADIUS",
    "ALIEN_MAX_M",
]

TWO_PI = 2.0 * math.pi
PROXIMITY_RADIUS = 1e-6 * TWO_PI
_SQRT_2PI = math.sqrt(TWO_PI)
_ONLINE_TOL = 1e-9
_ON_LINE_TOL = 1e-12
# exponents e for which e^e is a finite normal double
_EXP_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))


@dataclass(frozen=True)
class SurfacePoint:
    """Point (r, theta) of the Riemann surface of log: modulus r > 0,
    unbounded argument theta encoding the sheet."""

    r: float
    theta: float

    def __post_init__(self):
        if self.r <= 0:
            raise DomainError("SurfacePoint needs r > 0")

    @property
    def projection(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)

    @classmethod
    def from_complex(cls, xi: complex) -> "SurfacePoint":
        xi = complex(xi)
        return cls(abs(xi), cmath.phase(xi))


def _as_surface(xi) -> SurfacePoint:
    return xi if isinstance(xi, SurfacePoint) else SurfacePoint.from_complex(xi)


# ---------------------------------------------------------------------------
# branch transport

@dataclass(frozen=True)
class _Kind:
    name: str
    anchor: float      # anchor ray angle
    base_pair: tuple   # W labels (slot0, slot1) on the anchor's CCC side
    unit: complex      # minor = unit * (W_slot0 - W_slot1); major = unit * W_slot0
    sign: int          # x = -exp(-1 - sign*xi); +1 lambda, -1 chi

    def check_range(self, sigma: float):
        """DomainError unless x = -exp(-1 - sign*xi) at Re xi = sigma is a
        finite normal double."""
        if not _EXP_RANGE[0] < -1.0 - self.sign * sigma < _EXP_RANGE[1]:
            lo, hi = sorted(self.sign * (-1.0 - e) for e in _EXP_RANGE)
            op = "-" if self.sign > 0 else "+"
            raise DomainError(
                f"x = -exp(-1 {op} xi) leaves double range at Re xi = "
                f"{sigma:g}; the {self.name} evaluators need Re xi in "
                f"({lo:.2f}, {hi:.2f})")

    def x_of(self, xi: complex) -> complex:
        self.check_range(xi.real)
        return -cmath.exp(-1.0 - self.sign * xi)

    def x_of_array(self, xi) -> np.ndarray:
        return -np.exp(-1.0 - self.sign * np.asarray(xi, dtype=complex))

    def x_real(self, sigma: float) -> float:
        self.check_range(sigma)
        return -math.exp(-1.0 - self.sign * sigma)

    def is_inner(self, sigma: float) -> bool:
        # inner segment (-1/e, 0) <=> |x| < 1/e <=> sign*sigma > 0
        return self.sign * sigma > 0

    def ccc_tau_positive(self) -> bool:
        # side of a line Im xi = 2*pi*m on which x sits above the real axis
        return self.sign == 1

    def transport(self, labels: tuple, tau_up: bool, sigma: float) -> tuple:
        """Labels after one crossing of a line Im xi = 2*pi*m at Re xi =
        sigma, by the table in the module docstring."""
        s = -1 if tau_up == self.ccc_tau_positive() else 1   # x up: k -> k-1
        if not self.is_inner(sigma):
            return tuple(k + s for k in labels)
        # on the inner segment W_0 is continuous and W_{-1}, W_1 trade places
        return tuple(0 if k == 0 else s if k == -s else k + s for k in labels)


_LAMBDA = _Kind("lambda_3_2", 0.0, (0, -1), 1.0 / _SQRT_2PI, +1)
_CHI = _Kind("chi", -math.pi, (-1, 0), 1j / _SQRT_2PI, -1)
_KINDS = {"lambda_3_2": _LAMBDA, "chi": _CHI}


@dataclass(frozen=True)
class BorelFunction:
    """Selector for a Borel-plane germ plus its branch state (the current
    pair of W branch indices for the two square-root sheets)."""

    kind: str
    branch_state: tuple = None

    def __post_init__(self):
        if self.kind not in ("minor_lambda_3_2", "major_lambda_3_2",
                             "minor_chi", "major_chi", "minor_mu"):
            raise DomainError(f"unknown Borel function kind {self.kind!r}")
        if self.branch_state is None:
            object.__setattr__(self, "branch_state", self.family.base_pair)

    @property
    def family(self) -> _Kind:
        return _LAMBDA if "lambda" in self.kind or self.kind == "minor_mu" else _CHI

    @property
    def major(self) -> bool:
        return self.kind.startswith("major")


MINOR_LAMBDA32 = BorelFunction("minor_lambda_3_2")
MAJOR_LAMBDA32 = BorelFunction("major_lambda_3_2")
MINOR_CHI = BorelFunction("minor_chi")
MAJOR_CHI = BorelFunction("major_chi")


# ---------------------------------------------------------------------------
# crossing events along arcs and segments

def _check_prox(sigma: float, m: int):
    """Guard disks around the branch points.  Crossings of the m = 0 line
    arbitrarily close to the origin are legitimate (the germs rotate
    around their own integrable branch point); only an exact hit fails."""
    if m == 0:
        if sigma == 0.0:
            raise SingularProximityError("path passes through the origin")
        return
    if abs(sigma) < PROXIMITY_RADIUS:
        raise SingularProximityError(
            f"path passes within {abs(sigma):.2e} of the branch point "
            f"2*pi*i*{m}")


def _arc_events(center: complex, radius: float, a0: float, a1: float):
    """Crossings of Im z = 2*pi*m along the arc center + radius*e^{i psi},
    psi swept from a0 to a1.  Yields (psi, sigma, tau_up) in sweep order."""
    if a0 == a1:
        return []
    lo, hi = min(a0, a1), max(a0, a1)
    found = []
    mmin = math.floor((center.imag - radius) / TWO_PI) - 1
    mmax = math.ceil((center.imag + radius) / TWO_PI) + 1
    for m in range(mmin, mmax + 1):
        y = (TWO_PI * m - center.imag) / radius
        if abs(y) > 1.0:
            continue
        base = math.asin(y)
        k0 = math.floor((lo - base) / TWO_PI) - 1
        k1 = math.ceil((hi - base) / TWO_PI) + 1
        for k in range(k0, k1 + 1):
            for psi in (base + TWO_PI * k, math.pi - base + TWO_PI * k):
                if lo < psi < hi and abs(psi - a0) > 1e-13 and abs(psi - a1) > 1e-13:
                    found.append((psi, m))
    forward = a1 > a0
    found.sort(key=lambda e: e[0], reverse=not forward)
    events = []
    for psi, m in found:
        sigma = center.real + radius * math.cos(psi)
        dtau = radius * math.cos(psi)
        if abs(dtau) < 1e-13 * radius:
            _check_prox(sigma, m)  # grazing a line happens next to the branch point
            continue
        events.append((psi, m, sigma, (dtau > 0) == forward))
    return events


def _on_line(z: complex):
    """Index m of the line Im z = 2*pi*m that z lies on, within
    _ON_LINE_TOL * max(1, |z|), else None.  Polyline nodes built from
    cmath.exp(1j * k * pi/4) miss their line by about 1e-16 |z|."""
    m = round(z.imag / TWO_PI)
    if abs(z.imag - TWO_PI * m) <= _ON_LINE_TOL * max(1.0, abs(z)):
        return m
    return None


def _segment_events(z0: complex, z1: complex, ccc_up: bool):
    """Crossings of Im z = 2*pi*m along the straight segment z0 -> z1,
    counted by the sides of the two end nodes.  A node on a line (see
    _on_line) counts as on its CCC side, where x meets the cut from above
    and principal W values are the limits (above the line when ccc_up).
    So a polyline passing a line at a node crosses it once, a start on a
    line leaves from the CCC side, and an end on a line carries labels
    whose principal values are the limits from its approach side."""
    events = []
    dy = z1.imag - z0.imag
    on0, on1 = _on_line(z0), _on_line(z1)
    mlo = math.floor(min(z0.imag, z1.imag) / TWO_PI) - 1
    mhi = math.ceil(max(z0.imag, z1.imag) / TWO_PI) + 1
    for m in range(mlo, mhi + 1):
        above0 = ccc_up if on0 == m else z0.imag > TWO_PI * m
        above1 = ccc_up if on1 == m else z1.imag > TWO_PI * m
        if above0 == above1:
            continue
        t = min(max((TWO_PI * m - z0.imag) / dy, 0.0), 1.0) if dy else 0.0
        sigma = z0.real + t * (z1.real - z0.real)
        events.append((t, m, sigma, above1))
    events.sort(key=lambda e: e[0])
    return events


def _fold(kind: _Kind, labels, elements):
    """Run a tuple of labels through ('seg', z0, z1) / ('arc', c, r, a0, a1)
    path elements.  Segments follow the node rule of _segment_events;
    arcs skip crossings at their end angles."""
    labels = tuple(labels)
    for el in elements:
        evs = _segment_events(el[1], el[2], kind.ccc_tau_positive()) \
            if el[0] == "seg" else _arc_events(el[1], el[2], el[3], el[4])
        for _, m, sigma, tau_up in evs:
            _check_prox(sigma, m)
            labels = kind.transport(labels, tau_up, sigma)
    return labels


def _anchor_departure(kind: _Kind, labels, r: float, dtheta: float):
    """Label update for the first instant of a rotation off the anchor ray:
    moving to the non-CCC side counts as one crossing of the anchor line."""
    if dtheta == 0.0:
        return labels
    tau_motion = r * math.cos(kind.anchor) * (1.0 if dtheta > 0 else -1.0)
    if tau_motion == 0.0 or (tau_motion > 0) == kind.ccc_tau_positive():
        return labels
    sigma = r * math.cos(kind.anchor)
    _check_prox(sigma, 0)
    return kind.transport(labels, tau_motion > 0, sigma)


def _endpoint_values(kind: _Kind, labels, endpoint: complex, approach_tau: float):
    """(wa, wb) at the endpoint.  Points on a singular line are snapped to
    an exactly-real x; if the approach side is the from-below side of the
    x-axis, labels are converted so that the principal (from-above) W
    evaluation returns the correct limit."""
    ka, kb = labels
    tau = endpoint.imag
    m = round(tau / TWO_PI)
    if abs(tau - TWO_PI * m) < _ONLINE_TOL * max(1.0, abs(endpoint)):
        sigma = endpoint.real
        if m != 0 and abs(sigma) < PROXIMITY_RADIUS:
            raise SingularProximityError(
                f"evaluation within guard radius of 2*pi*i*{m}")
        if approach_tau != 0.0 and (approach_tau > 0) != kind.ccc_tau_positive():
            # arrived from below the cut in x: cross onto the CCC side
            ka, kb = kind.transport((ka, kb), kind.ccc_tau_positive(), sigma)
        x = complex(kind.x_real(sigma), 0.0)
    else:
        if m != 0 and abs(endpoint - 2j * math.pi * m) < PROXIMITY_RADIUS:
            raise SingularProximityError(
                f"evaluation within guard radius of 2*pi*i*{m}")
        x = kind.x_of(endpoint)
    wa = lambert_w(x, ka).w
    wb = lambert_w(x, kb).w
    return wa, wb


def _labels_at(kind: _Kind, r: float, theta: float):
    """Labels on the canonical sheet of the germ at the origin: rotate at
    the small radius min(r, 1) from the anchor to theta, then march out
    radially.  Returns (labels, approach_tau): approach_tau is the signed
    offset from the endpoint's singular line just before arrival (only
    meaningful when the endpoint sits on such a line)."""
    labels = kind.base_pair
    r_rot = min(r, 1.0)
    if theta == kind.anchor:
        approach_tau = 1.0 if kind.ccc_tau_positive() else -1.0
    else:
        labels = _anchor_departure(kind, labels, r_rot, theta - kind.anchor)
        labels = _fold(kind, labels, [("arc", 0j, r_rot, kind.anchor, theta)])
        back = theta - (1e-9 if theta > kind.anchor else -1e-9)
        approach_tau = r_rot * math.sin(back) - TWO_PI * round(
            r_rot * math.sin(theta) / TWO_PI)
    # radial march r_rot -> r along the theta-ray
    sin_th = math.sin(theta)
    if r > r_rot and sin_th != 0.0:
        tau_up = sin_th > 0
        m = 1
        while True:
            t_m = TWO_PI * m / abs(sin_th)
            if t_m >= r:
                break
            if t_m > r_rot:
                sigma = t_m * math.cos(theta)
                _check_prox(sigma, m if sin_th > 0 else -m)
                labels = kind.transport(labels, tau_up, sigma)
            m += 1
        tau_end = r * sin_th
        m_end = round(tau_end / TWO_PI)
        if m_end != 0 and abs(tau_end - TWO_PI * m_end) < _ONLINE_TOL * max(1.0, r):
            approach_tau = -1.0 if sin_th > 0 else 1.0
    return labels, approach_tau


def _eval_kind(kind: _Kind, point: SurfacePoint, want_major: bool) -> complex:
    labels, approach_tau = _labels_at(kind, point.r, point.theta)
    wa, wb = _endpoint_values(kind, labels, point.projection, approach_tau)
    return kind.unit * (wa if want_major else wa - wb)


def minor_lambda32(xi) -> complex:
    """Minor of the normalized-Gamma singularity; its Laplace transform
    along arg xi = 0 is z^(-3/2) * lambda(z)."""
    return _eval_kind(_LAMBDA, _as_surface(xi), want_major=False)


def major_lambda32(xi) -> complex:
    """Natural-major of the same singularity (the W_0 part alone)."""
    return _eval_kind(_LAMBDA, _as_surface(xi), want_major=True)


def minor_chi(xi) -> complex:
    """Minor for the reciprocal normalization z^(-3/2)/lambda(z); anchored
    on arg xi = -pi."""
    return _eval_kind(_CHI, _as_surface(xi), want_major=False)


def major_chi(xi) -> complex:
    return _eval_kind(_CHI, _as_surface(xi), want_major=True)


# Taylor coefficients (in xi^2) of the meromorphic Stirling-log minor at 0
_MU_SERIES = [float(bernoulli(2 * n + 2)) / math.factorial(2 * n + 2)
              for n in range(16)]


def minor_mu(xi: complex) -> complex:
    """Borel transform of the log-normalization series:
    xi^-2 ((xi/2) coth(xi/2) - 1), meromorphic with simple poles on
    2*pi*i*Z*; the removable origin is evaluated by series."""
    xi = complex(xi)
    m = round(xi.imag / TWO_PI)
    if m != 0 and abs(xi - 2j * math.pi * m) < PROXIMITY_RADIUS:
        raise SingularProximityError(f"pole at 2*pi*i*{m}")
    if abs(xi) < 0.5:
        acc = 0j
        x2 = xi * xi
        for c in reversed(_MU_SERIES):
            acc = acc * x2 + c
        return acc
    half = 0.5 * xi
    return (half / cmath.tanh(half) - 1.0) / (xi * xi)


def _minor_mu_array(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=complex)
    out = np.empty_like(xi)
    small = np.abs(xi) < 0.5
    if np.any(small):
        x2 = xi[small] ** 2
        acc = np.zeros_like(x2)
        for c in reversed(_MU_SERIES):
            acc = acc * x2 + c
        out[small] = acc
    if np.any(~small):
        big = xi[~small]
        half = 0.5 * big
        out[~small] = (half / np.tanh(half) - 1.0) / (big * big)
    return out


# ---------------------------------------------------------------------------
# continuation along declared paths

@dataclass(frozen=True)
class BranchPath:
    """Continuation recipe: rotate from the anchor onto the ray
    arg xi = base_theta, march outward, and sidestep each singular point
    2*pi*i*m in `detours` (ordered by increasing modulus) on the declared
    side -- 'left'/'right' relative to the direction of travel."""

    base_theta: float
    detours: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "detours", tuple(self.detours))
        mods = []
        for m, side in self.detours:
            if m == 0 or side not in ("left", "right"):
                raise PathError("detours are (nonzero m, 'left'|'right') pairs")
            mods.append(abs(m))
        if mods != sorted(mods) or len(set(mods)) != len(mods):
            raise PathError("detours must be ordered by increasing modulus")


def _ray_contains(theta: float, m: int) -> bool:
    want = math.pi / 2 if m > 0 else -math.pi / 2
    return abs(math.remainder(theta - want, TWO_PI)) < 1e-12


def _march_elements(kind: _Kind, path: BranchPath, r_target: float, r_start: float):
    th = path.base_theta
    u = cmath.exp(1j * th)
    elements = []
    if th != kind.anchor:
        elements.append(("arc", 0j, r_start, kind.anchor, th))
    detoured = dict(path.detours)
    for m in detoured:
        if not _ray_contains(th, m):
            raise PathError(f"detour point 2*pi*i*{m} is not on the ray arg={th:g}")
    pos = r_start
    for m, side in path.detours:
        rho = abs(m) * TWO_PI
        if rho >= r_target:
            continue
        d = min(0.7, 0.45 * (rho - pos), 0.45 * (r_target - rho))
        if d <= PROXIMITY_RADIUS:
            raise PathError("no room for a detour on this path")
        center = 2j * math.pi * m
        elements.append(("seg", pos * u, (rho - d) * u))
        a0 = cmath.phase((rho - d) * u - center)
        a1 = a0 + (math.pi if side == "right" else -math.pi)
        elements.append(("arc", center, d, a0, a1))
        pos = rho + d
    if _ray_contains(th, 1) or _ray_contains(th, -1):
        sgn = 1 if math.sin(th) > 0 else -1
        for j in range(1, int(r_target / TWO_PI) + 1):
            rho = j * TWO_PI
            if pos < rho < r_target and sgn * j not in detoured:
                raise PathError(f"singular point 2*pi*i*{sgn * j} on the path "
                                "has no declared detour")
    elements.append(("seg", pos * u, r_target * u))
    return elements


def continue_labels(f: BorelFunction, path: BranchPath, xi_target) -> tuple:
    """Branch-label pair of cont f along `path`, evaluated at xi_target."""
    kind = f.family
    target = _as_surface(xi_target)
    r_start = min(1.0, 0.5 * target.r)
    labels = _anchor_departure(kind, f.branch_state, r_start,
                               path.base_theta - kind.anchor)
    labels = _fold(kind, labels, _march_elements(kind, path, target.r, r_start))
    if target.theta != path.base_theta:
        labels = _fold(kind, labels,
                       [("arc", 0j, target.r, path.base_theta, target.theta)])
    return labels


def continue_minor(f: BorelFunction, path: BranchPath, xi_target) -> complex:
    """Value of the analytic continuation of f along `path` at xi_target."""
    target = _as_surface(xi_target)
    if f.kind == "minor_mu":
        # meromorphic, hence single-valued: every continuation is direct
        return minor_mu(target.projection)
    kind = f.family
    labels = continue_labels(f, path, xi_target)
    wa, wb = _endpoint_values(kind, labels, target.projection, approach_tau=0.0)
    return kind.unit * (wa if f.major else wa - wb)


# ---------------------------------------------------------------------------
# alien operators at omega in 2*pi*i*Z*

@dataclass(frozen=True)
class SingularityData:
    """Square-root singularity described by a sampler of its local minor
    (the variation around the point) in the local coordinate
    u = rho * e^{i (local_arg + offset)}, local_arg = arg omega - pi."""

    location: complex
    sampler: Callable[[float, float], complex]

    def sample(self, rho: float, offset: float = 0.0) -> complex:
        return self.sampler(rho, offset)


def _omega_index(omega: complex) -> int:
    m = round(complex(omega).imag / TWO_PI)
    if m == 0 or abs(complex(omega) - 2j * math.pi * m) > 1e-9:
        raise DomainError("omega must lie in 2*pi*i*Z*")
    return m


def _word_labels(f: BorelFunction, m: int, word) -> tuple:
    """Labels after marching from the anchor to just below omega = 2*pi*i*m
    along the imaginary axis, detouring interior points per `word`."""
    base_theta = math.pi / 2 if m > 0 else -math.pi / 2
    sgn = 1 if m > 0 else -1
    detours = tuple((sgn * j, side) for j, side in enumerate(word, start=1))
    path = BranchPath(base_theta, detours)
    probe = SurfacePoint(abs(m) * TWO_PI - 1.0, base_theta)
    return continue_labels(f, path, probe)


def _variation_sampler(kind: _Kind, omega: complex, labels) -> Callable:
    m = round(omega.imag / TWO_PI)
    local_arg = (math.pi / 2 if m > 0 else -math.pi / 2) - math.pi

    def sample(rho: float, offset: float = 0.0) -> complex:
        if not 0.0 < rho < 1.0:
            raise DomainError("germ sample radius must sit in (0, 1)")
        ang = local_arg + offset
        point = omega + rho * cmath.exp(1j * ang)
        wa, wb = _endpoint_values(kind, labels, point, approach_tau=0.0)
        direct = kind.unit * (wa - wb)
        lab2 = _fold(kind, labels, [("arc", omega, rho, ang, ang - TWO_PI)])
        wa2, wb2 = _endpoint_values(kind, lab2, point, approach_tau=0.0)
        return direct - kind.unit * (wa2 - wb2)

    return sample


def alien_plus(f: BorelFunction, omega: complex) -> SingularityData:
    """Lateral alien operator: the singularity at omega of the continuation
    sidestepping every interior singular point to the right."""
    m = _omega_index(omega)
    labels = _word_labels(f, m, ["right"] * (abs(m) - 1))
    return SingularityData(2j * math.pi * m,
                           _variation_sampler(f.family, 2j * math.pi * m, labels))


# alien() enumerates 2^(|m|-1) lateral words, so its build time doubles
# with each step of |m|: about 1.5 s at |m| = 14 on one 2-vCPU Xeon core,
# an extrapolated 7 s at 16
ALIEN_MAX_M = 16


def alien(f: BorelFunction, omega: complex) -> SingularityData:
    """Averaged alien operator: weights p!q!/r! over the 2^(r-1) lateral
    words with p rights and q lefts among the r-1 interior points.

    The cost doubles with |m|, so omega = 2*pi*i*m with |m| > ALIEN_MAX_M
    (16) raises DomainError; alien_plus has no such bound."""
    m = _omega_index(omega)
    r = abs(m)
    if r > ALIEN_MAX_M:
        raise DomainError(
            f"averaged alien operator limited to |m| <= {ALIEN_MAX_M} "
            f"(it enumerates 2^(|m|-1) words), got m = {m}")
    words = [[]]
    for _ in range(r - 1):
        words = [w + [s] for w in words for s in ("right", "left")]
    weighted = []
    for word in words:
        p = sum(1 for s in word if s == "right")
        q = r - 1 - p
        weight = math.factorial(p) * math.factorial(q) / math.factorial(r)
        labels = _word_labels(f, m, word)
        weighted.append((weight, _variation_sampler(f.family, 2j * math.pi * m, labels)))

    def sample(rho: float, offset: float = 0.0) -> complex:
        return sum(w * s(rho, offset) for w, s in weighted)

    return SingularityData(2j * math.pi * m, sample)


def minor_germ_sampler(f: BorelFunction, local_arg: float) -> SingularityData:
    """The base germ at the origin in the same local convention as the
    alien operators, for ratio comparisons."""
    kind = f.family

    def sample(rho: float, offset: float = 0.0) -> complex:
        return _eval_kind(kind, SurfacePoint(rho, local_arg + offset),
                          want_major=False)

    return SingularityData(0j, sample)


_GERM_RADII = (1e-2, 1e-3, 1e-4)
_GERM_OFFSETS = (0.0, 0.35, -0.35)


def germ_ratio(a: SingularityData, b: SingularityData,
               radii: Sequence[float] = _GERM_RADII,
               offsets: Sequence[float] = _GERM_OFFSETS):
    """(mean of a/b over matched sample points, max spread around it).
    Square-root germs agree up to a constant factor exactly when the ratio
    is constant over radii and angles."""
    ratios = []
    for rho in radii:
        for off in offsets:
            ratios.append(a.sample(rho, off) / b.sample(rho, off))
    mean = sum(ratios) / len(ratios)
    spread = max(abs(x - mean) for x in ratios)
    return mean, spread


def germ_magnitude(a: SingularityData, radii: Sequence[float] = _GERM_RADII) -> float:
    return max(abs(a.sample(rho, 0.0)) for rho in radii)


# ---------------------------------------------------------------------------
# quadrature-facing samplers

# a_1, a_3, ..., a_39 of exactseries.a_coefficients(39): W_0 - W_{-1} at
# x = -e^{-1-xi} is q_+ - q_- = 2 sum_j a_{2j+1} p^(2j+1), p = (2 xi)^(1/2),
# accurate to double precision for |xi| <= 1 (literal: computing the
# table at import costs milliseconds)
_PUISEUX_ODD = (
    1.0, 0.027777777777777776, 0.0002314814814814815, -2.553644914756026e-05,
    -2.428276122977769e-07, 7.542464855411896e-08, 5.159887341078076e-10,
    -2.921357345635569e-10, -1.5008349408791911e-12, 1.2822077905614429e-12,
    5.2401866818838735e-15, -6.053864010513748e-15, -2.055644733697029e-17,
    2.999822650631319e-17, 8.726010378440995e-20, -1.53872162897435e-19,
    -3.918959253950962e-22, 8.100415520505533e-22, 1.835933454997004e-24,
    -4.351676825653232e-24,
)


def ray_sampler(kind_name: str, theta: float):
    """Vectorized sampler t -> minor(t e^{i theta}) on the canonical sheet;
    kind_name is 'lambda_3_2', 'chi' or 'mu'.  For t <= 1 the minors of
    'lambda_3_2' and 'chi' come from their Puiseux series at the origin,
    where the difference of two W branches would cancel; beyond, from W."""
    if kind_name == "mu":
        rot = cmath.exp(1j * theta)
        return lambda ts: _minor_mu_array(np.asarray(ts, dtype=float) * rot)

    kind = _KINDS[kind_name]
    rot = cmath.exp(1j * theta)
    sin_th = math.sin(theta)
    # p = (2t)^(1/2) e^{i (theta - anchor)/2} continues (2 xi)^(1/2) from the
    # anchor; the base pair (0, -1) gives q_+ - q_-, chi's (-1, 0) its negative
    half_rot = cmath.exp(0.5j * (theta - kind.anchor))
    scale = 2.0 * kind.unit * (1.0 if kind.base_pair == (0, -1) else -1.0)

    def breakpoints(tmax: float):
        if sin_th == 0.0:
            return []
        out, m = [], 1
        while True:
            t = TWO_PI * m / abs(sin_th)
            if t >= tmax:
                return out
            out.append(t)
            m += 1

    def sample(ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        out = np.empty(flat.shape, dtype=complex)
        near = flat <= 1.0
        if np.any(near):
            p = np.sqrt(2.0 * flat[near]) * half_rot
            p2 = p * p
            acc = np.zeros_like(p)
            for a in reversed(_PUISEUX_ODD):
                acc = acc * p2 + a
            out[near] = scale * acc * p
        if not np.all(near):
            edges = [1.0] + breakpoints(float(np.max(flat)) * (1 + 1e-12)) + [math.inf]
            for lo, hi in zip(edges[:-1], edges[1:]):
                mask = (flat > lo) & (flat <= hi)
                if not np.any(mask):
                    continue
                (ka, kb), _ = _labels_at(kind, float(flat[mask][0]), theta)
                xs = kind.x_of_array(flat[mask] * rot)
                out[mask] = kind.unit * (lambert_w_array(xs, ka)
                                         - lambert_w_array(xs, kb))
        return out.reshape(ts.shape)

    return sample


def surface_sampler(kind_name: str, major: bool = False):
    """Point sampler (r, theta) -> value, for contour integrals."""
    if kind_name == "mu":
        return lambda r, th: minor_mu(r * cmath.exp(1j * th))
    kind = _KINDS[kind_name]
    return lambda r, th: _eval_kind(kind, SurfacePoint(r, th), want_major=major)


def export_grid_csv(path, kind_name: str, points: Sequence[SurfacePoint],
                    major: bool = False):
    """Write sampled values as CSV rows: re_xi, im_xi, sheet_theta, re_val,
    im_val, kind."""
    sampler = surface_sampler(kind_name, major=major)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_xi", "im_xi", "sheet_theta", "re_val", "im_val", "kind"])
        for p in points:
            val = sampler(p.r, p.theta)
            proj = p.projection
            writer.writerow([repr(proj.real), repr(proj.imag), repr(p.theta),
                             repr(val.real), repr(val.imag), kind_name])
