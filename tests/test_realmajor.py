import cmath
import math

import numpy as np
import pytest

from gammares.errors import DomainError
from gammares.exactseries import a_coefficients, double_factorial_odd
from gammares.laplace import laplace_real_major
from gammares.quadrature import QuadratureSpec, adaptive_quad
from gammares.realmajor import (CIndex, critical_values, integrand_roots,
                                minor_lambda1_contour, rho_continue,
                                rho_lambda_c, rho_nu_c, rho_on_sheet)
from gammares.reference import lambda_ref, nu_ref

SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12)


def laplace_of(fn, xi, spec=SPEC):
    """Direct transform int_0^inf e^{-z xi} fn(z) dz (u = 0 real-major)."""
    decay = complex(xi).real
    r_cut = (math.log(10.0 / spec.abs_tol) + 4.0) / decay

    def f(zs):
        zs = np.asarray(zs, dtype=float)
        return np.array([cmath.exp(-z * xi) * fn(z) for z in zs])

    def f_sub(ss):
        ss = np.asarray(ss, dtype=float)
        return f(ss * ss) * 2.0 * ss

    return (adaptive_quad(f_sub, 0.0, 1.0, spec).value
            + adaptive_quad(f, 1.0, r_cut, spec).value
            + cmath.exp(-r_cut * xi) / xi)


def test_phase_function_nonnegative_on_reals():
    for q in np.linspace(-30, 30, 301):
        assert math.exp(q) - q - 1.0 >= 0.0
    assert math.exp(0.0) - 0.0 - 1.0 == 0.0


def test_critical_values_are_the_lattice():
    for k, v in zip(range(-3, 4), critical_values(3)):
        assert abs(v - 2j * math.pi * k) < 1e-12


def test_positivity_real_arguments():
    for c in (0.0, -1.0, 0.25):
        for xi in (0.5, 1.0, 3.0):
            v = complex(rho_lambda_c(c, xi).value)
            assert abs(v.imag) < 1e-12
            assert v.real > 0.0
    for c in (0.0, 0.5):
        v = complex(rho_nu_c(c, 1.0).value)
        assert abs(v.imag) < 1e-13 and v.real > 0.0


def test_domain_validation():
    with pytest.raises(DomainError):
        rho_lambda_c(0.7, 1.0)     # Re c < 1/2 required
    with pytest.raises(DomainError):
        rho_nu_c(1.2, 1.0)
    with pytest.raises(DomainError):
        rho_lambda_c(0.0, -2.0)    # cut
    CIndex(0.4).require_below(0.5, "ok")


@pytest.mark.parametrize("c", [0.0, -1.0, 0.25])
@pytest.mark.parametrize("xi", [0.5, 1.0, 2.0, 1 + 1j])
def test_against_direct_transform(c, xi):
    direct = laplace_of(lambda z: lambda_ref(z, c), xi)
    got = complex(rho_lambda_c(c, xi).value)
    assert abs(got - direct) / abs(direct) <= 1e-9


def test_nu_against_direct_transform():
    for xi in (0.5, 1.0):
        direct = laplace_of(nu_ref, xi)
        got = complex(rho_nu_c(0.0, xi).value)
        assert abs(got - direct) <= 1e-9


def test_watson_slope_at_large_xi():
    # lambda_c(z) ~ z^{-c-1/2}/sqrt(2 pi) at 0 forces rho ~ C xi^{c-1/2}:
    # log-log slope -1/2 for c = 0, and matching slopes for the variant
    # lambda_c(z) ~ z^{-c-1/2}/sqrt(2 pi) at 0 gives slope c - 1/2, while
    # the half-shifted normalization is finite at 0 and gives c - 1: the
    # two families share the -1/2 slope at (c=0, c=1/2) respectively
    xs = np.array([40.0, 80.0, 160.0])
    for fn, c, slope in ((rho_lambda_c, 0.0, -0.5), (rho_nu_c, 0.5, -0.5)):
        vals = np.array([abs(complex(fn(c, float(x)).value)) for x in xs])
        slopes = np.diff(np.log(vals)) / np.diff(np.log(xs))
        # correction terms decay like log(xi)/xi
        assert np.all(np.abs(slopes - slope) < 0.06), (fn, slopes)
        assert abs(slopes[1] - slope) < abs(slopes[0] - slope) + 1e-12


def test_roundtrip_through_wrapped_contour():
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)

    def rho_surface(t, th):
        return complex(rho_on_sheet(0.0, t, th, spec).value)

    for z in (2.0, 3 + 2j):
        res = laplace_real_major(rho_surface, 0.0, z, spec, growth=(0.0, 3.0))
        ref = lambda_ref(z)
        assert abs(res.value - ref) / abs(ref) <= 1e-7, z


def test_integrand_roots_closed_form():
    for xi in (0.5, 1 + 1j, 3.0 - 0.7j):
        roots = integrand_roots(xi)
        for q in roots.values():
            assert abs(xi + cmath.exp(q) - q - 1.0) < 1e-10


def test_root_locations_near_origin():
    # the two local roots of -xi + e^Q - Q - 1: +-(2 xi)^(1/2) + O(xi)
    xi = 0.01
    roots = integrand_roots(-xi)   # sign flip: zeros of e^Q - Q - 1 - xi
    near = sorted((q for q in roots.values() if abs(q) < 1.0),
                  key=lambda q: q.real)
    assert len(near) == 2
    s = math.sqrt(2 * xi)
    assert abs(near[0] + s) < 3 * xi
    assert abs(near[1] - s) < 3 * xi


def test_constant_path_matches_principal():
    base = complex(rho_lambda_c(0.0, 1.0).value)
    cont = complex(rho_continue(0.0, [1.0, 1.0 + 0.0j]).value)
    assert abs(base - cont) < 1e-11


def test_continuation_agrees_with_rotated_ray():
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
    theta = 5 * math.pi / 4
    got = complex(rho_on_sheet(0.0, 1.0, theta, spec).value)
    alpha = -0.88 * math.pi
    xi = cmath.exp(1j * theta)
    ph = cmath.exp(1j * alpha)

    def f(ts):
        ts = np.asarray(ts, dtype=float)
        return np.array([cmath.exp(-(t * ph) * xi) * lambda_ref(t * ph) * ph
                         for t in ts])

    def f_sub(ss):
        ss = np.asarray(ss, dtype=float)
        return f(ss * ss) * 2.0 * ss

    r_cut = 40.0 / (xi * ph).real
    oracle = (adaptive_quad(f_sub, 0.0, 1.0, spec).value
              + adaptive_quad(f, 1.0, r_cut, spec).value)
    assert abs(got - oracle) <= 1e-8


def test_monodromy_around_branch_point():
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
    th_t = -1.5 * math.pi
    arc = [cmath.exp(1j * th_t * k / 40) for k in range(41)]
    ray_out = [1j * (1 + t * (2 * math.pi - 2)) for t in np.linspace(0, 1, 25)[1:]]
    start = 1j * (2 * math.pi - 1)
    center = 2j * math.pi
    loop = [center + (start - center) * cmath.exp(1j * s)
            for s in np.linspace(0.0, 2 * math.pi, 60)]
    back = list(reversed(ray_out)) + list(reversed(arc))
    looped = complex(rho_continue(0.0, arc + ray_out + loop + back, spec).value)
    base = complex(rho_lambda_c(0.0, 1.0, spec).value)
    assert abs(looped - base) > 1e-8
    # without the loop the continuation returns exactly
    plain = complex(rho_continue(0.0, arc + ray_out + back, spec).value)
    assert abs(plain - base) < 1e-10


def test_boundedness_on_wide_sector():
    # |rho(0, xi)| stays bounded on |xi| > 1 within |arg xi| < 3 pi/2 - 0.2
    worst = 0.0
    for r in (1.5, 4.0, 12.0):
        for th in (-4.5, -2.0, 0.0, 2.0, 4.5):
            v = abs(complex(rho_on_sheet(0.0, r, th).value))
            worst = max(worst, v)
    assert worst < 10.0


def test_principal_sheet_continuation_is_single_valued():
    # loop inside the principal sector around the projection of 2 pi i:
    # no singularity there, monodromy must vanish
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
    up = [1.0 + t * (1j * (2 * math.pi - 1) - 1.0 + 1.0)
          for t in np.linspace(0, 1, 30)]   # 1 -> approx center - i
    center = 2j * math.pi
    start = up[-1]
    loop = [center + (start - center) * cmath.exp(1j * s)
            for s in np.linspace(0, 2 * math.pi, 50)]
    path = up + loop + list(reversed(up))
    looped = complex(rho_continue(0.0, path, spec).value)
    base = complex(rho_lambda_c(0.0, 1.0, spec).value)
    assert abs(looped - base) < 1e-10


def test_contour_minor_coefficients():
    spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13)
    a = a_coefficients(9)
    m_samples = 32
    rad = 0.05
    vals = np.array([minor_lambda1_contour(rad * cmath.exp(2j * math.pi * k / m_samples), spec)
                     for k in range(m_samples)])
    coeffs = np.fft.fft(vals) / m_samples
    for n in range(4):
        expect = double_factorial_odd(n) * float(a[2 * n]) / math.factorial(n)
        got = coeffs[n] / rad ** n
        assert abs(got - expect) / abs(expect) <= 1e-7, n
    # the next coefficient amplifies sampler noise by rad^-4; keep a
    # looser sanity bound on it
    expect4 = double_factorial_odd(4) * float(a[8]) / math.factorial(4)
    assert abs(coeffs[4] / rad ** 4 - expect4) / abs(expect4) <= 1e-5


def test_contour_minor_at_origin():
    assert abs(minor_lambda1_contour(0.0) - 1.0) < 1e-11


def test_contour_rejects_large_xi():
    with pytest.raises(DomainError):
        minor_lambda1_contour(3.0)


def test_qpath_diagnostics():
    res = rho_on_sheet(0.0, 1.0, math.pi, QuadratureSpec(rel_tol=1e-9,
                                                         abs_tol=1e-11))
    assert len(res.qpath.nodes) > 2   # the path had to thread the roots
    assert res.qpath.tail_T > 10.0


def test_minor_recovery_from_real_major_variation():
    # -(1/2 pi i)(rho(e^{i pi} xi) - rho(e^{-i pi} xi)) reproduces the
    # termwise Borel transform of the c = 0 asymptotic series
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12)
    xi = 0.05
    up = complex(rho_on_sheet(0.0, xi, math.pi, spec).value)
    dn = complex(rho_on_sheet(0.0, xi, -math.pi, spec).value)
    got = -(up - dn) / (2j * math.pi)
    a = a_coefficients(19)
    series = sum(double_factorial_odd(n) * float(a[2 * n]) * xi ** (n - 1)
                 / math.factorial(n - 1) for n in range(1, 10))
    assert abs(got.imag) < 1e-9
    assert abs(got.real - series) < 1e-9


def test_random_paths_return_to_base():
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
    rng = np.random.default_rng(31)
    base = complex(rho_lambda_c(0.0, 1.0, spec).value)
    from gammares.errors import SingularProximityError
    done = 0
    for _ in range(8):
        pts = [complex(1.0)]
        for dx, dy in rng.uniform(-0.8, 0.8, (25, 2)):
            cand = pts[-1] + complex(dx, dy)
            if abs(cand) < 0.15 or min(abs(cand - 2j * math.pi * m)
                                       for m in (-2, -1, 1, 2)) < 0.35:
                cand = pts[-1]
            pts.append(cand)
        try:
            val = complex(rho_continue(0.0, pts + pts[-2::-1], spec).value)
        except SingularProximityError:
            continue
        assert abs(val - base) < 1e-10
        done += 1
    assert done >= 4


@pytest.mark.parametrize("c", [0.0, -0.5, 0.25])
def test_rotation_leg_matches_fine_rotation(c):
    # rho_on_sheet rotates in chords of at most pi/4; 0.1-rad steps along
    # the same arc must land on the same sheet and value
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
    for r in (0.2, 1.0, 6.0):
        for mag in (math.pi - 0.1, math.pi, 3.5, 4.0):
            for theta in (mag, -mag):
                got = rho_on_sheet(c, r, theta, spec)
                r0 = min(r, 1.0)
                steps = max(8, int(abs(theta) / 0.1) + 1)
                path = [r0 * cmath.exp(1j * theta * k / steps)
                        for k in range(steps + 1)]
                if r > r0:
                    path.append(r * cmath.exp(1j * theta))
                fine = rho_continue(c, path, spec)
                assert abs(got.value - fine.value) <= got.est_error, (r, theta)


@pytest.mark.parametrize("path", [
    # horizontal segment 1e-6 above 2 pi i, crossing no line
    [1.0, 1 + (2 * math.pi + 1e-6) * 1j, -1 + (2 * math.pi + 1e-6) * 1j],
    # segment 1e-6 above the origin
    [1 + 1e-6j, -1 + 1e-6j],
])
def test_continue_refuses_pinching_segment(path):
    from gammares.errors import SingularProximityError
    with pytest.raises(SingularProximityError):
        rho_continue(0.0, path)


@pytest.mark.parametrize("c", [0.0, -0.5, 0.25])
def test_crossings_at_chord_nodes_counted(c):
    # rho_on_sheet's pi/4 chords put nodes on the lines Im xi = 2 pi m
    # (e^{i pi} misses its line by 1.2e-16); a path along the same arc
    # whose interior nodes sit half a step off every line must land on
    # the same sheet, or raise alike
    from gammares.errors import SingularProximityError
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
    for r in (0.3, 1.0, 3.0):
        for q in (5, 6, 7, 8):
            for theta in (q * math.pi / 4, -q * math.pi / 4):
                r0 = min(r, 1.0)
                steps = 2 * math.ceil(abs(theta) / 0.2)   # even: no node on a line
                path = ([r0] + [r0 * cmath.exp(1j * theta * (k + 0.5) / steps)
                                for k in range(steps)]
                        + [r0 * cmath.exp(1j * theta)])
                if r > r0:
                    path.append(r * cmath.exp(1j * theta))
                try:
                    got = rho_on_sheet(c, r, theta, spec)
                except SingularProximityError:
                    with pytest.raises(SingularProximityError):
                        rho_continue(c, path, spec)
                    continue
                off = rho_continue(c, path, spec)
                assert abs(got.value - off.value) <= got.est_error, (r, theta)
