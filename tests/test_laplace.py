import cmath
import math

import numpy as np
import pytest

from gammares.borelplane import ray_sampler, surface_sampler
from gammares.errors import DomainError, QuadratureError, StokesJumpError
from gammares.exactseries import lambda_tilde
from gammares.laplace import (Direction, HalfPlane, glue_directions,
                              laplace_hankel, laplace_ray, laplace_real_major,
                              monomial_major_sampler, monomial_minor_sampler,
                              monomial_real_major)
from gammares.quadrature import QuadratureSpec
from gammares.reference import lambda_ref

SPEC = QuadratureSpec()


def test_halfplane_membership():
    hp = HalfPlane(0.0, 1.0)
    assert hp.contains(2.0)
    assert not hp.contains(0.5)
    with pytest.raises(DomainError):
        HalfPlane(0.0, -1.0)


@pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("z", [2.0, 4.0, 1 + 1j])
def test_monomial_closure(c, z):
    # the transform of xi^(c-1)/Gamma(c) is z^-c
    res = laplace_ray(monomial_minor_sampler(c, 0.0), 0.0, z, SPEC,
                      growth=(1.0, 1.0))
    expect = complex(z) ** -c
    assert abs(res.value - expect) / abs(expect) <= SPEC.rel_tol * 20


def test_monomial_trivial_example():
    res = laplace_ray(monomial_minor_sampler(2.0, 0.0), 0.0, 3.0, SPEC,
                      growth=(1.0, 1.0))
    assert abs(res.value - 1.0 / 9.0) < 1e-12


def test_resummation_of_base_minor():
    sampler = ray_sampler("lambda_3_2", 0.0)
    for z in (2.0, 5.0, 3 + 3j):
        res = laplace_ray(sampler, 0.0, z, SPEC, growth=(0.5, 2.0))
        ref = z ** -1.5 * lambda_ref(z)
        assert abs(res.value - ref) / abs(ref) <= 1e-10


def test_resummation_of_mu_minor():
    sampler = ray_sampler("mu", 0.0)
    res = laplace_ray(sampler, 0.0, 5.0, SPEC, growth=(0.0, 0.2),
                      sqrt_origin=False)
    assert abs(res.value - cmath.log(lambda_ref(5.0))) < 1e-11


def test_out_of_halfplane_rejected():
    with pytest.raises(DomainError):
        laplace_ray(ray_sampler("lambda_3_2", 0.0), 0.0, 1j * 3.0, SPEC)


def test_tail_bound_unattainable():
    tight = QuadratureSpec(max_radius=5.0)
    with pytest.raises(QuadratureError):
        laplace_ray(ray_sampler("lambda_3_2", 0.0), 0.0, 0.01 + 0j, tight,
                    growth=(0.5, 2.0))


@pytest.mark.parametrize("z", [3.0, 30.0, 10 + 10j])
def test_ray_never_integrates_below_lower(z):
    base = ray_sampler("lambda_3_2", 0.0)
    smallest = []

    def minor(ts):
        smallest.append(float(np.min(ts)))
        return base(ts)

    res = laplace_ray(minor, 0.0, z, SPEC, growth=(0.6, 3.0), lower=0.5)
    assert res.panels > 0 and min(smallest) >= 0.5


def test_ray_zero_when_tail_bound_holds_at_lower():
    # (1 + 20) e^-100 is far below 0.1 abs_tol: nothing is left to integrate
    calls = []

    def minor(ts):
        calls.append(ts)
        return np.ones_like(ts, dtype=complex)

    res = laplace_ray(minor, 0.0, 100.0, SPEC, growth=(1.0, 20.0), lower=1.0)
    c, r = 100.0, 1.0
    tail = math.exp(-c * r) * ((r / c + 1.0 / (c * c)) + 20.0 / c)
    assert not calls and res.value == 0 and res.panels == 0
    assert res.est_error == pytest.approx(tail, rel=1e-15)


def test_asymptotic_expansion_at_large_x():
    # x^{3/2} L(minor)(x) matches the divergent series partial sums with
    # error below the first omitted term
    lt = lambda_tilde(8)
    sampler = ray_sampler("lambda_3_2", 0.0)
    for x in (10.0, 20.0, 40.0):
        val = laplace_ray(sampler, 0.0, x, SPEC, growth=(0.5, 2.0)).value * x ** 1.5
        for n_keep in (3, 5):
            partial = sum(float(lt.coefficient(n)) * x ** -n
                          for n in range(n_keep + 1))
            first_omitted = abs(float(lt.coefficient(n_keep + 1))) * x ** -(n_keep + 1)
            assert abs(val - partial) <= first_omitted, (x, n_keep)


def test_monomial_shift_at_function_level():
    # transform of the c-shifted normalization = z^(3/2-c) * transform of
    # the base minor, checked against the reference on the function side
    sampler = ray_sampler("lambda_3_2", 0.0)
    for c in (0.25, 1.0, -0.5):
        for z in (2.0, 4.0 + 1.0j):
            base = laplace_ray(sampler, 0.0, z, SPEC, growth=(0.5, 2.0)).value
            shifted = z ** (-c + 1.5) * base
            assert abs(shifted - lambda_ref(z, c) * z ** -c * z ** c) \
                / abs(lambda_ref(z, c)) < 1e-9
            assert abs(shifted - lambda_ref(z, c)) / abs(lambda_ref(z, c)) < 1e-9


MONOMIAL_CS = [0.5, 1.0, 1.5, 2.0]
MONOMIAL_THETAS = [0.0, 0.4, -0.4]


def _check_monomial_contour(transform, c):
    # z^-c within est_error on every circle radius, and delta-independent;
    # 1e-11 is the absolute bar of the single-case tests this grid replaced
    z = 4.0
    expect = z ** -c
    vals = []
    for delta in (0.5, 1.0):
        res = transform(delta)
        assert abs(res.value - expect) <= min(res.est_error, 1e-11), (delta, res)
        vals.append(res.value)
    assert abs(vals[0] - vals[1]) <= 1e-12 * abs(expect)


@pytest.mark.parametrize("theta", MONOMIAL_THETAS)
@pytest.mark.parametrize("c", MONOMIAL_CS)
def test_hankel_monomial_singularity(c, theta):
    # the standard singular major of z^-c, through the default minor_ray
    # (the monodromy variation xi^(c-1)/Gamma(c), at most t + 1 here)
    major = monomial_major_sampler(c)
    _check_monomial_contour(
        lambda d: laplace_hankel(major, theta, 4.0, SPEC, growth=(1.0, 1.0),
                                 delta=d), c)


def test_hankel_ray_consistency_and_delta_invariance():
    major = surface_sampler("lambda_3_2", major=True)
    minor = ray_sampler("lambda_3_2", 0.0)
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-12)
    z = 3.0
    ray_val = laplace_ray(minor, 0.0, z, spec, growth=(0.5, 2.0)).value
    vals = {}
    for d in (0.1, 0.5):
        vals[d] = laplace_hankel(major, 0.0, z, spec, growth=(0.5, 2.0),
                                 delta=d, minor_ray=minor).value
        assert abs(vals[d] - ray_val) / abs(ray_val) < 1e-10
    assert abs(vals[0.1] - vals[0.5]) / abs(ray_val) < 1e-11


@pytest.mark.parametrize("theta", MONOMIAL_THETAS)
@pytest.mark.parametrize("c", MONOMIAL_CS)
def test_real_major_monomial(c, theta):
    # definitional consistency: the wrapped transform of
    # -2 pi i * major(e^{-i pi} xi) equals z^-c; the arm difference is
    # 2 pi i xi^(c-1)/Gamma(c), at most 2 pi (t + 1) here
    rmajor = monomial_real_major(c)
    _check_monomial_contour(
        lambda d: laplace_real_major(rmajor, theta, 4.0, SPEC,
                                     growth=(7.0, 7.0), delta=d), c)


def test_glue_agreement_within_sector():
    vals = []
    for th in (-0.3, 0.0, 0.3):
        vals.append((Direction(th),
                     laplace_ray(ray_sampler("lambda_3_2", th), th, 5.0, SPEC,
                                 growth=(0.6, 3.0)).value))
    glue = glue_directions(vals, (-0.5, 0.5), SPEC.rel_tol)
    assert glue.max_mismatch <= 1e-10


def test_glue_detects_stokes_line():
    z = 2 * cmath.exp(-1.55j)
    vals = [(th, laplace_ray(ray_sampler("lambda_3_2", th), th, z, SPEC,
                             growth=(1.0, 25.0)).value)
            for th in (1.3, 1.8)]
    with pytest.raises(StokesJumpError):
        glue_directions(vals, (1.2, 1.9), SPEC.rel_tol)
    # jump magnitude carries the e^{-2 pi i z} factor
    jump = abs(vals[0][1] - vals[1][1])
    expect = abs(cmath.exp(-2j * math.pi * z)) * abs(vals[0][1])
    assert abs(jump - expect) / expect < 1e-3


def test_glue_single_direction_trivial():
    glue = glue_directions([(0.0, 0.123 + 0j)], (-0.1, 0.1), 1e-10)
    assert glue.max_mismatch == 0.0


def test_glue_evaluator_picks_direction():
    def transform(th, z):
        return laplace_ray(ray_sampler("lambda_3_2", th), th, z, SPEC,
                           growth=(0.6, 3.0))

    vals = [(th, transform(th, 5.0).value) for th in (-0.3, 0.0, 0.3)]
    glue = glue_directions(vals, (-0.3, 0.3), SPEC.rel_tol, transform=transform)
    z = 4.0 * cmath.exp(0.25j)
    assert abs(glue(z) - z ** -1.5 * lambda_ref(z)) / abs(lambda_ref(z)) < 1e-9


def test_result_record_schema():
    res = laplace_ray(ray_sampler("lambda_3_2", 0.0), 0.0, 2.0, SPEC,
                      growth=(0.5, 2.0))
    rec = res.to_record()
    assert set(rec) == {"z", "theta", "value", "est_error", "panels"}
    assert rec["z"] == [2.0, 0.0]
    assert isinstance(rec["panels"], int)


def test_deterministic_reruns():
    sampler = ray_sampler("lambda_3_2", 0.0)
    a = laplace_ray(sampler, 0.0, 2.0, SPEC, growth=(0.5, 2.0)).value
    b = laplace_ray(sampler, 0.0, 2.0, SPEC, growth=(0.5, 2.0)).value
    assert a == b  # bit-for-bit


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(hankel_delta=7.0)   # past the first branch point


def test_real_major_off_axis_direction():
    from gammares.realmajor import rho_on_sheet

    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)

    def rho_surface(t, th):
        return complex(rho_on_sheet(0.0, t, th, spec).value)

    z = 3 * cmath.exp(-0.4j)
    res = laplace_real_major(rho_surface, 0.25, z, spec, growth=(0.0, 3.0))
    ref = lambda_ref(z)
    assert abs(res.value - ref) / abs(ref) <= 1e-7


def test_hankel_chi_major():
    maj = surface_sampler("chi", major=True)
    mray = ray_sampler("chi", 0.0)
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-12)
    for z in (3.0, 2 + 1j):
        res = laplace_hankel(maj, 0.0, z, spec, growth=(0.1, 3.0),
                             minor_ray=mray)
        ref = z ** -1.5 / lambda_ref(z)
        assert abs(res.value - ref) / abs(ref) <= 1e-10


@pytest.mark.parametrize("kind", ["lambda_3_2", "chi", "mu"])
@pytest.mark.parametrize("r", [2500.0, 1e4, 1e6])
def test_ray_calibrated_at_large_z(kind, r):
    # the kernel e^{-z t} dies well inside the first panel of the ray; the
    # answer must still sit within est_error of a 30-digit oracle
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.dps = 30
    growth = {"lambda_3_2": (0.6, 3.0), "chi": (0.3, 4.0), "mu": (0.0, 0.2)}
    for arg in (-1.3, 0.0, 0.7):
        z = r * cmath.exp(1j * arg)
        theta = min(1.2, max(-1.2, -arg))
        res = laplace_ray(ray_sampler(kind, theta), theta, z, SPEC,
                          growth=growth[kind], sqrt_origin=kind != "mu")
        zz = ctx.mpc(z)
        mu = (ctx.loggamma(zz) - (zz - ctx.mpf(0.5)) * ctx.log(zz) + zz
              - ctx.log(2 * ctx.pi) / 2)
        if kind == "mu":
            truth = complex(mu)
        else:
            sign = 1 if kind == "lambda_3_2" else -1
            truth = complex(zz ** ctx.mpf(-1.5) * ctx.exp(sign * mu))
        assert abs(res.value - truth) <= res.est_error, (z, res)


@pytest.mark.parametrize("c", [0.0, -0.5, 0.25])
def test_real_major_round_trip_grid(c):
    # the wrapped contour over rho_on_sheet returns z^-c lambda(z) within
    # est_error, with at most 160 real-major evaluations a trip
    from gammares.realmajor import rho_on_sheet

    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
    for r in (1.0, 3.0, 6.0, 10.0):
        for arg in (0.0, 0.6, -0.6):
            z = r * cmath.exp(1j * arg)
            calls = []

            def rho_surface(t, th):
                calls.append((t, th))
                return complex(rho_on_sheet(c, t, th, spec).value)

            res = laplace_real_major(rho_surface, 0.0, z, spec,
                                     growth=(0.0, 3.0))
            ref = lambda_ref(z, c)
            assert abs(res.value - ref) <= res.est_error, (z, res)
            assert res.panels == len(calls) <= 160, (z, res)


@pytest.mark.parametrize("z", ["15+0j", "20+0j", "30+0j", "10+10j"])
def test_resum_realmajor_large_z_never_silently_wrong(capsys, z):
    # e^{z xi} reaches e^{|z| delta} on the circle: the answer is either
    # within tol (exit 0) or refused by the rounding floor (exit 3), fast
    import time

    from gammares.cli import main

    t0 = time.perf_counter()
    code = main(["resum", "--object", "realmajor_c", "--z", z])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code in (0, 3), z
    if code == 0:
        import json
        assert json.loads(out)["rel_error"] <= 1e-10
    assert elapsed < 2.0


@pytest.mark.parametrize("c", [-0.5, 0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("z", [1.0, 4.0, 10.0, 3 + 3j, 5 * cmath.exp(-1.1j)])
def test_hankel_monomial_product_rule_grid(c, z):
    # minor_ray=None: circle and sheet-difference arms both by the product
    # rule, within est_error of z^-c, counting one call per major sample;
    # |z| delta <= 4 keeps the circle's rounding floor below abs_tol
    base = monomial_major_sampler(c)
    calls = []

    def major(r, th):
        calls.append(r)
        return base(r, th)

    theta = -cmath.phase(z)
    res = laplace_hankel(major, theta, z, SPEC, growth=(1.0, 1.0),
                         delta=min(1.0, 4.0 / abs(z)))
    expect = complex(z) ** -c
    assert abs(res.value - expect) <= res.est_error, (c, z, res)
    assert abs(res.value - expect) <= 1e-11 * max(1.0, abs(expect))
    assert res.panels == len(calls)


def test_hankel_circle_rounding_floor_fails_fast():
    # e^{-z xi} reaches e^{|z| delta} = e^10 on the circle, so its rounding
    # floor lies above abs_tol 1e-12: refused after 17 samples, not after
    # thousands of panels
    base = surface_sampler("lambda_3_2", major=True)
    calls = []

    def major(r, th):
        calls.append(r)
        return base(r, th)

    with pytest.raises(QuadratureError, match="rounding floor"):
        laplace_hankel(major, 0.0, 10.0,
                       QuadratureSpec(rel_tol=1e-12, abs_tol=1e-12),
                       delta=1.0, minor_ray=ray_sampler("lambda_3_2", 0.0))
    assert len(calls) == 17
