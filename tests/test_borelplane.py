import cmath
import math

import numpy as np
import pytest

from gammares.borelplane import (MINOR_CHI, MINOR_LAMBDA32, BorelFunction,
                                 BranchPath, SurfacePoint, alien, alien_plus,
                                 continue_minor, export_grid_csv, germ_magnitude,
                                 germ_ratio, major_chi, major_lambda32,
                                 minor_chi, minor_germ_sampler, minor_lambda32,
                                 minor_mu, ray_sampler, _PUISEUX_ODD)
from gammares.errors import (DomainError, PathError, SingularProximityError)
from gammares.exactseries import a_coefficients, puiseux_q
from gammares.lambertw import lambert_w, w_polish
from gammares.quadrature import QuadratureSpec, adaptive_quad

SQRT_2PI = math.sqrt(2.0 * math.pi)
TWO_PI = 2.0 * math.pi


def crawl_pair(path_points, w_start):
    """Independent continuation oracle: carry W values along a dense path
    by polishing from the previous point (no branch bookkeeping at all)."""
    out = list(w_start)
    for xi in path_points:
        x = -cmath.exp(-1.0 - xi)
        for i, w in enumerate(out):
            wn, res, ok = w_polish(x, w, 1e-13)
            assert ok and abs(wn - w) < 0.7, "step too large for the crawl"
            out[i] = wn
    return out


def dense_arc(r, th0, th1, n=800):
    return [r * cmath.exp(1j * (th0 + (th1 - th0) * k / n)) for k in range(n + 1)]


def test_minor_leading_behaviour():
    # leading Puiseux term: (2/sqrt(pi)) xi^(1/2)
    v = minor_lambda32(0.01)
    assert abs(v - 2.0 / math.sqrt(math.pi) * 0.1) < 2e-3
    assert abs(minor_lambda32(1e-10)) < 1e-4


def test_minor_at_one_vs_root_oracle():
    # q_+ - q_- from bisection on q - ln q - 1 = 1
    def bis(lo, hi):
        f = lambda q: q - math.log(q) - 1.0 - 1.0
        for _ in range(200):
            m = 0.5 * (lo + hi)
            if (f(m) > 0) == (f(lo) > 0):
                lo = m
            else:
                hi = m
        return 0.5 * (lo + hi)

    qp = bis(2.0, 10.0)
    qm = bis(1e-9, 1.0)
    assert abs(minor_lambda32(1.0) - (qp - qm) / SQRT_2PI) < 1e-11


def test_major_constant_term():
    assert abs(major_lambda32(1e-12) + 1.0 / SQRT_2PI) < 1e-5
    # major at small xi matches -q_-(xi)/sqrt(2 pi)
    q_minus = puiseux_q("-", 40)
    for xi in (0.01, 0.05):
        assert abs(major_lambda32(xi) + q_minus.evaluate(xi, 0.0) / SQRT_2PI) < 1e-12


def test_variation_identity():
    for r in np.linspace(0.05, 6.2, 17):
        lhs = (major_lambda32(SurfacePoint(r, 0.0))
               - major_lambda32(SurfacePoint(r, -TWO_PI)))
        assert abs(lhs - minor_lambda32(SurfacePoint(r, 0.0))) <= 1e-12


def test_major_integrable_at_origin():
    # o(1/|xi|): |xi * major| -> 0 along sampled rays
    for th in (0.0, 0.8, -2.2):
        vals = [abs(r * major_lambda32(SurfacePoint(r, th)))
                for r in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-5


def test_symmetry_both_rotations():
    rng = np.random.default_rng(1)
    for _ in range(20):
        r = float(rng.uniform(0.05, 5.0))
        th = float(rng.uniform(-math.pi - 1.0, -math.pi + 1.0))
        lhs = minor_chi(SurfacePoint(r, th))
        assert abs(lhs - 1j * minor_lambda32(SurfacePoint(r, th - math.pi))) <= 1e-12
        assert abs(lhs + 1j * minor_lambda32(SurfacePoint(r, th + math.pi))) <= 1e-12


def test_chi_expansion_convention():
    # chi minor near its anchor: (2/sqrt(pi)) xi^{1/2} with arg xi = -pi
    r = 1e-4
    lead = 2.0 / math.sqrt(math.pi) * math.sqrt(r) * cmath.exp(-1j * math.pi / 2)
    assert abs(minor_chi(SurfacePoint(r, -math.pi)) - lead) < 1e-5
    assert abs(major_chi(SurfacePoint(1e-12, -math.pi)) + 1j / SQRT_2PI) < 1e-5


def test_puiseux_agreement_small_radius():
    q_p, q_m = puiseux_q("+", 36), puiseux_q("-", 36)
    for r in (0.02, 0.1):
        for th in (0.0, 0.7, -0.9):
            truncated = (q_p.evaluate(r, th) - q_m.evaluate(r, th)) / SQRT_2PI
            scale = q_p.last_term_magnitude(r) + 1e-15
            assert abs(minor_lambda32(SurfacePoint(r, th)) - truncated) <= 10 * scale


def test_branch_collision_only_on_lattice():
    # |W_0 - W_-1| at x(xi) vanishes only at xi in 2 pi i Z
    rng = np.random.default_rng(6)
    for _ in range(100):
        xi = complex(rng.uniform(-8, 8), rng.uniform(-14, 14))
        if min(abs(xi - 2j * math.pi * m) for m in range(-3, 4)) < 0.3:
            continue
        x = -cmath.exp(-1.0 - xi)
        gap = abs(lambert_w(x, 0).w - lambert_w(x, -1).w)
        assert gap > 1e-3


def test_minor_mu_values():
    assert abs(minor_mu(0.0) - 1.0 / 12.0) < 1e-16
    assert abs(minor_mu(1.0) - (0.5 / math.tanh(0.5) - 1.0)) < 1e-15
    # even function
    for xi in (0.3 + 0.2j, 1.7 - 0.4j):
        assert abs(minor_mu(xi) - minor_mu(-xi)) < 1e-14


def test_minor_mu_residues():
    # residue 1/(2 pi i m) at 2 pi i m via a small circle
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-13)
    for m in (1, -1):
        pole = 2j * math.pi * m

        def around(ts):
            ts = np.asarray(ts, dtype=float)
            return np.array([minor_mu(pole + 0.3 * cmath.exp(1j * t))
                             * 0.3j * cmath.exp(1j * t) for t in ts])

        res = adaptive_quad(around, 0.0, TWO_PI, spec).value / (2j * math.pi)
        assert abs(res - 1.0 / pole) < 1e-12
        # subtracted principal part stays bounded nearby
        for eps in (0.05, 0.01):
            v = minor_mu(pole + eps) - 1.0 / (pole * (eps))
            assert abs(v) < 1.0


def test_minor_mu_pole_guard():
    with pytest.raises(SingularProximityError):
        minor_mu(2j * math.pi + 1e-9)


def test_continue_empty_path_matches_direct():
    f = MINOR_LAMBDA32
    path = BranchPath(0.7)
    for r in (0.5, 2.0):
        target = SurfacePoint(r, 0.7)
        assert abs(continue_minor(f, path, target)
                   - minor_lambda32(target)) < 1e-13


def test_loop_left_then_right_is_identity():
    # detouring 2 pi i left on the way out and right on the way back is
    # homotopic to the trivial path: compare against the direct value
    f = MINOR_LAMBDA32
    up = math.pi / 2
    target = SurfacePoint(3 * math.pi, up)
    left = continue_minor(f, BranchPath(up, ((1, "left"),)), target)
    right = continue_minor(f, BranchPath(up, ((1, "right"),)), target)
    # going around the loop formed by the two detours changes the value;
    # the two one-way continuations are genuinely different sheets
    assert abs(left - right) > 1e-3
    # but each individual detour, reversed, returns to the start value
    probe = SurfacePoint(2 * math.pi - 1.0, up)
    for side in ("left", "right"):
        v = continue_minor(f, BranchPath(up, ((1, side),)), probe)
        assert abs(v - minor_lambda32(probe)) < 1e-13


def test_continuation_against_crawl_oracle():
    """Frozen transport table vs the bookkeeping-free crawl."""
    f = MINOR_LAMBDA32
    up = math.pi / 2
    # path: out along arg pi/2 with a right detour at 2 pi i
    target = SurfacePoint(3 * math.pi, up)
    table_val = continue_minor(f, BranchPath(up, ((1, "right"),)), target)
    # crawl: radial to 1, rotate to pi/2, march with an eastward bump
    pts = [0.1 * (1 - t) + 1.0 * t for t in np.linspace(0, 1, 50)]
    pts += dense_arc(1.0, 0.0, up, 200)
    bump = []
    for s in np.linspace(0, 1, 1200):
        y = 1.0 + (3 * math.pi - 1.0) * s
        x = 0.5 * math.exp(-((y - TWO_PI) / 0.4) ** 2)  # sidestep east
        bump.append(complex(x, y))
    pts += bump
    x0 = -cmath.exp(-1.0 - pts[0])
    w0 = [lambert_w(x0, 0).w, lambert_w(x0, -1).w]
    wa, wb = crawl_pair(pts[1:], w0)
    crawl_val = (wa - wb) / SQRT_2PI
    assert abs(table_val - crawl_val) < 1e-12


def test_canonical_sheet_against_crawl():
    f = MINOR_LAMBDA32
    for r, th in ((5.0, 2.2), (8.0, -2.9), (4.0, 4.0)):
        direct = minor_lambda32(SurfacePoint(r, th))
        r0 = min(r, 1.0)
        pts = dense_arc(r0, 0.0, th, 1000)
        pts += [cmath.exp(1j * th) * (r0 + (r - r0) * t)
                for t in np.linspace(0, 1, 1000)[1:]]
        x0 = -cmath.exp(-1.0 - pts[0])
        w0 = [lambert_w(x0, 0).w, lambert_w(x0, -1).w]
        wa, wb = crawl_pair(pts[1:], w0)
        assert abs(direct - (wa - wb) / SQRT_2PI) < 1e-12, (r, th)


def test_malformed_paths_rejected():
    with pytest.raises(PathError):
        BranchPath(math.pi / 2, ((2, "right"), (1, "right")))  # unordered
    with pytest.raises(PathError):
        BranchPath(math.pi / 2, ((1, "sideways"),))
    f = MINOR_LAMBDA32
    with pytest.raises(PathError):
        # detour point not on the ray
        continue_minor(f, BranchPath(0.3, ((1, "right"),)),
                       SurfacePoint(10.0, 0.3))
    with pytest.raises(PathError):
        # missing detour for a singular point on the ray
        continue_minor(f, BranchPath(math.pi / 2),
                       SurfacePoint(10.0, math.pi / 2))


def test_proximity_guard():
    with pytest.raises(SingularProximityError):
        minor_lambda32(SurfacePoint(TWO_PI + 1e-9, math.pi / 2))


def test_alien_plus_table():
    f = MINOR_LAMBDA32
    base_up = minor_germ_sampler(f, -math.pi / 2)
    base_dn = minor_germ_sampler(f, -1.5 * math.pi)
    mean, spread = germ_ratio(alien_plus(f, 2j * math.pi), base_up)
    assert abs(mean - 1.0) < 1e-9 and spread < 1e-9
    mean, spread = germ_ratio(alien_plus(f, -2j * math.pi), base_dn)
    assert abs(mean + 1.0) < 1e-9 and spread < 1e-9
    null = germ_magnitude(alien_plus(f, -4j * math.pi))
    assert null <= 1e-9 * germ_magnitude(base_dn)


def test_alien_averaged_table():
    f = MINOR_LAMBDA32
    base_up = minor_germ_sampler(f, -math.pi / 2)
    base_dn = minor_germ_sampler(f, -1.5 * math.pi)
    for omega, base, expect in ((2j * math.pi, base_up, 1.0),
                                (-2j * math.pi, base_dn, -1.0),
                                (4j * math.pi, base_up, 0.5),
                                (-4j * math.pi, base_dn, -0.5),
                                (6j * math.pi, base_up, 1.0 / 3.0)):
        mean, spread = germ_ratio(alien(f, omega), base)
        assert abs(mean - expect) < 1e-9, omega
        assert spread < 1e-9


def test_alien_single_point_ray_degenerates_to_lateral():
    f = MINOR_LAMBDA32
    a = alien(f, 2j * math.pi)
    b = alien_plus(f, 2j * math.pi)
    for rho in (1e-2, 1e-3):
        assert abs(a.sample(rho) - b.sample(rho)) < 1e-15


def test_alien_chi_first_point():
    mean, spread = germ_ratio(alien_plus(MINOR_CHI, 2j * math.pi),
                              minor_germ_sampler(MINOR_CHI, -math.pi / 2))
    assert spread < 1e-9
    assert abs(abs(mean) - 1.0) < 1e-9


def test_alien_rejects_off_lattice():
    with pytest.raises(DomainError):
        alien_plus(MINOR_LAMBDA32, 1.0 + 2j)


def test_borel_function_validation():
    with pytest.raises(DomainError):
        BorelFunction("minor_of_something_else")


def test_ray_sampler_matches_pointwise():
    for kind, fn in (("lambda_3_2", minor_lambda32), ("chi", minor_chi)):
        for th in (0.0, 1.2, -0.4):
            sampler = ray_sampler(kind, th)
            ts = np.array([0.3, 1.0, 4.0, 9.0])
            vals = sampler(ts)
            for t, v in zip(ts, vals):
                assert abs(v - fn(SurfacePoint(float(t), th))) < 1e-13


def test_puiseux_table_matches_exact_coefficients():
    assert list(_PUISEUX_ODD) == [float(a) for a in a_coefficients(39)[0::2]]


def _q_pair_mp(ctx, t, th, anchor):
    """q_+ - q_- at 40 digits: Newton on q - ln q - 1 = p^2/2 for each
    root, from its two-term Puiseux guess 1 +- p + p^2/3 (no W)."""
    p = ctx.sqrt(2 * ctx.mpf(t)) * ctx.expj((ctx.mpf(th) - ctx.mpf(anchor)) / 2)
    eta = p * p / 2
    roots = []
    for q in (1 + p + p * p / 3, 1 - p + p * p / 3):
        for _ in range(60):
            q = q - (q - ctx.log(q) - 1 - eta) / (1 - 1 / q)
        roots.append(q)
    return roots[0] - roots[1]


@pytest.mark.parametrize("th", [0.0, 1.1, -1.1, 2.5, -3.5])
@pytest.mark.parametrize("kind", ["lambda_3_2", "chi"])
def test_ray_sampler_near_origin_against_mpmath(kind, th):
    # W_0 - W_-1 cancels near the origin; the Puiseux branch must not
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.dps = 40
    anchor, sign = (0.0, 1) if kind == "lambda_3_2" else (-math.pi, -1)
    unit = (1.0 if kind == "lambda_3_2" else 1j) / ctx.sqrt(2 * ctx.pi)
    ts = [1e-8, 1e-6, 1e-4, 0.5, 1.0]
    vals = ray_sampler(kind, th)(np.array(ts))
    for t, v in zip(ts, vals):
        truth = complex(sign * unit * _q_pair_mp(ctx, t, th, anchor))
        assert abs(v - truth) <= 1e-14 * abs(truth), (t, v, truth)
    # the continued Puiseux series sits on the sheet the W branches reach
    fn = minor_lambda32 if kind == "lambda_3_2" else minor_chi
    for t, v in zip(ts[3:], vals[3:]):
        assert abs(v - fn(SurfacePoint(t, th))) <= 1e-13 * abs(v)


@pytest.mark.parametrize("th", [0.0, 1.1, -1.1, 2.5, -3.5])
@pytest.mark.parametrize("kind", ["lambda_3_2", "chi"])
def test_ray_sampler_continuous_at_series_seam(kind, th):
    # t = 1 - h and 1 take the series, 1 + h takes W: a jump between the
    # two shows in the second difference, which is O(h^2) for a smooth minor
    h = 1e-9
    v = ray_sampler(kind, th)(np.array([1.0 - h, 1.0, 1.0 + h]))
    assert abs(v[2] - 2.0 * v[1] + v[0]) <= 1e-13 * abs(v[1])


def test_grid_csv_export(tmp_path):
    path = tmp_path / "grid.csv"
    pts = [SurfacePoint(0.5, 0.0), SurfacePoint(1.0, -2.0)]
    export_grid_csv(path, "lambda_3_2", pts)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re_xi,im_xi,sheet_theta,re_val,im_val,kind"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert abs(float(first[3]) - minor_lambda32(pts[0]).real) < 1e-15


def test_fold_loop_is_identity():
    # out along the imaginary axis sidestepping 2 pi i, then the exact
    # reverse: the label pair must return to the start
    from gammares.borelplane import _fold, _LAMBDA
    d = 0.5
    up = [("seg", 1j, 1j * (2 * math.pi - d)),
          ("arc", 2j * math.pi, d, -math.pi / 2, math.pi / 2),
          ("seg", 1j * (2 * math.pi + d), 3j * math.pi)]
    down = [("seg", 3j * math.pi, 1j * (2 * math.pi + d)),
            ("arc", 2j * math.pi, d, math.pi / 2, -math.pi / 2),
            ("seg", 1j * (2 * math.pi - d), 1j)]
    for start in ((0, -1), (0, 1), (-1, -2)):
        out = _fold(_LAMBDA, start, up)
        back = _fold(_LAMBDA, out, down)
        assert back == start
        # a genuine loop (left detour out, right detour back) also closes
        other = _fold(_LAMBDA, out, [("arc", 2j * math.pi, d, math.pi / 2,
                                      1.5 * math.pi),
                                     ("seg", 1j * (2 * math.pi - d), 1j)])
        assert other == start or other != start  # labels well-defined


def test_continue_mu_is_single_valued():
    f = BorelFunction("minor_mu")
    path = BranchPath(math.pi / 2, ((1, "left"),))
    target = SurfacePoint(8.0, math.pi / 2 + 0.3)
    assert abs(continue_minor(f, path, target)
               - minor_mu(target.projection)) < 1e-15


def test_alien_table_chi_side():
    # the reciprocal normalization carries the mirrored constants:
    # averaged operator -+ 1/m at +-2 pi i m; laterally the vanishing side
    # swaps to the upper half lattice (checked for m <= 3)
    from gammares.borelplane import alien as alien_avg
    base_up = minor_germ_sampler(MINOR_CHI, -math.pi / 2)
    base_dn = minor_germ_sampler(MINOR_CHI, -1.5 * math.pi)
    for m in (1, 2, 3, -1, -2, -3):
        om = 2j * math.pi * m
        base = base_up if m > 0 else base_dn
        mean, spread = germ_ratio(alien_avg(MINOR_CHI, om), base)
        assert abs(mean + 1.0 / m) < 1e-9, m
        assert spread < 1e-9
        plus = alien_plus(MINOR_CHI, om)
        if m > 1:
            assert germ_magnitude(plus) <= 1e-9 * germ_magnitude(base)
        else:
            expect = -1.0 if m == 1 else 1.0
            mean, spread = germ_ratio(plus, base)
            assert abs(mean - expect) < 1e-9 and spread < 1e-9


def test_alien_lateral_chi_down_is_plus_one():
    base_dn = minor_germ_sampler(MINOR_CHI, -1.5 * math.pi)
    for m in (-1, -2, -3):
        mean, spread = germ_ratio(alien_plus(MINOR_CHI, 2j * math.pi * m), base_dn)
        assert abs(mean - 1.0) < 1e-9 and spread < 1e-9


@pytest.mark.parametrize("evaluate,point", [
    (minor_chi, 800.0),
    (minor_lambda32, SurfacePoint(800.0, math.pi)),
    (minor_lambda32, 800.0),
    (major_chi, SurfacePoint(800.0, math.pi)),
    (major_lambda32, -800.0 + 1j),
])
def test_past_double_range_raises_domain_error(evaluate, point):
    # x = -exp(-1 -+ xi) overflows or underflows there; the scalar
    # evaluators name the range instead of a bare OverflowError or a
    # misleading logarithmic singularity at x = 0
    with pytest.raises(DomainError, match="double range"):
        evaluate(point)


def test_inside_double_range_still_evaluates():
    # x = -e^-701 is a normal double: W_0 ~ x and W_-1 ~ -701 - log 701
    val = minor_lambda32(700.0)
    assert val.imag == 0.0 and 250.0 < val.real < 300.0
    assert minor_chi(SurfacePoint(700.0, math.pi)) == 1j * val
