"""Seeded workloads of the gammares benchmark.

Each workload yields its ops in rounds.  A round has a fixed composition
(op kinds, parameter strata), so a run that stops at a round boundary
measures the same mix whatever the seed; the seed draws the values inside
each stratum and the order of the ops.

An op returns its result as a flat tuple of three floats (a Laplace or
rho value as real, imaginary, est_error), so that a run can store it
without allocating.

Ops call the public functions of gammares through their modules
(``laplace.laplace_ray``, ``realmajor.rho_on_sheet``, ...), never through
names bound here, so that the tracer in ``spans.py`` can wrap them.
Importing this module imports gammares and numpy, nothing else: oracle
code lives in ``oracle.py``.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from gammares import borelplane, laplace, realmajor
from gammares.quadrature import QuadratureSpec


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """One uniform draw in each of n equal strata of [lo, hi], shuffled."""
    width = (hi - lo) / n
    out = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# ray_resum: laplace_ray along the path of the `resum` command

RAY_SPEC = QuadratureSpec()
# growth certificates of the `resum` command, by minor
RAY_GROWTH = {"lambda_3_2": (0.6, 3.0), "chi": (0.3, 4.0), "mu": (0.0, 0.2)}
RAY_KINDS = ("lambda_3_2", "chi", "mu")
RAY_LOG_R = (math.log(0.5), math.log(1e4))
# mu answers go silently wrong (tiny est_error, value off) from |z| ~ 2500
# at the commit that defined the benchmark; timed mu ops stay below that,
# and an untimed probe keeps the defect in view
RAY_MU_LOG_R = (math.log(0.5), math.log(2000.0))
RAY_MU_DEFECT_LOG_R = (math.log(2500.0), math.log(1e4))


def _ray_op(kind: str, r: float, arg: float) -> Op:
    theta = min(1.2, max(-1.2, -arg))
    return Op(kind, (r * cmath.exp(1j * arg), theta))


def _ray_ops(rng: random.Random, kind: str, n: int, log_r: tuple) -> list:
    """n ops of one minor, log|z| stratified on log_r and arg z on +-1.3."""
    mags = _strata(rng, n, *log_r)
    args = _strata(rng, n, -1.3, 1.3)
    return [_ray_op(kind, math.exp(lr), a) for lr, a in zip(mags, args)]


def ray_rounds(rng: random.Random) -> Iterator[list]:
    """30 ops a round: each minor 10 times, log|z| stratified on
    [log 0.5, log 1e4] (on [log 0.5, log 2000] for mu), arg z stratified
    on [-1.3, 1.3]."""
    while True:
        ops = []
        for kind in RAY_KINDS:
            ops += _ray_ops(rng, kind, 10, RAY_MU_LOG_R if kind == "mu" else RAY_LOG_R)
        rng.shuffle(ops)
        yield ops


def ray_defect_probe(rng: random.Random) -> list:
    """Untimed mu ops at |z| in [2500, 1e4], where mu is known to fail."""
    return _ray_ops(rng, "mu", 30, RAY_MU_DEFECT_LOG_R)


def run_ray(op: Op):
    z, theta = op.args
    sampler = borelplane.ray_sampler(op.kind, theta)
    res = laplace.laplace_ray(sampler, theta, z, RAY_SPEC,
                              growth=RAY_GROWTH[op.kind],
                              sqrt_origin=op.kind != "mu")
    return res.value.real, res.value.imag, res.est_error


# ---------------------------------------------------------------------------
# realmajor_wrap: rho_on_sheet points plus laplace_real_major round trips

RM_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
RM_CS = (0.0, -0.5, 0.25)
# rho_on_sheet continues from the germ beyond |theta| = pi - 0.2
RM_DIRECT_THETA = math.pi - 0.2
RM_THETA_MAX = 4.0
RM_TRIP_BINS = 6


def _rm_points(rng: random.Random, c: float, n: int, th_lo: float, th_hi: float) -> list:
    rs = _strata(rng, n, math.log(0.2), math.log(6.0))
    ths = _strata(rng, n, th_lo, th_hi)
    return [Op("point", (c, math.exp(lr), th)) for lr, th in zip(rs, ths)]


def realmajor_rounds(rng: random.Random) -> Iterator[list]:
    """49 ops a round: 48 rho_on_sheet points and one laplace_real_major
    round trip, shuffled.  Each c has 16 points, log r stratified on
    [log 0.2, log 6]: 12 on the direct sheet (theta stratified on
    +-(pi - 0.2)) and 4 continued (theta stratified on (pi - 0.2, 4],
    twice on each side).  The trips go through the 6 strata of |z| in
    [1, 10] and the c values in a fixed order, |arg z| <= 0.6."""
    for k in itertools.count():
        ops = []
        for c in RM_CS:
            ops += _rm_points(rng, c, 12, -RM_DIRECT_THETA, RM_DIRECT_THETA)
            ops += _rm_points(rng, c, 2, RM_DIRECT_THETA, RM_THETA_MAX)
            ops += _rm_points(rng, c, 2, -RM_THETA_MAX, -RM_DIRECT_THETA)
        b = k % RM_TRIP_BINS
        r = 1.0 + (b + rng.random()) * 9.0 / RM_TRIP_BINS
        z = r * cmath.exp(1j * rng.uniform(-0.6, 0.6))
        ops.append(Op("roundtrip", (RM_CS[k % len(RM_CS)], z)))
        rng.shuffle(ops)
        yield ops


def run_realmajor(op: Op):
    if op.kind == "point":
        c, r, theta = op.args
        res = realmajor.rho_on_sheet(c, r, theta, RM_SPEC)
        return res.value.real, res.value.imag, res.est_error
    c, z = op.args

    def rho_surface(t, th):
        return complex(realmajor.rho_on_sheet(c, t, th, RM_SPEC).value)

    res = laplace.laplace_real_major(rho_surface, 0.0, z, RM_SPEC,
                                     growth=(0.0, 3.0))
    return res.value.real, res.value.imag, res.est_error


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[random.Random], Iterator[list]]
    execute: Callable[[Op], tuple]
    warmup: Op
    # rounds in the fixed op list of a traced run
    traced_rounds: int
    # layers that must record calls in a traced run
    active_layers: tuple
    # untimed ops on which the program is known to fail
    defect_probe: Callable[[random.Random], list] | None = None


WORKLOADS = {
    "ray_resum": Workload(
        "ray_resum", ray_rounds, run_ray,
        warmup=_ray_op("lambda_3_2", 2.0, 0.3),
        traced_rounds=250, defect_probe=ray_defect_probe,
        active_layers=("lambertw.lambert_w_array", "borelplane.ray_sample",
                       "quadrature.adaptive_quad", "laplace.laplace_ray")),
    "realmajor_wrap": Workload(
        "realmajor_wrap", realmajor_rounds, run_realmajor,
        warmup=Op("point", (0.0, 1.5, 3.5)),
        traced_rounds=10,
        active_layers=("realmajor.rho_on_sheet", "realmajor.rho_lambda_c",
                       "realmajor.rho_continue", "lambertw.lambert_w",
                       "quadrature.adaptive_quad",
                       "laplace.laplace_real_major")),
}
