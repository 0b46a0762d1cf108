"""Command-line front end.

Subcommands: coeffs, resum, stokes, realmajor, alien, verify.
Complex arguments accept either the Python literal form RE+IMj (e.g.
``2+3j``) or the polar form R@THETA with theta in radians (``2@-0.7854``);
the polar form also addresses sheets beyond (-pi, pi].
Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys

from . import reference
from .borelplane import (ALIEN_MAX_M, MINOR_LAMBDA32, alien, alien_plus,
                         germ_magnitude, germ_ratio, minor_germ_sampler,
                         ray_sampler)
from .errors import GammaresError
from .exactseries import (a_coefficients, lambda_tilde, series_exp,
                          stirling_series)
from .laplace import laplace_ray, laplace_real_major
from .quadrature import QuadratureSpec
from .realmajor import rho_on_sheet
from .verification import run_suite, stokes_records

__all__ = ["main", "parse_complex"]


def parse_complex(text: str):
    """RE+IMj literal or R@THETA polar; polar returns (r, theta) so sheet
    information survives."""
    text = text.strip()
    if "@" in text:
        r_str, th_str = text.split("@", 1)
        r, th = float(r_str), float(th_str)
        if r <= 0:
            raise ValueError("polar modulus must be positive")
        return ("polar", r, th)
    return ("cartesian", complex(text))


def _as_number(parsed) -> complex:
    if parsed[0] == "cartesian":
        return parsed[1]
    _, r, th = parsed
    return r * cmath.exp(1j * th)


def _emit(args, payload) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        buf = io.StringIO()
        rows = payload if isinstance(payload, list) else [payload]
        rows = [r if isinstance(r, dict) else {"value": r} for r in rows]
        keys = sorted({k for r in rows for k in r})
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k, "") for k in keys})
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + ("\n" if not text.endswith("\n") else ""))
    else:
        print(text)


def _cmd_coeffs(args) -> int:
    kmax = args.kmax
    order = args.order
    a = a_coefficients(kmax)
    mu = stirling_series(max(order, 1))
    lam = lambda_tilde(order)
    ex = series_exp(mu) if order >= 1 else lam
    residuals = [str(ex.coefficient(n) - lam.coefficient(n))
                 for n in range(min(order, mu.truncation_order) + 1)]
    payload = {
        "a": {f"a_{k}": str(v) for k, v in enumerate(a, start=1)},
        "mu_coefficients": {f"z^-{n}": str(mu.coefficient(n))
                            for n in range(mu.truncation_order + 1)},
        "lambda_coefficients": {f"z^-{n}": str(lam.coefficient(n))
                                for n in range(order + 1)},
        "exp_identity_residuals": residuals,
    }
    _emit(args, payload)
    return 0


def _mu_ref(z: complex) -> complex:
    """Principal log lambda(z).  Taken from `log_lambda_ref` as is when that
    is already principal: exp followed by log would lose the relative
    accuracy of the small logarithm at large |z|."""
    w = reference.log_lambda_ref(z)
    return w if -math.pi < w.imag <= math.pi else cmath.log(cmath.exp(w))


_RESUM_ORACLES = {
    "lambda32": lambda z: z ** -1.5 * reference.lambda_ref(z),
    "chi": lambda z: z ** -1.5 / reference.lambda_ref(z),
    "mu": _mu_ref,
}

_RESUM_GROWTH = {"lambda32": (0.6, 3.0), "chi": (0.3, 4.0), "mu": (0.0, 0.2)}
_RESUM_KIND = {"lambda32": "lambda_3_2", "chi": "chi", "mu": "mu"}
# leading size k |z|^-p of each value: abs_tol scaled by it (capped at 1)
# keeps --tol a relative tolerance where the value is small
_RESUM_SIZE = {"lambda32": (1.0, 1.5), "chi": (1.0, 1.5), "mu": (1.0 / 12.0, 1.0)}


def _resum_theta(obj: str, z: complex) -> float:
    """Default ray: -arg z, the direction of fastest kernel decay, clipped
    to |theta| <= 1.2 inside the minors' singularity-free sector
    |theta| < pi/2; 0 for realmajor_c."""
    if obj == "realmajor_c":
        return 0.0
    return min(1.2, max(-1.2, -cmath.phase(z))) + 0.0  # no -0.0


def _resum_spec(obj: str, z: complex, tol: float) -> QuadratureSpec:
    k, p = _RESUM_SIZE.get(obj, (1.0, 0.0))
    return QuadratureSpec(rel_tol=tol,
                          abs_tol=tol * 1e-2 * min(1.0, k * abs(z) ** -p))


def _resum_ray(obj: str, z: complex, theta: float, spec: QuadratureSpec):
    """laplace_ray of the lambda32, chi or mu minor as `resum` runs it."""
    return laplace_ray(ray_sampler(_RESUM_KIND[obj], theta), theta, z, spec,
                       growth=_RESUM_GROWTH[obj], sqrt_origin=(obj != "mu"))


def _cmd_resum(args) -> int:
    z = _as_number(parse_complex(args.z))
    theta = _resum_theta(args.object, z) if args.theta is None else args.theta
    spec = _resum_spec(args.object, z, args.tol)
    if args.object == "realmajor_c":
        def rho_surface(t, th):
            return complex(rho_on_sheet(args.c, t, th, spec).value)

        res = laplace_real_major(rho_surface, theta, z, spec,
                                 growth=(0.0, 3.0))
        oracle = reference.lambda_ref(z, args.c)
    else:
        res = _resum_ray(args.object, z, theta, spec)
        oracle = _RESUM_ORACLES[args.object](z)
    record = res.to_record()
    record["oracle"] = [oracle.real, oracle.imag]
    record["rel_error"] = abs(res.value - oracle) / abs(oracle)
    _emit(args, record)
    miss = abs(res.value - oracle) > max(args.tol * abs(oracle), res.est_error)
    return 1 if miss else 0


def _cmd_stokes(args) -> int:
    z = _as_number(parse_complex(args.z))
    spec = QuadratureSpec(rel_tol=args.tol, abs_tol=args.tol * 1e-2)
    record = stokes_records(z, spec)
    _emit(args, record)
    miss = max(record["stokes_residual"], record["reflection_residual"]) > args.tol
    return 1 if miss else 0


def _cmd_realmajor(args) -> int:
    parsed = parse_complex(args.xi)
    if parsed[0] == "polar":
        _, r, th = parsed
    else:
        xi = parsed[1]
        r, th = abs(xi), cmath.phase(xi)
    spec = QuadratureSpec(rel_tol=args.tol, abs_tol=args.tol * 1e-2)
    res = rho_on_sheet(args.c, r, th, spec)
    record = {
        "xi": [r * math.cos(th), r * math.sin(th)],
        "theta": th,
        "value": [res.value.real, res.value.imag],
        "est_error": res.est_error,
        "panels": res.panels,
        "qpath_nodes": len(res.qpath.nodes),
    }
    _emit(args, record)
    return 0


def _cmd_alien(args) -> int:
    omega = 2j * math.pi * args.m
    f = MINOR_LAMBDA32
    sd = alien_plus(f, omega) if args.op == "plus" else alien(f, omega)
    local = (math.pi / 2 if args.m > 0 else -math.pi / 2) - math.pi
    base = minor_germ_sampler(f, local)
    refmag = germ_magnitude(base)
    mag = germ_magnitude(sd)
    record = {
        "omega": [0.0, 2.0 * math.pi * args.m],
        "operator": "lateral_plus" if args.op == "plus" else "averaged",
        "germ_magnitude": mag,
        "reference_magnitude": refmag,
    }
    if mag > 1e-9 * refmag:
        mean, spread = germ_ratio(sd, base)
        record["ratio"] = [mean.real, mean.imag]
        record["ratio_spread"] = spread
    else:
        record["ratio"] = None
        record["ratio_spread"] = 0.0
    _emit(args, record)
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    payload = [r.to_record() for r in results]
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: residual {r.residual:.3e} "
              f"(tol {r.tol:.1e}, {r.seconds:.2f} s)", file=sys.stderr)
    _emit(args, payload)
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammares",
        description="Borel-plane computations for the normalized Gamma function")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="exact coefficient tables", parents=[common])
    p.add_argument("--kmax", type=int, default=7)
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("resum", help="Borel-Laplace resummation vs oracle", parents=[common])
    p.add_argument("--object", choices=("lambda32", "chi", "mu", "realmajor_c"),
                   default="lambda32")
    p.add_argument("--z", required=True, help="RE+IMj or R@THETA")
    p.add_argument("--theta", type=float, default=None,
                   help="ray direction; default -arg z clipped to [-1.2, 1.2] "
                        "(0 for realmajor_c)")
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_resum)

    p = sub.add_parser("stokes", help="lateral transforms across arg xi = pi/2", parents=[common])
    p.add_argument("--z", required=True)
    p.add_argument("--tol", type=float, default=1e-11)
    p.set_defaults(func=_cmd_stokes)

    p = sub.add_parser("realmajor", help="real-major integral on any sheet", parents=[common])
    p.add_argument("--xi", required=True, help="RE+IMj or R@THETA (sheets)")
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_realmajor)

    p = sub.add_parser("alien", help="alien operators at 2*pi*i*m", parents=[common])
    p.add_argument("--m", type=int, required=True,
                   help=f"omega = 2*pi*i*m, m != 0; --op avg needs |m| <= {ALIEN_MAX_M}")
    p.add_argument("--op", choices=("plus", "avg"), default="plus")
    p.set_defaults(func=_cmd_alien)

    p = sub.add_parser("verify", help="run a verification suite", parents=[common])
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GammaresError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
