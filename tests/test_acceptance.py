"""Acceptance gate: one test per numbered criterion, each printing a
pass/fail line.  The numerical work lives in gammares.verification so the
CLI `verify` command and this module can never drift apart."""

import time

import pytest

from gammares.verification import CHECKS, FAST, run_suite

# criterion number -> (registry check, wall-clock budget in seconds)
CRITERIA = [
    (1, "coefficients_exact", 1.0),
    (2, "exp_identity", 5.0),
    (3, "resum_lambda", 30.0),
    (4, "resum_chi", 30.0),
    (5, "resum_mu", 30.0),
    (6, "hankel_major", 60.0),
    (7, "realmajor_roundtrip", 10.0),
    (8, "nu_variant", 60.0),
    (9, "contour_coefficients", 60.0),
    (10, "stokes_reflection", 60.0),
    (11, "alien_operators", 60.0),
    (12, "symmetry", 30.0),
    (13, "realmajor_continuation", 300.0),
    (14, "fast_properties", 60.0),
]


@pytest.fixture(scope="module")
def results():
    out = {}
    for _, name, _ in CRITERIA:
        t0 = time.perf_counter()
        residual, tol, detail = CHECKS[name]()
        out[name] = (float(residual), float(tol), detail,
                     time.perf_counter() - t0)
    return out


@pytest.mark.parametrize("number,name,budget", CRITERIA,
                         ids=[f"criterion_{n:02d}_{name}" for n, name, _ in CRITERIA])
def test_criterion(results, number, name, budget):
    residual, tol, detail, seconds = results[name]
    status = "PASS" if residual <= tol else "FAIL"
    print(f"{status} criterion {number} ({name}): residual {residual:.3e} "
          f"<= tol {tol:.1e} in {seconds:.2f} s  {detail}")
    assert residual <= tol, (number, name, residual, tol, detail)
    assert seconds <= budget, f"criterion {number} exceeded {budget:.0f} s"


def test_fast_suite_budget():
    t0 = time.perf_counter()
    res = run_suite("fast")
    elapsed = time.perf_counter() - t0
    print(f"fast suite: {elapsed:.1f} s for {len(res)} checks")
    assert all(r.passed for r in res)
    assert elapsed <= 60.0
    assert set(r.name for r in res) == set(FAST)
