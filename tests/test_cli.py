import cmath
import json
import math

import pytest

from gammares import cli
from gammares.cli import main, parse_complex


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_forms():
    kind, z = parse_complex("2+3j")
    assert kind == "cartesian" and z == 2 + 3j
    kind, r, th = parse_complex("2@-0.5")
    assert kind == "polar" and r == 2.0 and th == -0.5
    # polar keeps sheet information beyond (-pi, pi]
    kind, r, th = parse_complex("1.5@7.0")
    assert th == 7.0
    with pytest.raises(ValueError):
        parse_complex("-1@0.3")
    with pytest.raises(ValueError):
        parse_complex("nonsense")


def test_coeffs_exact_strings(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--kmax", "7", "--order", "6")
    assert code == 0
    data = json.loads(out)
    assert data["a"]["a_7"] == "-139/5443200"
    assert data["a"]["a_1"] == "1"
    assert data["lambda_coefficients"]["z^-2"] == "1/288"
    assert all(r == "0" for r in data["exp_identity_residuals"])


def test_coeffs_csv_format(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--kmax", "2", "--order", "2",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("a,")


def test_resum_lambda(capsys):
    code, out, _ = run_cli(capsys, "resum", "--object", "lambda32",
                           "--z", "2+0j", "--tol", "1e-10")
    assert code == 0
    rec = json.loads(out)
    assert rec["rel_error"] <= 1e-8
    assert set(rec) >= {"z", "theta", "value", "est_error", "panels",
                        "oracle", "rel_error"}


def test_resum_polar_input(capsys):
    code, out, _ = run_cli(capsys, "resum", "--object", "chi",
                           "--z", f"2@{0.3}")
    assert code == 0
    assert json.loads(out)["rel_error"] <= 1e-8


def test_resum_mu(capsys):
    code, out, _ = run_cli(capsys, "resum", "--object", "mu", "--z", "5+0j")
    assert code == 0
    assert json.loads(out)["rel_error"] <= 1e-9


def test_resum_exits_1_when_oracle_disagrees(capsys, monkeypatch):
    exact = cli._RESUM_ORACLES["lambda32"]
    monkeypatch.setitem(cli._RESUM_ORACLES, "lambda32",
                        lambda z: exact(z) * (1.0 + 1e-6))
    code, out, _ = run_cli(capsys, "resum", "--object", "lambda32",
                           "--z", "2+0j", "--tol", "1e-10")
    assert code == 1
    assert 0.5e-6 <= json.loads(out)["rel_error"] <= 2e-6


@pytest.mark.parametrize("z", ["1e4+0j", "1e6+0j", "1e6@1.4", "1e5@-1.2"])
@pytest.mark.parametrize("obj", ["lambda32", "chi", "mu"])
def test_resum_large_z_against_exact_oracle(capsys, obj, z):
    # --tol is relative even where the value is small, and the minors
    # stay accurate where the kernel only sees |xi| << 1
    code, out, _ = run_cli(capsys, "resum", "--object", obj, "--z", z)
    assert code == 0
    assert json.loads(out)["rel_error"] <= 1e-13


@pytest.mark.parametrize("z", ["10+1e4j", "1e3@-1.45"])
@pytest.mark.parametrize("obj", ["lambda32", "chi", "mu"])
def test_resum_default_theta_follows_arg_z(capsys, obj, z):
    # at theta = 0 the kernel e^{-z t} oscillates 1e4 times per unit of t
    # and the quadrature stalls; -arg z (clipped to 1.2) decays instead
    code, out, _ = run_cli(capsys, "resum", "--object", obj, "--z", z)
    assert code == 0
    rec = json.loads(out)
    arg = math.atan2(rec["z"][1], rec["z"][0])
    assert rec["theta"] == min(1.2, max(-1.2, -arg))
    assert rec["panels"] <= 50
    assert rec["rel_error"] <= 1e-13


@pytest.mark.parametrize("obj", ["lambda32", "chi", "mu"])
def test_resum_calibrated_over_z_grid(obj):
    # value within est_error of a 30-digit oracle, and relatively accurate,
    # over |z| from 0.5 to 1e6 and |arg z| up to 1.4, as resum computes it
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.dps = 30
    for r in (0.5, 2.0, 30.0, 1e3, 1e5, 1e6):
        for arg in (0.0, 0.7, -0.7, 1.4, -1.4):
            z = r * cmath.exp(1j * arg)
            theta = cli._resum_theta(obj, z)
            res = cli._resum_ray(obj, z, theta, cli._resum_spec(obj, z, 1e-10))
            zz = ctx.mpc(z)
            mu = (ctx.loggamma(zz) - (zz - ctx.mpf(0.5)) * ctx.log(zz) + zz
                  - ctx.log(2 * ctx.pi) / 2)
            if obj == "mu":
                truth = complex(mu)
            else:
                sign = 1 if obj == "lambda32" else -1
                truth = complex(zz ** ctx.mpf(-1.5) * ctx.exp(sign * mu))
            miss = abs(res.value - truth)
            assert miss <= res.est_error, (z, res)
            assert miss <= 1e-13 * abs(truth), (z, res)


def test_stokes_record(capsys):
    code, out, _ = run_cli(capsys, "stokes", "--z", "2@-0.785398163")
    assert code == 0
    rec = json.loads(out)
    assert rec["stokes_residual"] <= 1e-6
    assert rec["reflection_residual"] <= 1e-6


def test_stokes_refuses_near_real_axis(capsys):
    code, _, err = run_cli(capsys, "stokes", "--z", "2@-0.0001")
    assert code == 2
    assert "arg z" in err
    code, _, _ = run_cli(capsys, "stokes", "--z", "2@0.5")
    assert code == 2
    # the lateral rays pi/2 -+ 0.12 need arg z more than 0.12 from 0 and -pi;
    # just inside that, at small |z|, a lateral kernel decays too weakly
    # for the tail bound inside max_radius, refused before integrating
    for z in ("40@-0.05", "40@-3.1", "3@-0.13", "3@-3.0"):
        code, out, err = run_cli(capsys, "stokes", "--z", z)
        assert code == 2 and out == ""
        assert "arg z" in err


@pytest.mark.parametrize("z", ["150@-0.7", "200@-0.7", "600@-1.5", "1000@-2.5"])
def test_stokes_reflection_past_gamma_overflow(capsys, z):
    # the reflection product is summed in logs, so it holds where Gamma(z)
    # itself leaves double range (|z| > ~160)
    code, out, _ = run_cli(capsys, "stokes", "--z", z)
    assert code == 0
    rec = json.loads(out)
    assert rec["reflection_residual"] <= 1e-11
    assert rec["stokes_residual"] <= 1e-11


def test_stokes_exits_1_when_residual_exceeds_tol(capsys, monkeypatch):
    # no natural input misses any more; the verdict is checked on a
    # substituted record whose reflection residual exceeds --tol
    def records(z, spec):
        return {"z": [z.real, z.imag], "stokes_residual": 1e-15,
                "reflection_residual": 1e-9}

    monkeypatch.setattr(cli, "stokes_records", records)
    code, out, _ = run_cli(capsys, "stokes", "--z", "2@-0.7", "--tol", "1e-11")
    assert code == 1
    assert json.loads(out)["reflection_residual"] == 1e-9
    code, _, _ = run_cli(capsys, "stokes", "--z", "2@-0.7", "--tol", "1e-8")
    assert code == 0


def test_realmajor_record(capsys):
    code, out, _ = run_cli(capsys, "realmajor", "--xi", "1+0j", "--c", "0")
    assert code == 0
    rec = json.loads(out)
    assert "qpath_nodes" in rec and rec["qpath_nodes"] >= 2
    # reaches other sheets through the polar form
    code, out, _ = run_cli(capsys, "realmajor", "--xi", f"1@{math.pi:.10f}")
    assert code == 0
    assert json.loads(out)["qpath_nodes"] > 2


def test_alien_command(capsys):
    code, out, _ = run_cli(capsys, "alien", "--m", "1", "--op", "plus")
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["ratio"][0] - 1.0) < 1e-6
    code, out, _ = run_cli(capsys, "alien", "--m", "-2", "--op", "plus")
    assert code == 0
    assert json.loads(out)["ratio"] is None  # vanishing germ
    code, out, _ = run_cli(capsys, "alien", "--m", "-2", "--op", "avg")
    rec = json.loads(out)
    assert abs(rec["ratio"][0] + 0.5) < 1e-6


def test_alien_avg_rejects_large_m(capsys):
    # 2^39 lateral words would be enumerated; the bound refuses up front
    code, _, err = run_cli(capsys, "alien", "--m", "40", "--op", "avg")
    assert code == 3
    assert "numerical failure" in err


def test_verify_fast_suite(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify", "--suite", "fast",
                           "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert all(item["passed"] for item in report)
    assert err.count("[pass]") == len(report)


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "verify", "--suite", "bogus")[0] == 2
    assert run_cli(capsys, "resum", "--object", "lambda32", "--z", "junk")[0] == 2
    assert run_cli(capsys, "resum", "--z", "2+0j", "--format", "xml")[0] == 2


def test_outputs_validate_against_shipped_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib
    schema = json.loads((pathlib.Path(__file__).resolve().parents[1]
                         / "docs" / "cli_schema.json").read_text())
    for argv in (["coeffs", "--kmax", "3", "--order", "3"],
                 ["resum", "--object", "lambda32", "--z", "2+0j"],
                 ["stokes", "--z", "2@-0.785398163"],
                 ["realmajor", "--xi", "1+0j"],
                 ["alien", "--m", "1"],
                 ["verify", "--suite", "fast"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


def test_numerical_failure_exit_3(capsys):
    # kernel decay far too weak to meet the tail bound inside max_radius
    code, _, err = run_cli(capsys, "resum", "--object", "lambda32",
                           "--z", "0.02+0j")
    assert code == 3
    assert "numerical failure" in err


def test_resum_realmajor_object(capsys):
    code, out, _ = run_cli(capsys, "resum", "--object", "realmajor_c",
                           "--z", "2+0j", "--c", "0", "--tol", "1e-8")
    assert code == 0
    assert json.loads(out)["rel_error"] <= 1e-7

