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


def test_resum_mu_large_z_against_exact_oracle(capsys):
    code, out, _ = run_cli(capsys, "resum", "--object", "mu", "--z", "1e4+0j")
    assert code == 0
    assert json.loads(out)["rel_error"] <= 1e-13


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


def test_run_config_validation():
    from gammares.cli import RunConfig
    cfg = RunConfig("resum", {"z": "2+0j", "theta": 0.0}, "json", None)
    assert cfg.command == "resum" and cfg.params["theta"] == 0.0
    with pytest.raises(ValueError):
        RunConfig("plot", {})
    with pytest.raises(ValueError):
        RunConfig("resum", {}, output_format="xml")
