import json
import os

import pytest

from ttflow.cli import main

TOY_FLAGS = ["--dim", "2", "--grid", "32", "--steps", "8", "--samples", "20",
             "--densities", "2", "--family", "quartic-mixture", "--seed", "5"]


def test_run_succeeds_and_writes_reports(tmp_path, capsys):
    out = str(tmp_path / "suite")
    assert main(["run", *TOY_FLAGS, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "suite ok: 2 densities, 0 failed" in stdout
    assert sorted(os.listdir(out)) == ["density_0000.json", "density_0001.json",
                                       "summary.json"]


def test_validation_error_exits_2(capsys):
    assert main(["run", "--dim", "1", "--grid", "32", "--steps", "8",
                 "--family", "gaussian"]) == 2
    assert "d must be >= 2" in capsys.readouterr().err
    assert main(["run", *TOY_FLAGS, "--t-max", "nan"]) == 2
    assert "t_max must be finite" in capsys.readouterr().err
    gauss = ["gaussian-check", "--dim", "2", "--grid", "32", "--steps", "8"]
    assert main([*gauss, "--var", "-1", "1"]) == 2
    assert "gaussian_var must be finite and positive" in capsys.readouterr().err
    assert main([*gauss, "--mean", "nan", "0"]) == 2
    assert "gaussian_mean must be finite" in capsys.readouterr().err
    assert main([*gauss, "--mean", "1", "0", "0"]) == 2
    assert "gaussian_mean must have length d=2" in capsys.readouterr().err


def test_unknown_preset_and_family_rejected(capsys):
    assert main(["run", "--config", "/nonexistent/missing.json"]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "d9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--family", "cauchy"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_preset_with_overrides(tmp_path):
    out = str(tmp_path / "d7")
    code = main(["run", "--preset", "d7", "--grid", "24", "--steps", "8",
                 "--samples", "15", "--densities", "1", "--seed", "3",
                 "--out", out])
    assert code == 0
    with open(os.path.join(out, "summary.json")) as fh:
        cfg = json.load(fh)["config"]
    assert cfg["d"] == 7 and cfg["family"] == "tt-random"
    assert cfg["n_grid"] == 24 and cfg["m_steps"] == 8


def test_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"d": 2, "n_grid": 32, "m_steps": 8,
                                "family": "quartic-mixture", "n_samples": 20,
                                "n_densities": 1, "seed": 5}))
    out = str(tmp_path / "suite")
    assert main(["run", "--config", str(conf), "--grid", "24", "--out", out]) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        cfg = json.load(fh)["config"]
    assert cfg["n_grid"] == 24 and cfg["m_steps"] == 8


def test_suite_failure_exits_3(monkeypatch, capsys):
    import ttflow.harness as H

    def boom(config, index):
        raise RuntimeError("boom")

    monkeypatch.setattr(H, "run_one", boom)
    assert main(["run", *TOY_FLAGS]) == 3
    assert "suite failed" in capsys.readouterr().out


def test_gaussian_check_command(tmp_path, capsys):
    report = str(tmp_path / "check.json")
    # +-8 as in test_gaussian_check_stationary: 64 nodes resolve N(0, 1) there
    code = main(["gaussian-check", "--dim", "2", "--grid", "64", "--steps", "16",
                 "--box", "-8", "8",
                 "--samples", "30", "--seed", "3", "--family", "gaussian",
                 "--mean", "0", "0", "--var", "1", "1", "--report", report])
    assert code == 0
    out = capsys.readouterr().out
    assert "max per-step relative L2 error" in out
    with open(report) as fh:
        rep = json.load(fh)
    assert f"closed-form gap {rep['limit_gap']:.3e}" in out
    assert f"wall ratio {rep['boundary_ratio']:.3e}" in out
    assert rep["l2_max"] <= 1e-6
    assert rep["map_discrepancy_finite"] <= 1e-6


def test_gaussian_check_needs_no_family(capsys):
    code = main(["gaussian-check", "--dim", "2", "--grid", "32", "--steps", "8",
                 "--samples", "10", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max per-step relative L2 error" in out


def test_run_without_family_reports_missing_field(capsys):
    assert main(["run", "--dim", "2", "--grid", "32", "--steps", "8"]) == 2
    assert "missing required config fields: family" in capsys.readouterr().err


def test_trajectories_command(tmp_path, capsys):
    csv_path = str(tmp_path / "paths.csv")
    code = main(["trajectories", *TOY_FLAGS, "--densities", "1",
                 "--paths", "3", "--csv", csv_path])
    assert code == 0
    assert "wrote 3 paths" in capsys.readouterr().out
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "id,t,x_1,x_2"
    assert len(lines) == 1 + 3 * (8 // 2 + 1)


def test_table_command(tmp_path, capsys):
    out = str(tmp_path / "suite")
    assert main(["run", *TOY_FLAGS, "--out", out]) == 0
    capsys.readouterr()
    csv_out = str(tmp_path / "table.csv")
    code = main(["table", os.path.join(out, "summary.json"), "--csv", csv_out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("| d | Spatial grid |")
    assert "| 2 | 32 | 8 | quartic-mixture |" in stdout
    assert os.path.exists(csv_out)
