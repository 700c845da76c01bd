import json
import os

import pytest

from ttflow.cli import main
from ttflow.errors import NumericalDomainError
from ttflow.harness import ExperimentConfig, gaussian_check

# the config flags that run and trajectories both take, and run's suite size
TOY_CONFIG = ["--dim", "2", "--grid", "32", "--steps", "8", "--samples", "20",
              "--family", "quartic-mixture", "--seed", "5"]
TOY_FLAGS = [*TOY_CONFIG, "--densities", "2"]


def test_run_succeeds_and_writes_reports(tmp_path, capsys):
    out = str(tmp_path / "suite")
    assert main(["run", *TOY_FLAGS, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "suite ok: 2 densities, 0 failed" in stdout
    assert "cross unconverged" not in stdout
    assert sorted(os.listdir(out)) == ["density_0000.json", "density_0001.json",
                                       "summary.json"]


def test_run_names_unconverged_cross_densities(monkeypatch, capsys):
    # a density whose cross approximation missed its tolerance still
    # completes; the summary line says how many did
    from ttflow import densities

    real, calls = densities.cross_approximate, []

    def first_unconverged(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(res.converged)
        res.converged = len(calls) > 1
        return res

    monkeypatch.setattr(densities, "cross_approximate", first_unconverged)
    assert main(["run", *TOY_FLAGS]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert calls == [True, True]
    assert line.startswith("suite ok: 2 densities, 0 failed, max eps_rel ")
    assert line.endswith(", 1 cross unconverged")


def test_validation_error_exits_2(capsys):
    assert main(["run", "--dim", "1", "--grid", "32", "--steps", "8",
                 "--family", "gaussian"]) == 2
    assert "d must be >= 2" in capsys.readouterr().err
    assert main(["run", *TOY_FLAGS, "--t-max", "nan"]) == 2
    assert "t_max must be a finite number, got nan" in capsys.readouterr().err
    gauss = ["run", "--dim", "2", "--grid", "32", "--steps", "8", "--family", "gaussian"]
    assert main([*gauss, "--var", "-1", "1"]) == 2
    assert "gaussian_var must be positive" in capsys.readouterr().err
    assert main([*gauss, "--mean", "nan", "0"]) == 2
    assert "gaussian_mean must be 2 finite numbers, got [nan, 0.0]" in capsys.readouterr().err
    assert main([*gauss, "--mean", "1", "0", "0"]) == 2
    assert "gaussian_mean must be 2 finite numbers" in capsys.readouterr().err
    assert main(["run", *TOY_FLAGS, "--mean", "0", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: gaussian_mean/var need family gaussian, got 'quartic-mixture'"]


def test_bad_seed_and_box_exit_2_with_one_error_line(tmp_path, capsys):
    assert main(["run", *TOY_FLAGS, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: seed must be >= 0, got -1"]
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"d": 2, "n_grid": 32, "m_steps": 8,
                                "family": "quartic-mixture", "box": ["a", "b"]}))
    assert main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: box must be 2 finite numbers")
    # a non-path out is rejected before any density runs
    conf.write_text(json.dumps({"d": 2, "n_grid": 32, "m_steps": 8,
                                "family": "quartic-mixture", "out": 5}))
    assert main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: out must be a directory path, got 5"]


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
        raise NumericalDomainError("boom")

    monkeypatch.setattr(H, "run_one", boom)
    assert main(["run", *TOY_FLAGS]) == 3
    assert "suite failed" in capsys.readouterr().out


def test_gaussian_check_command(tmp_path, capsys):
    # the Gaussian check is a Gaussian suite: its density report carries the
    # oracle block of the library gaussian_check, and the CLI prints its errors.
    # +-8 as in test_gaussian_check_stationary: 64 nodes resolve N(0, 1) there
    out = str(tmp_path / "suite")
    code = main(["run", "--dim", "2", "--grid", "64", "--steps", "16", "--box", "-8", "8",
                 "--samples", "30", "--seed", "3", "--family", "gaussian",
                 "--mean", "0", "0", "--var", "1", "1", "--densities", "1", "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    with open(os.path.join(out, "density_0000.json")) as fh:
        rep = json.load(fh)
    check = gaussian_check(ExperimentConfig(
        d=2, n_grid=64, m_steps=16, family="gaussian", box=(-8.0, 8.0), n_samples=30,
        n_densities=1, seed=3, gaussian_mean=(0.0, 0.0), gaussian_var=(1.0, 1.0)))
    assert rep["oracle"] == {k: check[k] for k in rep["oracle"]}
    assert rep["density"]["boundary_ratio"] == check["boundary_ratio"]
    assert (f"max L2 err {check['l2_max']:.3e}, "
            f"max map err {check['map_discrepancy_finite']:.3e}") in stdout
    assert check["l2_max"] <= 1e-6
    assert check["map_discrepancy_finite"] <= 1e-6


def test_gaussian_check_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gaussian-check", "--dim", "2", "--grid", "32", "--steps", "8",
              "--samples", "10", "--seed", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'gaussian-check'" in capsys.readouterr().err


def test_run_without_family_reports_missing_field(capsys):
    assert main(["run", "--dim", "2", "--grid", "32", "--steps", "8"]) == 2
    assert ("missing 1 required positional argument: 'family'"
            in capsys.readouterr().err)


def test_trajectories_command(tmp_path, capsys):
    # --samples is the one sample count: it overrides TOY_CONFIG's 20
    csv_path = str(tmp_path / "paths.csv")
    code = main(["trajectories", *TOY_CONFIG, "--samples", "3", "--csv", csv_path])
    assert code == 0
    assert "wrote 3 paths" in capsys.readouterr().out
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "id,t,x_1,x_2"
    assert len(lines) == 1 + 3 * (8 // 2 + 1)
    assert main(["trajectories", *TOY_CONFIG, "--samples", "0", "--csv", csv_path]) == 2
    assert "n_samples must be >= 1, got 0" in capsys.readouterr().err
    # the suite flags change nothing here, so trajectories does not take them
    for flag in (["--workers", "2"], ["--densities", "1"], ["--out", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(["trajectories", *TOY_CONFIG, *flag, "--csv", csv_path])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


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


@pytest.fixture(scope="module")
def toy_summary(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("suite"))
    assert main(["run", *TOY_FLAGS, "--out", out]) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", ["missing", "not-json", "not-an-object", "no-oracle",
                                  "no-timings"])
def test_table_of_an_unreadable_summary_exits_2(tmp_path, capsys, toy_summary, case):
    path = tmp_path / "summary.json"
    if case == "not-json":
        path.write_text("{not json")
    elif case == "not-an-object":
        path.write_text("[]")
    elif case != "missing":  # a summary written before the block existed
        path.write_text(json.dumps({k: v for k, v in toy_summary.items() if k != case[3:]}))
    capsys.readouterr()
    assert main(["table", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
    if case.startswith("no-"):
        assert err[0] == f"error: summary {path} has no key '{case[3:]}'; rerun its suite"
