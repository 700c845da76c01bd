import json
import os

import numpy as np
import pytest

from ttflow.errors import ConfigError
from ttflow.harness import (PRESETS, ExperimentConfig, aggregate_table,
                            config_from_dict, dump_trajectories,
                            gaussian_check, run_one, run_suite)

TOY = dict(d=2, n_grid=32, m_steps=8, family="quartic-mixture",
           n_samples=25, n_densities=3, seed=5)


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def test_config_validation():
    good = ExperimentConfig(**TOY)
    assert good.box == (-8.0, 8.0) and good.t_max == 5.0
    for bad in [dict(TOY, d=1), dict(TOY, n_grid=4), dict(TOY, m_steps=2),
                dict(TOY, t_max=0.0), dict(TOY, family="nope"),
                dict(TOY, d=4, family="quartic-mixture"),
                dict(TOY, n_samples=0), dict(TOY, n_densities=0),
                dict(TOY, workers=0), dict(TOY, box=(3.0, -3.0)),
                dict(TOY, m_steps=9), dict(TOY, t_max=float("nan")),
                dict(TOY, t_max=float("inf")), dict(TOY, box=(-8.0, float("inf"))),
                dict(TOY, box=(float("nan"), 8.0)),
                dict(TOY, gaussian_mean=(0.0, 0.0, 0.0)),
                dict(TOY, gaussian_var=(1.0,)),
                dict(TOY, gaussian_mean=(float("nan"), 0.0)),
                dict(TOY, gaussian_var=(-1.0, 1.0)), dict(TOY, gaussian_var=(0.0, 1.0)),
                dict(TOY, gaussian_var=(float("inf"), 1.0))]:
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)


def test_presets_match_experiment_table():
    assert PRESETS["d2"] == {"d": 2, "n_grid": 250, "m_steps": 250,
                             "family": "quartic-mixture"}
    assert PRESETS["d3"] == {"d": 3, "n_grid": 100, "m_steps": 100,
                             "family": "quartic-mixture"}
    assert PRESETS["d7"] == {"d": 7, "n_grid": 50, "m_steps": 50,
                             "family": "tt-random"}
    cfg = config_from_dict({"preset": "d2"})
    assert (cfg.d, cfg.n_grid, cfg.m_steps) == (2, 250, 250)
    assert cfg.n_samples == 500 and cfg.n_densities == 100 and cfg.t_max == 5.0


def test_config_precedence_and_unknown_fields():
    # flags beat file, file beats preset
    cfg = config_from_dict({"preset": "d7", "n_grid": 40}, m_steps=12)
    assert (cfg.d, cfg.n_grid, cfg.m_steps) == (7, 40, 12)
    assert cfg.family == "tt-random"
    with pytest.raises(ConfigError):
        config_from_dict({"preset": "never-heard-of-it"})
    with pytest.raises(ConfigError):
        config_from_dict({"n_gird": 64, **TOY})
    # solver and certification tolerances are module constants, not config
    for removed in ({"cross_tol": 1e-8}, {"cross_max_rank": 30},
                    {"round_tol": 1e-9}, {"solver_max_rank": 50}):
        with pytest.raises(ConfigError):
            config_from_dict({**removed, **TOY})


def test_run_one_report_schema():
    rep = run_one(ExperimentConfig(**TOY), 1)
    for key in ("epsilon_rel", "cost_ot", "cost_encoder", "identity_fraction",
                "excluded", "index", "density", "flow", "solver", "config", "timings"):
        assert key in rep
    # the solver never raises a rank, so the worst one is the initial one
    assert rep["solver"]["rank_max"] == max(rep["density"]["ranks"])
    assert 0.0 <= rep["solver"]["mass_loss_max"] < 1e-3
    assert rep["index"] == 1
    assert rep["epsilon_rel"] >= -1e-12
    assert rep["config"] == ExperimentConfig(**TOY).as_dict()
    assert rep["density"]["family"] == "quartic-mixture"
    assert rep["density"]["cross_converged"]
    # every cross evaluation is a distinct grid node
    assert 0 < rep["density"]["cross_evals"] <= TOY["n_grid"] ** TOY["d"]
    assert rep["density"]["cross_sweeps"] >= 1
    assert rep["timings"]["total_s"] > 0


def test_run_suite_reports_and_summary(tmp_path):
    out = str(tmp_path / "suite")
    summary = run_suite(ExperimentConfig(**TOY, out=out))
    assert summary["status"] == "ok"
    assert summary["n_completed"] == 3 and summary["n_failed"] == 0
    assert summary["epsilon_rel_max"] >= -1e-12
    names = sorted(os.listdir(out))
    assert names == ["density_0000.json", "density_0001.json",
                     "density_0002.json", "summary.json"]
    eps, solver = [], []
    for i in range(3):
        with open(os.path.join(out, f"density_{i:04d}.json")) as fh:
            rep = json.load(fh)
        assert rep["index"] == i
        assert rep["config"]["n_grid"] == TOY["n_grid"]
        eps.append(rep["epsilon_rel"])
        solver.append(rep["solver"])
    assert summary["epsilon_rel_max"] == max(eps)
    assert summary["epsilon_rel_median"] == float(np.median(eps))
    for key in ("rank_max", "mass_loss_max"):
        assert summary["solver"][key] == max(r[key] for r in solver)


def test_run_suite_reproducible_excluding_timings(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    s1 = run_suite(ExperimentConfig(**TOY, out=out1))
    s2 = run_suite(ExperimentConfig(**TOY, out=out2))
    key = lambda s, o: json.dumps(_strip_timings({**s, "config": dict(s["config"], out=o)}),
                                  sort_keys=True)
    assert key(s1, "") == key(s2, "")
    for i in range(3):
        with open(os.path.join(out1, f"density_{i:04d}.json")) as fh:
            r1 = _strip_timings(json.load(fh))
        with open(os.path.join(out2, f"density_{i:04d}.json")) as fh:
            r2 = _strip_timings(json.load(fh))
        r1["config"]["out"] = r2["config"]["out"] = ""
        assert r1 == r2


def test_run_suite_failure_budget(monkeypatch):
    import ttflow.harness as H

    def flaky(fail_at):
        def fake(config, index):
            if index in fail_at:
                raise RuntimeError("boom")
            return {"epsilon_rel": 0.0, "identity_fraction": 1.0,
                    "excluded": 0, "index": index, "timings": {"total_s": 0.0},
                    "solver": {"rank_max": 1, "mass_loss_max": 0.0}}
        return fake

    cfg = ExperimentConfig(**dict(TOY, n_densities=10))
    monkeypatch.setattr(H, "run_one", flaky({3}))
    s = run_suite(cfg)
    assert s["status"] == "ok" and s["n_failed"] == 1
    assert s["failures"][0]["index"] == 3
    assert "boom" in s["failures"][0]["error"]
    monkeypatch.setattr(H, "run_one", flaky({3, 7}))
    s = run_suite(cfg)
    assert s["status"] == "failed" and s["n_failed"] == 2


def test_run_suite_parallel_matches_serial():
    serial = _strip_timings(run_suite(ExperimentConfig(**TOY)))
    parallel = _strip_timings(run_suite(ExperimentConfig(**TOY, workers=2)))
    assert serial["config"].pop("workers") == 1
    assert parallel["config"].pop("workers") == 2
    assert serial == parallel


def test_gaussian_check_stationary():
    # N(0, 1) has decayed to e^-32 at +-8, and 64 nodes under-resolve the
    # score on the wider default box
    cfg = ExperimentConfig(d=2, n_grid=64, m_steps=16, family="gaussian",
                           n_samples=100, n_densities=1, seed=3, box=(-8.0, 8.0))
    rep = gaussian_check(cfg, mean=(0.0, 0.0), var=(1.0, 1.0))
    assert rep["map_discrepancy_finite"] <= 1e-6
    assert rep["l2_max"] <= 1e-6
    assert len(rep["l2_per_step"]) == 17
    assert rep["epsilon_rel"] <= 1e-10


def test_gaussian_check_mean_shift():
    cfg = ExperimentConfig(d=2, n_grid=96, m_steps=256, family="gaussian",
                           n_samples=200, n_densities=1, seed=3)
    rep = gaussian_check(cfg, mean=(1.0, 0.0), var=(1.0, 1.0))
    assert rep["map_discrepancy_finite"] <= 1e-4
    assert rep["l2_max"] <= 1e-6


def test_gaussian_check_anisotropic():
    cfg = ExperimentConfig(d=2, n_grid=96, m_steps=512, family="gaussian",
                           n_samples=200, n_densities=1, seed=3)
    rep = gaussian_check(cfg, mean=(0.0, 0.0), var=(2.0, 0.5))
    assert rep["map_discrepancy_finite"] <= 1e-4
    assert rep["map_discrepancy_limit"] <= rep["limit_bound"] + 1e-3
    assert rep["l2_max"] <= 1e-6


def test_gaussian_check_limit_gap():
    # the closed-form gap between the finite-time and limiting maps is what
    # limit_bound leaves out once the mean is off zero
    cfg = ExperimentConfig(d=2, n_grid=64, m_steps=64, family="gaussian",
                           n_samples=60, n_densities=1, seed=4)
    rep = gaussian_check(cfg, mean=(0.90, -0.94), var=(1.62, 1.91))
    assert rep["map_discrepancy_limit"] <= (rep["map_discrepancy_finite"]
                                            + rep["limit_gap"]) * (1 + 1e-12)
    assert rep["limit_gap"] > rep["limit_bound"]


def test_gaussian_family_suite_run():
    cfg = ExperimentConfig(d=2, n_grid=96, m_steps=512, family="gaussian",
                           n_samples=200, n_densities=1, seed=9)
    rep = run_one(cfg, 0)
    assert rep["epsilon_rel"] <= 1e-10
    assert rep["map_discrepancy"] <= 1e-4
    assert rep["density"]["family"] == "gaussian"


def test_run_one_and_gaussian_check_share_one_pipeline():
    # same child seeds and solver arguments, so the same endpoints
    cfg = ExperimentConfig(d=2, n_grid=48, m_steps=32, family="gaussian",
                           n_samples=50, n_densities=1, seed=3,
                           gaussian_mean=(1.0, 0.0), gaussian_var=(2.0, 0.5))
    rep = run_one(cfg, 0)
    check = gaussian_check(cfg)
    assert rep["map_discrepancy"] == check["map_discrepancy_finite"]
    assert rep["epsilon_rel"] == check["epsilon_rel"]
    assert rep["density"]["mean"] == check["mean"] == [1.0, 0.0]


def test_dump_trajectories_header_only(tmp_path):
    cfg = ExperimentConfig(d=2, n_grid=32, m_steps=8, family="gaussian",
                           n_samples=10, n_densities=1, seed=2,
                           gaussian_mean=(0.0, 0.0), gaussian_var=(1.0, 1.0))
    csv_path = tmp_path / "paths.csv"
    payload = dump_trajectories(cfg, 0, str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines == ["id,t,x_1,x_2"]
    assert payload["ids"] == [] and payload["straightness"] == []


def test_dump_trajectories_stationary_is_straight(tmp_path):
    # 64 nodes resolve the stationary score well enough that points move
    # only by noise (~1e-7), below the diagnostic's chord floor
    cfg = ExperimentConfig(d=2, n_grid=64, m_steps=8, family="gaussian",
                           n_samples=10, n_densities=1, seed=2, box=(-8.0, 8.0),
                           gaussian_mean=(0.0, 0.0), gaussian_var=(1.0, 1.0))
    payload = dump_trajectories(cfg, 5, str(tmp_path / "p.csv"))
    assert len(payload["straightness"]) == 5
    assert payload["straightness"] == [0.0] * 5


def test_dump_trajectories_mixture_bends(tmp_path):
    cfg = ExperimentConfig(d=2, n_grid=48, m_steps=24, family="quartic-mixture",
                           n_samples=30, n_densities=1, seed=4)
    csv_path, json_path = tmp_path / "p.csv", tmp_path / "p.json"
    payload = dump_trajectories(cfg, 12, str(csv_path), out_json=str(json_path))
    assert len(payload["ids"]) == 12
    assert max(payload["straightness"]) > 1e-3
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "id,t,x_1,x_2"
    assert len(lines) == 1 + 12 * (24 // 2 + 1)
    with open(json_path) as fh:
        assert json.load(fh)["straightness"] == payload["straightness"]


def test_aggregate_table(tmp_path):
    out2 = str(tmp_path / "s2")
    out7 = str(tmp_path / "s7")
    run_suite(ExperimentConfig(**dict(TOY, n_densities=2), out=out2))
    run_suite(ExperimentConfig(d=7, n_grid=24, m_steps=8, family="tt-random",
                               n_samples=25, n_densities=2, seed=5, out=out7))
    paths = [os.path.join(out7, "summary.json"), os.path.join(out2, "summary.json")]
    csv_out = str(tmp_path / "table.csv")
    table = aggregate_table(paths, out_csv=csv_out)
    lines = table.splitlines()
    assert lines[0].startswith("| d | Spatial grid |")
    assert lines[2].startswith("| 2 | 32 | 8 | quartic-mixture | 2 | 25 |")
    assert lines[3].startswith("| 7 | 24 | 8 | tt-random | 2 | 25 |")
    with open(csv_out) as fh:
        rows = fh.read().splitlines()
    assert len(rows) == 3 and rows[0].startswith("d,n_grid,m_steps")
    assert rows[0].endswith(",rank_max,mass_loss_max")
    with open(paths[1]) as fh:
        solver = json.load(fh)["solver"]
    assert lines[2].endswith(f"| {solver['rank_max']} | {solver['mass_loss_max']:.3e} |")


def test_aggregate_table_all_densities_failed(monkeypatch, tmp_path):
    import ttflow.harness as H

    def fail(config, index):
        raise RuntimeError("boom")

    monkeypatch.setattr(H, "run_one", fail)
    out = str(tmp_path / "failed")
    s = run_suite(ExperimentConfig(**dict(TOY, n_densities=2), out=out))
    assert s["status"] == "failed" and s["epsilon_rel_max"] is None
    assert s["solver"] == {"rank_max": None, "mass_loss_max": None}
    table = aggregate_table([os.path.join(out, "summary.json")])
    assert table.splitlines()[2] == (
        "| 2 | 32 | 8 | quartic-mixture | 0 | 25 | n/a | n/a | n/a | n/a | n/a |")


def test_gaussian_check_spectral_in_n():
    # on the default +-12 box the walls have decayed, so the density error
    # keeps falling spectrally in n; at +-8 it stalls near 6.6e-6
    l2 = []
    for n in (48, 64, 80, 96):
        cfg = ExperimentConfig(d=2, n_grid=n, m_steps=16, family="gaussian",
                               n_samples=10, n_densities=1, seed=3)
        assert cfg.box == (-12.0, 12.0)
        l2.append(gaussian_check(cfg, mean=(1.0, 0.0), var=(2.0, 0.5))["l2_max"])
    ratios = np.array(l2[:-1]) / np.array(l2[1:])
    assert np.all(ratios > 50) and np.all(np.diff(ratios) > 0), l2
    assert l2[-1] <= 1e-9


def test_gaussian_check_decayed_walls_regression():
    # a seeded oracle Gaussian whose +-8 walls sit at 2.7e-6 of its peak; the
    # truncated tail bent one path by 1.6e-3 there
    cfg = ExperimentConfig(d=2, n_grid=128, m_steps=256, family="gaussian",
                           n_samples=500, n_densities=1, seed=904665937)
    rep = gaussian_check(cfg, mean=(-0.9701443526709974, 0.37265029838304153),
                         var=(1.928735780983487, 0.8743017222135242))
    assert rep["boundary_ratio"] <= 1e-12
    assert rep["map_discrepancy_finite"] <= 1e-5
