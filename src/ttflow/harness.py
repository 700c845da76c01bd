"""End-to-end experiment orchestration.

One density's pipeline is generate -> normalize/certify -> solve the
Fokker-Planck evolution -> sample the initial density -> transport the
samples along the probability flow -> compare the identity pairing against
the exact assignment. A suite runs many densities (optionally in parallel),
writes one JSON report per density plus a summary, and is judged failed only
if more than 10% of densities fail.
"""

from __future__ import annotations

import json
import numbers
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .chebyshev import ChebGrid
from .densities import (diag_gaussian_tt, gen_quartic_mixture, gen_tt_random,
                        normalize_and_certify, normalized_ratio)
from .errors import ConfigError, TTFlowError
from .flow import (FlowResult, PointCloud, flow_integrate, paths_to_csv,
                   sample_tt, straightness_diagnostic)
from .fpe import DensityTrajectory, fpe_solve, rel_l2_distance
from .gaussian import GaussianSpec, encoder_map, finite_time_map, moments_at
from .tt import tt_integrate, tt_scale
from .transport import compare

FAMILIES = ("quartic-mixture", "tt-random", "gaussian")

PRESETS = {
    "d2": {"d": 2, "n_grid": 250, "m_steps": 250, "family": "quartic-mixture"},
    "d3": {"d": 3, "n_grid": 100, "m_steps": 100, "family": "quartic-mixture"},
    "d7": {"d": 7, "n_grid": 50, "m_steps": 50, "family": "tt-random"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    n_grid: int
    m_steps: int
    family: str
    t_max: float = 5.0
    box: tuple = None  # (-12, 12) for the gaussian family, else (-8, 8)
    n_samples: int = 500
    n_densities: int = 100
    seed: int = 0
    workers: int = 1
    out: str = None
    gaussian_mean: tuple = None
    gaussian_var: tuple = None

    def __post_init__(self):
        for name in ("d", "n_grid", "m_steps", "n_samples", "n_densities", "seed",
                     "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.box is None:
            # at +-12 every Gaussian the family draws (|mean| <= 1, var <= 2)
            # reads a wall ratio <= 7.3e-14 from 64 nodes up (1.5e-13 at 8)
            wall = 12.0 if self.family == "gaussian" else 8.0
            object.__setattr__(self, "box", (-wall, wall))
        for name in ("box", "gaussian_mean", "gaussian_var"):
            value = getattr(self, name)
            if value is not None:
                try:
                    if isinstance(value, str):  # iterable, but of characters
                        raise TypeError("a string")
                    object.__setattr__(self, name, tuple(map(float, value)))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{name} must hold numbers, got {value!r}") from exc
        if self.d < 2:
            raise ConfigError(f"d must be >= 2, got {self.d}")
        if self.n_grid < 8:
            raise ConfigError(f"spatial grid size must be >= 8, got {self.n_grid}")
        if self.m_steps < 4 or self.m_steps % 2:
            raise ConfigError(f"temporal grid size must be even and >= 4, "
                              f"got {self.m_steps}")
        if (isinstance(self.t_max, bool) or not isinstance(self.t_max, numbers.Real)
                or not (np.isfinite(self.t_max) and self.t_max > 0)):
            raise ConfigError(f"t_max must be finite and positive, got {self.t_max!r}")
        object.__setattr__(self, "t_max", float(self.t_max))
        if len(self.box) != 2 or not np.isfinite(self.box).all():
            raise ConfigError(f"box must be two finite numbers, got {self.box}")
        if not self.box[1] > self.box[0]:
            raise ConfigError(f"empty box {self.box}")
        for name in ("gaussian_mean", "gaussian_var"):
            value = getattr(self, name)
            if value is not None and len(value) != self.d:
                raise ConfigError(f"{name} must have length d={self.d}, got {len(value)}")
        if self.gaussian_mean is not None and not np.isfinite(self.gaussian_mean).all():
            raise ConfigError(f"gaussian_mean must be finite, got {self.gaussian_mean}")
        if self.gaussian_var is not None and not (np.isfinite(self.gaussian_var).all()
                                                  and min(self.gaussian_var) > 0):
            raise ConfigError(f"gaussian_var must be finite and positive, "
                              f"got {self.gaussian_var}")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.family == "quartic-mixture" and self.d > 3:
            raise ConfigError("quartic-mixture densities are defined for d <= 3")
        if self.n_samples < 1 or self.n_densities < 1:
            raise ConfigError("need n_samples >= 1 and n_densities >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise ConfigError("need workers >= 1")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a directory path, got {self.out!r}")

    def grid(self) -> ChebGrid:
        return ChebGrid.uniform(self.d, self.n_grid, self.box[0], self.box[1])


def config_from_dict(data: dict, **overrides) -> ExperimentConfig:
    merged = dict(data)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    preset = merged.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}, have {sorted(PRESETS)}")
        base = dict(PRESETS[preset])
        base.update(merged)
        merged = base
    try:  # unknown and missing fields raise TypeError
        return ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _child_seed(master: int, index: int, purpose: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(index, purpose))
    return int(ss.generate_state(1)[0])


def _gaussian_params(config: ExperimentConfig, seed: int):
    if config.gaussian_mean is not None or config.gaussian_var is not None:
        mean = np.array(config.gaussian_mean if config.gaussian_mean is not None
                        else (0.0,) * config.d)
        var = np.array(config.gaussian_var if config.gaussian_var is not None
                       else (1.0,) * config.d)
    else:
        rng = np.random.default_rng(seed)
        mean = rng.uniform(-1.0, 1.0, size=config.d)
        var = rng.uniform(0.5, 2.0, size=config.d)
    return mean, var


def _build_density(config: ExperimentConfig, grid: ChebGrid, seed: int):
    """Initial density TT plus generation metadata for the report."""
    meta = {"family": config.family, "density_seed": seed}
    if config.family != "gaussian":
        if config.family == "quartic-mixture":
            spec, density = gen_quartic_mixture(config.d, seed, box=config.box)
            meta["k_components"] = spec.k
        else:
            density = gen_tt_random(grid, seed)
        res = normalize_and_certify(density, grid, seed=seed)
        meta.update(rescales=res.rescales, boundary_ratio=res.boundary_ratio,
                    ranks=list(res.tensor.ranks))
        info = res.cross_info
        if info is not None:
            meta.update(cross_converged=bool(info.converged), cross_error=info.val_error,
                        cross_evals=info.n_evals, cross_sweeps=info.sweeps)
        return res.tensor, meta, None
    # analytic Gaussian: rank-1 by construction; its wall ratio is measured by
    # the certificate's rule but not enforced. Walls above the 1e-12 bar do
    # affect the comparison: the solver pins wall values to 0, which leaves an
    # absolute error of about the wall value across the box and corrupts
    # the tail scores (the family's default box keeps them decayed)
    mean, var = _gaussian_params(config, seed)
    p0, ratio = normalized_ratio(diag_gaussian_tt(grid, mean, var), grid,
                                 np.random.default_rng(seed))
    meta.update(mean=mean.tolist(), var=var.tolist(), boundary_ratio=ratio)
    return p0, meta, GaussianSpec(mean, np.diag(var))


class _Run(NamedTuple):
    """One density through generate -> solve -> sample -> flow."""

    meta: dict
    spec: GaussianSpec  # the closed-form law of a gaussian density, else None
    traj: DensityTrajectory
    x0: PointCloud
    flow: FlowResult
    timings: dict


def _pipeline(config: ExperimentConfig, index: int, n_samples: int) -> _Run:
    """The shared stages for density ``index``, seeded by its child seeds.

    Stages are called through this module's names so that a caller (or a
    tracer) patching ``ttflow.harness`` sees every one of them.
    """
    t_start = time.perf_counter()
    grid = config.grid()
    p0, meta, spec = _build_density(config, grid, _child_seed(config.seed, index, 0))
    t_gen = time.perf_counter()
    traj = fpe_solve(p0, grid, config.m_steps, config.t_max)
    t_solve = time.perf_counter()
    x0 = sample_tt(p0, grid, n_samples, _child_seed(config.seed, index, 1))
    res = flow_integrate(traj, x0)
    t_flow = time.perf_counter()
    timings = {"generate_s": t_gen - t_start, "solve_s": t_solve - t_gen,
               "flow_s": t_flow - t_solve}
    return _Run(meta, spec, traj, x0, res, timings)


def _finite_paths(run: _Run):
    """Start and end points of the paths that stayed finite."""
    ok = np.isfinite(run.flow.x1.points).all(axis=1)
    return run.x0.points[ok], run.flow.x1.points[ok]


def _flow_report(run: _Run) -> dict:
    """Flow diagnostics of one density.

    ``score_nodes_*`` are the chopped per-mode node counts that the scores
    were read through (see ``fpe``): the mean over snapshots and modes, and
    snapshot 0's per mode, a resolution margin (all ``n_grid`` nodes mean
    the grid barely resolves p0). ``x1_abs_max_over_box`` is the largest
    coordinate distance of a finite endpoint from the box center over the
    box half-width (None when no path stayed finite); above 1 a path
    escaped the box.
    """
    nodes = run.traj.score_nodes
    _, x1 = _finite_paths(run)
    lo, hi = run.traj.box
    escape = (float(np.abs(x1 - (lo + hi) / 2.0).max() / ((hi - lo) / 2.0))
              if len(x1) else None)
    return {"clamped_stages": run.flow.clamped, "failed_ids": run.flow.failed_ids,
            "score_floor_hits": run.traj.floor_hits,
            "score_nodes_mean": float(np.mean(list(nodes.values()))),
            "score_nodes_p0": list(nodes[0]),
            "x1_abs_max_over_box": escape}


def _max_gap(x: np.ndarray, y: np.ndarray) -> float:
    """Largest row-wise distance between two point sets."""
    return float(np.linalg.norm(x - y, axis=1).max())


def run_one(config: ExperimentConfig, index: int) -> dict:
    """Full pipeline for density ``index``; returns the per-density report."""
    run = _pipeline(config, index, config.n_samples)
    t0 = time.perf_counter()
    report = asdict(compare(run.x0.points, run.flow.x1.points))
    compare_s = time.perf_counter() - t0
    report.update(
        index=index,
        density=run.meta,
        flow=_flow_report(run),
        solver={"rank_max": max(max(r) for r in run.traj.ranks),
                "mass_loss_max": max(abs(1.0 - m) for m in run.traj.masses[1:])},
        config=asdict(config),
    )
    report["timings"].update(run.timings, compare_s=compare_s,
                             total_s=sum(run.timings.values()) + compare_s)
    if run.spec is not None:
        x0, x1 = _finite_paths(run)
        report["map_discrepancy"] = _max_gap(x1, finite_time_map(run.spec, x0, config.t_max))
    return report


def _run_one_payload(args):
    config, index = args
    try:
        return run_one(config, index), None
    except (TTFlowError, np.linalg.LinAlgError) as exc:  # budgeted; others propagate
        return None, {"index": index, "error": f"{type(exc).__name__}: {exc}",
                      "traceback": traceback.format_exc()}


def run_suite(config: ExperimentConfig) -> dict:
    """All densities; writes per-density and summary JSON when out is set."""
    t0 = time.perf_counter()
    if config.out:  # before any density runs, so a bad path costs no work
        try:
            os.makedirs(config.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {config.out!r}: {exc}") from exc
    reports, failures = [], []
    payload = [(config, i) for i in range(config.n_densities)]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(_run_one_payload, payload))
    else:
        outcomes = map(_run_one_payload, payload)
    for rep, failure in outcomes:
        if failure is not None:
            failures.append(failure)
        else:
            reports.append(rep)

    eps = [r["epsilon_rel"] for r in reports]
    solver = [r["solver"] for r in reports]
    p0_nodes = [max(r["flow"]["score_nodes_p0"]) for r in reports]
    escape = [r["flow"]["x1_abs_max_over_box"] for r in reports
              if r["flow"]["x1_abs_max_over_box"] is not None]
    times = [r["timings"]["total_s"] for r in reports]
    status = "ok" if len(failures) <= 0.1 * config.n_densities else "failed"
    summary = {
        "status": status,
        "config": asdict(config),
        "n_completed": len(reports),
        "n_failed": len(failures),
        "failures": failures,
        "epsilon_rel_max": max(eps) if eps else None,
        "epsilon_rel_min": min(eps) if eps else None,
        "epsilon_rel_median": float(np.median(eps)) if eps else None,
        "identity_fraction_min": min(r["identity_fraction"] for r in reports) if reports else None,
        "n_cross_unconverged": sum(r["density"].get("cross_converged") is False
                                   for r in reports),
        "solver": {key: max(s[key] for s in solver) if solver else None
                   for key in ("rank_max", "mass_loss_max")},
        # worst cases over densities of the flow block's margins
        "flow": {"score_nodes_p0_max": max(p0_nodes, default=None),
                 "x1_abs_max_over_box": max(escape, default=None)},
        "timings": {"per_density_s": times, "suite_s": time.perf_counter() - t0},
    }
    if config.out:
        for rep in reports:
            path = os.path.join(config.out, f"density_{rep['index']:04d}.json")
            with open(path, "w") as fh:
                json.dump(rep, fh, indent=2, sort_keys=True)
        with open(os.path.join(config.out, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def gaussian_check(config: ExperimentConfig, mean=None, var=None) -> dict:
    """Numeric pipeline vs the closed-form Gaussian law.

    Reports the per-step relative L2 density error against the evolved
    moments and the endpoint discrepancies against the finite-time map and
    the limiting whitening map, plus ``limit_gap``, the closed-form distance
    between those two maps over the same start points, and the Gaussian's
    ``boundary_ratio`` by the certificate's rule (reported, not enforced).
    """
    cfg = replace(config, family="gaussian",
                  gaussian_mean=tuple(mean) if mean is not None else config.gaussian_mean,
                  gaussian_var=tuple(var) if var is not None else config.gaussian_var)
    run = _pipeline(cfg, 0, cfg.n_samples)
    grid, traj = run.traj.grid, run.traj
    weights = [grid.quad_weights(k) for k in range(grid.d)]
    l2 = []
    for m in range(traj.n_steps + 1):
        mean_t, cov_t = moments_at(run.spec, m * traj.h)
        ref = diag_gaussian_tt(grid, mean_t, np.diag(cov_t))
        ref = tt_scale(ref, 1.0 / tt_integrate(ref, weights))
        l2.append(rel_l2_distance(traj.snapshots[m], ref, grid))
    rep = compare(run.x0.points, run.flow.x1.points)
    x0, x1 = _finite_paths(run)
    at_t_max = finite_time_map(run.spec, x0, cfg.t_max)
    limit = encoder_map(run.spec, x0)
    return {
        "config": asdict(cfg),
        "mean": run.meta["mean"],
        "var": run.meta["var"],
        "l2_per_step": [float(v) for v in l2],
        "l2_max": float(max(l2)),
        "map_discrepancy_finite": _max_gap(x1, at_t_max),
        "map_discrepancy_limit": _max_gap(x1, limit),
        "limit_bound": float(np.exp(-cfg.t_max) * np.abs(np.diag(run.spec.cov) - 1).max()),
        "limit_gap": _max_gap(at_t_max, limit),
        "boundary_ratio": run.meta["boundary_ratio"],
        "epsilon_rel": rep.epsilon_rel,
        "excluded": rep.excluded,
        "timings": run.timings,
    }


def dump_trajectories(config: ExperimentConfig, n_paths: int, out_csv,
                      out_json=None) -> dict:
    """Run one density with n_paths >= 1 samples and write every path as CSV.

    Paths are labelled by sample row, 0..n_paths-1. Returns the straightness
    diagnostics (also written to ``out_json``).
    """
    if n_paths < 1:
        raise ConfigError(f"n_paths must be >= 1, got {n_paths}")
    run = _pipeline(config, 0, n_paths)
    paths_to_csv(run.flow.states, run.flow.times, out_csv)
    diag = straightness_diagnostic(run.flow.states)
    payload = {
        "density": run.meta,
        "ids": list(range(n_paths)),
        "straightness": [float(v) for v in diag],
        "clamped_stages": run.flow.clamped,
        "failed_ids": run.flow.failed_ids,
    }
    if out_json:
        with open(out_json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return payload


def _fmt(value, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def aggregate_table(summary_paths, out_csv=None) -> str:
    """Collect suite summaries into a compact markdown table."""
    rows = []
    for path in summary_paths:
        with open(path) as fh:
            s = json.load(fh)
        cfg = s["config"]
        times = s["timings"]["per_density_s"]
        rows.append({
            "d": cfg["d"], "n_grid": cfg["n_grid"], "m_steps": cfg["m_steps"],
            "family": cfg["family"], "n_densities": s["n_completed"],
            "n_samples": cfg["n_samples"],
            "epsilon_rel_max": s["epsilon_rel_max"],
            "epsilon_rel_median": s["epsilon_rel_median"],
            "mean_time_s": float(np.mean(times)) if times else None,
            "rank_max": s["solver"]["rank_max"],
            "mass_loss_max": s["solver"]["mass_loss_max"],
        })
    rows.sort(key=lambda r: r["d"])
    header = ("| d | Spatial grid | Temporal grid | Family | Densities | "
              "Samples | max eps_rel | median eps_rel | mean time (s) | "
              "max rank | max mass loss |")
    sep = "|" + "---|" * 11
    lines = [header, sep]
    for r in rows:
        lines.append(
            f"| {r['d']} | {r['n_grid']} | {r['m_steps']} | {r['family']} | "
            f"{r['n_densities']} | {r['n_samples']} | {_fmt(r['epsilon_rel_max'], '.3e')} | "
            f"{_fmt(r['epsilon_rel_median'], '.3e')} | {_fmt(r['mean_time_s'], '.2f')} | "
            f"{_fmt(r['rank_max'], 'd')} | {_fmt(r['mass_loss_max'], '.3e')} |")
    table = "\n".join(lines)
    if out_csv:
        import csv as _csv

        with open(out_csv, "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return table
