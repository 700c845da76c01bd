"""End-to-end experiment orchestration.

One density's pipeline is generate -> normalize/certify -> solve the
Fokker-Planck evolution -> sample the initial density -> transport the
samples along the probability flow -> compare the identity pairing against
the exact assignment. A suite runs many densities (optionally in parallel),
writes one JSON report per density plus a summary, and is judged failed only
if more than 10% of densities fail.
"""

from __future__ import annotations

import csv
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
from .errors import ConfigError, DegenerateCostError, TTFlowError
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


# the smallest value of each integer config field
_INT_MIN = {"d": 2, "n_grid": 8, "m_steps": 4, "n_samples": 1, "n_densities": 1,
            "workers": 1, "seed": 0}


def _finite_reals(name: str, value, length: int):
    """``value`` as ``length`` finite floats, or one float for length 1.

    Bools, strings and None are not numbers here, even inside a sequence, and
    only a tuple, list, range or array is a sequence: a mapping or a set is not.
    """
    items = (value,) if length == 1 else value
    sequence = isinstance(items, (tuple, list, range, np.ndarray))
    try:
        ok = sequence and len(items) == length and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) and np.isfinite(v)
            for v in items)
    except TypeError:  # no length
        ok = False
    if not ok:
        what = "a finite number" if length == 1 else f"{length} finite numbers"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return float(items[0]) if length == 1 else tuple(map(float, items))


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
        for name, low in _INT_MIN.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # asdict stays JSON-ready
            if value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if self.m_steps % 2:
            raise ConfigError(f"m_steps must be even, got {self.m_steps}")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.family == "quartic-mixture" and self.d > 3:
            raise ConfigError(f"family quartic-mixture is defined for d <= 3, got d={self.d}")
        if self.box is None:
            # at +-12 every Gaussian the family draws (|mean| <= 1, var <= 2) reads a
            # wall ratio <= 7.3e-14 from 64 nodes up (1.5e-13 at 8), but 64 nodes do not
            # resolve it: over ten draws at 256 steps the worst L2 and map errors read
            # 1.0e-4 and 1.3e-2 there, 1.2e-8 and 7.9e-7 at 96 nodes
            wall = 12.0 if self.family == "gaussian" else 8.0
            object.__setattr__(self, "box", (-wall, wall))
        for name, length in (("t_max", 1), ("box", 2), ("gaussian_mean", self.d),
                             ("gaussian_var", self.d)):
            value = getattr(self, name)
            if value is not None or name == "t_max":  # None: an unset Gaussian parameter
                object.__setattr__(self, name, _finite_reals(name, value, length))
        if self.t_max <= 0:
            raise ConfigError(f"t_max must be positive, got {self.t_max}")
        if not self.box[1] > self.box[0]:
            raise ConfigError(f"box must be increasing, got {self.box}")
        if self.gaussian_var is not None and min(self.gaussian_var) <= 0:
            raise ConfigError(f"gaussian_var must be positive, got {self.gaussian_var}")
        if self.family != "gaussian" and (self.gaussian_mean, self.gaussian_var) != (None, None):
            raise ConfigError(f"gaussian_mean/var need family gaussian, got {self.family!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a directory path, got {self.out!r}")

    def grid(self) -> ChebGrid:
        return ChebGrid.uniform(self.d, self.n_grid, self.box[0], self.box[1])


def _read_json(path, what: str) -> dict:
    """The JSON object in file ``path``, else a ConfigError naming ``what`` and ``path``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return data


def config_from_dict(data: dict, **overrides) -> ExperimentConfig:
    merged = {**data, **{k: v for k, v in overrides.items() if v is not None}}
    preset = merged.pop("preset", None)
    if preset is not None:
        if not isinstance(preset, str) or preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}, have {sorted(PRESETS)}")
        merged = {**PRESETS[preset], **merged}
    try:  # unknown and missing fields raise TypeError
        return ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _child_seed(master: int, index: int, purpose: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(index, purpose))
    return int(ss.generate_state(1)[0])


def _gaussian_params(config: ExperimentConfig, seed: int):
    """The configured mean and variances (an unset one is 0 or 1), else a seeded draw."""
    if config.gaussian_mean is None and config.gaussian_var is None:
        rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, size=config.d), rng.uniform(0.5, 2.0, size=config.d)
    return (np.array(config.gaussian_mean or (0.0,) * config.d),
            np.array(config.gaussian_var or (1.0,) * config.d))


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
        meta.update(boundary_ratio=res.boundary_ratio, ranks=list(res.tensor.ranks))
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


def _pipeline(config: ExperimentConfig, index: int) -> _Run:
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
    x0 = sample_tt(p0, grid, config.n_samples, _child_seed(config.seed, index, 1))
    res = flow_integrate(traj, x0)
    t_flow = time.perf_counter()
    timings = {"generate_s": t_gen - t_start, "solve_s": t_solve - t_gen,
               "flow_s": t_flow - t_solve}
    return _Run(meta, spec, traj, x0, res, timings)


def _finite_paths(run: _Run):
    """Start and end points of the paths outside the flow's ``failed_ids``."""
    return (np.delete(run.x0.points, run.flow.failed_ids, axis=0),
            np.delete(run.flow.x1.points, run.flow.failed_ids, axis=0))


def _flow_report(run: _Run) -> dict:
    """Flow diagnostics of one density.

    ``score_nodes_*`` are the chopped per-mode node counts that the scores
    were read through (see ``fpe``): the mean over snapshots and modes, and
    snapshot 0's per mode, a resolution margin (all ``n_grid`` nodes mean the
    grid barely resolves p0; ``n_grid - 1`` is a cut like any other).
    ``x1_abs_max_over_box`` is the largest coordinate distance of a finite
    endpoint from the box center over the box half-width (None when no path
    stayed finite); above 1 a path escaped the box.
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


def _oracle(run: _Run, t_max: float) -> dict:
    """A Gaussian density against its closed-form law.

    The per-step relative L2 density error against the evolved moments, the
    endpoints' largest distances from the finite-time and whitening maps, and
    ``limit_gap``, the maps' largest distance over the finite paths' starts.
    """
    grid, traj = run.traj.grid, run.traj
    weights = [grid.quad_weights(k) for k in range(grid.d)]
    l2 = []
    for m in range(traj.n_steps + 1):
        mean_t, cov_t = moments_at(run.spec, m * traj.h)
        ref = diag_gaussian_tt(grid, mean_t, np.diag(cov_t))
        ref = tt_scale(ref, 1.0 / tt_integrate(ref, weights))
        l2.append(rel_l2_distance(traj.snapshots[m], ref, grid))
    x0, x1 = _finite_paths(run)
    at_t_max = finite_time_map(run.spec, x0, t_max)
    limit = encoder_map(run.spec, x0)
    return {
        "l2_per_step": [float(v) for v in l2],
        "l2_max": float(max(l2)),
        "map_discrepancy_finite": _max_gap(x1, at_t_max),
        "map_discrepancy_limit": _max_gap(x1, limit),
        "limit_bound": float(np.exp(-t_max) * np.abs(np.diag(run.spec.cov) - 1).max()),
        "limit_gap": _max_gap(at_t_max, limit),
    }


def _report(config: ExperimentConfig, index: int) -> dict:
    """The one per-density report; a Gaussian density's carries its ``oracle``.
    ``compare`` reads the finite paths and ``excluded`` counts the failed ones.
    ``assignment`` is by sample row: entry i is the row whose endpoint sample
    i is assigned to, None for a row in the flow's ``failed_ids``."""
    run = _pipeline(config, index)
    t0 = time.perf_counter()
    x0, x1 = _finite_paths(run)
    if not len(x0):
        raise DegenerateCostError("all rows excluded, nothing to compare")
    report = dict(asdict(compare(x0, x1)), excluded=len(run.flow.failed_ids))
    kept = np.delete(np.arange(run.x0.n), run.flow.failed_ids).tolist()
    to_row = dict(zip(kept, (kept[j] for j in report["assignment"])))
    report["assignment"] = [to_row.get(i) for i in range(run.x0.n)]
    timings = dict(run.timings, compare_s=time.perf_counter() - t0)
    if run.spec is not None:
        t0 = time.perf_counter()
        report["oracle"] = _oracle(run, config.t_max)
        timings["oracle_s"] = time.perf_counter() - t0
    report.update(
        index=index,
        density=run.meta,
        flow=_flow_report(run),
        solver={"rank_max": max(max(r) for r in run.traj.ranks),
                "mass_loss_max": max(abs(1.0 - m) for m in run.traj.masses[1:])},
        config=asdict(config),
        timings=dict(timings, total_s=sum(timings.values())),
    )
    return report


def run_one(config: ExperimentConfig, index: int) -> dict:
    """Report of density ``index`` for a suite; ``gaussian_check`` calls ``_report``."""
    return _report(config, index)


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
    oracles = [r["oracle"] for r in reports if "oracle" in r]
    status = "ok" if len(failures) <= 0.1 * config.n_densities else "failed"
    summary = {
        "status": status,
        "config": asdict(config),
        "n_completed": len(reports),
        "n_failed": len(failures),
        "failures": failures,
        "epsilon_rel_max": max(eps, default=None),
        "epsilon_rel_min": min(eps, default=None),
        "epsilon_rel_median": float(np.median(eps)) if eps else None,
        "identity_fraction_min": min((r["identity_fraction"] for r in reports),
                                     default=None),
        "n_cross_unconverged": sum(r["density"].get("cross_converged") is False
                                   for r in reports),
        "solver": {key: max((s[key] for s in solver), default=None)
                   for key in ("rank_max", "mass_loss_max")},
        # worst cases over densities of the flow block's margins
        "flow": {"score_nodes_p0_max": max(p0_nodes, default=None),
                 "x1_abs_max_over_box": max(escape, default=None)},
        # worst closed-form errors over the Gaussian densities
        "oracle": {key: max((o[key] for o in oracles), default=None) for key in
                   ("l2_max", "map_discrepancy_finite", "map_discrepancy_limit")},
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
    """Numeric pipeline vs the closed-form Gaussian law: a view of one report.

    The density's ``oracle`` block (see ``_oracle``) plus the Gaussian's
    parameters, its ``boundary_ratio`` by the certificate's rule (reported,
    not enforced), ``epsilon_rel``, ``excluded``, the config and the timings.
    """
    cfg = replace(config, family="gaussian",
                  gaussian_mean=config.gaussian_mean if mean is None else mean,
                  gaussian_var=config.gaussian_var if var is None else var)
    rep = _report(cfg, 0)
    view = {k: rep["density"][k] for k in ("mean", "var", "boundary_ratio")}
    return {**rep["oracle"], **view,
            **{k: rep[k] for k in ("epsilon_rel", "excluded", "config", "timings")}}


def dump_trajectories(config: ExperimentConfig, out_csv, out_json=None) -> dict:
    """Run one density with ``config.n_samples`` samples and write every path as CSV.

    Paths are labelled by sample row, 0..n_samples-1. Returns the straightness
    diagnostics (also written to ``out_json``), None for a failed path.
    """
    run = _pipeline(config, 0)
    paths_to_csv(run.flow.states, run.flow.times, out_csv)
    diag = straightness_diagnostic(run.flow.states)
    payload = {
        "density": run.meta,
        "ids": list(range(config.n_samples)),
        "straightness": [float(v) if np.isfinite(v) else None for v in diag],
        "flow": _flow_report(run),
    }
    if out_json:
        with open(out_json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return payload


# (header, row key, format) of each table column; the keys name the CSV fields
_TABLE_COLUMNS = (
    ("d", "d", ""), ("Spatial grid", "n_grid", ""), ("Temporal grid", "m_steps", ""),
    ("Family", "family", ""), ("Densities", "n_densities", ""),
    ("Samples", "n_samples", ""), ("max eps_rel", "epsilon_rel_max", ".3e"),
    ("median eps_rel", "epsilon_rel_median", ".3e"),
    ("mean time (s)", "mean_time_s", ".2f"), ("max rank", "rank_max", "d"),
    ("max mass loss", "mass_loss_max", ".3e"), ("max L2 err", "l2_max", ".3e"),
    ("max map err", "map_discrepancy_finite", ".3e"),
)


def _fmt(value, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def aggregate_table(summary_paths, out_csv=None) -> str:
    """Collect suite summaries into a compact markdown table."""
    rows = []
    for path in summary_paths:
        s = _read_json(path, "summary")
        try:  # a summary written before one of these blocks existed lacks it
            times = s["timings"]["per_density_s"]
            rows.append({**s, **s["config"], **s["solver"], **s["oracle"],
                         "n_densities": s["n_completed"],  # completed, not configured
                         "mean_time_s": float(np.mean(times)) if times else None})
        except KeyError as exc:
            raise ConfigError(f"summary {path} has no key {exc}; rerun its suite") from exc
    rows.sort(key=lambda r: r["d"])
    lines = ["| " + " | ".join(head for head, _, _ in _TABLE_COLUMNS) + " |",
             "|" + "---|" * len(_TABLE_COLUMNS)]
    lines += ["| " + " | ".join(_fmt(r[key], spec) for _, key, spec in _TABLE_COLUMNS) + " |"
              for r in rows]
    if out_csv:
        with open(out_csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, [key for _, key, _ in _TABLE_COLUMNS],
                                    extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
    return "\n".join(lines)
