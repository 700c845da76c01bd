"""Command-line front end for the experiment harness.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 suite failure
(more than 10% of densities failed). Settings resolve in order: defaults,
then --preset, then --config file, then explicit flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError
from .harness import (FAMILIES, PRESETS, aggregate_table, config_from_dict,
                      dump_trajectories, gaussian_check, run_suite)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named experiment size (sets d, grids, family)")
    p.add_argument("--config", help="JSON file of config fields")
    p.add_argument("--dim", type=int, dest="d", help="dimension d")
    p.add_argument("--grid", type=int, dest="n_grid", help="nodes per axis")
    p.add_argument("--steps", type=int, dest="m_steps", help="time steps")
    p.add_argument("--t-max", type=float, dest="t_max", help="final time")
    p.add_argument("--box", type=float, nargs=2, metavar=("LO", "HI"),
                   help="domain interval per axis")
    p.add_argument("--samples", type=int, dest="n_samples",
                   help="sample points per density")
    p.add_argument("--densities", type=int, dest="n_densities",
                   help="number of densities in the suite")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--workers", type=int, help="parallel density workers")
    p.add_argument("--out", help="output directory for reports")


def _build_config(args, default_family=None):
    data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    keys = ("d", "n_grid", "m_steps", "t_max", "box", "n_samples",
            "n_densities", "family", "seed", "workers", "out")
    overrides = {k: getattr(args, k, None) for k in keys}
    if args.box is not None:
        overrides["box"] = tuple(args.box)
    if args.preset is not None:
        overrides["preset"] = args.preset
    elif (default_family is not None and overrides.get("family") is None
          and "family" not in data):
        overrides["family"] = default_family
    return config_from_dict(data, **overrides)


def _cmd_run(args) -> int:
    summary = run_suite(_build_config(args))
    line = (f"suite {summary['status']}: {summary['n_completed']} densities, "
            f"{summary['n_failed']} failed")
    if summary["epsilon_rel_max"] is not None:
        line += (f", max eps_rel {summary['epsilon_rel_max']:.3e}, "
                 f"median {summary['epsilon_rel_median']:.3e}")
    print(line)
    if args.out:
        print(f"reports in {args.out}")
    return 0 if summary["status"] == "ok" else 3


def _cmd_gaussian_check(args) -> int:
    cfg = _build_config(args, default_family="gaussian")
    rep = gaussian_check(cfg, mean=args.mean, var=args.var)
    print(f"mean {rep['mean']}, var {rep['var']}")
    print(f"max per-step relative L2 error: {rep['l2_max']:.3e}")
    print(f"endpoint vs finite-time map:    {rep['map_discrepancy_finite']:.3e}")
    print(f"endpoint vs limiting map:       {rep['map_discrepancy_limit']:.3e}"
          f" (bound {rep['limit_bound']:.3e}, closed-form gap {rep['limit_gap']:.3e},"
          f" wall ratio {rep['boundary_ratio']:.3e})")
    print(f"eps_rel: {rep['epsilon_rel']:.3e}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(rep, fh, indent=2, sort_keys=True)
        print(f"report in {args.report}")
    return 0


def _cmd_trajectories(args) -> int:
    cfg = _build_config(args)
    payload = dump_trajectories(cfg, args.paths, args.csv, out_json=args.report)
    print(f"wrote {len(payload['ids'])} paths to {args.csv}")
    if payload["straightness"]:
        print(f"max straightness deviation: {max(payload['straightness']):.3e}")
    return 0


def _cmd_table(args) -> int:
    print(aggregate_table(args.summaries, out_csv=args.csv))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ttflow",
        description="Probability-flow transport experiments on tensor-train grids")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a density suite")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_g = sub.add_parser("gaussian-check",
                         help="compare the pipeline against the Gaussian closed form")
    _add_config_flags(p_g)
    p_g.add_argument("--mean", type=float, nargs="+", help="Gaussian mean (d floats)")
    p_g.add_argument("--var", type=float, nargs="+",
                     help="Gaussian per-axis variances (d floats)")
    p_g.add_argument("--report", help="JSON report path")
    p_g.set_defaults(func=_cmd_gaussian_check)

    p_t = sub.add_parser("trajectories", help="dump sample flow paths as CSV")
    _add_config_flags(p_t)
    p_t.add_argument("--paths", type=int, default=20, help="number of paths")
    p_t.add_argument("--csv", required=True, help="output CSV path")
    p_t.add_argument("--report", help="straightness JSON path")
    p_t.set_defaults(func=_cmd_trajectories)

    p_tab = sub.add_parser("table", help="aggregate suite summaries into a table")
    p_tab.add_argument("summaries", nargs="+", help="summary.json paths")
    p_tab.add_argument("--csv", help="also write rows as CSV")
    p_tab.set_defaults(func=_cmd_table)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
