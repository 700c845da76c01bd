"""Command-line front end: ``run`` a density suite, dump one density's flow
``trajectories``, or ``table`` suite summaries.

Each subcommand takes only the settings it reads: --densities, --workers and
--out exist on ``run`` only, and --mean/--var need the gaussian family. Exit
codes: 0 success, 2 invalid configuration or arguments, 3 suite failure (more
than 10% of densities failed). Settings resolve in order: defaults, then
--preset, then --config file, then explicit flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .errors import ConfigError
from .harness import (FAMILIES, PRESETS, ExperimentConfig, _fmt, _read_json,
                      aggregate_table, config_from_dict, dump_trajectories, run_suite)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the config fields that both ``run`` and ``trajectories`` read."""
    p.add_argument("--preset", choices=sorted(PRESETS), help="named size: d, grids, family")
    p.add_argument("--config", help="JSON file of config fields")
    p.add_argument("--dim", type=int, dest="d", help="dimension d")
    p.add_argument("--grid", type=int, dest="n_grid", help="nodes per axis")
    p.add_argument("--steps", type=int, dest="m_steps", help="time steps")
    p.add_argument("--t-max", type=float, dest="t_max", help="final time")
    p.add_argument("--box", type=float, nargs=2, metavar=("LO", "HI"), help="domain per axis")
    p.add_argument("--samples", type=int, dest="n_samples", help="sample points per density")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--mean", type=float, nargs="+", dest="gaussian_mean",
                   help="Gaussian mean (d floats; gaussian family only)")
    p.add_argument("--var", type=float, nargs="+", dest="gaussian_var",
                   help="Gaussian per-axis variances (d floats; gaussian family only)")


def _build_config(args):
    data = _read_json(args.config, "config file") if args.config else {}
    overrides = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    return config_from_dict(data, preset=args.preset, **overrides)


def _cmd_run(args) -> int:
    summary = run_suite(_build_config(args))
    line = (f"suite {summary['status']}: {summary['n_completed']} densities, "
            f"{summary['n_failed']} failed")
    if summary["epsilon_rel_max"] is not None:
        line += (f", max eps_rel {summary['epsilon_rel_max']:.3e}, "
                 f"median {summary['epsilon_rel_median']:.3e}")
    oracle = summary["oracle"]
    if oracle["l2_max"] is not None:  # a Gaussian density completed
        line += (f", max L2 err {oracle['l2_max']:.3e}, "
                 f"max map err {oracle['map_discrepancy_finite']:.3e}")
    if summary["n_cross_unconverged"] > 0:
        line += f", {summary['n_cross_unconverged']} cross unconverged"
    print(line)
    if args.out:
        print(f"reports in {args.out}")
    return 0 if summary["status"] == "ok" else 3


def _cmd_trajectories(args) -> int:
    payload = dump_trajectories(_build_config(args), args.csv, out_json=args.report)
    print(f"wrote {len(payload['ids'])} paths to {args.csv}")
    ok = [v for v in payload["straightness"] if v is not None]
    print(f"max straightness deviation: {_fmt(max(ok, default=None), '.3e')} over "
          f"{len(ok)} finite paths, {len(payload['ids']) - len(ok)} failed")
    return 0


def _cmd_table(args) -> int:
    print(aggregate_table(args.summaries, out_csv=args.csv))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ttflow", description=(
        "Probability-flow transport experiments on tensor-train grids"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a density suite")
    _add_config_flags(p_run)
    p_run.add_argument("--densities", type=int, dest="n_densities", help="number of densities")
    p_run.add_argument("--workers", type=int, help="parallel density workers")
    p_run.add_argument("--out", help="output directory for reports")
    p_run.set_defaults(func=_cmd_run)

    p_t = sub.add_parser("trajectories", help="dump sample flow paths as CSV")
    _add_config_flags(p_t)
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
