"""Small-scale version of the three-suite comparison table.

Runs a handful of random densities at each dimension and prints the
aggregated table (max/median eps_rel, mean per-density time). The full-scale
table uses the named presets instead:

    ttflow run --preset d2 --out out-d2
    ttflow run --preset d3 --out out-d3
    ttflow run --preset d7 --out out-d7
    ttflow table out-d2/summary.json out-d3/summary.json out-d7/summary.json

Pass --full-grids to use the preset grid sizes here (slower, a few seconds
per density); the default shrinks the grids so the demo finishes in ~20 s.
"""

import argparse
import os
import tempfile
from dataclasses import replace

from ttflow import ExperimentConfig, aggregate_table, run_suite

parser = argparse.ArgumentParser()
parser.add_argument("--densities", type=int, default=3)
parser.add_argument("--full-grids", action="store_true")
args = parser.parse_args()

if args.full_grids:
    sizes = {2: (128, 128), 3: (100, 100), 7: (50, 50)}
else:
    sizes = {2: (64, 48), 3: (48, 32), 7: (32, 24)}

configs = [
    ExperimentConfig(d=2, n_grid=sizes[2][0], m_steps=sizes[2][1],
                     family="quartic-mixture", n_samples=200,
                     n_densities=args.densities, seed=1),
    ExperimentConfig(d=3, n_grid=sizes[3][0], m_steps=sizes[3][1],
                     family="quartic-mixture", n_samples=200,
                     n_densities=args.densities, seed=2),
    ExperimentConfig(d=7, n_grid=sizes[7][0], m_steps=sizes[7][1],
                     family="tt-random", n_samples=200,
                     n_densities=args.densities, seed=3),
]

with tempfile.TemporaryDirectory() as tmp:
    paths = []
    for cfg in configs:
        out = os.path.join(tmp, f"d{cfg.d}")
        summary = run_suite(replace(cfg, out=out))
        print(f"d={cfg.d}: {summary['status']}, max eps_rel "
              f"{summary['epsilon_rel_max']:.3e}, "
              f"{summary['timings']['suite_s']:.1f} s")
        paths.append(os.path.join(out, "summary.json"))
    print()
    print(aggregate_table(paths))
