"""One random 2-d mixture, end to end.

Generate a quartic-exponent mixture, certify its boundary decay, solve the
Fokker-Planck equation, push 300 samples through the probability-flow ODE,
and compare the index pairing X0[i] <-> X1[i] with the exact assignment
between the clouds. If the flow map is the optimal-transport map, the two
costs agree and eps_rel is ~0. Flow paths are generally curved, unlike the
straight-line displacement interpolation of optimal transport; the
straightness diagnostic quantifies this.
"""

import numpy as np

from ttflow import (ExperimentConfig, compare, flow_integrate,
                    gen_quartic_mixture, normalize_and_certify, fpe_solve,
                    sample_tt, straightness_diagnostic)

cfg = ExperimentConfig(d=2, n_grid=96, m_steps=96, family="quartic-mixture",
                       n_samples=300, n_densities=1, seed=42)
grid = cfg.grid()

spec, density = gen_quartic_mixture(2, seed=42)
print(f"mixture with {spec.k} component(s)")

cert = normalize_and_certify(density, grid, cross_tol=1e-8, seed=42)
print(f"certified: boundary/peak ratio {cert.boundary_ratio:.2e}, "
      f"{cert.cross_info.n_evals} cross evaluations, TT ranks {cert.tensor.ranks}")

traj = fpe_solve(cert.tensor, grid, cfg.m_steps, cfg.t_max)
print(f"solved {traj.n_steps} steps, mass drift "
      f"{np.abs(np.array(traj.masses) - 1).max():.2e}")

x0 = sample_tt(cert.tensor, grid, cfg.n_samples, seed=7)
res = flow_integrate(traj, x0)
print(f"transported {x0.n} samples, {res.clamped} clamped stage states, "
      f"{len(res.failed_ids)} failures")

# compare only the paths the flow kept finite
x1 = np.delete(res.x1.points, res.failed_ids, axis=0)
rep = compare(np.delete(x0.points, res.failed_ids, axis=0), x1)
print(f"\npairing cost      {rep.cost_encoder:.12f}")
print(f"assignment cost   {rep.cost_ot:.12f}")
print(f"eps_rel           {rep.epsilon_rel:.3e}")
print(f"identity fraction {rep.identity_fraction:.3f}")

bend = straightness_diagnostic(res.states[:, :50, :])
print(f"\nstraightness over 50 paths: median {np.median(bend):.3e}, "
      f"max {bend.max():.3e}")
print("(0 would mean straight lines; the flow bends, optimal transport "
      "would not)")

# endpoint cloud should look like N(0, I)
print("\nendpoint moments: mean", np.round(x1.mean(axis=0), 3),
      " cov", np.round(np.cov(x1.T), 3).tolist())
