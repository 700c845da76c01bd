"""Chebyshev collocation in one picture: nodes, derivatives, quadrature.

Polynomial interpolation on Chebyshev-Gauss-Lobatto nodes converges
geometrically for smooth functions. The differentiation matrix and the
Clenshaw-Curtis weights inherit that accuracy, which is what lets the
density solver track 1e-6-level errors with ~100 nodes per axis. The same
decay, read off the Chebyshev coefficients, tells how many nodes a smooth
function needs: the TT evaluator, and with it the flow's score, reads each
mode's series cut to that length.
"""

import numpy as np
from numpy.polynomial.chebyshev import chebval

from ttflow import ChebGrid
from ttflow.chebyshev import CHOP_TOL, chop, coeff_matrix

grid = ChebGrid.uniform(1, 32, -8.0, 8.0)
x = grid.nodes(0)
print("first three nodes:", x[:3])
print("nodes are ascending, clustered toward the endpoints")

# derivative of a polynomial is exact (up to roundoff)
p = x**5 - 3 * x**2
dp = grid.diff1(0) @ p
exact = 5 * x**4 - 6 * x
print("max derivative error on x^5 - 3x^2:", np.abs(dp - exact).max())

# quadrature: integrate exp(-x^2/2), compare against the error function
w = grid.quad_weights(0)
from math import erf, sqrt
val = w @ np.exp(-0.5 * x**2)
ref = sqrt(2 * np.pi) * erf(8 / sqrt(2))
print("quadrature error on the Gaussian:", abs(val - ref))

# geometric convergence of the interpolant of a smooth function
f = lambda t: np.exp(np.sin(t))
targets = np.linspace(-7.5, 7.5, 101)
print("\ninterpolation error of exp(sin(x)) vs node count:")
for n in (8, 16, 32, 64):
    g = ChebGrid.uniform(1, n, -8.0, 8.0)
    m = g.interp_rows(0, targets)
    err = np.abs(m @ f(g.nodes(0)) - f(targets)).max()
    print(f"  n={n:3d}  max error {err:.3e}")

# Chebyshev coefficients of the Gaussian on 128 nodes: they decay
# geometrically until rounding, and the chop keeps the degrees above
# CHOP_TOL of the largest; the cut series, summed at the targets mapped to
# [-1, 1], stays the interpolant to roundoff
fine = ChebGrid.uniform(1, 128, -8.0, 8.0)
gauss = np.exp(-0.5 * fine.nodes(0) ** 2)
coef = np.abs(coeff_matrix(128) @ gauss)
print("\nChebyshev coefficients of exp(-x^2/2) on 128 nodes (relative):")
for k in range(0, 128, 16):
    print(f"  degree {k:3d}  {coef[k] / coef.max():.1e}")
cut = chop(gauss[:, None], CHOP_TOL)[:, 0]
print(f"chopped at {CHOP_TOL:.0e}: {len(cut)} of 128 coefficients")
err = np.abs(fine.interp_rows(0, targets) @ gauss - chebval(targets / 8.0, cut)).max()
print(f"max change of the interpolant on [-7.5, 7.5]: {err:.1e}")
assert err < 1e-10, err
