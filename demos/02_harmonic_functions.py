"""Harmonic functions on the gasket: extension, energy, boundary flux.

A harmonic function minimises the renormalised edge energy subject to its
corner values.  The 1/5-2/5 rule computes it level by level, keeps the
energy exactly constant, and agrees with a solve on the factored Laplacian.
"""

import numpy as np

from fractalsync import (build_sg_graph, dirichlet_energy, extend_corners,
                         holder_ratio, laplacian, normal_derivative,
                         solve_dirichlet)
from fractalsync.graphs import SG

# extend_corners takes each cell's corner values to its children's; a
# cell's nodes are its corners, then its midpoints x, y, z
children = extend_corners(SG, np.array([[1.0, 0.0, 0.0]]))
print("one extension step from corners (1, 0, 0): midpoints",
      tuple(SG.cell_nodes(children)[0, 3:].tolist()))

phi = [0.0, 0.0, 1.0]
for n in (0, 2, 4, 6):
    g = build_sg_graph(n)
    f = solve_dirichlet(g, phi)
    e = dirichlet_energy(g, f).energy
    flux = [normal_derivative(g, f, v) for v in g.boundary_ids]
    print(f"level {n}: energy {e:.15f}, corner flux {np.round(flux, 12)}")

# both solver paths give the same field
g = build_sg_graph(5)
fe = solve_dirichlet(g, phi, method="extension")
fl = solve_dirichlet(g, phi, method="linear-solve")
print("\nextension vs linear solve, sup difference:",
      np.abs(fe - fl).max())

lap = laplacian(g, fe)
interior = np.setdiff1d(np.arange(g.n_vertices), g.boundary_ids)
print("interior Laplacian residual:", np.abs(lap[interior]).max())

# the Holder ratio |f(x)-f(y)| / |x-y|^beta stays bounded as the graph
# refines -- the regularity that makes the continuum limit work
import math
beta = math.log(5 / 3) / (2 * math.log(2))
for n in (3, 5, 7):
    g = build_sg_graph(n)
    f = solve_dirichlet(g, phi)
    print(f"level {n}: Holder ratio (beta={beta:.4f}) =",
          round(holder_ratio(g, f, beta), 12))
