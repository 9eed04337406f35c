"""Generic harmonic-structure route, as functions over a fractal record.

A harmonic structure consists of the contraction system, the
renormalisation weight r in (0, 1) that every map shares (3/5 on the
gasket, 1/2 on the ring), a conductance rule producing the per-level edge
weights, and the boundary set.  Each function here takes the
:class:`graphs.Fractal` record and reads its name, maps, r, boundary size
and builder, never its extension table.  Two identities characterise it:

* self-similarity: E_n(u) = sum_i r**-1 E_{n-1}(u o F_i);
* compatibility: E_{n-1}(u) equals the minimum of E_n over all
  extensions of u, attained by the harmonic extension.

The generic operations here recompute conductances from r by repeated
division and perform extension by solving the constrained minimisation,
so they form an independent route against the specialised gasket/ring
code paths.  Its scipy parts, the sparse Laplacian assembly and the
SuperLU solve, live here alone and import scipy at their first call, not
with the package.
"""

from __future__ import annotations

import math

import numpy as np

from . import covering as cov
from .graphs import Fractal
from .winding import DegreeVector


def conductance(fractal: Fractal, level: int) -> float:
    """Per-edge weight at a level, recomputed from r by repeated division."""
    out = 1.0
    for _ in range(level):
        out /= fractal.r
    return out


def structure_json(fractal: Fractal) -> dict:
    """``build-graph``'s structure.json: every map of half scale, weight r."""
    m = fractal.num_maps
    return {"name": fractal.name, "num_maps": m, "contraction_ratios": [0.5] * m,
            "weights": [fractal.r] * m, "boundary_size": fractal.boundary_size}


def _edge_energy(c, edges, u) -> float:
    d = u[edges[:, 1]] - u[edges[:, 0]]
    return math.fsum((c * d * d / 2.0).tolist())


def energy_value(fractal: Fractal, level: int, u) -> float:
    """Quadratic energy with conductances recomputed from r."""
    g = fractal.build(level)
    return _edge_energy(conductance(fractal, level), g.edges,
                        np.asarray(u, dtype=float))


def self_similarity_residual(fractal: Fractal, level: int, u) -> float:
    """|E_n(u) - sum_i r_i**-1 E_{n-1}(u o F_i)|.

    Cell ``i w`` of level n is F_i of cell ``w`` of level n-1, so the
    level-n cells of piece F_i are the i-th block of the corner table, in
    the order of the level-(n-1) cells, and each contributes its own edges.
    """
    u = np.asarray(u, dtype=float)
    g = fractal.build(level)
    c = conductance(fractal, level - 1)
    parts = [_edge_energy(c, fractal.cell_edges(piece), u) / fractal.r
             for piece in np.split(g.cell_corners, fractal.num_maps)]
    return abs(energy_value(fractal, level, u) - math.fsum(parts))


def weighted_laplacian(edges, w, n):
    """Laplacian sum_e w_e (d_e d_e^T) of an edge list, as a scipy sparse
    (n, n) CSR matrix."""
    from scipy import sparse

    i, j = edges[:, 0], edges[:, 1]
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    data = np.concatenate([w, w, -w, -w])
    return sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def laplacian_matrix(g):
    """Laplacian c*(D - A) as a sparse matrix (positive form), for a graph
    or a cut domain: anything with ``edges``, ``conductance`` and
    ``n_vertices``."""
    return weighted_laplacian(g.edges, np.full(len(g.edges), g.conductance),
                              g.n_vertices)


def _solve_free(L, free, f):
    """Fill ``f[free]`` so that ``(L f)[free] = 0``, the rest of ``f``
    held: one sparse LU factor of ``A = L[free][:, free]`` and one step of
    iterative refinement with it.  scipy loads at the first call.

    The two solves below free one level's midpoints, block diagonal by
    cell, so any order of them has no fill; SuperLU keeps the order given
    (``NATURAL``) and relaxes no supernodes.
    """
    if not len(free):
        return
    from scipy.sparse import linalg as spla

    held = np.ones(len(f), dtype=bool)
    held[free] = False
    rows = L[free]
    A = rows[:, free].tocsc()
    rhs = -rows[:, held] @ f[held]
    del L, rows  # only A is held while splu factors it
    lu = spla.splu(A, permc_spec="NATURAL", relax=1, panel_size=1)
    sol = lu.solve(rhs)
    f[free] = sol + lu.solve(rhs - A @ sol)


def extension_by_minimization(fractal: Fractal, level: int, u_coarse):
    """Extend a level-(n-1) field to level n by minimising the energy.

    Returns ``(values, energy)``.  The minimum equals the coarse energy;
    on the gasket the minimiser reproduces the 1/5-2/5 rule, on the ring
    the midpoint rule.
    """
    g_fine = fractal.build(level)
    u_coarse = np.asarray(u_coarse, dtype=float)
    c = conductance(fractal, level)
    n = g_fine.n_vertices
    vals = np.zeros(n)
    vals[g_fine.restriction_to(level - 1)] = u_coarse
    _solve_free(weighted_laplacian(g_fine.edges, np.full(g_fine.n_edges, c), n),
                np.flatnonzero(g_fine.birth == level), vals)
    energy = energy_value(fractal, level, vals)
    return vals, energy


def compatibility_residual(fractal: Fractal, level: int, u_coarse) -> float:
    """|E_{n-1}(u) - min over extensions of E_n|, verified by solving."""
    _, e_min = extension_by_minimization(fractal, level, u_coarse)
    e_coarse = energy_value(fractal, level - 1, u_coarse)
    return abs(e_min - e_coarse)


def generic_harmonic_map(fractal: Fractal, level: int, omega: DegreeVector):
    """Covering-space harmonic map built through the generic machinery.

    The constrained minimum is solved on :func:`covering.seed_domain` and
    extended by repeated constrained minimisation (not the closed-form
    rule), then projected mod 1.  Returns ``(phases, lift)``.
    """
    g = fractal.build(level)
    if not omega:
        dom = cov.covering_domain(g, omega)
        lift = cov.LiftField(domain=dom, values=np.zeros(dom.n_vertices))
        return np.zeros(g.n_vertices), lift
    cur = cov.minimize_constrained(cov.seed_domain(g, omega))
    while cur.level < level:
        cur = _extend_lift_by_solve(cur)
    return cov.project_to_circle(cur), cur


def _extend_lift_by_solve(cur: cov.LiftField) -> cov.LiftField:
    """One extension step on the cut graph via constrained minimisation."""
    dom_m, fractal = cur.domain, cur.domain.base.fractal
    dom_next = cov.covering_domain(fractal.build(dom_m.level + 1), dom_m.omega)
    nodes = fractal.cell_nodes(dom_next.cell_corners)
    k = dom_m.cell_corners.shape[1]
    vals = np.zeros(dom_next.n_vertices)
    vals[nodes[:, :k]] = cur.values[dom_m.cell_corners]
    _solve_free(laplacian_matrix(dom_next), nodes[:, k:].ravel(), vals)
    return cov.LiftField(domain=dom_next, values=vals)

