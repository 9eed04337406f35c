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
code paths.  Its solves run conjugate gradients on the package's one
Laplacian kernel, :func:`dirichlet.laplacian`, and read no corner table
and no extension row.  Every field is checked against the graph of its
level (:meth:`graphs.FractalGraph.check_field`).
"""

from __future__ import annotations

import math

import numpy as np

from . import covering as cov
from .dirichlet import laplacian
from .errors import ConjugateGradientError
from .graphs import Fractal
from .winding import DegreeVector

# _solve_free stops at this residual relative to its first; its solves are
# exact in at most two steps, so the cap leaves room for rounding only
CG_TOLERANCE = 1e-16
CG_MAX_STEPS = 8


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
    return _edge_energy(conductance(fractal, level), g.edges, g.check_field(u))


def self_similarity_residual(fractal: Fractal, level: int, u) -> float:
    """|E_n(u) - sum_i r_i**-1 E_{n-1}(u o F_i)|.

    Cell ``i w`` of level n is F_i of cell ``w`` of level n-1, so the
    level-n cells of piece F_i are the i-th block of the corner table, in
    the order of the level-(n-1) cells, and each contributes its own edges.
    """
    g = fractal.build(level)
    u = g.check_field(u)
    c = conductance(fractal, level - 1)
    parts = [_edge_energy(c, fractal.cell_edges(piece), u) / fractal.r
             for piece in np.split(g.cell_corners, fractal.num_maps)]
    return abs(energy_value(fractal, level, u) - math.fsum(parts))


def _solve_free(g, free, f):
    """Fill ``f[free]`` so that ``(L f)[free] = 0``, the rest of ``f``
    held, by conjugate gradients on ``A = L[free][:, free]`` from the
    ``f[free]`` given, with :func:`dirichlet.laplacian` as the product:
    ``g`` is a graph or a cut domain, and the minimiser does not depend on
    its scalar conductance.

    Both solves here free one level's midpoints, each inside one parent
    cell, so A is block diagonal by cell with one block repeated: c(5I - J)
    on the gasket's three midpoints (J all ones), eigenvalues 2c and 5c,
    and 2c on the ring's one.  CG is exact in at most as many steps as A
    has distinct eigenvalues (Hestenes & Stiefel, 1952): two on the
    gasket, one on the ring; a step or two more take up rounding.  It
    stops at a residual of ``CG_TOLERANCE`` times the first, or raises
    :class:`ConjugateGradientError` after ``CG_MAX_STEPS`` steps: no field
    that has not converged is returned.
    """
    direction = np.zeros(g.n_vertices)
    r = laplacian(g, f)[free]
    p = r.copy()
    rr = first = float(r @ r)
    for steps in range(CG_MAX_STEPS + 1):
        if rr <= first * CG_TOLERANCE ** 2:
            return
        if steps == CG_MAX_STEPS:
            raise ConjugateGradientError(steps, math.sqrt(rr / first))
        direction[free] = p
        ap = -laplacian(g, direction)[free]
        alpha = rr / float(p @ ap)
        f[free] += alpha * p
        r -= alpha * ap
        rr, last = float(r @ r), rr
        p = r + (rr / last) * p


def extension_by_minimization(fractal: Fractal, level: int, u_coarse):
    """Extend a level-(n-1) field to level n by minimising the energy.

    Returns ``(values, energy)``.  The minimum equals the coarse energy;
    on the gasket the minimiser reproduces the 1/5-2/5 rule, on the ring
    the midpoint rule.
    """
    g_fine = fractal.build(level)
    vals = np.zeros(g_fine.n_vertices)
    vals[g_fine.restriction_to(level - 1)] = fractal.build(
        level - 1).check_field(u_coarse)
    _solve_free(g_fine, np.flatnonzero(g_fine.birth == level), vals)
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
    dom_m, fractal = cur.domain, cur.domain.fractal
    dom_next = cov.covering_domain(fractal.build(dom_m.level + 1), dom_m.omega)
    nodes = fractal.cell_nodes(dom_next.cell_corners)
    k = dom_m.cell_corners.shape[1]
    vals = np.zeros(dom_next.n_vertices)
    vals[nodes[:, :k]] = cur.values[dom_m.cell_corners]
    _solve_free(dom_next, nodes[:, k:].ravel(), vals)
    return cov.LiftField(domain=dom_next, values=vals)

