"""Generic harmonic-structure abstraction instantiated by gasket and ring.

A harmonic structure consists of the contraction system, per-map
renormalisation weights r_i in (0, 1), a conductance rule producing the
per-level edge weights, and the boundary set.  Two identities
characterise it:

* self-similarity: E_n(u) = sum_i r_i**-1 E_{n-1}(u o F_i);
* compatibility: E_{n-1}(u) equals the minimum of E_n over all
  extensions of u, attained by the harmonic extension.

The generic operations here recompute conductances from the weights and
perform extension by solving the constrained minimisation, so they form
an independent route against the specialised gasket/ring code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import linalg as spla

from . import covering as cov
from . import kuramoto as km
from .dirichlet import weighted_laplacian
from .graphs import FractalGraph, build_graph, canonical_itinerary, child_tables
from .winding import DegreeVector


@dataclass(frozen=True)
class HarmonicStructure:
    """Everything the generic theory assumes about one self-similar set."""

    name: str
    num_maps: int
    contraction_ratios: tuple
    weights: tuple  # r_i, uniform for the instances built here
    boundary_size: int
    build_graph: Callable[[int], FractalGraph]

    def conductance(self, level: int) -> float:
        """Per-edge weight at a level, recomputed from the r_i."""
        r = self.weights[0]
        assert all(ri == r for ri in self.weights), \
            "non-uniform weights are instance data this package does not ship"
        out = 1.0
        for _ in range(level):
            out /= r
        return out

    def to_json_dict(self):
        return {
            "name": self.name,
            "num_maps": self.num_maps,
            "contraction_ratios": list(self.contraction_ratios),
            "weights": list(self.weights),
            "boundary_size": self.boundary_size,
        }


def sg_structure() -> HarmonicStructure:
    """Gasket instance: three half-scale maps, weights 3/5."""
    return HarmonicStructure(
        name="sg", num_maps=3,
        contraction_ratios=(0.5, 0.5, 0.5),
        weights=(0.6, 0.6, 0.6),
        boundary_size=3,
        build_graph=lambda n: build_graph("sg", n))


def ring_structure() -> HarmonicStructure:
    """Ring instance: two half-scale maps of the interval, weights 1/2."""
    return HarmonicStructure(
        name="ring", num_maps=2,
        contraction_ratios=(0.5, 0.5),
        weights=(0.5, 0.5),
        boundary_size=1,
        build_graph=lambda n: build_graph("ring", n))


def pullback_index(struct: HarmonicStructure, level: int, i: int) -> np.ndarray:
    """Ids in the level-n graph of F_i applied to the level-(n-1) vertices.

    Used to evaluate u o F_i: (u o F_i)(v) = u(F_i v).
    """
    g_coarse = struct.build_graph(level - 1)
    g_fine = struct.build_graph(level)
    sym = g_fine.alphabet[i]
    out = np.empty(g_coarse.n_vertices, dtype=np.int64)
    for vid in range(g_coarse.n_vertices):
        it = g_coarse.itinerary(vid)
        out[vid] = g_fine.id_of(canonical_itinerary((sym,) + it.word, it.tail))
    return out


def energy_value(struct: HarmonicStructure, level: int, u) -> float:
    """Quadratic energy with conductances recomputed from the weights."""
    g = struct.build_graph(level)
    u = np.asarray(u, dtype=float)
    d = u[g.edges[:, 1]] - u[g.edges[:, 0]]
    c = struct.conductance(level)
    terms = c * g.edge_mult * d * d / 2.0
    return math.fsum(terms.tolist())


def pullback_values(struct: HarmonicStructure, level: int, i: int, u):
    """Values of u o F_i on the level-(n-1) piece.

    The ring is the interval with endpoints identified, so its pieces are
    sampled as interval paths (2**(n-1) + 1 points, the last one wrapping
    to vertex 0 of the quotient).
    """
    u = np.asarray(u, dtype=float)
    if struct.name == "ring":
        npts = 2 ** (level - 1)
        idx = (i * npts + np.arange(npts + 1)) % (2 ** level)
        return u[idx]
    return u[pullback_index(struct, level, i)]


def _piece_energy(struct: HarmonicStructure, level: int, vals) -> float:
    if struct.name == "ring":
        c = struct.conductance(level)
        d = np.diff(np.asarray(vals, dtype=float))
        return math.fsum((c * d * d / 2.0).tolist())
    return energy_value(struct, level, vals)


def self_similarity_residual(struct: HarmonicStructure, level: int, u) -> float:
    """|E_n(u) - sum_i r_i**-1 E_{n-1}(u o F_i)|."""
    total = energy_value(struct, level, u)
    parts = []
    for i in range(struct.num_maps):
        vals = pullback_values(struct, level, i, u)
        parts.append(_piece_energy(struct, level - 1, vals) / struct.weights[i])
    return abs(total - math.fsum(parts))


def extension_by_minimization(struct: HarmonicStructure, level: int, u_coarse):
    """Extend a level-(n-1) field to level n by minimising the energy.

    Returns ``(values, energy)``.  The minimum equals the coarse energy;
    on the gasket the minimiser reproduces the 1/5-2/5 rule, on the ring
    the midpoint rule.
    """
    g_fine = struct.build_graph(level)
    u_coarse = np.asarray(u_coarse, dtype=float)
    inj = g_fine.restriction_to(level - 1)
    c = struct.conductance(level)
    n = g_fine.n_vertices
    L = weighted_laplacian(g_fine.edges, c * g_fine.edge_mult.astype(float), n)
    fixed = inj
    free = np.setdiff1d(np.arange(n), fixed)
    vals = np.zeros(n)
    vals[fixed] = u_coarse
    if free.size:
        A = L[free][:, free].tocsc()
        rhs = -L[free][:, fixed] @ vals[fixed]
        vals[free] = spla.spsolve(A, rhs)
    energy = energy_value(struct, level, vals)
    return vals, energy


def compatibility_residual(struct: HarmonicStructure, level: int, u_coarse) -> float:
    """|E_{n-1}(u) - min over extensions of E_n|, verified by solving."""
    _, e_min = extension_by_minimization(struct, level, u_coarse)
    e_coarse = energy_value(struct, level - 1, u_coarse)
    return abs(e_min - e_coarse)


def generic_harmonic_map(struct: HarmonicStructure, level: int,
                         omega: DegreeVector):
    """Covering-space harmonic map built through the generic machinery.

    The constrained minimum is solved at the coarsest admissible level and
    extended by repeated constrained minimisation (not the closed-form
    rule), then projected mod 1.  Returns ``(phases, lift)``.
    """
    g = struct.build_graph(level)
    dom = cov.covering_domain(g, omega)
    if not omega:
        lift = cov.LiftField(domain=dom, values=np.zeros(dom.n_vertices))
        return np.zeros(g.n_vertices), lift
    if struct.name == "ring":
        lift = cov.minimize_constrained(dom)
        return cov.project_to_circle(lift), lift
    m0 = omega.max_order + 1
    cur = cov.minimize_constrained(dom, m=m0)
    while cur.level < level:
        cur = _extend_lift_by_solve(cur)
    return cov.project_to_circle(cur), cur


def _extend_lift_by_solve(cur: cov.LiftField) -> cov.LiftField:
    """One extension step on the cut graph via constrained minimisation."""
    dom_m = cur.domain
    dom_next = cov.covering_domain(
        build_graph(dom_m.kind, dom_m.level + 1), dom_m.omega)
    corners, mids = child_tables(dom_next.cell_corners)
    vals = np.zeros(dom_next.n_vertices)
    vals[corners] = cur.values[dom_m.cell_corners]
    fixed, free = np.unique(corners), np.unique(mids)
    L = dom_next.laplacian_matrix()
    A = L[free][:, free].tocsc()
    rhs = -L[free][:, fixed] @ vals[fixed]
    vals[free] = spla.spsolve(A, rhs)
    return cov.LiftField(domain=dom_next, values=vals)


def generic_km(struct: HarmonicStructure, level: int, omega: DegreeVector,
               cfg: km.FlowConfig | None = None) -> km.EquilibriumReport:
    """Full pipeline through the generic interface: covering, minimise,
    extend, project, flow to equilibrium, classify."""
    g = struct.build_graph(level)
    phases, _ = generic_harmonic_map(struct, level, omega)
    return km.integrate_to_equilibrium(g, phases, cfg)
