"""Fundamental-domain construction of circle-valued harmonic maps.

For a prescribed degree vector, one vertex per nonzero entry is cut in
two and an integer jump is imposed across the pair.  Minimising the
Dirichlet energy over fields satisfying the jumps and a pin at the first
corner, then harmonically extending and reducing mod 1, produces a phase
field whose winding along each basis loop is exactly the prescribed
degree.  The extension runs on corner values, gasket and ring alike, and
builds only the cut domain of the level it ends at.

The cut for the loop around cell ``w`` is the midpoint of the side of
``w`` opposite its last symbol; for the outer loop it is the midpoint of
side v3-v1.  The other two sides of ``w`` run along sides of its parent,
so this is the one side on no coarser loop.  Clockwise, side a -> b of
``w`` runs through the children ``wa`` and then ``wb``: the "+" copy of
the cut is corner b of the graph-level cell ``w a b...b``, the "-" copy
corner a of ``w b a...a``, and the lift jumps up by the prescribed
winding across the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dirichlet import (_laplacian_factor, dirichlet_energy, extend_corners,
                        laplacian)
from .errors import ConstraintViolationError, DegreeMismatchError
from .graphs import FractalGraph
from .winding import DegreeVector, degree, word_str, wrap_phases


@dataclass(frozen=True)
class CutSpec:
    """One cut: the loop it serves, the vertex split, and the jump.

    The minus copy keeps the cut vertex's id; the plus copy replaces it
    as corner ``plus_corner`` of the graph-level cell ``plus_cell``.
    """

    word: tuple[int, ...]
    cut_vertex: int
    plus_id: int
    jump: int
    plus_cell: int
    plus_corner: int

    def to_json_dict(self):
        return {**vars(self), "word": word_str(self.word)}


def select_cut_vertices(g: FractalGraph, omega: DegreeVector):
    """One cut per nonzero degree entry, in (order, word) order, read off
    the corner table by the rule in the module docstring."""
    if not omega:
        return []
    fractal, sides = g.fractal, g.fractal.sides
    # a cell whose side path is open is no loop: the level-0 cell closes
    # only because its two ends are one vertex
    if omega.max_order > 0 and sides[0, 0] != sides[-1, 1]:
        raise ValueError(f"{fractal.name} degrees live on the single full cycle")
    if g.level < omega.max_order + 1:
        raise ValueError(
            f"graph level {g.level} too coarse for degree of order "
            f"{omega.max_order}; cuts live one level deeper than their loop")
    cuts = []
    for word, jump in sorted(omega.entries.items(), key=lambda t: (len(t[0]), t[0])):
        # side a -> b is opposite the last symbol's corner; the outer loop
        # is cut on its last side, and where that side's ends are one
        # vertex (the ring's), at that vertex: a = b
        if word:
            a, b = sides[(fractal.alphabet.index(word[-1]) + 1) % len(sides)]
        else:
            a, b = sides[-1]
            if fractal.base_corners[0, a] == fractal.base_corners[0, b]:
                a = b
        pad = g.level - len(word) - 1
        sym_a, sym_b = fractal.alphabet[a], fractal.alphabet[b]
        plus_cell = g.pack_word(word + (sym_a,) + (sym_b,) * pad)
        minus_cell = g.pack_word(word + (sym_b,) + (sym_a,) * pad)
        vid = int(g.cell_corners[plus_cell, b])
        assert g.cell_corners[minus_cell, a] == vid
        cuts.append(CutSpec(
            word=word, cut_vertex=vid, plus_id=g.n_vertices + len(cuts),
            jump=jump, plus_cell=plus_cell, plus_corner=int(b)))
    return cuts


class CoveringDomain:
    """One sheet of the covering space: the cut graph plus jump data.

    The plus copy of the k-th cut vertex gets id ``base.n_vertices + k``;
    the minus copy keeps the base id.  ``cell_corners`` is the base table
    with the cut vertex replaced by its plus copy in the one cell on the
    plus side of each cut; the edges are read off that table.  ``rep``
    maps each vertex to its base vertex and ``offset`` is each vertex's
    jump (0 but at the plus copies), so a field that meets the jumps is
    ``x[rep] + offset`` for ``x`` on the base graph.
    """

    def __init__(self, base: FractalGraph, omega: DegreeVector):
        self.base = base
        self.omega = omega
        self.level = base.level
        self.cuts = select_cut_vertices(base, omega)
        self.pinned = int(base.boundary_ids[0])
        self.n_vertices = base.n_vertices + len(self.cuts)
        self.conductance = base.conductance

        corners = base.cell_corners.copy()
        for cut in self.cuts:
            assert corners[cut.plus_cell, cut.plus_corner] == cut.cut_vertex
            corners[cut.plus_cell, cut.plus_corner] = cut.plus_id
        corners.setflags(write=False)
        self.cell_corners = corners
        self.edges = base.fractal.cell_edges(corners)
        minus = np.array([c.cut_vertex for c in self.cuts], dtype=np.int64)
        self.rep = np.concatenate((np.arange(base.n_vertices), minus))
        self.offset = np.zeros(self.n_vertices)
        self.offset[base.n_vertices:] = [c.jump for c in self.cuts]

    check_field = FractalGraph.check_field

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def to_json_dict(self):
        return {
            "kind": self.base.fractal.name,
            "level": self.level,
            "n_vertices": self.n_vertices,
            "pinned": self.pinned,
            "degree": self.omega.to_json_dict(),
            "cuts": [c.to_json_dict() for c in self.cuts],
        }


def covering_domain(g: FractalGraph, omega: DegreeVector) -> CoveringDomain:
    return CoveringDomain(g, omega)


def seed_domain(g: FractalGraph, omega: DegreeVector) -> CoveringDomain:
    """Cut domain of a nonzero ``omega`` at level ``max_order + 1``, the
    coarsest that holds its cuts, for a map on ``g``."""
    # a graph coarser than that fails the level check of select_cut_vertices
    m = min(g.level, omega.max_order + 1)
    return covering_domain(g.fractal.build(m), omega)


@dataclass
class LiftField:
    """Real values on a cut graph satisfying pin and jump constraints."""

    domain: CoveringDomain
    values: np.ndarray

    @property
    def level(self):
        return self.domain.level

    def energy(self) -> float:
        return dirichlet_energy(self.domain, self.values).energy


def minimize_constrained(dom: CoveringDomain) -> LiftField:
    """Unique minimiser of the cut-domain energy under pin and jumps.

    A field that meets the jumps is ``x[dom.rep] + dom.offset`` with ``x``
    on the base graph, so its energy is the base graph's energy of ``x``
    with each plus copy's jump as an offset on the differences along its
    cell's edges.  With ``x`` pinned at vertex 0, the minimiser solves
    L x = r: L is the base graph's Laplacian, factored cell by cell by
    :func:`dirichlet._pinned_factor` (else
    :class:`UncertifiedFactorError`), and r, minus the offset term's
    gradient, is ``laplacian(dom, dom.offset)`` with each copy's entry
    summed onto its base vertex.
    """
    base = dom.base
    rhs = np.bincount(dom.rep, laplacian(dom, dom.offset), base.n_vertices)
    x = np.concatenate(([0.0], _laplacian_factor(base).solve(rhs[1:])))
    return LiftField(domain=dom, values=x[dom.rep] + dom.offset)


def extend_lift(lift: LiftField, n: int) -> LiftField:
    """Harmonically extend a lift from its level up to level ``n``.

    Corner values (a cut copy is the corner on its own side) are extended
    by :func:`dirichlet.extend_corners` and written once into the level-n
    cut domain, whose plus copies sit in the plus-side children of
    plus-side cells; the energy is unchanged.
    """
    if n < lift.level:
        raise ValueError(
            f"cannot extend a level-{lift.level} lift to level {n}")
    vals = lift.values[lift.domain.cell_corners]
    for _ in range(n - lift.level):
        vals = extend_corners(lift.domain.base.fractal, vals)
    dom = covering_domain(lift.domain.base.fractal.build(n), lift.domain.omega)
    values = np.empty(dom.n_vertices)
    values[dom.cell_corners] = vals
    return LiftField(domain=dom, values=values)


def project_to_circle(f: LiftField) -> np.ndarray:
    """Reduce a lift mod 1 to a phase field on the uncut graph.

    Integer jumps collapse, so both copies of every cut vertex land on the
    same circle value; disagreement beyond 1e-10 raises
    :class:`ConstraintViolationError`.
    """
    dom = f.domain
    vals = f.values
    n = dom.base.n_vertices
    gap = vals[n:] - vals[dom.rep[n:]] - dom.offset[n:]
    bad = np.flatnonzero(np.abs(gap) > 1e-10)
    if bad.size:
        k = bad[0]
        raise ConstraintViolationError(
            f"cut pair at vertex {dom.rep[n + k]} disagrees by {gap[k]:.3e} "
            f"after removing the integer jump {dom.offset[n + k]:g}")
    return wrap_phases(vals[:n])


def neumann_check(lift: LiftField):
    """Normal derivatives at the corners of a harmonic lift on its domain.

    The corners v2 and v3 use the boundary flux directly; v1 (the pinned
    corner) is recovered through the discrete divergence identity, summing
    the combined Laplacian over all interior vertices.  All three vanish
    for the constrained minimiser; the ring's one value is at vertex 0.
    """
    dom = lift.domain
    flux = laplacian(dom, lift.values)
    # combine the two copies of each cut vertex
    combined = np.bincount(dom.rep, flux, dom.base.n_vertices)

    if len(dom.base.boundary_ids) == 1:
        return {int(v): float(combined[v]) for v in dom.base.boundary_ids}

    v1, v2, v3 = dom.base.boundary_ids
    dn2 = float(flux[v2])
    dn3 = float(flux[v3])
    dn1 = -math.fsum(np.delete(combined, [v1, v2, v3]).tolist()) - dn2 - dn3
    return {int(v1): dn1, int(v2): dn2, int(v3): dn3}


def circle_harmonic_map(g: FractalGraph, omega: DegreeVector):
    """Build the degree-``omega`` harmonic map on ``g``.

    Minimises the constrained energy on :func:`seed_domain`, extends
    harmonically to the graph level (on the ring this is q*i/2**n exactly)
    and projects mod 1.  Returns ``(phases, lift)``.  The
    projection keeps the requested degree when every step of the lift is
    shorter than a half turn, which a coarse graph need not give, so its
    full-order :func:`degree` is read back; a map of another class
    (``eps:1,13:2`` at level 3 reads ``eps:1,133:1``) raises
    :class:`DegreeMismatchError`.
    """
    if not omega:
        dom = covering_domain(g, omega)
        lift = LiftField(domain=dom, values=np.zeros(dom.n_vertices))
        return np.zeros(g.n_vertices), lift
    lift = extend_lift(minimize_constrained(seed_domain(g, omega)), g.level)
    phases = project_to_circle(lift)
    found = degree(phases, g)
    if found != omega:
        raise DegreeMismatchError(
            f"the harmonic map on the level-{g.level} {g.fractal.name} graph",
            omega, found)
    return phases, lift
