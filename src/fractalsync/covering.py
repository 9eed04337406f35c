"""Fundamental-domain construction of circle-valued harmonic maps.

For a prescribed degree vector, one vertex per nonzero entry is cut in
two and an integer jump is imposed across the pair.  Minimising the
Dirichlet energy over fields satisfying the jumps and a pin at the first
corner, then harmonically extending and reducing mod 1, produces a phase
field whose winding along each basis loop is exactly the prescribed
degree.

A cut vertex for the loop around cell ``w`` is a midpoint of the next
subdivision lying on that loop but on no coarser loop.  Its two incident
cells sit inside the cell ``w``; a clockwise traversal of the loop passes
through the "+" copy just before the cut and continues from the "-" copy,
so the lift jumps up by the prescribed winding across the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as spla

from .dirichlet import extend_cells, weighted_laplacian
from .errors import ConstraintViolationError, DegreeMismatchError
from .graphs import (FractalGraph, Itinerary, build_graph, canonical_itinerary,
                     cell_edges)
from .winding import DegreeVector, degree, word_str

# For each candidate midpoint type of cell w, the itinerary names of the
# two copies: the "+" side is the cell entered last by a clockwise
# traversal before reaching the cut.  For the outer loop cut at z this
# gives z+ = v_{3~1}, z- = v_{1~3}.
_CUT_SIDES = {
    "z": ((3, 1), (1, 3)),  # (plus: word+3 tail 1, minus: word+1 tail 3)
    "x": ((1, 2), (2, 1)),
    "y": ((2, 3), (3, 2)),
}
_CANDIDATE_ORDER = ("z", "x", "y")


@dataclass(frozen=True)
class CutSpec:
    """One cut: the loop it serves, the vertex split, and the jump."""

    word: tuple[int, ...]
    cut_vertex: int
    minus_id: int
    plus_id: int
    jump: int
    plus_itinerary: Itinerary
    minus_itinerary: Itinerary

    def to_json_dict(self):
        return {
            "word": word_str(self.word),
            "cut_vertex": self.cut_vertex,
            "minus_id": self.minus_id,
            "plus_id": self.plus_id,
            "jump": self.jump,
        }


def _on_loop(name: Itinerary, prefix_len: int) -> bool:
    """Does the vertex named ``name`` lie on the boundary of the cell given
    by the first ``prefix_len`` symbols of its own address?"""
    rest = set(name.word[prefix_len:]) | {name.tail}
    return len(rest) <= 2


def _lies_on_coarser_loop(names, order) -> bool:
    """True if the vertex lies on the boundary of any cell of order < order.

    Only prefixes of the vertex's own addresses can contain it, so it is
    enough to scan those.
    """
    for name in names:
        for ell in range(order):
            if _on_loop(name, ell):
                return True
    return False


def select_cut_vertices(g: FractalGraph, omega: DegreeVector):
    """Choose one cut per nonzero degree entry, deterministically.

    Candidates on the loop of cell ``w`` are tested in the fixed order
    (F_w(z), F_w(x), F_w(y)); the first one on no coarser loop wins.
    """
    if not omega:
        return []
    if g.kind == "ring":
        if omega.max_order != 0:
            raise ValueError("ring degrees live on the single full cycle")
        q = omega.entries[()]
        return [CutSpec(word=(), cut_vertex=0, minus_id=0,
                        plus_id=g.n_vertices, jump=q,
                        plus_itinerary=Itinerary((), 1),
                        minus_itinerary=Itinerary((), 0))]
    if g.level < omega.max_order + 1:
        raise ValueError(
            f"graph level {g.level} too coarse for degree of order "
            f"{omega.max_order}; cuts live one level deeper than their loop")
    cuts = []
    used = set()
    for word, jump in sorted(omega.entries.items(), key=lambda t: (len(t[0]), t[0])):
        chosen = None
        for kind in _CANDIDATE_ORDER:
            (ps, pt), (ms, mt) = _CUT_SIDES[kind]
            # keep the raw (side-specific) names: canonicalising would merge
            # them and lose which cell sits on which side of the cut
            plus_name = Itinerary(word + (ps,), pt)
            minus_name = Itinerary(word + (ms,), mt)
            if _lies_on_coarser_loop((plus_name, minus_name), len(word)):
                continue
            chosen = (plus_name, minus_name)
            break
        if chosen is None:
            raise RuntimeError(
                f"no admissible cut vertex on loop {word_str(word)}")
        plus_name, minus_name = chosen
        vid = g.id_of(canonical_itinerary(plus_name.word, plus_name.tail))
        assert g.id_of(canonical_itinerary(minus_name.word, minus_name.tail)) == vid
        assert vid not in used, "cut vertices must be pairwise distinct"
        used.add(vid)
        cuts.append(CutSpec(
            word=word, cut_vertex=vid, minus_id=vid,
            plus_id=g.n_vertices + len(cuts), jump=jump,
            plus_itinerary=plus_name, minus_itinerary=minus_name))
    return cuts


class CoveringDomain:
    """One sheet of the covering space: the cut graph plus jump data.

    The plus copy of the k-th cut vertex gets id ``base.n_vertices + k``;
    the minus copy keeps the base id.  ``cell_corners`` is the base table
    with the cut vertex replaced by its plus copy in the one cell on the
    plus side of each cut; the edges are read off that table.
    """

    def __init__(self, base: FractalGraph, omega: DegreeVector):
        self.base = base
        self.omega = omega
        self.level = base.level
        self.cuts = select_cut_vertices(base, omega)
        self.pinned = int(base.boundary_ids[0])
        self.n_vertices = base.n_vertices + len(self.cuts)
        self.conductance = base.conductance

        # the plus side of each cut is exactly one cell at any finer level,
        # in which the cut vertex is the corner named by the plus tail
        corners = base.cell_corners.copy()
        for cut in self.cuts:
            it = cut.plus_itinerary
            cell = base.pack_word(it.symbols(base.level))
            corner = base.alphabet.index(it.tail)
            assert corners[cell, corner] == cut.cut_vertex
            corners[cell, corner] = cut.plus_id
        corners.setflags(write=False)
        self.cell_corners = corners
        self.edges = cell_edges(corners)
        self.edge_mult = np.ones(len(self.edges), dtype=np.int64)
        self.edge_weights = self.conductance * np.ones(len(self.edges))
        self._assert_connected()

    @property
    def kind(self):
        return self.base.kind

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def _assert_connected(self):
        n = self.n_vertices
        i, j = self.edges[:, 0], self.edges[:, 1]
        A = sparse.coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
        ncomp = csgraph.connected_components(A, directed=False, return_labels=False)
        assert ncomp == 1, "cut graph must stay connected"

    def laplacian_matrix(self) -> sparse.csr_matrix:
        return weighted_laplacian(self.edges, self.edge_weights,
                                  self.n_vertices)

    def energy(self, values) -> float:
        values = np.asarray(values, dtype=float)
        d = values[self.edges[:, 1]] - values[self.edges[:, 0]]
        return math.fsum((self.edge_weights * d * d / 2.0).tolist())

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "level": self.level,
            "n_vertices": self.n_vertices,
            "pinned": self.pinned,
            "degree": self.omega.to_json_dict(),
            "cuts": [c.to_json_dict() for c in self.cuts],
            "edges": self.edges,
        }


def covering_domain(g: FractalGraph, omega: DegreeVector) -> CoveringDomain:
    return CoveringDomain(g, omega)


@dataclass
class LiftField:
    """Real values on a cut graph satisfying pin and jump constraints."""

    domain: CoveringDomain
    values: np.ndarray

    @property
    def level(self):
        return self.domain.level

    def energy(self) -> float:
        return self.domain.energy(self.values)


def _substitution(dom: CoveringDomain):
    """Selection matrix P and offset b with f = P g + b encoding the
    constraints f(pin) = 0 and f(plus) = f(minus) + jump exactly."""
    n = dom.n_vertices
    eliminated = {dom.pinned} | {c.plus_id for c in dom.cuts}
    free = [v for v in range(n) if v not in eliminated]
    col = {v: k for k, v in enumerate(free)}
    rows, cols, data = [], [], []
    b = np.zeros(n)
    for v in free:
        rows.append(v)
        cols.append(col[v])
        data.append(1.0)
    for c in dom.cuts:
        b[c.plus_id] = float(c.jump)
        if c.minus_id != dom.pinned:
            rows.append(c.plus_id)
            cols.append(col[c.minus_id])
            data.append(1.0)
    P = sparse.coo_matrix((data, (rows, cols)), shape=(n, len(free))).tocsr()
    return P, b, free


def minimize_constrained(dom: CoveringDomain, m=None, method="direct") -> LiftField:
    """Unique minimiser of the cut-graph energy under pin and jumps.

    Constraints are eliminated by substitution, leaving a positive
    definite system solved directly (``method="direct"``) or by conjugate
    gradients at 1e-12 residual (``method="cg"``, kept as an independent
    cross-check path).
    """
    if m is not None and m != dom.level:
        if m > dom.level:
            raise ValueError(f"domain built at level {dom.level} < requested {m}")
        dom = covering_domain(build_graph(dom.kind, m), dom.omega)
    L = dom.laplacian_matrix()
    P, b, _ = _substitution(dom)
    A = (P.T @ L @ P).tocsc()
    rhs = -P.T @ (L @ b)
    if method == "direct":
        g = spla.spsolve(A, rhs)
    elif method == "cg":
        g, info = spla.cg(A, rhs, rtol=1e-12, atol=0.0, maxiter=50 * A.shape[0])
        if info != 0:
            raise RuntimeError(f"conjugate gradient did not converge (info={info})")
    else:
        raise ValueError(f"unknown method {method!r}")
    f = P @ g + b
    f[dom.pinned] = 0.0
    return LiftField(domain=dom, values=f)


def extend_lift(dom: CoveringDomain, f_m: LiftField, n: int) -> LiftField:
    """Harmonically extend a lift from its level up to level ``n``.

    Each step applies the 1/5-2/5 rule inside every cell, with cut copies
    used as the corner values on their own side; the energy is unchanged
    at every step.
    """
    if n > dom.level:
        raise ValueError(f"target level {n} exceeds domain level {dom.level}")
    cur = f_m
    while cur.level < n:
        cur = _extend_lift_once(cur)
    return cur


def _extend_lift_once(cur: LiftField) -> LiftField:
    dom_m = cur.domain
    if dom_m.kind == "ring":
        raise ValueError("ring lifts are extended by the midpoint rule in "
                         "the generic structure module")
    dom_next = covering_domain(
        build_graph(dom_m.kind, dom_m.level + 1), dom_m.omega)
    # plus-side children of a plus-side cell keep its plus copies as corners
    out = extend_cells(cur.values, dom_m.cell_corners, dom_next.cell_corners,
                       dom_next.n_vertices)
    return LiftField(domain=dom_next, values=out)


def project_to_circle(f: LiftField) -> np.ndarray:
    """Reduce a lift mod 1 to a phase field on the uncut graph.

    Integer jumps collapse, so both copies of every cut vertex land on the
    same circle value; disagreement beyond 1e-10 raises
    :class:`ConstraintViolationError`.
    """
    dom = f.domain
    vals = f.values
    for c in dom.cuts:
        gap = vals[c.plus_id] - vals[c.minus_id] - c.jump
        if abs(gap) > 1e-10:
            raise ConstraintViolationError(
                f"cut pair at vertex {c.cut_vertex} disagrees by {gap:.3e} "
                f"after removing the integer jump {c.jump}")
    phases = np.mod(vals[:dom.base.n_vertices], 1.0)
    phases[phases >= 1.0] -= 1.0
    return phases


def neumann_check(dom: CoveringDomain, f: LiftField):
    """Normal derivatives at the three corners of a harmonic lift.

    The corners v2 and v3 use the boundary flux directly; v1 (the pinned
    corner) is recovered through the discrete divergence identity, summing
    the combined Laplacian over all interior vertices.  All three vanish
    for the constrained minimiser.
    """
    vals = f.values
    i, j = dom.edges[:, 0], dom.edges[:, 1]
    d = (vals[j] - vals[i]) * dom.edge_weights
    n = dom.n_vertices
    flux = np.bincount(i, d, n) - np.bincount(j, d, n)

    # combine the two copies of each cut vertex
    combined = flux[:dom.base.n_vertices].copy()
    for c in dom.cuts:
        combined[c.minus_id] += flux[c.plus_id]

    if dom.kind == "ring":
        return {int(dom.base.boundary_ids[0]): float(combined[dom.base.boundary_ids[0]])}

    v1, v2, v3 = dom.base.boundary_ids
    dn2 = float(flux[v2])
    dn3 = float(flux[v3])
    dn1 = -math.fsum(np.delete(combined, [v1, v2, v3]).tolist()) - dn2 - dn3
    return {int(v1): dn1, int(v2): dn2, int(v3): dn3}


def circle_harmonic_map(g: FractalGraph, omega: DegreeVector):
    """Build the degree-``omega`` harmonic map on ``g``.

    Minimises the constrained energy at the coarsest admissible level,
    extends harmonically to the graph level, and projects mod 1.  Returns
    ``(phases, lift)``.  The projection keeps the requested degree when
    every step of the lift is shorter than a half turn, which a coarse
    graph need not give, so its full-order :func:`degree` is read back; a
    map of another class (``eps:1,13:2`` at level 3 reads ``eps:1,133:1``)
    raises :class:`DegreeMismatchError`.
    """
    dom = covering_domain(g, omega)
    if not omega:
        lift = LiftField(domain=dom, values=np.zeros(dom.n_vertices))
        return np.zeros(g.n_vertices), lift
    if g.kind == "ring":
        lift = minimize_constrained(dom)
    else:
        lift0 = minimize_constrained(dom, m=omega.max_order + 1)
        lift = extend_lift(dom, lift0, g.level)
    phases = project_to_circle(lift)
    found = degree(phases, g)
    if found != omega:
        raise DegreeMismatchError(
            f"the harmonic map on the level-{g.level} {g.kind} graph", omega, found)
    return phases, lift
