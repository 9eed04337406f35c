import colorsys
import csv
import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

V0 = np.array([[0.0, 0.0], [0.5, np.sqrt(3.0) / 2.0], [1.0, 0.0]])


def contraction(i, p):
    """F_i(p) = (p - v_i)/2 + v_i, independent of the package's machinery."""
    return (np.asarray(p, dtype=float) - V0[i - 1]) / 2.0 + V0[i - 1]


def apply_word(word, p):
    """F_w = F_{w1} o F_{w2} o ... o F_{wn} applied to a point."""
    p = np.asarray(p, dtype=float)
    for s in reversed(word):
        p = contraction(s, p)
    return p


def enumerate_gasket(n):
    """Brute-force oracle: cells, vertices (deduplicated by coordinates at
    1e-12) and edges of the level-n graph, with no itinerary machinery."""
    points = {}

    def pid(p):
        key = (round(p[0], 12), round(p[1], 12))
        return points.setdefault(key, len(points))

    cells = []
    edges = set()
    for w in product((1, 2, 3), repeat=n):
        ids = [pid(apply_word(w, V0[k])) for k in range(3)]
        cells.append(tuple(ids))
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edges.add(frozenset((ids[a], ids[b])))
    coords = np.zeros((len(points), 2))
    for (x, y), k in points.items():
        coords[k] = (x, y)
    return coords, cells, edges


# build-graph's structure.json of each record, written out by hand
STRUCTURE_JSON = {
    "sg": {"name": "sg", "num_maps": 3, "contraction_ratios": [0.5, 0.5, 0.5],
           "weights": [0.6, 0.6, 0.6], "boundary_size": 3},
    "ring": {"name": "ring", "num_maps": 2, "contraction_ratios": [0.5, 0.5],
             "weights": [0.5, 0.5], "boundary_size": 1},
}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250810)


def rk4_reference(g, u0, cfg=None, step=None):
    """Plain RK4 to ``cfg.tol``: the flow's loop, block steps and block
    energy monitor with no Newton finish, the oracle for every faster
    solver.  ``step`` fixes the RK4 step (halved only by the monitor);
    None reads ``default_step`` at each block's start, as the flow does."""
    from fractalsync import FlowConfig, km_rhs
    from fractalsync.kuramoto import (CHECK_EVERY, MAX_HALVINGS, _finalize,
                                      _km_energy_fast, default_step)

    cfg = cfg or FlowConfig()
    u = np.array(u0, dtype=float)
    i, j, c = g.edges[:, 0], g.edges[:, 1], g.conductance
    h = step if step is not None else default_step(g, u)
    t, steps, halvings = 0.0, 0, 0
    res = float(np.abs(km_rhs(g, u)).max())
    energy = _km_energy_fast(u, i, j, c)
    while res >= cfg.tol and t < cfg.max_time:
        block = u.copy()
        if step is None:
            h = default_step(g, u) * 0.5 ** halvings
        for _ in range(CHECK_EVERY):
            k1 = km_rhs(g, u)
            k2 = km_rhs(g, u + 0.5 * h * k1)
            k3 = km_rhs(g, u + 0.5 * h * k2)
            k4 = km_rhs(g, u + h * k3)
            u += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        new_energy = _km_energy_fast(u, i, j, c)
        if new_energy > energy + 1e-13 * max(1.0, abs(energy)):
            u, h, halvings = block, 0.5 * h, halvings + 1
            if halvings > MAX_HALVINGS:
                break
            continue
        energy, steps, t = new_energy, steps + CHECK_EVERY, t + CHECK_EVERY * h
        res = float(np.abs(km_rhs(g, u)).max())
    return _finalize(g, u, res, steps, t, h, res < cfg.tol, halvings)


def positive_definite_factor(H):
    """Sparse LU of symmetric ``H`` if it certifies ``H`` positive definite:
    SuperLU, the oracle for the package's cell-by-cell factor.

    With diagonal pivots and one symmetric permutation (``perm_r ==
    perm_c``) the factor is P H P^T = L U with U = D L^T, so by Sylvester's
    law of inertia H is positive definite exactly when every pivot on U's
    diagonal is positive.  Returns None otherwise.
    """
    from scipy.sparse import linalg as spla

    try:
        lu = spla.splu(H, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular
        return None
    if np.array_equal(lu.perm_r, lu.perm_c) and bool(np.all(lu.U.diagonal() > 0)):
        return lu
    return None


def weighted_laplacian(edges, w, n):
    """Laplacian sum_e w_e (d_e d_e^T) of an edge list, as a scipy sparse
    (n, n) CSR matrix: the assembled oracle for the package's matrix-free
    Laplacian."""
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


def mmd_solve_free(L, free, f):
    """Fill ``f[free]`` so that ``(L f)[free] = 0``, the rest of ``f``
    held, with ``free`` a boolean mask: SuperLU in its own minimum-degree
    ordering of A + A^T, plus one refinement step, the oracle for the
    package's solve in the hierarchy's elimination order."""
    from scipy.sparse import linalg as spla

    rows = L[free]
    A = rows[:, free].tocsc()
    rhs = -rows[:, ~free] @ f[~free]
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
    sol = lu.solve(rhs)
    f[free] = sol + lu.solve(rhs - A @ sol)


def hessian_weights(g, u):
    """The package's cosine edge weights of the Hessian at ``u``, one per
    row of ``g.edges``."""
    from fractalsync.kuramoto import _hessian_weights

    return _hessian_weights(u, *g.edges.T, g.conductance)


def hessian_matrix(g, u):
    """Hessian of the energy at ``u``, the Laplacian with cosine edge
    weights, as a scipy sparse CSR matrix: the assembled oracle for the
    package's cell factor, dense through ``.toarray()``."""
    u = g.check_field(u)
    return weighted_laplacian(g.edges, hessian_weights(g, u), g.n_vertices)


def spy_handoff(mp):
    """Record the flow's Newton runs and wall energies, in call order.

    Wraps whatever ``kuramoto._newton`` is when called, so a test may
    spoil Newton first.  Each run appends ``("newton", (energy, residual)
    of its start, its start's cell offsets or None, result)``, each
    :func:`cell_wall_energy` call ``("wall", W)``."""
    from fractalsync import kuramoto as km

    events = []
    newton, wall = km._newton, km.cell_wall_energy

    def spy_newton(g, u, cfg):
        i, j = g.edges[:, 0], g.edges[:, 1]
        start = (km._km_energy_fast(u, i, j, g.conductance),
                 float(np.abs(km.km_rhs(g, u)).max()))
        k = np.round(u[j] - u[i])
        out = newton(g, u, cfg)
        events.append(("newton", start,
                       k if np.abs(u[j] - u[i] - k).max() < 0.25 else None, out))
        return out

    def spy_wall(g, u):
        events.append(("wall", wall(g, u)))
        return events[-1][1]

    mp.setattr(km, "_newton", spy_newton)
    mp.setattr(km, "cell_wall_energy", spy_wall)
    return events


def check_energy_handoff(rep, events):
    """A ``"flow+newton"`` end is the Newton run that set the last
    wall energy W, and its block is the first at or after that run's block
    below W; returns that run's event."""
    from fractalsync import wrap_phases

    at = max(k for k, ev in enumerate(events) if ev[0] == "wall")
    wall = events[at][1]
    anchor = events[at - 1]
    assert anchor[0] == "newton" and anchor[2] is not None
    rows = [(e, r) for _, e, r in rep.trajectory[:-1]]
    first = rows.index(anchor[1])
    e_end = rep.trajectory[-1][1]
    assert e_end <= rows[-1][0] < wall
    assert all(e >= wall for e, _ in rows[first:-1])
    np.testing.assert_array_equal(rep.field, wrap_phases(anchor[3][0]))
    assert rep.newton_steps == anchor[3][2]
    return anchor


# -- the digit-loop graph construction the refinement replaced ---------------


def _reference_sg_corner_keys(n):
    """(3**n, 3) keys of the canonical names of every cell corner.

    Corner i of cell w is named w~i, whose padded key is 3w + i.  Written
    as u s i^t with s != i, the same vertex is also u i s^t (the corner of
    the neighbouring cell); the key is the smaller of the two.
    """
    raw = 3 * np.arange(3 ** n, dtype=np.int64)[:, None] + np.arange(3)
    tail = raw % 3
    run = np.ones_like(raw)  # 3**t for the run of tail digits ending raw
    rest = raw.copy()
    in_run = np.ones(raw.shape, dtype=bool)
    for _ in range(n + 1):
        in_run &= rest % 3 == tail
        run[in_run] *= 3
        rest //= 3
    head = raw // run  # u s
    s = head % 3
    other = (head - s + tail) * run + s * (run - 1) // 2
    return np.where(s > tail, other, raw)


def reference_birth(keys, base, n):
    """Each vertex's birth level read off its level-n key: a vertex of
    level m keeps its canonical name at every finer level, so its key ends
    in a run of n - m + 1 equal symbols, and its birth is the least such
    m."""
    birth = np.full(len(keys), n, dtype=np.int8)
    for m in range(n - 1, -1, -1):
        span = base ** (n - m + 1)
        run = (span - 1) // (base - 1)  # the digit 1 repeated
        birth[keys % span == keys % base * run] = m
    return birth


def reference_graph(kind, n):
    """The level-n graph's arrays built digit by digit, O(n N): every
    corner key canonicalised over all its symbols and deduplicated by
    ``np.unique`` (the ring's in closed form), every point folded from
    all its symbols innermost first, every birth read off its key.  A
    dict of ``keys``, ``birth``, ``cell_corners``, ``edges``, ``coords``,
    ``boundary_ids`` and ``conductance``."""
    if kind == "sg":
        keys, inverse = np.unique(_reference_sg_corner_keys(n).ravel(),
                                  return_inverse=True)
        corners = inverse.reshape(-1, 3)
        coords = V0[keys % 3]
        for p in range(1, n + 1):
            coords = (coords + V0[keys // 3 ** p % 3]) / 2.0
        boundary = tuple(int(i) for i in np.searchsorted(
            keys, np.arange(3) * ((3 ** (n + 1) - 1) // 2)))
        sides, conductance = [[0, 1], [1, 2], [2, 0]], (5 / 3) ** n
    else:
        nv = 2 ** n
        coords = np.zeros((nv, 2))
        coords[:, 0] = np.arange(nv) / nv
        idx = np.arange(nv, dtype=np.int64)
        corners = np.stack([idx, (idx + 1) % nv], axis=1)
        # the limit-from-below expansion of i * 2**-n: ~0 for vertex 0,
        # the n digits of i - 1 then ~1 otherwise
        keys = np.maximum(2 * idx - 1, 0)
        boundary = (0,)
        sides, conductance = [[0, 1]], 2.0 ** n
    birth = reference_birth(keys, {"sg": 3, "ring": 2}[kind], n)
    return {"keys": keys, "birth": birth, "cell_corners": corners,
            "edges": corners[:, sides].reshape(-1, 2), "coords": coords,
            "boundary_ids": boundary, "conductance": conductance}


# -- the vertex-form extension the corner-value kernel replaced ---------------


def extend_harmonic_once(g_m, f):
    """A field extended one level by the 1/5-2/5 (ring: midpoint) rule, as
    ``(g_next, f_next)``: ``extend_corners`` of its cells' corner values,
    written to the next level's vertices."""
    from fractalsync import extend_corners

    f = g_m.check_field(f)
    g_next = g_m.fractal.build(g_m.level + 1)
    f_next = np.empty(g_next.n_vertices)
    f_next[g_next.cell_corners] = extend_corners(g_m.fractal,
                                                 f[g_m.cell_corners])
    return g_next, f_next


def sg_midpoints(a, b, c):
    """Midpoint values (x, y, z) of a gasket cell with corner values
    (a, b, c), read off the children that ``extend_corners`` returns."""
    from fractalsync import extend_corners
    from fractalsync.graphs import SG

    children = extend_corners(SG, np.array([[a, b, c]], dtype=float))
    return tuple(SG.cell_nodes(children)[0, 3:].tolist())


def reference_extend_cells(values, corners, fine_corners, n_fine):
    """The 1/5-2/5 rule in every cell at once, written to the level-(m+1)
    vertices: ``values[corners]`` are the corner values (a, b, c) of each
    level-m cell, and each midpoint is 2/5 of the two corners it lies
    between plus 1/5 of the third, summed corner by corner."""
    from fractalsync.graphs import SG

    a, b, c = values[corners].T
    nodes = SG.cell_nodes(fine_corners)
    out = np.empty(n_fine)
    out[nodes[:, :3]] = values[corners]
    out[nodes[:, 3]] = a * 0.4 + b * 0.4 + c * 0.2   # x, between a and b
    out[nodes[:, 4]] = a * 0.2 + b * 0.4 + c * 0.4   # y, between b and c
    out[nodes[:, 5]] = a * 0.4 + b * 0.2 + c * 0.4   # z, between c and a
    return out


def reference_solve_dirichlet(g, phi):
    """Gasket Dirichlet solution by extension, one vertex field per level
    from the level-0 graph."""
    cur_g = g.fractal.build(0)
    cur = np.array(phi, dtype=float)
    for m in range(g.level):
        nxt = g.fractal.build(m + 1)
        cur = reference_extend_cells(cur, cur_g.cell_corners,
                                     nxt.cell_corners, nxt.n_vertices)
        cur_g = nxt
    return cur


def reference_holder_ratio(g, f, beta=None):
    """``holder_ratio`` by brute force over the full square of vertex
    pairs, one row at a time: every ordered pair of distinct points."""
    f = np.asarray(f, dtype=float)
    if beta is None:
        beta = math.log(1 / g.fractal.r) / (2.0 * math.log(2.0))
    pts = g.coords
    best = 0.0
    for i in range(g.n_vertices):
        dx = pts[i, 0] - pts[:, 0]
        dy = pts[i, 1] - pts[:, 1]
        d2 = dx * dx + dy * dy
        far = d2 > 0.0
        ratio = np.abs(f[i] - f[far]) / d2[far] ** (beta / 2.0)
        best = max(best, float(ratio.max(initial=0.0)))
    return best


def reference_extend_lift(lift, n):
    """A gasket lift extended one level at a time, through the cut domain
    of every level in between."""
    from fractalsync import LiftField, covering_domain

    while lift.level < n:
        dom = lift.domain
        nxt = covering_domain(dom.base.fractal.build(dom.level + 1), dom.omega)
        lift = LiftField(domain=nxt, values=reference_extend_cells(
            lift.values, dom.cell_corners, nxt.cell_corners, nxt.n_vertices))
    return lift


# -- the itinerary objects, the word-keyed cell view and the traced loops ----
# -- that the vertex keys, the corner table and winding.degree replaced ------


@dataclass(frozen=True, slots=True)
class Itinerary:
    """Symbolic vertex address: finite word plus repeated tail symbol."""

    word: tuple[int, ...]
    tail: int

    def __str__(self):
        return "".join(str(s) for s in self.word) + "~" + str(self.tail)

    def symbols(self, length):
        """First ``length`` symbols of the infinite address string."""
        pad = length - len(self.word)
        return self.word + (self.tail,) * pad


def canonical_itinerary(word, tail) -> Itinerary:
    """Reduce an address to canonical form.

    Trailing tail symbols are absorbed into the tail; of the two names of
    a shared vertex (which differ by swapping the last word symbol with
    the tail) the lexicographically smaller is kept, so a canonical word
    is either empty or ends in a symbol strictly below the tail.
    """
    w = list(word)
    while w and w[-1] == tail:
        w.pop()
    if w and w[-1] > tail:
        w[-1], tail = tail, w[-1]
    return Itinerary(tuple(w), tail)


def reference_itinerary(g, i) -> Itinerary:
    """Canonical itinerary of vertex ``i``, decoded from its key."""
    alphabet = g.fractal.alphabet
    key = int(g.keys[i])
    syms = []
    for _ in range(g.level + 1):
        key, r = divmod(key, len(alphabet))
        syms.append(alphabet[r])
    syms.reverse()
    tail = syms[-1]
    while syms and syms[-1] == tail:
        syms.pop()
    return Itinerary(tuple(syms), tail)


def reference_id_of(g, itinerary) -> int:
    """Vertex id of a canonical itinerary."""
    it = itinerary
    padded = it.symbols(g.level + 1)
    if (len(it.word) <= g.level
            and set(padded) <= set(g.fractal.alphabet)
            and canonical_itinerary(it.word, it.tail) == it):
        key = g.pack_word(padded)
        pos = int(np.searchsorted(g.keys, key))
        if pos < len(g.keys) and g.keys[pos] == key:
            return pos
    raise KeyError(f"no vertex {itinerary} at level {g.level}")


def reference_cells(g):
    """Word-tuple -> corner-id-tuple view of the cell table."""
    return dict(zip(map(tuple, g.word_symbols(np.arange(len(g.cell_corners))).tolist()),
                    map(tuple, g.cell_corners.tolist())))


@dataclass(frozen=True, eq=False)
class Loop:
    """Closed vertex cycle tracing one cell boundary clockwise."""

    word: tuple[int, ...]
    vertex_cycle: np.ndarray  # first id == last id

    def __post_init__(self):
        self.vertex_cycle.setflags(write=False)

    def reversed(self) -> "Loop":
        return Loop(self.word, self.vertex_cycle[::-1].copy())


def trace_loop(g, word) -> Loop:
    """Clockwise cycle of all level-n vertices on the boundary of cell ``word``.

    The side from corner a to corner b of cell w passes, in order, through
    corner a of the cells w d for d over {a, b}**(n - |w|), each read off
    the corner table.
    """
    word = tuple(word)
    if g.fractal.name == "ring":
        if len(word) != 0:
            raise ValueError("the ring has a single basis loop (the full cycle)")
        cyc = np.concatenate([np.arange(g.n_vertices), [0]])
        return Loop(word, cyc.astype(np.int64))
    if len(word) > g.level:
        raise ValueError(f"loop word longer than graph level {g.level}")
    m = g.level - len(word)
    place = 3 ** np.arange(m - 1, -1, -1)
    to_b = np.arange(2 ** m)[:, None] >> np.arange(m - 1, -1, -1) & 1
    first = g.pack_word(word) * 3 ** m
    # clockwise corner order is v1 -> v2 -> v3; v1's image is leftmost
    sides = [g.cell_corners[first + np.where(to_b, b, a) @ place, a]
             for a, b in ((0, 1), (1, 2), (2, 0))]
    return Loop(word, np.concatenate(sides + [sides[0][:1]]))


def loop_basis(g, max_order: int):
    """Loops for every word of length <= max_order, ordered by (length, word)."""
    if max_order > g.level:
        raise ValueError(f"max_order {max_order} exceeds graph level {g.level}")
    if g.fractal.name == "ring":
        if max_order != 0:
            raise ValueError("ring loop basis has only order 0")
        return [trace_loop(g, ())]
    loops = []
    for ell in range(max_order + 1):
        for w in product(g.fractal.alphabet, repeat=ell):
            loops.append(trace_loop(g, w))
    return loops


def lift_along_loop(f, loop: Loop) -> np.ndarray:
    """Real lift of the phase field along the loop.

    Each step takes the unique representative of the phase difference in
    (-1/2, 1/2]; a step of circle distance >= 1/2 is ambiguous at this
    resolution and raises :class:`UnresolvedWindingError`.
    """
    from fractalsync.winding import _steps

    f = np.asarray(f, dtype=float)
    cyc = loop.vertex_cycle
    r = _steps(f, cyc[:-1], cyc[1:])
    lift = np.empty(len(cyc))
    lift[0] = f[cyc[0]]
    np.cumsum(r, out=lift[1:])
    lift[1:] += lift[0]
    return lift


def loop_winding(f, loop: Loop) -> int:
    from fractalsync.winding import _closed

    lift = lift_along_loop(f, loop)
    return _closed(lift[-1] - lift[0], loop.word)


# -- the itinerary scan the corner-table cut rule replaced --------------------

# For each candidate midpoint of cell w, the names of its two copies: the
# "+" side is the cell entered last by a clockwise traversal before the cut.
_CUT_SIDES = {
    "z": ((3, 1), (1, 3)),  # (plus: word+3 tail 1, minus: word+1 tail 3)
    "x": ((1, 2), (2, 1)),
    "y": ((2, 3), (3, 2)),
}


def _lies_on_coarser_loop(names, order):
    """Does a vertex with these names lie on the boundary of a cell of
    order < ``order``?  Only prefixes of its own names can contain it."""
    return any(len(set(name.word[ell:]) | {name.tail}) <= 2
               for name in names for ell in range(order))


def reference_cut_vertices(g, omega):
    """Gasket cuts found by scanning symbolic itineraries: the candidates
    F_w(z), F_w(x), F_w(y) in that order, the first on no coarser loop.

    Returns ``(word, cut_vertex, plus_cell, plus_corner)`` per cut, in
    (order, word) order.
    """
    out = []
    for word in sorted(omega.entries, key=lambda w: (len(w), w)):
        for kind in ("z", "x", "y"):
            (ps, pt), (ms, mt) = _CUT_SIDES[kind]
            plus = Itinerary(word + (ps,), pt)
            minus = Itinerary(word + (ms,), mt)
            if not _lies_on_coarser_loop((plus, minus), len(word)):
                break
        else:
            raise AssertionError(f"no admissible cut vertex on loop {word}")
        vid = reference_id_of(g, canonical_itinerary(plus.word, plus.tail))
        assert reference_id_of(
            g, canonical_itinerary(minus.word, minus.tail)) == vid
        out.append((word, vid, g.pack_word(plus.symbols(g.level)),
                    g.fractal.alphabet.index(plus.tail)))
    return out


def _substitution(dom):
    """Selection matrix P and offset b with f = P g + b encoding the
    constraints f(pin) = 0 and f(plus) = f(minus) + jump exactly."""
    from scipy import sparse

    n = dom.n_vertices
    plus = np.array([c.plus_id for c in dom.cuts], dtype=np.int64)
    free = np.ones(n, dtype=bool)
    free[dom.pinned] = False
    free[plus] = False
    n_free = np.count_nonzero(free)
    col = np.full(n, -1)
    col[free] = np.arange(n_free)
    # each vertex takes the value of its free representative, if it has one
    rep = np.arange(n)
    rep[plus] = [c.cut_vertex for c in dom.cuts]
    rows = np.flatnonzero(col[rep] >= 0)
    P = sparse.csr_matrix((np.ones(len(rows)), (rows, col[rep[rows]])),
                          shape=(n, n_free))
    b = np.zeros(n)
    b[plus] = [float(c.jump) for c in dom.cuts]
    return P, b


def cg_reference(dom):
    """The constrained minimiser by conjugate gradients, the oracle for
    ``minimize_constrained``'s direct solve.  CG to a 1e-12 relative
    residual leaves up to cond(A) times that in the answer (1.3e-12 at
    gasket 5, ``13:-1,3:2,33:-2``); a second CG solve on the first one's
    residual takes the answer to rounding level."""
    from scipy.sparse import linalg as spla

    from fractalsync import LiftField

    L = laplacian_matrix(dom)
    P, b = _substitution(dom)
    A = (P.T @ L @ P).tocsc()
    rhs = -P.T @ (L @ b)
    sol = np.zeros(A.shape[0])
    for _ in range(2):
        step, info = spla.cg(A, rhs - A @ sol, rtol=1e-12, atol=0.0,
                             maxiter=50 * A.shape[0])
        assert info == 0, f"conjugate gradient did not converge (info={info})"
        sol += step
    f = P @ sol + b
    f[dom.pinned] = 0.0
    return LiftField(domain=dom, values=f)


# -- the level-1 ring as first stored, kept as an oracle -----------------------

def ring1_one_edge(u, c):
    """The level-1 ring's quantities at ``u`` from its first store, where
    i + 1 and i - 1 mod 2 coincide in the one edge (0, 1) of weight 2c,
    keyed by the package function each must match."""
    from fractalsync.kuramoto import TWO_PI, _edge_energies, _edge_sine_sum
    from fractalsync.winding import _wrapped_diff

    u = np.asarray(u, dtype=float)
    edges = np.array([[0, 1]])
    i, j = edges[:, 0], edges[:, 1]
    w = np.array([2.0 * c])
    d = (u[j] - u[i]) * w
    cos_w = w * np.cos(TWO_PI * _wrapped_diff(u, i, j))
    return {
        "km_energy": math.fsum(_edge_energies(u, i, j, w).tolist()),
        "km_rhs": _edge_sine_sum(u, i, j, w, 2),
        "hessian_matrix": weighted_laplacian(edges, cos_w, 2).toarray(),
        "laplacian_matrix": weighted_laplacian(edges, w, 2).toarray(),
        "laplacian": np.bincount(i, d, 2) - np.bincount(j, d, 2),
        "dirichlet_energy": 2.0 * c * float(u[1] - u[0]) ** 2 / 2.0,
        "normal_derivative": math.fsum(d.tolist()),
    }


def reference_square(x):
    """Python's float ** 2 (libm pow) of each value, through Python objects:
    the bits ``dirichlet_energy`` keeps in ``energy.json``."""
    return (np.asarray(x, dtype=float).astype(object) ** 2).astype(float)


# -- the writers the whole-array ones replaced, kept as byte oracles ----------


def _float17_reference(x):
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x!r} in output")
    return format(x, ".17g")


class _ReferenceEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        return super().default(o)

    def iterencode(self, o, _one_shot=False):
        # route floats through the fixed 17-significant-digit format
        markers = {} if self.check_circular else None
        return json.encoder._make_iterencode(
            markers, self.default, json.encoder.encode_basestring_ascii,
            self.indent, _float17_reference, self.key_separator,
            self.item_separator, self.sort_keys, self.skipkeys, _one_shot)(o, 0)


def reference_dumps_json(obj):
    """json's pure-Python encoder with 17-digit floats, value by value."""
    return json.dumps(obj, cls=_ReferenceEncoder, sort_keys=True, indent=2) + "\n"


def reference_write_field_csv(path, values, header=("id", "value")):
    values = np.asarray(values, dtype=float)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for k, v in enumerate(values):
            wr.writerow([k, _float17_reference(float(v))])
    return path


def _phase_color(t):
    r, g, b = colorsys.hsv_to_rgb(t % 1.0, 1.0, 1.0)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def _real_color(t):
    lo = np.array([33, 102, 172])  # blue
    hi = np.array([178, 24, 43])   # red
    c = (lo + (hi - lo) * min(max(t, 0.0), 1.0)).astype(int)
    return f"#{c[0]:02x}{c[1]:02x}{c[2]:02x}"


def reference_render_field_svg(g, values, path, mode="phase", size=640):
    """The SVG writer vertex by vertex and edge by edge, joined in memory."""
    from fractalsync.svg import _layout

    values = np.asarray(values, dtype=float)
    pts = _layout(g) * size
    radius = max(1.5, 0.35 * size / (2 ** g.level + 1))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for a, b in g.edges:
        lines.append(
            f'<line x1="{pts[a, 0]:.2f}" y1="{pts[a, 1]:.2f}" '
            f'x2="{pts[b, 0]:.2f}" y2="{pts[b, 1]:.2f}" '
            f'stroke="#cccccc" stroke-width="0.6"/>')
    if mode == "phase":
        colors = [_phase_color(v) for v in values]
    else:
        lo, hi = float(values.min()), float(values.max())
        scale = hi - lo if hi > lo else 1.0
        colors = [_real_color((v - lo) / scale) for v in values]
    for k in range(g.n_vertices):
        lines.append(
            f'<circle cx="{pts[k, 0]:.2f}" cy="{pts[k, 1]:.2f}" '
            f'r="{radius:.2f}" fill="{colors[k]}"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
