"""Dirichlet energies, the graph Laplacian, harmonic extension and the
cell-by-cell factor of a pinned Laplacian, on numpy alone.

The level-m energy is the weighted half-sum of squared edge differences,
with the weight (1/r)**m chosen so that the minimal-energy extension of a
field to the next level keeps the energy constant.  That extension and r
are read off the graph's :class:`graphs.Fractal` record: each midpoint of
a cell is its ``extension`` row of the corner values, the 1/5-2/5 rule on
the gasket and the mean of the two corners on the ring.  Fields extend as
corner values, cell by cell, and are written to vertices once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UncertifiedFactorError, as_integer
from .graphs import FractalGraph

HOLDER_BLOCK_ENTRIES = 1 << 20  # pairs in one block of holder_ratio's scan
FACTOR_BLOCK_CELLS = 1 << 12  # parent cells in one row block of _pinned_factor


@dataclass
class EnergyReport:
    """Energy of a field with its per-cell breakdown in cell order: row c
    is the cell whose word spells c."""

    level: int
    energy: float
    per_cell: np.ndarray = field(repr=False)

    def to_json_dict(self):
        return {
            "level": self.level,
            "energy": self.energy,
            "per_cell": self.per_cell,
        }


def as_boundary_data(g: FractalGraph, phi) -> dict:
    """Boundary values ``{id: value}`` on V0, from a sequence or mapping
    checked against ``g``."""
    if isinstance(phi, dict):
        values = {as_integer(k, "boundary key"): float(v) for k, v in phi.items()}
    else:
        seq = [float(v) for v in phi]
        if len(seq) != len(g.boundary_ids):
            raise ValueError(
                f"expected {len(g.boundary_ids)} boundary values, got {len(seq)}")
        values = dict(zip(g.boundary_ids, seq))
    if set(values) != set(g.boundary_ids):
        raise ValueError(
            f"boundary keys {sorted(values)} != V0 {sorted(g.boundary_ids)}")
    for v, x in values.items():
        if not math.isfinite(x):
            raise ValueError(
                f"boundary value {x!r} at vertex {v} is not finite")
    return values


def _square(x):
    # Python's float ** 2 (libm pow), not x * x: the two differ in the last
    # bit for about one value in a thousand, and the per-cell energies
    # written to energy.json keep the bits of the former
    return np.float_power(x, 2.0)


def dirichlet_energy(g: FractalGraph, f) -> EnergyReport:
    """Weighted half-sum of squared edge differences, broken down by cell,
    on a graph or a cut domain.

    Each cell contributes its own sides, at the level's one conductance.
    """
    f = g.check_field(f)
    i, j = g.edges.T
    d = f[j] - f[i]
    sides = _square(d).reshape(len(g.cell_corners), -1)  # a row per cell
    per_cell = g.conductance * sides.sum(axis=1) / 2.0
    energy = math.fsum(per_cell.tolist())
    return EnergyReport(level=g.level, energy=energy, per_cell=per_cell)


def laplacian(g, f) -> np.ndarray:
    """Graph Laplacian c * sum_j (f_j - f_i), at every vertex of a graph or
    a cut domain."""
    f = g.check_field(f)
    i, j = g.edges.T
    d = (f[j] - f[i]) * g.conductance
    n = g.n_vertices
    return np.bincount(i, d, n) - np.bincount(j, d, n)


def extend_corners(fractal, vals) -> np.ndarray:
    """(C, k) corner values of C cells of ``fractal`` -> the corner values
    of their children in cell order: each midpoint is its ``extension``
    row of the corner values, summed corner by corner."""
    k, rule = vals.shape[1], fractal.extension
    mids = vals[:, :1] * rule[:, 0]
    for i in range(1, k):
        mids += vals[:, i:i + 1] * rule[:, i]
    nodes = np.concatenate([vals, mids], axis=1)
    return nodes[:, fractal.child_corners].reshape(-1, k)


def _laplacian_map(pairs, size) -> np.ndarray:
    """(e, size**2): row e is the Laplacian of edge ``pairs[e]`` alone on
    nodes 0..size-1, flattened, so ``w @`` it is the Laplacian at the
    weights ``w`` (one graph per row of ``w``)."""
    d = np.zeros((len(pairs), size))
    d[np.arange(len(pairs)), pairs[:, 0]] = 1.0
    d[np.arange(len(pairs)), pairs[:, 1]] -= 1.0
    return (d[:, :, None] * d[:, None, :]).reshape(len(pairs), -1)


# the rows P, Q, R, S of flat indices with which a 3 x 3 block's row-major
# entries b give its row-major adjugate, b[P] * b[Q] - b[R] * b[S]: entry
# (i, j) is cofactor (j, i), the 2 x 2 minor on the rows cyclically after
# j and the columns cyclically after i
_CYCLIC = np.array([1, 2, 0]), np.array([2, 0, 1])
_ADJUGATE_3 = np.array([(3 * _CYCLIC[a][None, :] + _CYCLIC[b][:, None]).ravel()
                        for a, b in ((0, 0), (1, 1), (0, 1), (1, 0))])


def _sylvester_inverse(m) -> np.ndarray | None:
    """Inverses of ``m``, one s x s block or a stack of them, s at most 3,
    if Sylvester's criterion certifies every block positive definite;
    None otherwise.

    A block is certified when each leading principal minor is positive
    (a NaN is not), and its inverse is then the adjugate over the
    determinant, the last of those minors, expanded along the first row.
    A 3 x 3 block's second leading minor is its adjugate's last diagonal
    entry.  The empty block (the ring's last, vertex 0 held) is its own
    inverse.  Other sizes have no closed form here and raise ValueError.
    """
    s = m.shape[-1]
    if s == 0:
        return m.copy()
    b = m.reshape(-1, s * s)
    if s == 1:
        adj = np.ones_like(b)
    elif s == 2:
        adj = b[:, [3, 1, 2, 0]] * np.array([1.0, -1.0, -1.0, 1.0])
    elif s == 3:
        p, q, r, t = _ADJUGATE_3
        adj = b[:, p] * b[:, q] - b[:, r] * b[:, t]
    else:
        raise ValueError(f"no closed-form inverse of {s} x {s} blocks")
    det = (b[:, :s] * adj[:, ::s]).sum(axis=1)
    least = np.minimum(b[:, 0], det)
    if s == 3:
        least = np.minimum(least, adj[:, 8])
    if not least.min() > 0.0:
        return None
    return (adj / det[:, None]).reshape(m.shape)


class _CellFactor:
    """Block LDL^T of a pinned Laplacian, as :func:`_pinned_factor` builds it.

    ``levels`` holds, finest first, one (nodes, step) pair per eliminated
    level, a row per parent cell: the ids of its ``k`` corners and then
    its midpoints, and [-M^-1 B | M^-1], which maps the corners' solution
    and the midpoints' reduced right-hand side to the midpoints' solution.
    ``free`` are the level-0 corners other than vertex 0 and ``last`` the
    inverse of their block.
    """

    def __init__(self, k, levels, free, last):
        self.k, self.levels, self.free, self.last = k, levels, free, last

    def solve(self, b) -> np.ndarray:
        """``x`` with ``L x = b``, both on the free vertices in id order."""
        k = self.k
        t = np.concatenate(([0.0], b))
        for nodes, step in self.levels:
            # t_c -= B^T M^-1 t_m, with step[:, :, :k] = -M^-1 B
            t += np.bincount(nodes[:, :k].ravel(), np.einsum(
                "pmk,pm->pk", step[:, :, :k], t[nodes[:, k:]]).ravel(), len(t))
        # in place: each midpoint keeps its reduced right-hand side until
        # its level is solved, from corners solved before it
        t[0] = 0.0   # vertex 0 is held fixed at 0
        t[self.free] = self.last @ t[self.free]
        for nodes, step in reversed(self.levels):
            t[nodes[:, k:]] = np.einsum("pij,pj->pi", step, t[nodes])
        return t[1:]


def _pinned_factor(g: FractalGraph, w, shift=0.0) -> _CellFactor | None:
    """The Laplacian of ``g`` at edge weights ``w`` (one per row of
    ``g.edges``) less ``shift`` times the identity, with vertex 0 held
    fixed, factored cell by cell, if that certifies it positive definite;
    None otherwise.

    Each level-m midpoint lies inside exactly one level-(m-1) cell, and the
    edges run cell by cell, so the weights group into parent cells.  From
    level n down to 1, each parent's block on its corners and midpoints
    (numbered as ``child_corners``) is [[C, B^T], [B, M]] with M on the
    midpoints, less ``shift`` on M's diagonal; eliminating them leaves the
    Schur complement C - B^T M^-1 B on the parent's corners: Kigami's trace
    of the energy onto V_(m-1).  Its side weights, read off the
    off-diagonal, go up a level, and so do its row sums, as a mass per
    (cell, corner): m_C - x^T (m_M - shift), with x = M^-1 B and m the
    masses carried up so far, so no diagonal is ever formed by
    cancellation.  Unshifted, every mass is 0 and none is formed.  Level 0
    ends with its corners' block, vertex 0 dropped (2 x 2 on the gasket,
    empty on the ring).  By Haynsworth's inertia additivity the whole is
    positive definite, so ``shift`` is below its least eigenvalue, exactly
    when every midpoint block M and that last block are.  Sylvester's
    criterion decides each block, all cells of a level at once, and the
    same minors invert it in closed form (:func:`_sylvester_inverse`): no
    LAPACK call is made.  The factor keeps M^-1 and M^-1 B for
    :meth:`_CellFactor.solve` and :func:`solve_dirichlet`.

    A level's parent cells are eliminated in row blocks of
    ``FACTOR_BLOCK_CELLS``, each written into the level's step, next
    weights and masses, so beyond what the factor keeps and the next
    level's weights and masses the transients hold one block at any
    level.  A block's products are the same rows of the same kernels as a
    whole level's, so no bit depends on the block.
    """
    fractal, k = g.fractal, g.cell_corners.shape[1]
    local, sides = fractal.child_corners, fractal.sides
    size = k + len(fractal.extension)
    parent = _laplacian_map(fractal.cell_edges(local), size)
    corners = g.cell_corners
    # the finest cells carry no mass yet: zeros that take no memory
    mass = np.broadcast_to(0.0, corners.shape) if shift else None
    gather = np.eye(size)[local.ravel()]
    levels = []
    for _ in range(g.level):
        nodes = fractal.cell_nodes(corners)
        n = len(nodes)
        fine_w, w = w.reshape(n, -1), np.empty((n, len(sides)))
        if shift:
            fine_mass, mass = mass.reshape(n, -1), np.empty((n, k))
        step = np.empty((n, size - k, size))
        for start in range(0, n, FACTOR_BLOCK_CELLS):
            rows = slice(start, start + FACTOR_BLOCK_CELLS)
            a = (fine_w[rows] @ parent).reshape(-1, size, size)
            if shift:
                # each child's corner masses, summed on the parent's nodes
                m = fine_mass[rows] @ gather
                m[:, k:] -= shift
                a[:, range(size), range(size)] += m
            b = a[:, k:, :k]
            inv = _sylvester_inverse(a[:, k:, k:])
            if inv is None:
                return None
            x = inv @ b
            schur = a[:, :k, :k] - np.swapaxes(b, 1, 2) @ x
            w[rows] = -schur[:, sides[:, 0], sides[:, 1]]
            if shift:
                mass[rows] = m[:, :k] - np.einsum("pmc,pm->pc", x, m[:, k:])
            step[rows, :, :k] = -x
            step[rows, :, k:] = inv
        corners = nodes[:, :k]
        levels.append((nodes, step))
    free = corners[0] != 0
    last = (w @ _laplacian_map(sides, k)).reshape(k, k)
    if shift:
        last += np.diag(mass[0] - shift)
    last = _sylvester_inverse(last[np.ix_(free, free)])
    if last is None:
        return None
    return _CellFactor(k, levels, corners[0][free], last)


def _laplacian_factor(g: FractalGraph) -> _CellFactor:
    """:func:`_pinned_factor` of ``g``'s Laplacian at its conductance, or
    :class:`UncertifiedFactorError` naming ``g``."""
    factor = _pinned_factor(g, np.full(g.n_edges, g.conductance))
    if factor is None:
        raise UncertifiedFactorError(g)
    return factor


def solve_dirichlet(g: FractalGraph, phi, method="extension") -> np.ndarray:
    """Solve the discrete Dirichlet problem: harmonic with f|V0 = phi.

    ``method="extension"`` extends the level-0 cell's corner values level
    by level with the fractal's closed-form rule.  ``method="linear-solve"``
    factors the Laplacian cell by cell (:func:`_pinned_factor`, Kigami's
    trace) and back-substitutes from V0, coarsest level first: with no
    interior load, each level's midpoints are the factor's -M^-1 B of
    their parent cell's corners.  Both routes agree to 1e-13 in the sup
    norm.
    """
    bd = as_boundary_data(g, phi)
    if method == "extension":
        # the boundary ids are the level-0 vertices, refined, in order
        vals = np.array([bd[b] for b in g.boundary_ids])[
            g.fractal.base_corners]
        for _ in range(g.level):
            vals = extend_corners(g.fractal, vals)
        f = np.empty(g.n_vertices)
        f[g.cell_corners] = vals
        return f
    if method != "linear-solve":
        raise ValueError(f"unknown method {method!r}")

    factor = _laplacian_factor(g)
    k = factor.k
    f = np.empty(g.n_vertices)
    f[list(bd)] = list(bd.values())
    for nodes, step in reversed(factor.levels):
        f[nodes[:, k:]] = np.einsum("pmk,pk->pm", step[:, :, :k],
                                    f[nodes[:, :k]])
    return f


def normal_derivative(g: FractalGraph, f, v) -> float:
    """Renormalised boundary flux (1/r)**m * sum_{y ~ v} (f(y) - f(v)): the
    :func:`laplacian` at a vertex v of V0."""
    v = as_integer(v, "vertex")
    if v not in g.boundary_ids:
        raise ValueError(f"vertex {v} is not a boundary vertex")
    return float(laplacian(g, f)[v])


def holder_ratio(g: FractalGraph, f, beta=None) -> float:
    """Max over vertex pairs of |f(x)-f(y)| / |x-y|**beta.

    Used as an empirical check that harmonic fields obey a uniform Holder
    bound with beta = log(1/r) / (2 log 2), r the fractal's: 3/5 on the
    gasket, 1/2 on the ring.  Both |f(x)-f(y)| and |x-y|**2 are bitwise
    symmetric, so each block of rows from s meets only the columns from s.
    A block has ``HOLDER_BLOCK_ENTRIES // N`` rows, so each of its
    temporaries holds at most that many floats, whatever the level.
    """
    f = g.check_field(f)
    if beta is None:
        beta = math.log(1 / g.fractal.r) / (2.0 * math.log(2.0))
    pts = g.coords
    block = max(1, HOLDER_BLOCK_ENTRIES // g.n_vertices)
    best = 0.0
    for s in range(0, g.n_vertices, block):
        sl = slice(s, s + block)
        dx = pts[sl, None, 0] - pts[None, s:, 0]
        dy = pts[sl, None, 1] - pts[None, s:, 1]
        d2 = dx * dx + dy * dy
        df = np.abs(f[sl, None] - f[None, s:])
        ratio = np.zeros_like(d2)
        np.divide(df, d2 ** (beta / 2.0), out=ratio, where=d2 > 0.0)
        best = max(best, float(ratio.max()))
    return best
