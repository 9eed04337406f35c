"""Dirichlet energies, graph Laplacians, and harmonic extension.

The level-m energy is the weighted half-sum of squared edge differences,
with the weight (5/3)**m chosen so that the minimal-energy extension of a
field to the next level keeps the energy constant.  That extension is the
1/5-2/5 rule: midpoint values of a cell are a fixed affine combination of
the corner values (on the ring, the mean of the two).  Fields extend as
corner values, cell by cell, and are written to vertices once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .graphs import FractalGraph, build_graph

@dataclass
class EnergyReport:
    """Energy of a field with its per-cell breakdown, in cell-word order."""

    level: int
    energy: float
    per_cell: np.ndarray = field(repr=False)
    graph: FractalGraph = field(repr=False)

    def to_json_dict(self):
        return {
            "level": self.level,
            "energy": self.energy,
            "per_cell": dict(zip(self.graph.cell_labels(),
                                 self.per_cell.tolist())),
        }


def as_boundary_data(g: FractalGraph, phi) -> dict:
    """Boundary values ``{id: value}`` on V0, from a sequence or mapping
    checked against ``g``."""
    if isinstance(phi, dict):
        values = {int(k): float(v) for k, v in phi.items()}
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
    """Weighted half-sum of squared edge differences, broken down by cell.

    Each cell contributes its own sides, at the level's one conductance.
    """
    f = g.check_field(f)
    d = f[g.edges[:, 1]] - f[g.edges[:, 0]]
    sides = _square(d).reshape(len(g.cell_corners), -1)  # a row per cell
    per_cell = g.conductance * sides.sum(axis=1) / 2.0
    energy = math.fsum(per_cell.tolist())
    return EnergyReport(level=g.level, energy=energy, per_cell=per_cell,
                        graph=g)


def laplacian(g, f) -> np.ndarray:
    """Graph Laplacian c * sum_j (f_j - f_i), at every vertex of a graph or
    a cut domain."""
    f = g.check_field(f)
    i, j = g.edges[:, 0], g.edges[:, 1]
    d = (f[j] - f[i]) * g.conductance
    n = g.n_vertices
    return np.bincount(i, d, n) - np.bincount(j, d, n)


def harmonic_extend_once(a, b, c):
    """Midpoint values (x, y, z) of a cell from corner values (a, b, c)."""
    x = 0.4 * a + 0.4 * b + 0.2 * c
    y = 0.2 * a + 0.4 * b + 0.4 * c
    z = 0.4 * a + 0.2 * b + 0.4 * c
    return (x, y, z)


# corners of child i (which keeps corner i) among the parent's corners and
# then midpoints: x (v1-v2), y (v2-v3), z (v3-v1), or the ring's one
_CHILD_CORNERS = {
    3: np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2]]),
    2: np.array([[0, 2], [2, 1]]),
}


def extend_corners(vals) -> np.ndarray:
    """(C, k) corner values of C cells -> (kC, k) corner values of their
    children in cell order, by :func:`harmonic_extend_once` on the gasket
    and the mean of the two corners on the ring."""
    k = vals.shape[1]
    if k == 3:
        mids = np.stack(harmonic_extend_once(*vals.T), axis=1)
    else:
        mids = 0.5 * (vals[:, :1] + vals[:, 1:])
    nodes = np.concatenate([vals, mids], axis=1)
    return nodes[:, _CHILD_CORNERS[k]].reshape(-1, k)


def extend_harmonic_once(g_m: FractalGraph, f):
    """Extend a field one level by the 1/5-2/5 (ring: midpoint) rule.

    Returns ``(g_next, f_next)``; existing vertices keep their values, new
    midpoints get the energy-minimising combination of their cell corners.
    """
    f = g_m.check_field(f)
    g_next = build_graph(g_m.kind, g_m.level + 1)
    f_next = np.empty(g_next.n_vertices)
    f_next[g_next.cell_corners] = extend_corners(f[g_m.cell_corners])
    return g_next, f_next


def weighted_laplacian(edges, w, n) -> sparse.csr_matrix:
    """Laplacian sum_e w_e (d_e d_e^T) of an edge list, as sparse (n, n)."""
    i, j = edges[:, 0], edges[:, 1]
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    data = np.concatenate([w, w, -w, -w])
    return sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def laplacian_matrix(g) -> sparse.csr_matrix:
    """Laplacian c*(D - A) as a sparse matrix (positive form), for a graph
    or a cut domain: anything with ``edges``, ``conductance`` and
    ``n_vertices``."""
    return weighted_laplacian(g.edges, np.full(len(g.edges), g.conductance),
                              g.n_vertices)


def solve_dirichlet(g: FractalGraph, phi, method="extension") -> np.ndarray:
    """Solve the discrete Dirichlet problem: harmonic with f|V0 = phi.

    ``method="extension"`` extends the level-0 cell's corner values level
    by level; ``method="linear-solve"`` pins the boundary and solves
    the interior Laplace system with one sparse LU factor (minimum-degree
    ordering of A + A^T) and one step of iterative refinement with the
    same factor, at every level.  Both agree to 1e-10 in the sup norm;
    without the refinement step the solve is 1.6e-10 off at level 12.
    """
    bd = as_boundary_data(g, phi)
    if method == "extension":
        # the level-0 cell's corners are V0 in boundary order; the ring's
        # one cell starts and ends at its one boundary vertex
        vals = np.resize([bd[b] for b in g.boundary_ids],
                         (1, g.cell_corners.shape[1]))
        for _ in range(g.level):
            vals = extend_corners(vals)
        f = np.empty(g.n_vertices)
        f[g.cell_corners] = vals
        return f
    if method != "linear-solve":
        raise ValueError(f"unknown method {method!r}")

    n = g.n_vertices
    L = laplacian_matrix(g)
    boundary = np.array(sorted(bd), dtype=np.int64)
    interior = np.setdiff1d(np.arange(n), boundary)
    f = np.zeros(n)
    f[boundary] = [bd[int(b)] for b in boundary]
    if interior.size == 0:
        return f
    A = L[interior][:, interior].tocsc()
    rhs = -L[interior][:, boundary] @ f[boundary]
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
    sol = lu.solve(rhs)
    f[interior] = sol + lu.solve(rhs - A @ sol)
    return f


def normal_derivative(g: FractalGraph, f, v) -> float:
    """Renormalised boundary flux (5/3)**m * sum_{y ~ v} (f(y) - f(v))."""
    f = g.check_field(f)
    v = int(v)
    if v not in g.boundary_ids:
        raise ValueError(f"vertex {v} is not a boundary vertex")
    i, j = g.edges[:, 0], g.edges[:, 1]
    c = g.conductance
    return math.fsum(((f[j[i == v]] - f[v]) * c).tolist()
                     + ((f[i[j == v]] - f[v]) * c).tolist())


def holder_ratio(g: FractalGraph, f, beta=None) -> float:
    """Max over vertex pairs of |f(x)-f(y)| / |x-y|**beta.

    Used as an empirical check that harmonic fields obey a uniform Holder
    bound with beta = log(5/3) / (2 log 2).
    """
    f = g.check_field(f)
    if beta is None:
        beta = math.log(5.0 / 3.0) / (2.0 * math.log(2.0))
    pts = g.coords
    n = g.n_vertices
    block = 512  # rows of the pairwise distance matrix held at once
    best = 0.0
    for s in range(0, n, block):
        sl = slice(s, min(s + block, n))
        dx = pts[sl, None, 0] - pts[None, :, 0]
        dy = pts[sl, None, 1] - pts[None, :, 1]
        d2 = dx * dx + dy * dy
        df = np.abs(f[sl, None] - f[None, :])
        mask = d2 > 0.0
        ratio = np.zeros_like(d2)
        np.divide(df, d2 ** (beta / 2.0), out=ratio, where=mask)
        best = max(best, float(ratio.max()))
    return best
