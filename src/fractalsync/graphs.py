"""Graph hierarchies approximating the Sierpinski gasket and the ring.

The level-n gasket graph is the union of the images of the base triangle
under all length-n compositions of the three corner contractions
``F_i(x) = (x - v_i)/2 + v_i``.  A vertex is the point of an itinerary: a
finite word over the alphabet ``{1, 2, 3}`` followed by an infinitely
repeated tail symbol.  An interior vertex carries exactly two such names
(it is shared by two cells); the canonical name is the lexicographically
smaller one.

The hierarchy is held as arrays.  Cell ``k`` of level n is the word whose
base-3 digits spell ``k``, so the children of cell ``k`` are cells
``3k, 3k+1, 3k+2`` of level n+1, and ``cell_corners`` is the one cell
index.  A vertex is stored as its key: the first n+1 symbols of its
canonical name, read as a base-3 integer.  The sorted key array fixes the
ids, so identity and ordering never depend on floating-point coordinates;
the graph JSON spells the names out from the keys.

Both hierarchies are built the way they are defined: the level-0 cell
refined n times with the level-1 tables, at O(N) a level.  A refinement
keeps each vertex and adds the midpoint of every cell side; each cell's
corners and midpoints give its children's corners (``CHILD_CORNERS``).

The ring hierarchy uses the alphabet ``{0, 1}`` (two contractions of the
unit interval with endpoints identified), vertices ``i * 2**-n`` and
nearest-neighbour edges; its keys are binary in the same way.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

SG_ALPHABET = (1, 2, 3)
RING_ALPHABET = (0, 1)

MAX_SG_LEVEL = 12
MAX_RING_LEVEL = 20

# Corners of the base triangle: v1 bottom-left, v2 top, v3 bottom-right.
SG_CORNERS = np.array([[0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0], [1.0, 0.0]])

# The level-1 network of each fractal, keyed by its corner count k (3 for
# the gasket, 2 for the ring).  A cell's nodes are its k corners, then its
# midpoints; child i keeps corner i.  SIDES: a cell's sides as corner pairs,
# clockwise.  CHILD_CORNERS: each child's corners among its parent's nodes,
# the gasket's midpoints being x (v1-v2), y (v2-v3) and z (v3-v1).
# EXTENSION: each midpoint's row of -M^-1 B, the harmonic extension.
# RENORMALISATION: r, the side weight of the network's trace onto the
# corners at unit weights; level-n edges have conductance (1/r)**n.
SIDES = {3: np.array([[0, 1], [1, 2], [2, 0]]), 2: np.array([[0, 1]])}
CHILD_CORNERS = {
    3: np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2]]),
    2: np.array([[0, 2], [2, 1]]),
}
EXTENSION = {
    3: np.array([[0.4, 0.4, 0.2], [0.2, 0.4, 0.4], [0.4, 0.2, 0.4]]),
    2: np.array([[0.5, 0.5]]),
}
RENORMALISATION = {3: 3 / 5, 2: 1 / 2}
# The level-0 cell, keyed the same way.  BASE_POINTS: the point of each
# tail symbol.  BASE_CORNERS: the vertex id of each corner; the ring's two
# ends are its one vertex.
BASE_POINTS = {3: SG_CORNERS, 2: np.array([[0.0, 0.0], [1.0, 0.0]])}
BASE_CORNERS = {3: np.array([[0, 1, 2]]), 2: np.array([[0, 0]])}


def cell_edges(corners) -> np.ndarray:
    """Edges of a corner table, cell by cell: each cell's ``SIDES``."""
    return corners.take(SIDES[corners.shape[1]], axis=1).reshape(-1, 2)


def cell_nodes(fine_corners) -> np.ndarray:
    """(C, size) nodes of every level-m cell, from the level-(m+1) corner
    table: its k corners, then its midpoints, numbered as in
    ``CHILD_CORNERS``; rows k*c, ..., k*c + k - 1 of ``fine_corners`` are
    the children of cell c."""
    k = fine_corners.shape[1]
    nodes = np.empty((len(fine_corners) // k, k + len(EXTENSION[k])),
                     dtype=fine_corners.dtype)
    nodes[:, CHILD_CORNERS[k]] = fine_corners.reshape(-1, k, k)
    return nodes


class FractalGraph:
    """Immutable level-n approximating graph (gasket or ring).

    Built by refining the level-0 cell n times: a cell's corners and
    midpoints give its children's corners, and the keys' ranks the ids.

    Attributes
    ----------
    kind : str
        ``"sg"`` or ``"ring"``.
    level : int
    coords : (N, 2) ndarray
        Planar coordinates (ring vertices sit on the x axis).
    cell_corners : (C, k) ndarray
        Vertex ids of each cell, k = 3 (gasket) or 2 (ring); row c is the
        cell whose word spells c in fixed radix.
    edges : (E, 2) ndarray
        ``cell_edges(cell_corners)``: each cell's sides, cell by cell.  The
        level-1 ring's two cells give its two parallel edges (0, 1) and
        (1, 0).
    conductance : float
        The one weight of every edge at this level, (1/r)**n with r from
        ``RENORMALISATION``: (5/3)**n for the gasket, 2**n for the ring.
    boundary_ids : tuple
        Ids of the boundary vertices (the three corners; vertex 0 for the
        ring).
    keys : (N,) ndarray
        Strictly increasing vertex keys: the first level+1 symbols of the
        canonical name as a fixed-radix integer.
    """

    def __init__(self, kind, level, alphabet, coords, cell_corners,
                 boundary_ids, keys):
        self.kind = kind
        self.level = level
        self.alphabet = alphabet
        self.coords = coords
        self.edges = cell_edges(cell_corners)
        self.conductance = (1 / RENORMALISATION[cell_corners.shape[1]]) ** level
        self.cell_corners = cell_corners
        self.boundary_ids = boundary_ids
        self.keys = keys
        self._restrictions = {}
        for arr in (coords, self.edges, cell_corners, keys):
            arr.setflags(write=False)

    # -- basic queries ---------------------------------------------------

    @property
    def n_vertices(self):
        return self.coords.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def check_field(self, f) -> np.ndarray:
        """``f`` as a float array of one finite value per vertex, or
        ValueError."""
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n_vertices,):
            raise ValueError(
                f"field shape {f.shape} does not match graph with "
                f"{self.n_vertices} vertices at level {self.level}")
        bad = ~np.isfinite(f)
        if bad.any():
            v = int(np.argmax(bad))
            raise ValueError(
                f"field value {float(f[v])!r} at vertex {v} is not finite")
        return f

    # -- words and cells ---------------------------------------------------

    def pack_word(self, word) -> int:
        """Fixed-radix integer value of a word (a cell word, or the first
        level+1 symbols of a vertex's canonical name for its key)."""
        base = len(self.alphabet)
        val = 0
        for s in word:
            val = val * base + self.alphabet.index(s)
        return val

    def word_symbols(self, k, m=None) -> np.ndarray:
        """(len(k), m) array of the symbols spelling the level-m cells
        numbered ``k`` (m defaults to the graph level)."""
        base = len(self.alphabet)
        m = self.level if m is None else m
        powers = base ** np.arange(m - 1, -1, -1, dtype=np.int64)
        return np.asarray(self.alphabet)[np.asarray(k)[:, None] // powers % base]

    def cell_labels(self):
        """Cell words as strings (``"13"``), in cell order."""
        if self.level == 0:
            return [""]
        cells = np.arange(len(self.cell_corners))
        chars = (self.word_symbols(cells) + ord("0")).astype(np.uint8)
        return chars.view(f"S{self.level}").ravel().astype(str).tolist()

    # -- level maps --------------------------------------------------------

    def restriction_to(self, m):
        """Index array mapping level-m vertex ids into this graph's ids.

        A level-m vertex keeps its canonical name at every finer level, so
        its key here ends in a run of ``level - m + 1`` equal symbols; key
        order restricts to the level-m order.
        """
        if not 0 <= m <= self.level:
            raise ValueError(
                f"cannot restrict level {self.level} to level {m}")
        if m not in self._restrictions:
            base = len(self.alphabet)
            span = base ** (self.level - m + 1)
            run = (span - 1) // (base - 1)  # the digit 1 repeated
            idx = np.flatnonzero(self.keys % span == self.keys % base * run)
            idx.setflags(write=False)
            self._restrictions[m] = idx
        return self._restrictions[m]

    # -- export ------------------------------------------------------------

    def to_json_dict(self):
        # each key spelled as its canonical name: the trailing run of the
        # tail symbol is dropped from the word and written after "~"
        syms = self.word_symbols(self.keys, self.level + 1)
        tail = syms[:, -1:]
        run = np.logical_and.accumulate(syms[:, ::-1] == tail, axis=1)
        chars = (syms + ord("0")).astype(np.uint8)
        chars[run[:, ::-1]] = 0
        words = chars.view(f"S{self.level + 1}").ravel().astype(str)
        boundary = np.isin(np.arange(self.n_vertices), self.boundary_ids)
        verts = [
            {"id": i, "itinerary": f"{w}~{t}", "x": x, "y": y, "boundary": b}
            for i, (w, t, x, y, b) in enumerate(zip(
                words.tolist(), tail.ravel().tolist(), *self.coords.T.tolist(),
                boundary.tolist()))
        ]
        return {
            "kind": self.kind,
            "level": self.level,
            "conductance": self.conductance,
            "vertices": verts,
            "edges": self.edges.tolist(),
            "cells": dict(zip(self.cell_labels(), self.cell_corners.tolist())),
        }

    def __repr__(self):
        return (f"FractalGraph({self.kind!r}, level={self.level}, "
                f"|V|={self.n_vertices}, |E|={self.n_edges})")


def _refine(kind, alphabet, n) -> FractalGraph:
    """Level-n graph of the fractal with k = len(alphabet) corners: its
    level-0 cell refined n times with the level-1 tables.

    Old key K stays a vertex as k K + K % k, its tail once more; side
    (a, b), a < b, of cell w adds the midpoint w a b~b, key k**2 w +
    (k a + b).  One list ends in a doubled symbol and the other never
    does, so an old vertex's id moves up by the midpoints with smaller
    keys, and the midpoints fill the ids left.  ``table`` holds the point
    F_w(v_tail) of every key of the current length, as x + iy, applied
    innermost symbol first: a leading symbol d maps p to (p + v_d) / 2.
    """
    k = len(alphabet)
    corners = BASE_CORNERS[k]
    keys = np.arange(corners.max() + 1)  # at level 0 the tail, the id
    boundary = keys
    points = BASE_POINTS[k].view(complex).ravel()
    table = points
    side = np.sort(SIDES[k], axis=1)
    code = k * side[:, 0] + side[:, 1]  # a midpoint key's last two symbols
    order = np.argsort(code)
    mids = len(code)
    # old key k K + t is k**2 (K // k) + (k + 1) t: the midpoints of the
    # cells before K // k are ahead of it, and those of its own cell with
    # a smaller code
    ahead = np.searchsorted(code[order], (k + 1) * np.arange(k))
    for _ in range(n):
        tail = keys % k
        at_old = np.arange(len(keys)) + mids * (keys // k) + ahead[tail]
        is_mid = np.ones(len(keys) + mids * len(corners), dtype=bool)
        is_mid[at_old] = False
        at_mid = np.flatnonzero(is_mid)
        old, keys = k * keys + tail, np.empty(len(is_mid), dtype=np.int64)
        keys[at_old] = old
        keys[at_mid] = (k * k * np.arange(len(corners))[:, None]
                        + code[order]).ravel()
        nodes = np.empty((len(corners), k + mids), dtype=np.int64)
        nodes[:, :k] = at_old[corners]
        nodes[:, k + order] = at_mid.reshape(len(corners), mids)
        corners = nodes.take(CHILD_CORNERS[k], axis=1).reshape(-1, k)
        boundary = at_old[boundary]
        # x and y added and halved apart, as real and imaginary parts
        table = (table + points[:, None]).ravel()
        xy = table.view(float)
        xy /= 2.0
    return FractalGraph(
        kind=kind, level=n, alphabet=alphabet,
        coords=table[keys].view(float).reshape(-1, 2), cell_corners=corners,
        boundary_ids=tuple(boundary.tolist()), keys=keys)


@lru_cache(maxsize=None)
def build_sg_graph(n: int) -> FractalGraph:
    """Level-n gasket graph: (3**(n+1) + 3)/2 vertices, 3**(n+1) edges."""
    if not 0 <= n <= MAX_SG_LEVEL:
        raise ValueError(
            f"gasket level must be in [0, {MAX_SG_LEVEL}], got {n}")
    g = _refine("sg", SG_ALPHABET, n)
    assert g.n_vertices == (3 ** (n + 1) + 3) // 2
    return g


@lru_cache(maxsize=None)
def build_ring_graph(n: int) -> FractalGraph:
    """Level-n ring: 2**n vertices at i * 2**-n, nearest-neighbour edges."""
    if not 1 <= n <= MAX_RING_LEVEL:
        raise ValueError(
            f"ring level must be in [1, {MAX_RING_LEVEL}], got {n}")
    return _refine("ring", RING_ALPHABET, n)


def build_graph(kind, n) -> FractalGraph:
    if kind == "sg":
        return build_sg_graph(n)
    if kind == "ring":
        return build_ring_graph(n)
    raise ValueError(f"unknown fractal kind {kind!r}")


def restrict(g_fine: FractalGraph, m: int, f):
    """Restrict a vertex field from ``g_fine`` to the level-m vertex set.

    Vertices are identified by key, so the returned field is ordered
    exactly as the level-m graph orders its vertices.
    """
    f = np.asarray(f)
    if f.shape[0] != g_fine.n_vertices:
        raise ValueError(
            f"field length {f.shape[0]} != vertex count {g_fine.n_vertices}")
    return f[g_fine.restriction_to(m)]
