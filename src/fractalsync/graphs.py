"""Graph hierarchies of p.c.f. fractals: the Sierpinski gasket and the ring.

A post-critically finite fractal is fixed by its harmonic structure, its
level-1 network and weight r (Kigami, *Analysis on Fractals*, 2001).  Each
fractal is one :class:`Fractal` record of those tables, ``FRACTALS`` holds
the records by name, and every layer reads a graph's ``g.fractal``; the
name survives only as ``--fractal`` and as the ``kind`` the JSON writes.
A record is data: :meth:`Fractal.build` builds any record's graphs, so a
new fractal is one ``Fractal(...)`` literal in ``FRACTALS``.

The level-n graph is the union of the images of the level-0 cell under all
length-n compositions of the contractions (on the gasket the corner maps
``F_i(x) = (x - v_i)/2 + v_i``, on the ring the two halvings of the unit
interval, its ends identified).  A vertex is the point of an itinerary: a
finite word over the ``alphabet`` followed by an infinitely repeated tail
symbol.  An interior vertex carries exactly two such names (it is shared
by two cells); the canonical name is the lexicographically smaller one.

The hierarchy is held as arrays.  Cell ``k`` of level n is the word whose
fixed-radix digits spell ``k``, so the children of gasket cell ``k`` are
cells ``3k, 3k+1, 3k+2`` of level n+1, and ``cell_corners`` is the one cell
index.  A vertex is stored as its key: the first n+1 symbols of its
canonical name, read as a fixed-radix integer.  The sorted key array fixes
the ids, so identity and ordering never depend on floating-point
coordinates; the graph JSON spells the names out from the keys.  Beside
it, ``birth`` holds the level each vertex enters at, which every
restriction, boundary test and elimination order reads.  A graph
is built as defined: the level-0 cell refined n times with the level-1
tables, at O(N) a level, each refinement adding the midpoint of every cell
side, and each cell's corners and midpoints giving its children's corners.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True, eq=False)
class Fractal:
    """One p.c.f. fractal's tables.  A cell's nodes are its k corners, then
    its midpoints (the gasket's x (v1-v2), y (v2-v3), z (v3-v1)); child i
    keeps corner i."""

    name: str
    alphabet: tuple  # a symbol per map, in cell-word order
    levels: range  # the levels :meth:`build` builds
    sides: np.ndarray  # a cell's sides as corner pairs, clockwise
    child_corners: np.ndarray  # each child's corners among its parent's nodes
    extension: np.ndarray  # each midpoint's row of -M^-1 B, the extension
    r: float  # the trace's side weight at unit weights; edges weigh (1/r)**n
    points: np.ndarray  # the point of each tail symbol
    base_corners: np.ndarray  # the level-0 cell's corner ids (ring: 0, 0)

    num_maps = property(lambda self: len(self.child_corners))
    # the level-0 vertices: the distinct corners of the level-0 cell
    boundary_size = property(lambda self: int(self.base_corners.max()) + 1)

    def __post_init__(self):
        # every graph and layer reads these tables: no one writes them
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def build(self, n) -> FractalGraph:
        """The level-n graph: one object per process, however reached."""
        return _refine(self, n)

    def check_level(self, n):
        """ValueError unless :meth:`build` builds level ``n``."""
        if n not in self.levels:
            raise ValueError(f"{self.name} level must be in [{self.levels[0]}, "
                             f"{self.levels[-1]}], got {n}")

    def cell_edges(self, corners) -> np.ndarray:
        """Edges of a corner table, cell by cell: each cell's ``sides``."""
        return corners.take(self.sides, axis=1).reshape(-1, 2)

    def cell_nodes(self, fine_corners) -> np.ndarray:
        """(C, size) nodes of every level-m cell, numbered as in
        ``child_corners``, from the level-(m+1) corner table, where the
        children of cell c are rows c * num_maps on."""
        k = fine_corners.shape[1]
        nodes = np.empty((len(fine_corners) // self.num_maps,
                          k + len(self.extension)), dtype=fine_corners.dtype)
        nodes[:, self.child_corners] = fine_corners.reshape(
            -1, self.num_maps, k)
        return nodes


class FractalGraph:
    """Immutable level-n approximating graph of a :class:`Fractal`.

    Attributes
    ----------
    fractal : Fractal
    level : int
    coords : (N, 2) ndarray
        Planar coordinates (ring vertices sit on the x axis).
    cell_corners : (C, k) ndarray
        Each cell's corner ids; row c is the cell whose word spells c.
    edges : (E, 2) ndarray
        ``fractal.cell_edges(cell_corners)``; the level-1 ring's two cells
        give its parallel edges (0, 1) and (1, 0).
    conductance : float
        Every edge's weight, (1/r)**n: (5/3)**n on the gasket.
    keys : (N,) ndarray
        Strictly increasing: the first level+1 symbols of each vertex's
        canonical name as a fixed-radix integer.
    birth : (N,) int8 ndarray
        The level m at which each vertex enters, V_m less V_(m-1): 0 on
        V0, m on the midpoints added by the m-th refinement.
    boundary_ids : tuple
        Ids of the level-0 vertices, born at 0 (the ring's one is vertex
        0).
    """

    def __init__(self, fractal, level, coords, cell_corners, keys, birth):
        self.fractal = fractal
        self.level = level
        self.coords = coords
        self.edges = fractal.cell_edges(cell_corners)
        self.conductance = (1 / fractal.r) ** level
        self.cell_corners = cell_corners
        self.keys = keys
        self.birth = birth
        self.boundary_ids = tuple(np.flatnonzero(birth == 0).tolist())
        for arr in (coords, self.edges, cell_corners, keys, birth):
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
        val = 0
        for s in word:
            val = val * self.fractal.num_maps + self.fractal.alphabet.index(s)
        return val

    def word_symbols(self, k, m=None) -> np.ndarray:
        """(len(k), m) array of the symbols spelling the level-m cells
        numbered ``k`` (m defaults to the graph level)."""
        base = self.fractal.num_maps  # a symbol per map
        m = self.level if m is None else m
        powers = base ** np.arange(m - 1, -1, -1, dtype=np.int64)
        return np.asarray(self.fractal.alphabet)[np.asarray(k)[:, None] // powers % base]

    # -- level maps --------------------------------------------------------

    def restriction_to(self, m):
        """Index array mapping level-m vertex ids into this graph's ids.

        The level-m vertices are those born at m or before, and a vertex
        keeps its canonical name at every finer level, so key order
        restricts to the level-m order.
        """
        if not 0 <= m <= self.level:
            raise ValueError(
                f"cannot restrict level {self.level} to level {m}")
        return np.flatnonzero(self.birth <= m)

    # -- export ------------------------------------------------------------

    def to_json_dict(self):
        # each key spelled as its canonical name into uint8 rows that NUL
        # pads: its first ``birth`` symbols, "~", and its last, the tail
        m, b = self.level + 1, self.birth[:, None]
        digits = self.word_symbols(self.keys, m) + ord("0")
        col = np.arange(m + 1)
        chars = np.select([col < b, col == b, col == b + 1], [
            np.pad(digits, ((0, 0), (0, 1))), ord("~"), digits[:, -1:]]
        ).astype(np.uint8)
        return {
            "kind": self.fractal.name,
            "level": self.level,
            "conductance": self.conductance,
            "itinerary": chars.view(f"S{m + 1}").ravel().astype(str).tolist(),
            "x": self.coords[:, 0],
            "y": self.coords[:, 1],
            "boundary": list(self.boundary_ids),
            "edges": self.edges,
            "cells": CellMap(self, self.cell_corners),
        }

    def __repr__(self):
        return (f"FractalGraph({self.fractal.name!r}, level={self.level}, "
                f"|V|={self.n_vertices}, |E|={self.n_edges})")


class CellMap(Mapping):
    """Read-only ``{cell word: value}`` over a graph's cells: row c of
    ``array`` (one value, or a row of them) is the value of the cell whose
    word spells c, as a string of digits (``"13"``; ``""`` at level 0).
    The words all have the graph's level as length and their digits rise
    with the symbols, so cell order is also the words' sorted order."""

    __slots__ = ("graph", "array")

    def __init__(self, graph, array):
        array = np.asarray(array).view()
        array.setflags(write=False)
        if len(array) != len(graph.cell_corners):
            raise ValueError(f"{len(array)} rows for the "
                             f"{len(graph.cell_corners)} cells of {graph!r}")
        self.graph, self.array = graph, array

    def word_chars(self) -> np.ndarray:
        """(C, n) uint8 table of the cell words' ASCII digits, in cell
        order, filled a symbol at a time."""
        n, base = self.graph.level, self.graph.fractal.num_maps
        glyphs = np.asarray(self.graph.fractal.alphabet, dtype=np.uint8) + ord("0")
        chars = np.empty((base ** n, n), dtype=np.uint8)
        for j in range(n):
            # symbol j of cell c is the digit c // base**(n - 1 - j) % base
            chars.reshape(base ** j, base, -1, n)[..., j] = glyphs[:, None]
        return chars

    def __len__(self):
        return len(self.array)

    def __iter__(self):
        n = self.graph.level
        text = self.word_chars().tobytes().decode("ascii")
        return (text[i:i + n] for i in range(0, len(text), n)) if n else iter([""])

    def __getitem__(self, word):
        glyphs = "".join(map(str, self.graph.fractal.alphabet))
        # strip leaves "" exactly when every character is a symbol's digit
        if (not isinstance(word, str) or len(word) != self.graph.level
                or word.strip(glyphs)):
            raise KeyError(word)
        c = 0
        for s in word:
            c = c * len(glyphs) + glyphs.index(s)
        return self.array[c].tolist()


@lru_cache(maxsize=None)
def _refine(fractal, n) -> FractalGraph:
    """Level-n graph of ``fractal``, with k = len(alphabet) corners: its
    level-0 cell refined n times with the level-1 tables, n in its levels.

    Old key K stays a vertex as k K + K % k, its tail once more; side
    (a, b), a < b, of cell w adds the midpoint w a b~b, key k**2 w +
    (k a + b).  One list ends in a doubled symbol and the other never
    does, so an old vertex's id moves up by the midpoints with smaller
    keys, and the midpoints, born at this level, fill the ids left.
    ``table`` holds the point F_w(v_tail) of every key of the current
    length, as x + iy, applied innermost symbol first: a leading symbol d
    maps p to (p + v_d) / 2.
    """
    fractal.check_level(n)
    k = len(fractal.alphabet)
    corners = fractal.base_corners
    keys = np.arange(corners.max() + 1)  # at level 0 the tail, the id
    birth = np.zeros(len(keys), dtype=np.int8)
    points = fractal.points.view(complex).ravel()
    table = points
    side = np.sort(fractal.sides, axis=1)
    code = k * side[:, 0] + side[:, 1]  # a midpoint key's last two symbols
    order = np.argsort(code)
    mids = len(code)
    # old key k K + t is k**2 (K // k) + (k + 1) t: the midpoints of the
    # cells before K // k are ahead of it, and those of its own cell with
    # a smaller code
    ahead = np.searchsorted(code[order], (k + 1) * np.arange(k))
    for level in range(1, n + 1):
        tail = keys % k
        at_old = np.arange(len(keys)) + mids * (keys // k) + ahead[tail]
        is_mid = np.ones(len(keys) + mids * len(corners), dtype=bool)
        is_mid[at_old] = False
        at_mid = np.flatnonzero(is_mid)
        old, keys = k * keys + tail, np.empty(len(is_mid), dtype=np.int64)
        keys[at_old] = old
        keys[at_mid] = (k * k * np.arange(len(corners))[:, None]
                        + code[order]).ravel()
        old, birth = birth, np.full(len(is_mid), level, dtype=np.int8)
        birth[at_old] = old
        nodes = np.empty((len(corners), k + mids), dtype=np.int64)
        nodes[:, :k] = at_old[corners]
        nodes[:, k + order] = at_mid.reshape(len(corners), mids)
        corners = nodes.take(fractal.child_corners, axis=1).reshape(-1, k)
        # x and y added and halved apart, as real and imaginary parts
        table = (table + points[:, None]).ravel()
        xy = table.view(float)
        xy /= 2.0
    return FractalGraph(
        fractal=fractal, level=n,
        coords=table[keys].view(float).reshape(-1, 2), cell_corners=corners,
        keys=keys, birth=birth)


# The gasket: corners v1 bottom-left, v2 top, v3 bottom-right.
SG = Fractal(
    name="sg", alphabet=(1, 2, 3), levels=range(0, 13),
    r=3 / 5, sides=np.array([[0, 1], [1, 2], [2, 0]]),
    child_corners=np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2]]),
    extension=np.array([[0.4, 0.4, 0.2], [0.2, 0.4, 0.4], [0.4, 0.2, 0.4]]),
    points=np.array([[0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0], [1.0, 0.0]]),
    base_corners=np.array([[0, 1, 2]]))
# The ring: the unit interval's two halvings, its ends one vertex.
RING = Fractal(
    name="ring", alphabet=(0, 1), levels=range(1, 21),
    sides=np.array([[0, 1]]), child_corners=np.array([[0, 2], [2, 1]]),
    extension=np.array([[0.5, 0.5]]), r=1 / 2,
    points=np.array([[0.0, 0.0], [1.0, 0.0]]),
    base_corners=np.array([[0, 0]]))
FRACTALS = {fractal.name: fractal for fractal in (SG, RING)}
build_sg_graph, build_ring_graph = SG.build, RING.build


def build_graph(name, n) -> FractalGraph:
    """Level-n graph of the fractal ``FRACTALS[name]``."""
    if name not in FRACTALS:
        raise ValueError(f"unknown fractal {name!r}")
    return FRACTALS[name].build(n)


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
