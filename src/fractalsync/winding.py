"""Triangular loop basis, lifts of circle-valued fields, and winding numbers.

Every cell boundary is a loop; the loops of all orders form the basis
along which winding numbers are recorded.  A loop is traced clockwise
starting from its leftmost vertex, visiting every graph vertex on its
three sides.  Lifting a phase field along the loop picks, for each step,
the unique real increment within a half turn; the total increment around
the loop is the winding number.  :func:`degree` reads all loops at once
off the corner table; tracing loop by loop is its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DegreeClosureError, UnresolvedWindingError
from .graphs import _CORNER, _NEXT_CORNER, FractalGraph

INTEGRALITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Loop:
    """Closed vertex cycle tracing one cell boundary clockwise."""

    word: tuple[int, ...]
    vertex_cycle: np.ndarray  # first id == last id

    def __post_init__(self):
        self.vertex_cycle.setflags(write=False)

    def reversed(self) -> "Loop":
        return Loop(self.word, self.vertex_cycle[::-1].copy())


def word_str(word) -> str:
    return "eps" if len(word) == 0 else "".join(str(s) for s in word)


def parse_word(s: str, alphabet=(1, 2, 3)) -> tuple[int, ...]:
    s = s.strip()
    if s in ("", "eps"):
        return ()
    word = tuple(int(ch) for ch in s)
    if any(sym not in alphabet for sym in word):
        raise ValueError(f"word {s!r} uses symbols outside {alphabet}")
    return word


class DegreeVector:
    """Finitely supported integer vector indexed by loop words."""

    def __init__(self, entries=None):
        ent = {}
        for w, v in (entries or {}).items():
            w = tuple(w)
            v = int(v)
            if v != 0:
                ent[w] = v
        self.entries = ent

    @classmethod
    def from_dense(cls, values, alphabet=(1, 2, 3)):
        """Build from the dense by-order listing eps, (1), (2), (3), (1,1), ..."""
        words = []
        order = 0
        while len(words) < len(values):
            words.extend(product(alphabet, repeat=order))
            order += 1
        return cls(dict(zip(words, values)))

    @classmethod
    def parse(cls, text, alphabet=(1, 2, 3)):
        """Parse CLI form: dense "1,0,0" or sparse "eps:1,13:2"."""
        text = text.strip()
        if not text:
            return cls()
        if ":" in text:
            entries = {}
            for item in text.split(","):
                w, _, v = item.partition(":")
                entries[parse_word(w, alphabet)] = int(v)
            return cls(entries)
        return cls.from_dense([int(v) for v in text.split(",")], alphabet)

    @property
    def max_order(self):
        """Largest word length carrying a nonzero entry (-1 if none)."""
        return max((len(w) for w in self.entries), default=-1)

    def to_dense(self, order=None, alphabet=(1, 2, 3)):
        if order is None:
            order = max(self.max_order, 0)
        out = []
        for ell in range(order + 1):
            for w in product(alphabet, repeat=ell):
                out.append(self.entries.get(w, 0))
        return out

    def to_json_dict(self):
        return {word_str(w): v for w, v in sorted(self.entries.items())}

    def __eq__(self, other):
        if isinstance(other, DegreeVector):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __bool__(self):
        return bool(self.entries)

    def __str__(self):
        """The sparse form :meth:`parse` reads, such as ``eps:1,13:2``."""
        return ",".join(f"{word_str(w)}:{v}"
                        for w, v in sorted(self.entries.items())) or "0"

    def __repr__(self):
        return f"DegreeVector({self})"


def trace_loop(g: FractalGraph, word) -> Loop:
    """Clockwise cycle of all level-n vertices on the boundary of cell ``word``.

    The side from corner a to corner b of cell w passes, in order, through
    corner a of the cells w d for d over {a, b}**(n - |w|), each read off
    the corner table.
    """
    word = tuple(word)
    if g.kind == "ring":
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


def loop_basis(g: FractalGraph, max_order: int):
    """Loops for every word of length <= max_order, ordered by (length, word)."""
    if max_order > g.level:
        raise ValueError(f"max_order {max_order} exceeds graph level {g.level}")
    if g.kind == "ring":
        if max_order != 0:
            raise ValueError("ring loop basis has only order 0")
        return [trace_loop(g, ())]
    loops = []
    for ell in range(max_order + 1):
        for w in product(g.alphabet, repeat=ell):
            loops.append(trace_loop(g, w))
    return loops


def _wrapped_diff(u, i, j):
    # reduce to the nearest-integer representative before multiplying by
    # 2 pi: exact for dyadic phases and avoids argument-reduction noise
    d = u[j] - u[i]
    d -= np.round(d)
    return d


def _steps(f, i, j):
    """Wrapped steps f[j] - f[i]; a half turn or more is ambiguous at this
    resolution and raises :class:`UnresolvedWindingError`."""
    r = _wrapped_diff(f, i, j)
    bad = np.abs(r) >= 0.5
    if bad.any():
        k = int(np.argmax(bad))
        raise UnresolvedWindingError((int(i.flat[k]), int(j.flat[k])),
                                     abs(r.flat[k]))
    return r


def _closed(w, word) -> int:
    """The integer a loop lift ``w`` closes at, within ``INTEGRALITY_TOL``."""
    k = round(w)
    if abs(w - k) > INTEGRALITY_TOL:
        raise DegreeClosureError(
            f"lift around loop {word_str(word)} closes at {w!r}, "
            f"not an integer within {INTEGRALITY_TOL}")
    return int(k)


def lift_along_loop(f, loop: Loop) -> np.ndarray:
    """Real lift of the phase field along the loop.

    Each step takes the unique representative of the phase difference in
    (-1/2, 1/2]; a step of circle distance >= 1/2 is ambiguous at this
    resolution and raises :class:`UnresolvedWindingError`.
    """
    f = np.asarray(f, dtype=float)
    cyc = loop.vertex_cycle
    r = _steps(f, cyc[:-1], cyc[1:])
    lift = np.empty(len(cyc))
    lift[0] = f[cyc[0]]
    np.cumsum(r, out=lift[1:])
    lift[1:] += lift[0]
    return lift


def loop_winding(f, loop: Loop) -> int:
    lift = lift_along_loop(f, loop)
    return _closed(lift[-1] - lift[0], loop.word)


def degree(f, g: FractalGraph) -> DegreeVector:
    """Nonzero winding numbers of ``f`` along the loops of every order.

    The wrapped step along side a -> b of each level-n cell follows the
    rules of :func:`lift_along_loop`.  Side a -> b of cell w is side
    a -> b of child wa then of child wb (the path :func:`trace_loop`
    takes), so sides are summed one level up at a time; a cell winds by
    the sum of its three sides, the ring by the sum over its cells.
    """
    f = g.check_field(f)
    corners = g.cell_corners
    if g.kind == "ring":
        lifts = [_steps(f, corners[:, 0], corners[:, 1]).sum(keepdims=True)]
    else:
        sides = _steps(f, corners, corners[:, _NEXT_CORNER])  # (3**n, 3)
        lifts = [sides.sum(axis=1)]
        for _ in range(g.level):
            kids = sides.reshape(-1, 3, 3)
            sides = kids[:, _CORNER, _CORNER] + kids[:, _NEXT_CORNER, _CORNER]
            lifts.insert(0, sides.sum(axis=1))
    entries = {}
    for m, lift in enumerate(lifts):
        wind = np.round(lift)
        nz = np.flatnonzero((wind != 0)
                            | ~(np.abs(lift - wind) <= INTEGRALITY_TOL))
        words = map(tuple, g.word_symbols(nz, m).tolist())
        for word, w in zip(words, lift[nz].tolist()):
            entries[word] = _closed(w, word)
    return DegreeVector(entries)
