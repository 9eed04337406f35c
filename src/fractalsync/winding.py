"""Winding numbers of circle-valued fields along the cell loops.

A cell is a loop when the path along its fractal's ``sides`` closes:
every gasket cell, traced clockwise through its corners v1, v2, v3, and
the ring's level-0 cell, the whole ring.  The loops of all orders form
the basis along which winding numbers are recorded.  A field's step along an edge is the unique real
increment within a half turn, and the total increment around a loop is
its winding number.  :func:`degree` reads every loop at once off the
corner table.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import DegreeClosureError, UnresolvedWindingError
from .graphs import SG, FractalGraph

INTEGRALITY_TOL = 1e-8


def word_str(word) -> str:
    return "eps" if len(word) == 0 else "".join(str(s) for s in word)


def parse_word(s: str, alphabet=SG.alphabet) -> tuple[int, ...]:
    s = s.strip()
    if s in ("", "eps"):
        return ()
    symbols = {str(sym): sym for sym in alphabet}
    if any(ch not in symbols for ch in s):
        raise ValueError(f"word {s!r} uses symbols outside {alphabet}")
    return tuple(symbols[ch] for ch in s)


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
    def from_dense(cls, values, alphabet=SG.alphabet):
        """Build from the dense by-order listing eps, (1), (2), (3), (1,1), ..."""
        words = []
        order = 0
        while len(words) < len(values):
            words.extend(product(alphabet, repeat=order))
            order += 1
        return cls(dict(zip(words, values)))

    @classmethod
    def parse(cls, text, alphabet=SG.alphabet):
        """Parse CLI form: dense "1,0,0" or sparse "eps:1,13:2"."""
        text = text.strip()
        if not text:
            return cls()

        def value(item, v):
            try:
                return int(v)
            except ValueError:
                raise ValueError(f"degree {text!r}: entry {item!r} has no "
                                 f"integer value") from None

        if ":" in text:
            entries = {}
            for item in text.split(","):
                w, _, v = item.partition(":")
                word = parse_word(w, alphabet)
                if word in entries:  # the last would silently win
                    raise ValueError(f"degree {text!r} repeats word "
                                     f"{word_str(word)}")
                entries[word] = value(item, v)
            return cls(entries)
        return cls.from_dense([value(v, v) for v in text.split(",")], alphabet)

    @property
    def max_order(self):
        """Largest word length carrying a nonzero entry (-1 if none)."""
        return max((len(w) for w in self.entries), default=-1)

    def to_dense(self, order=None, alphabet=SG.alphabet):
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


def _wrapped_diff(u, i, j):
    # reduce to the nearest-integer representative before multiplying by
    # 2 pi: exact for dyadic phases and avoids argument-reduction noise
    d = u[j] - u[i]
    d -= np.rint(d)
    return d


def wrap_phases(u) -> np.ndarray:
    """Reduce real representatives to circle values in [0, 1)."""
    out = np.mod(np.asarray(u, dtype=float), 1.0)
    out[out >= 1.0] -= 1.0
    return out


def _steps(f, i, j):
    """Wrapped steps f[j] - f[i], each the representative of the phase
    difference in (-1/2, 1/2); a step of circle distance >= 1/2 is
    ambiguous at this resolution and raises :class:`UnresolvedWindingError`."""
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


def degree(f, g: FractalGraph) -> DegreeVector:
    """Nonzero winding numbers of ``f`` along the loops of every order.

    Each side a -> b of each level-n cell (its ``sides``) is one wrapped
    step (see :func:`_steps`).  Side a -> b of cell w is side a -> b of
    child wa followed by side a -> b of child wb, so sides are summed one
    level up at a time, and so are the corners (corner a of cell w is
    corner a of child wa).  A cell is a loop when its side path closes,
    its last side ending at the corner its first side starts from, and it
    winds by the sum of its sides: every gasket cell, and the ring's
    level-0 cell, whose two corners are its one boundary vertex.
    """
    f = g.check_field(f)
    corners = g.cell_corners
    k = corners.shape[1]
    a, b = g.fractal.sides.T
    s = np.arange(len(a))
    sides = _steps(f, corners[:, a], corners[:, b])
    # the corner each cell's side path starts from and the one it ends at
    first, last = corners[:, a[0]], corners[:, b[-1]]
    lifts = [(first == last, sides.sum(axis=1))]
    for _ in range(g.level):
        kids = sides.reshape(-1, k, len(a))
        sides = kids[:, a, s] + kids[:, b, s]
        first, last = first[a[0]::k], last[b[-1]::k]
        lifts.insert(0, (first == last, sides.sum(axis=1)))
    entries = {}
    for m, (closed, lift) in enumerate(lifts):
        if not closed.any():
            continue
        wind = np.round(lift)
        nz = np.flatnonzero(closed & ((wind != 0) | ~(
            np.abs(lift - wind) <= INTEGRALITY_TOL)))
        words = map(tuple, g.word_symbols(nz, m).tolist())
        for word, w in zip(words, lift[nz].tolist()):
            entries[word] = _closed(w, word)
    return DegreeVector(entries)
