"""Minimal SVG rendering of vertex fields, no plotting dependency.

Phase fields map to hue (full-saturation HSV); real fields to a fixed
blue-to-red gradient.  A graph whose level-0 corners are one vertex (the
ring) is laid out on a circle.  Each distinct coordinate is formatted
once, and lines and circles, colours included, are made and streamed in
chunks of ``_CHUNK``, one %-template each, so neither the whole text nor
a colour per vertex is ever in memory.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .graphs import FractalGraph

SVG_SIZE = 640  # width and height of the picture, in pixels
_CHUNK = 4096  # lines or circles formatted by one %-template and written at once
_HEADER = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
           f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
           f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>\n')


def _layout(g: FractalGraph) -> np.ndarray:
    if len(g.boundary_ids) == 1:
        ang = 2.0 * np.pi * g.coords[:, 0]
        return np.stack([0.5 + 0.45 * np.cos(ang), 0.5 + 0.45 * np.sin(ang)], axis=1)
    pts = g.coords.copy()
    pts[:, 1] = pts[:, 1].max() - pts[:, 1]  # svg y grows downward
    span = max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]), 1e-9)
    return 0.05 + 0.9 * (pts - pts.min(axis=0)) / span


# colorsys.hsv_to_rgb(h, 1, 1) returns, in sector int(6h) % 6, these
# columns of (1, 0, q, t) with f = 6h - int(6h), q = 1 - f, t = 1 - (1 - f)
_HSV_SECTORS = np.array([[0, 3, 1], [2, 0, 1], [1, 0, 3],
                         [1, 2, 0], [3, 1, 0], [0, 1, 2]])
_BLUE = np.array([33, 102, 172])
_RED = np.array([178, 24, 43])


def _packed_rgb(rgb):
    """(N, 3) channel values in 0..255 as ints whose ``%06x`` is ``rrggbb``."""
    return (rgb[:, 0] << 16 | rgb[:, 1] << 8 | rgb[:, 2]).tolist()


def _phase_colors(values):
    """Full-saturation hue of ``value % 1``, as ``colorsys`` computes it."""
    h6 = np.mod(values, 1.0) * 6.0
    i = h6.astype(int)
    f = h6 - i
    cols = np.stack([np.ones_like(f), np.zeros_like(f), 1.0 - f, 1.0 - (1.0 - f)],
                    axis=1)
    rgb = np.take_along_axis(cols, _HSV_SECTORS[i % 6], axis=1)
    return _packed_rgb((rgb * 255).astype(int))


def _real_colors(values, lo, hi):
    """Blue-to-red gradient over [lo, hi], a range of the field's values."""
    scale = hi - lo if hi > lo else 1.0
    t = np.clip((values - lo) / scale, 0.0, 1.0)
    return _packed_rgb((_BLUE + (_RED - _BLUE) * t[:, None]).astype(int))


def _texts(values):
    """``%.2f`` of each value, as an object array of str.  One template
    formats each distinct value once: a level-n gasket has only 2^(n+1) + 1
    distinct x and 2^n + 1 distinct y.  (The layout is positive, so
    ``np.unique`` merging -0.0 with 0.0 cannot change a text.)"""
    distinct, index = np.unique(values, return_inverse=True)
    texts = ("%.2f\n" * len(distinct) % tuple(distinct.tolist())).split("\n")[:-1]
    return np.array(texts, dtype=object)[index]


def _write_rows(fh, template, rows, n):
    """``template`` filled from each row of ``rows(chunk)``, for chunks of
    ``_CHUNK`` of ``range(n)``, written one chunk (one %-template) at a
    time, so only a chunk's rows are ever built."""
    for i in range(0, n, _CHUNK):
        chunk = rows(slice(i, i + _CHUNK))
        fh.write(template * len(chunk) % tuple(chunk.ravel().tolist()))


def render_field_svg(g: FractalGraph, values, path, mode="phase") -> str:
    """Write an SVG with edges in grey and vertices coloured by value.

    Coordinates are formatted once per distinct value, and the lines and
    circles are streamed to the file in chunks, so the whole text is
    never held in memory.
    """
    if mode not in ("phase", "real"):
        raise ValueError(f"unknown mode {mode!r}")
    values = g.check_field(values)
    pts = _layout(g) * SVG_SIZE
    radius = max(1.5, 0.35 * SVG_SIZE / (2 ** g.level + 1))
    xy = np.stack([_texts(pts[:, 0]), _texts(pts[:, 1])], axis=1)
    colors = _phase_colors if mode == "phase" else partial(
        _real_colors, lo=float(values.min()), hi=float(values.max()))
    edges = g.edges
    line = ('<line x1="%s" y1="%s" x2="%s" y2="%s" '
            'stroke="#cccccc" stroke-width="0.6"/>\n')
    circle = f'<circle cx="%s" cy="%s" r="{radius:.2f}" fill="#%06x"/>\n'
    with open(path, "w") as fh:
        fh.write(_HEADER)
        _write_rows(fh, line, lambda c: xy[edges[c]], len(edges))
        _write_rows(fh, circle, lambda c: np.column_stack(
            [xy[c], colors(values[c])]), g.n_vertices)
        fh.write("</svg>\n")
    return path
