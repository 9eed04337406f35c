"""Deterministic JSON/CSV output with full-precision floats.

All numeric output is printed with 17 significant digits so that files
round-trip exactly through float64; keys are sorted so identical runs
produce identical bytes.  The JSON emitter reproduces the text of
``json.dumps(obj, sort_keys=True, indent=2)`` with that float format.

Numbers are formatted straight from the array, by dtype: a float or int
ndarray of one or two dimensions is checked for non-finite values in one
``np.isfinite`` pass and written with a ``%.17g``/``%d`` %-template (the
row template for two dimensions) over the flat ``tolist()`` of each chunk
of ``_CHUNK`` rows.  A :class:`graphs.CellMap` (``energy.json``'s
``per_cell``, the graph JSON's ``cells``) is written the same way, as the
dict of its cell words: the words are digits, spelled into each row's
template from the map's uint8 digit table, and its rows are already in
the words' sorted order.  Anything else is written value by value.  A
field that goes into both a CSV and a JSON file is formatted once, by
:func:`field_text`, and both writers build their text from that one.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from itertools import filterfalse
from json.encoder import encode_basestring_ascii

import numpy as np

from .graphs import CellMap

_INDENT = "  "
_CHUNK = 1024  # rows per %-template: one template for a whole table is slower


def _finite(values):
    """``values`` unchanged, or ValueError naming the first non-finite one."""
    for bad in filterfalse(math.isfinite, values):
        raise ValueError(f"non-finite value {bad!r} in output")
    return values


def _finite_array(a):
    """Float array ``a`` unchanged, or the ValueError of :func:`_finite`
    naming its first non-finite entry."""
    if not np.isfinite(a).all():
        _finite(a.ravel().tolist())
    return a


def _float17(x: float) -> str:
    _finite((x,))
    return format(x, ".17g")


class FieldText:
    """A float field formatted once, as one string: value ``i`` in
    ``%.17g`` on line ``i``.  :func:`write_field_csv` and
    :func:`write_json` both take it in place of the values."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


def field_text(values) -> FieldText:
    """``values`` as float64, finite-checked and formatted in one pass; a
    :class:`FieldText` is returned as it is."""
    if isinstance(values, FieldText):
        return values
    values = _finite_array(np.asarray(values, dtype=float))
    return FieldText(("%.17g\n" * len(values) % tuple(values.tolist()))[:-1])


def _default(o):
    """Plain Python stand-in for a numpy scalar or array."""
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if type(k) is int:
        return repr(k)
    raise TypeError(f"keys must be str or int, not {k.__class__.__name__}")


def _wrap(open_, texts, close, level):
    """Non-empty container items laid out as ``indent=2`` lays them out."""
    inner = "\n" + _INDENT * (level + 1)
    return f"{open_}{inner}{(',' + inner).join(texts)}\n{_INDENT * level}{close}"


def _row_code(a, level) -> str:
    """The %-template of one row of a 1-D or 2-D float (finite-checked) or
    int array at ``level``."""
    if a.dtype.kind == "f":
        _finite_array(a)
        code = "%.17g"
    else:
        code = "%d"
    return code if a.ndim == 1 else _wrap("[", [code] * a.shape[1], "]", level)


def _filled(template, a) -> list:
    """The rows of ``a`` formatted ``_CHUNK`` at a time, each chunk from
    one %-template and one tuple, as a list of texts: ``template(s, n)``
    is the template of the n rows from row s on.  Each row ends in a ","
    that the last row drops."""
    parts = []
    for s in range(0, len(a), _CHUNK):
        rows = a[s:s + _CHUNK]
        parts.append(template(s, len(rows)) % tuple(rows.ravel().tolist()))
    parts[-1] = parts[-1][:-1]
    return parts


def _array_text(a, level):
    """A non-empty 1-D or 2-D float or int array, in chunks of rows."""
    row = "\n" + _INDENT * (level + 1) + _row_code(a, level + 1) + ","
    return "".join(["[", *_filled(lambda s, n: row * n, a),
                    f"\n{_INDENT * level}]"])


def _cell_map_text(m, level):
    """A :class:`CellMap` as the dict of its words, in their sorted order,
    which is cell order.  Each chunk's row templates are spelled from the
    words' digit table, so they hold no "%" but the values' codes."""
    words = m.word_chars()
    head = np.frombuffer(f'\n{_INDENT * (level + 1)}"'.encode(), dtype=np.uint8)
    tail = np.frombuffer(f'": {_row_code(m.array, level + 1)},'.encode(),
                         dtype=np.uint8)

    def template(s, n):
        return np.hstack((np.broadcast_to(head, (n, len(head))), words[s:s + n],
                          np.broadcast_to(tail, (n, len(tail))))
                         ).tobytes().decode("ascii")

    return "".join(["{", *_filled(template, m.array), f"\n{_INDENT * level}}}"])


def _encode(o, level=0) -> str:
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float17(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return _wrap("[", [_encode(v, level + 1) for v in o], "]", level)
    if isinstance(o, dict):
        if not o:
            return "{}"
        texts = [f"{encode_basestring_ascii(_key(k))}: {_encode(o[k], level + 1)}"
                 for k in sorted(o)]
        return _wrap("{", texts, "}", level)
    if isinstance(o, FieldText):
        if not o.text:
            return "[]"
        return _wrap("[", [o.text.replace("\n", ",\n" + _INDENT * (level + 1))],
                     "]", level)
    if (type(o) is np.ndarray and o.ndim in (1, 2) and o.size
            and o.dtype.kind in "fiu"):
        return _array_text(o, level)
    if isinstance(o, CellMap):
        return _cell_map_text(o, level)
    return _encode(_default(o), level)


def dumps_json(obj) -> str:
    """Numpy scalars and arrays are written as their Python values, and a
    :class:`FieldText` as the list of its values; a non-finite float
    raises ValueError."""
    return _encode(obj) + "\n"


def write_json(path, obj) -> str:
    text = dumps_json(obj)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def write_field_csv(path, values) -> str:
    """One ``id,value`` row per vertex under that header, CRLF line ends.
    ``values`` may be a :class:`FieldText` already formatted."""
    text = field_text(values).text
    with open(path, "w", newline="") as fh:
        fh.write("id,value\r\n")
        if text:
            # the %.17g texts hold no "%": the field's text is the template
            # of its rows, and only the ids are formatted here
            fh.write(("%d," + text.replace("\n", "\r\n%d,") + "\r\n")
                     % tuple(range(text.count("\n") + 1)))
    return path


def read_field_csv(path) -> np.ndarray:
    """Read an ``id,value`` CSV back into a field.

    The first line is a header, whatever it says.  Every later line must
    be one integer id and one float value, else :class:`ValueError` names
    the line.  The ids must be 0..N-1, each exactly once (in any order),
    and every value finite; otherwise :class:`ValueError` names the
    offending id.
    """
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        if next(rd, None) is None:
            raise ValueError(f"{path}: line 1: empty file, expected a header")
        rows = []
        for row in rd:
            try:
                i, v = row
                rows.append((int(i), float(v)))
            except ValueError:
                raise ValueError(
                    f"{path}: line {rd.line_num}: expected id,value, got "
                    f"{','.join(row)!r}") from None
    out = np.empty(len(rows))
    seen = np.zeros(len(rows), dtype=bool)
    for i, v in rows:
        if not 0 <= i < len(rows):
            raise ValueError(f"{path}: id {i} outside 0..{len(rows) - 1}")
        if seen[i]:
            raise ValueError(f"{path}: id {i} appears twice")
        if not math.isfinite(v):
            raise ValueError(f"{path}: id {i} has the non-finite value {v!r}")
        seen[i] = True
        out[i] = v
    return out


def write_rows_csv(path, header, rows) -> str:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([_float17(v) if isinstance(v, float) else v for v in row])
    return path


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command, paths) -> str:
    entries = [
        {"path": os.path.relpath(p, out_dir), "sha256": sha256_of(p)}
        for p in sorted(paths)
    ]
    return write_json(os.path.join(out_dir, "manifest.json"),
                      {"command": command, "artifacts": entries})
