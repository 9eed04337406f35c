"""Deterministic JSON/CSV output with full-precision floats.

All numeric output is printed with 17 significant digits so that files
round-trip exactly through float64; keys are sorted so identical runs
produce identical bytes.  The JSON emitter reproduces the text of
``json.dumps(obj, sort_keys=True, indent=2)`` with that float format.

Arrays are routed by dtype.  A non-empty 1-D float array -- a field, a
column, ``energy.json``'s ``per_cell`` -- is checked for non-finite
values in one ``np.isfinite`` pass and formatted by one kernel,
:func:`_float_texts`, which writes the bytes of ``'%.17g' % v`` without
CPython's formatter.  That formatter takes Gay's bignum route (1990)
for every 17-digit conversion (its float fast path stops at 14 digits),
about 0.4 us a value.  The kernel, a block of ``_BLOCK`` values at a time:

* takes X = floor(log10 |v|) and 10**(16 - X) as a double-double built
  from Python ints (``hi`` and ``lo``, each correctly rounded);
* forms |v| * hi = p + e exactly with Dekker's product (Numer. Math. 18,
  1971: a Veltkamp split, no FMA), so y = p + (e + |v| lo) is
  |v| 10**(16 - X) within 5e-15 of a unit; p >= 2**53 is an integer, so
  D = p + round(e + |v| lo), the 17 digits, is an exact int64;
* certifies a value when 10**16 <= D < 10**17 and y is at least 1e-6
  from a tie (D = 10**16 also needs y >= D, since log10 may round X up);
  zeros, |v| < 1e-99 or >= 1e16 and the few uncertified values (a log10
  off by one, near ties, carries to 10**17) are written by ``'%.17g' %
  v`` itself;
* lays out the text as ``%g`` does: fixed notation for -4 <= X < 17,
  ``d.ddde-XX`` below, trailing zeros and a bare point dropped, ``-``
  for negative values.  A value's text is six 8-byte words, looked up
  from its sign, its first digit and its four groups of four digits,
  then masked by tables of X that place the point, the zeros and the
  exponent; every byte that does not show is NUL, and the rows are
  joined by deleting every NUL.

A non-empty 1-D or 2-D int array -- the graph JSON's ``cells``, its
corner table -- is written with a ``%d`` row template over the flat
``tolist()`` of each block of ``_BLOCK`` rows.  Anything else is written
value by value, an array as its ``tolist()`` and a float scalar with
``format(x, ".17g")``.  A field's CSV is written ``_BLOCK`` rows at a
time, each block's kernel rows the ``%d`` template of its ids.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from functools import cache
from itertools import filterfalse
from json.encoder import encode_basestring_ascii

import numpy as np

_INDENT = "  "
_BLOCK = 4096  # values or rows per pass of a writer: one pass over a whole field is slower
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
_TAIL = np.array([[10 ** 12], [10 ** 8], [10 ** 4]])  # 10**(digits after groups 1-3)


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


def _ascii(text) -> np.ndarray:
    """The bytes of ASCII ``text`` as a uint8 array."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


@cache
def _tables():
    """The kernel's constants, built on its first call.  ``powers``, for
    k = 0..115: 10**k as hi + lo, each correctly rounded, and hi's
    Veltkamp halves.  ``words``, the words of :func:`_float_block`'s
    texts as uint64: for each group of four digits 0..9999, every digit
    after a 0xFF byte; the same with its trailing zeros and their 0xFF
    as NUL; for 2 d0 + (v < 0), "-" (or NUL) in byte 0 and d0 in byte 7;
    the zero word.  ``keep`` and ``put``, for k = 16 - X: the masks that
    a value's six words are ANDed and then ORed with."""
    hi = [float(10 ** k) for k in range(116)]
    h = np.array(hi)
    hi1 = _SPLIT * h - (_SPLIT * h - h)
    powers = np.array([h, [float(10 ** k - int(v)) for k, v in enumerate(hi)],
                       hi1, h - hi1])
    place = np.array([1000, 100, 10, 1], np.uint16)
    chars = (np.arange(10000, dtype=np.uint16)[:, None] // place % 10).astype(np.uint8) + 48
    bare = np.logical_and.accumulate(chars[:, ::-1] == 48, axis=1)[:, ::-1]
    pairs = np.zeros((20000, 4, 2), np.uint8)
    pairs[:, :, 1] = np.concatenate([chars, np.where(bare, 0, chars)])
    pairs[:, :, 0] = np.where(pairs[:, :, 1], 255, 0)
    lead = np.zeros((21, 8), np.uint8)
    lead[1:20:2, 0] = 45
    lead[:20, 7] = np.arange(20) // 2 + 48
    words = np.concatenate([pairs.reshape(20000, 8), lead]).view(np.uint64).ravel()
    masks = np.zeros((2, 116, 6, 8), np.uint8)
    keep, put = masks
    keep[:, 0, [0, 7]] = 255
    keep[:, 1:5, 1::2] = 255
    for k in range(116):
        x = 16 - k
        point = keep[k, 1:5].reshape(16, 2)[:, 0]
        if x >= 0:
            point[x:x + 1] = 46
            put[k, 1:5].reshape(16, 2)[:x, 1] = 48
        elif x >= -4:
            put[k, 0, 1:2 - x] = np.frombuffer(b"0.000"[:1 - x], np.uint8)
        else:
            point[0] = 46
            put[k, 5, :4] = np.frombuffer(b"e-%02d" % -x, np.uint8)
    keep, put = masks.view(np.uint64)[..., 0]
    return powers, words, keep, put


def _float_texts(a, head, tail) -> str:
    """``head + '%.17g' % a[i] + tail`` for every value of the finite
    float64 array ``a``, as one string; ``head`` and ``tail`` are uint8
    rows."""
    return b"".join(_float_block(a[s:s + _BLOCK], head, tail)
                    for s in range(0, len(a), _BLOCK)).decode("ascii")


def _digits17(x):
    """For float64 ``x``: D, the 17 significant digits of each value as an
    int64, k = 16 - X with X its decimal exponent, and whether D and X are
    certified, all as arrays."""
    powers = _tables()[0]
    # clipped so that no step overflows: zeros and |x| outside [1e-99,
    # 1e16) get k = 115 or k = 1 and a D that is not certified
    a = np.clip(np.abs(x), 1e-300, 1e16)
    k = np.clip(np.ceil(16.0 - np.log10(a)), 1, 115).astype(np.intp)
    hi, lo, hi1, hi2 = powers.take(k, axis=1)
    c = _SPLIT * a
    a1 = c - (c - a)
    a2 = a - a1
    p = a * hi                                         # a hi = p + e exactly
    y = (((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2) + a * lo   # e + a lo
    yr = np.rint(y)
    rest = y - yr
    d = p.astype(np.int64) + yr.astype(np.int64)
    ok = (np.abs(rest) < 0.5 - 1e-6) & (d < 10 ** 17) & (d > 10 ** 16 - (rest >= 0))
    return d, k, ok


def _float_block(x, head, tail) -> bytes:
    """One block of :func:`_float_texts`, as ASCII bytes."""
    _, words, keep, put = _tables()
    n, h, t = len(x), head.shape[-1], len(tail)
    d, k, ok = _digits17(x)
    # a value's text is six words, 48 bytes, NUL where nothing shows: in
    # word 0 the sign, "0.000" as -4 <= X < 0 needs and d0; in words 1-4 a
    # (point, digit) byte pair for each of the 16 digits after d0; in word
    # 5 "e-XX".  ``keep`` keeps the digits and turns the point byte before
    # d_(X+1) (before d1 in exponent notation) into "." where it is 0xFF,
    # which it is only before a digit that shows; ``put`` adds the "0.000",
    # the "0" of integer digits that are trailing zeros, and the "e-XX".
    # q holds the indices of the words.
    q = np.empty((6, n), np.int64)
    q[4] = d
    for i in range(3, -1, -1):
        np.floor_divide(q[i + 1], 10000, out=q[i])
    last = q[1:4] * _TAIL == d       # no later group has a nonzero digit
    q[1:5] -= 10000 * q[:4]
    q[1:4] += 10000 * last           # such a group, and the last, drop trailing zeros
    q[4] += 10000
    q[0] = 20000 + 2 * q[0] + np.signbit(x)
    q[5] = 20020
    text = words.take(q.T, mode="clip")    # an uncertified value's q may be out of range
    text &= keep.take(k, axis=0)
    text |= put.take(k, axis=0)
    # a row: head, NUL up to a multiple of 8 bytes, the six words with the
    # tail from byte 44 on, where the "e-XX" ends
    lo = -(-h // 8)
    rows = np.zeros((n, lo + 6 + -(-(t - 4) // 8)), np.uint64)
    rows[:, lo:lo + 6] = text
    chars = rows.view(np.uint8)
    chars[:, :h] = head
    chars[:, 8 * lo + 44:8 * lo + 44 + t] = tail
    bad = np.flatnonzero(~ok)
    if len(bad):
        texts = np.array(["%.17g" % v for v in x[bad].tolist()], dtype="S44")
        chars[bad, 8 * lo:8 * lo + 44] = texts.view(np.uint8).reshape(len(bad), 44)
    return rows.tobytes().translate(None, b"\0")


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


def _int_rows(a, inner, level) -> str:
    """``inner``, the row's text and "," for every row of a non-empty 1-D
    or 2-D int array, by a ``%d`` row template ``_BLOCK`` rows at a time."""
    code = "%d" if a.ndim == 1 else _wrap("[", ["%d"] * a.shape[1], "]", level + 1)
    row = f"{inner}{code},"
    return "".join(row * len(b) % tuple(b.ravel().tolist())
                   for b in (a[s:s + _BLOCK] for s in range(0, len(a), _BLOCK)))


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
    if type(o) is np.ndarray and o.size:
        inner = "\n" + _INDENT * (level + 1)
        if o.ndim == 1 and o.dtype.kind == "f":
            a = np.asarray(_finite_array(o), dtype=float)
            return f"[{_float_texts(a, _ascii(inner), _ascii(','))[:-1]}\n{_INDENT * level}]"
        if o.ndim <= 2 and o.dtype.kind in "iu":
            return f"[{_int_rows(o, inner, level)[:-1]}\n{_INDENT * level}]"
    return _encode(_default(o), level)


def dumps_json(obj) -> str:
    """Numpy scalars and arrays are written as their Python values; a
    non-finite float raises ValueError."""
    return _encode(obj) + "\n"


def write_json(path, obj) -> str:
    text = dumps_json(obj)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def write_field_csv(path, values) -> str:
    """One ``id,value`` row per vertex under that header, CRLF line ends,
    written ``_BLOCK`` rows at a time.  A non-finite value raises
    ValueError before the file is opened."""
    values = _finite_array(np.asarray(values, dtype=float))
    lead, tail = _ascii("%d,"), _ascii("\r\n")
    with open(path, "wb") as fh:
        fh.write(b"id,value\r\n")
        for s in range(0, len(values), _BLOCK):
            # the %.17g texts hold no "%": a block's rows are the
            # %-template of its ids
            block = values[s:s + _BLOCK]
            fh.write(_float_block(block, lead, tail) % tuple(range(s, s + len(block))))
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
