"""Deterministic JSON/CSV output with full-precision floats.

All numeric output is printed with 17 significant digits so that files
round-trip exactly through float64; keys are sorted so identical runs
produce identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np


def _float17(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x!r} in output")
    return format(x, ".17g")


class _Encoder(json.JSONEncoder):
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
            self.indent, _float17, self.key_separator, self.item_separator,
            self.sort_keys, self.skipkeys, _one_shot)(o, 0)


def dumps_json(obj) -> str:
    return json.dumps(obj, cls=_Encoder, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> str:
    text = dumps_json(obj)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def write_field_csv(path, values, header=("id", "value")) -> str:
    values = np.asarray(values, dtype=float)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for k, v in enumerate(values):
            wr.writerow([k, _float17(float(v))])
    return path


def read_field_csv(path) -> np.ndarray:
    """Read an ``id,value`` CSV back into a field.

    The ids must be 0..N-1, each exactly once (in any order), and every
    value finite; otherwise :class:`ValueError` names the offending id.
    """
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        next(rd)  # header
        rows = [(int(i), float(v)) for i, v in rd]
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


def field_to_json_dict(values):
    return {"values": [float(v) for v in np.asarray(values, dtype=float)]}


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
