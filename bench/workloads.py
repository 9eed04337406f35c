"""Workloads: the CLI argument lists each one runs, and the output checks.

Each workload is a function ``(seed, small) -> (commands, graphs)``.
``commands`` are argument lists for ``fractalsync.cli.main`` without
``--out``; ``graphs`` are the (fractal, level) pairs the commands touch,
which set-up builds cold.  ``small`` keeps every level at 4 or below for
the benchmark's self-test.

The checks are tolerance-based identities of the paper, never hashes of
the outputs: a faster solver may legitimately move the last bits.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from itertools import product

DEGREES = "0;1;1,1,1,1;2,0,0"

WHY = {
    "converge": "verify --levels 3:7 for degrees 1 and 1,1,1,1: the paper's "
                "convergence experiment, flows from the exact harmonic map; "
                "kuramoto dominates, so a faster equilibrium solver shows here",
    "relax": "sweep at level 5 from perturbed starts plus a random-start ring "
             "flow: the same kuramoto layer far from equilibrium and as "
             "per-step overhead, so a map-seeded solver must not slow it",
    "deep": "level-10 harmonic (extension with SVG, CG) and degree-1,1,1,1 "
            "covering with no flow: graph build, extension, serialisation; "
            "kuramoto does no work, so a solver change must leave it flat",
}


def converge(seed, small=False):
    top = 4 if small else 7
    commands = [["verify", "--degree", d, "--levels", f"3:{top}", "--jobs", "1"]
                for d in ("1", "1,1,1,1")]
    return commands, [("sg", n) for n in range(top + 1)]


def relax(seed, small=False):
    rng = random.Random(seed)
    first = rng.randrange(10 ** 6)
    ring_seed = rng.randrange(10 ** 6)
    level, ring = (4, 4) if small else (5, 6)
    commands = [
        ["sweep", "--levels", f"{level}:{level}", "--degrees", DEGREES,
         "--seeds", f"{first}:{first + 2}", "--perturb", "0.1", "--jobs", "1"],
        ["flow", "--fractal", "ring", "--level", str(ring), "--init", "random",
         "--seed", str(ring_seed)],
    ]
    return commands, [("sg", n) for n in range(level + 1)] + [("ring", ring)]


def deep(seed, small=False):
    level = str(4 if small else 10)
    commands = [
        ["harmonic", "--level", level, "--boundary", "0,0,1", "--svg"],
        ["harmonic", "--level", level, "--boundary", "0,0,1",
         "--method", "linear-solve"],
        ["covering", "--level", level, "--degree", "1,1,1,1"],
    ]
    return commands, [("sg", n) for n in range(int(level) + 1)]


WORKLOADS = {"converge": converge, "relax": relax, "deep": deep}


# -- output checks ----------------------------------------------------------


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _load(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _word_str(word):
    return "".join(str(s) for s in word) or "eps"


def expected_degree(spec):
    """Nonzero entries of a gasket degree spec, keyed as the CLI writes them."""
    if ":" in spec:
        pairs = (item.split(":") for item in spec.split(","))
        return {w: int(v) for w, v in pairs if int(v)}
    values = [int(v) for v in spec.split(",")]
    words, order = [], 0
    while len(words) < len(values):
        words.extend(product((1, 2, 3), repeat=order))
        order += 1
    return {_word_str(w): v for w, v in zip(words, values) if v}


def check_manifest(out):
    manifest = _load(out, "manifest.json")
    problems = [] if manifest["artifacts"] else ["manifest lists no artifacts"]
    for entry in manifest["artifacts"]:
        h = hashlib.sha256()
        with open(os.path.join(out, entry["path"]), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        if h.hexdigest() != entry["sha256"]:
            problems.append(f"sha256 of {entry['path']} does not match manifest")
    return problems


def _check_verify(argv, out, state):
    rows = _load(out, "verify.json")["rows"]
    lo, hi = (int(v) for v in _option(argv, "--levels").split(":"))
    problems = [] if len(rows) == hi - lo + 1 else [f"{len(rows)} verify rows"]
    for r in rows:
        if not r["converged"]:
            problems.append(f"level {r['level']} did not converge")
        if r["hessian_min_eig"] is None or not r["hessian_min_eig"] > 1e-9:
            problems.append(f"level {r['level']} Hessian min eig "
                            f"{r['hessian_min_eig']} is not > 1e-9")
    energies = [r["lift_energy"] for r in rows]
    if max(energies) - min(energies) > 1e-9 * max(1.0, abs(energies[0])):
        problems.append(f"lift energy not constant across levels: {energies}")
    for a, b in zip(rows, rows[1:]):
        if not b["gap"] <= 0.6 * a["gap"]:
            problems.append(f"gap ratio {b['gap'] / a['gap']:.4f} > 3/5 "
                            f"at level {b['level']}")
    return problems


def _check_sweep(argv, out, state):
    jobs = _load(out, "sweep.json")["jobs"]
    lo, hi = (int(v) for v in _option(argv, "--seeds").split(":"))
    n_expected = len(_option(argv, "--degrees").split(";")) * (hi - lo + 1)
    problems = [] if len(jobs) == n_expected else [f"{len(jobs)} sweep jobs"]
    for job in jobs:
        tag = f"degree {job['degree_requested']} seed {job['seed']}"
        if not job["converged"] or job["stability"] != "stable":
            problems.append(f"{tag}: converged={job['converged']} "
                            f"stability={job['stability']}")
        if job["degree_found"] != job["degree_requested"]:
            problems.append(f"{tag}: found degree {job['degree_found']}")
    return problems


def _check_flow(argv, out, state):
    eq = _load(out, "equilibrium.json")
    n_vertices = 2 ** int(_option(argv, "--level"))
    problems = []
    if not eq["converged"] or eq["stability"] != "stable":
        problems.append(f"ring flow: converged={eq['converged']} "
                        f"stability={eq['stability']}")
    q = None if eq["degree"] is None else eq["degree"].get("eps", 0)
    if q is None or not abs(q) < n_vertices / 4:
        problems.append(f"ring winding {q} not within |q| < N/4 = {n_vertices / 4}")
    return problems


def _check_harmonic(argv, out, state):
    import numpy as np

    a, b, c = (float(v) for v in _option(argv, "--boundary").split(","))
    # the 1/5-2/5 extension preserves the level-0 energy at every level
    expected = ((a - b) ** 2 + (b - c) ** 2 + (c - a) ** 2) / 2.0
    energy = _load(out, "energy.json")["energy"]
    problems = []
    if abs(energy - expected) > 1e-9 * max(1.0, expected):
        problems.append(f"harmonic energy {energy!r} != {expected!r}")
    table = np.loadtxt(os.path.join(out, "solution.csv"), delimiter=",",
                       skiprows=1)
    if not np.array_equal(table[:, 0], np.arange(len(table))):
        problems.append("solution.csv ids are not 0..N-1 in order")
    key = (_option(argv, "--level"), _option(argv, "--boundary"))
    method = _option(argv, "--method", "extension")
    solutions = state.setdefault(key, {})
    solutions[method] = table[:, 1]
    other = solutions.get("linear-solve" if method == "extension" else "extension")
    if other is not None:
        gap = float(np.abs(other - table[:, 1]).max())
        if not gap <= 1e-10:
            problems.append(f"extension and linear-solve differ by {gap:.3e}")
    return problems


def _check_covering(argv, out, state):
    problems = []
    for vertex, value in _load(out, "neumann.json").items():
        if not abs(value) <= 1e-9:
            problems.append(f"Neumann value {value!r} at corner {vertex}")
    jumps = {c["word"]: c["jump"] for c in _load(out, "domain.json")["cuts"]}
    want = expected_degree(_option(argv, "--degree"))
    if jumps != want:
        problems.append(f"cut jumps {jumps} != requested degree {want}")
    return problems


_CHECKS = {"verify": _check_verify, "sweep": _check_sweep, "flow": _check_flow,
           "harmonic": _check_harmonic, "covering": _check_covering}


def check(argv, out, state):
    """Problems found in one command's outputs; empty when all checks hold.

    ``state`` carries results between the commands of one run, so that
    the two harmonic methods can be compared with each other.
    """
    try:
        return check_manifest(out) + _CHECKS[argv[0]](argv, out, state)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
