"""Command-line surface tying the pipeline together.

Subcommands: build-graph, harmonic, covering, twist, flow, verify, sweep.
Options may come from flags or a JSON run file (--config); artifacts are
written under --out together with a manifest listing their hashes.
Identical configurations (including seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import covering as cov
from . import dirichlet as dr
from . import kuramoto as km
from . import serialize as ser
from . import svg as svgmod
from .errors import DegreeMismatchError, NotAnEquilibriumError
from .graphs import FRACTALS, build_graph
from .structures import structure_json
from .winding import DegreeVector


@dataclass
class RunConfig:
    """Validated settings for one subcommand invocation."""

    mode: str
    fractal: str = "sg"
    level: int = 3
    degree: DegreeVector = field(default_factory=DegreeVector)
    boundary: list | None = None
    method: str = "extension"
    tol: float = 1e-10
    max_time: float = 400.0
    seed: int = 0
    init: str = "random"
    levels: tuple | None = None
    degrees: list | None = None
    seeds: tuple | None = None
    perturb: float = 0.0
    jobs: int = 1
    svg: bool = False
    traj: bool = False
    out: str = "out"

    def __post_init__(self):
        if self.fractal not in tuple(FRACTALS):  # a JSON list: no TypeError
            raise ValueError(f"unknown fractal {self.fractal!r}")
        for n in (self.level, *(self.levels or ())):  # before any level runs
            FRACTALS[self.fractal].check_level(n)
        if self.mode == "covering" and not self.degree:
            raise ValueError("mode 'covering' requires a nonzero --degree")
        if self.mode == "harmonic" and self.boundary is None:
            raise ValueError("harmonic mode requires --boundary")
        # "not x > 0" also rejects NaN
        for flag, value in (("--tol", self.tol), ("--max-time", self.max_time)):
            if not value > 0:
                raise ValueError(f"{flag} must be positive, got {value!r}")
        if not self.perturb >= 0:
            raise ValueError(f"--perturb must be non-negative, got {self.perturb!r}")
        if self.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {self.jobs!r}")


def _path(cfg: RunConfig, name) -> str:
    """``name`` under ``--out``, which is made at the first artifact
    written, so a run that fails before writing leaves no directory."""
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


# -- subcommand bodies ----------------------------------------------------


def cmd_build_graph(cfg: RunConfig):
    g = build_graph(cfg.fractal, cfg.level)
    return [
        ser.write_json(_path(cfg, f"graph_{cfg.fractal}_{cfg.level}.json"),
                       g.to_json_dict()),
        ser.write_json(_path(cfg, "structure.json"),
                       structure_json(g.fractal)),
    ]


def cmd_harmonic(cfg: RunConfig):
    g = build_graph(cfg.fractal, cfg.level)
    f = dr.solve_dirichlet(g, cfg.boundary, method=cfg.method)
    report = dr.dirichlet_energy(g, f)
    paths = [
        ser.write_field_csv(_path(cfg, "solution.csv"), f),
        ser.write_json(_path(cfg, "energy.json"), report.to_json_dict()),
    ]
    if cfg.svg:
        paths.append(svgmod.render_field_svg(
            g, f, _path(cfg, "solution.svg"), mode="real"))
    return paths


def cmd_covering(cfg: RunConfig):
    g = build_graph(cfg.fractal, cfg.level)
    lift = cov.circle_harmonic_map(g, cfg.degree)[1]
    # read all but the values off the lift, then drop it and its cut
    # domain before anything is formatted
    domain, energy = lift.domain.to_json_dict(), lift.energy()
    neumann = {str(k): v for k, v in cov.neumann_check(lift).items()}
    values = lift.values
    del lift
    return [
        ser.write_json(_path(cfg, "domain.json"), domain),
        ser.write_field_csv(_path(cfg, "lift.csv"), values),
        ser.write_json(_path(cfg, "lift.json"), {"level": cfg.level, "energy": energy}),
        ser.write_json(_path(cfg, "neumann.json"), neumann),
    ]


def _twist_report(cfg: RunConfig, level=None, perturb_seed=None):
    """``(g, phases, lift_energy, report)`` of one level: the harmonic map,
    its lift's energy, and the equilibrium solved from it.  The lift is
    dropped before the solve."""
    level = cfg.level if level is None else level
    g = build_graph(cfg.fractal, level)
    phases, lift = cov.circle_harmonic_map(g, cfg.degree)
    lift_energy = lift.energy()
    del lift
    solve = km.solve_equilibrium
    if perturb_seed is not None and cfg.perturb > 0:
        rng = np.random.default_rng(perturb_seed)
        phases = km.wrap_phases(
            phases + rng.uniform(-cfg.perturb, cfg.perturb, g.n_vertices))
        # whether a perturbed start returns to its class is a question
        # about the flow; Newton keeps the start's degree by construction
        solve = km.integrate_to_equilibrium
    report = solve(g, phases, km.FlowConfig(cfg.max_time, cfg.tol))
    return g, phases, lift_energy, report


def cmd_twist(cfg: RunConfig):
    g, phases, lift_energy, report = _twist_report(cfg)
    d = report.to_json_dict()
    d["degree_requested"] = cfg.degree.to_json_dict()
    d["lift_energy"] = lift_energy
    d["max_circle_distance_to_harmonic_map"] = float(
        km.circle_distance(report.field, phases).max())
    if report.degree is not None:
        dense = report.degree.to_dense(
            max(cfg.degree.max_order, report.degree.max_order, 0),
            g.fractal.alphabet)
        d["degree_dense"] = dense
        print("degree:", ",".join(str(v) for v in dense))
    paths = [
        ser.write_json(_path(cfg, "equilibrium.json"), d),
        ser.write_field_csv(_path(cfg, "equilibrium.csv"), report.field),
    ]
    if cfg.svg:
        paths.append(svgmod.render_field_svg(
            g, report.field, _path(cfg, "equilibrium.svg"), mode="phase"))
    _require_equilibrium(cfg, paths, cfg.level, report.fallback,
                         report.degree)
    return paths


def _require_equilibrium(cfg: RunConfig, paths, level, refused, found):
    """Fail the run, after writing the manifest of ``paths``, unless
    Newton certified the level's equilibrium in the requested class."""
    if refused is None and found == cfg.degree:
        return
    ser.write_manifest(cfg.out, cfg.mode, paths)
    if refused is not None:
        raise NotAnEquilibriumError(
            f"Newton refused the level-{level} harmonic map: {refused}")
    raise DegreeMismatchError(f"the level-{level} equilibrium", cfg.degree,
                              found)


def _initial_field(cfg: RunConfig, g):
    spec = cfg.init
    if spec.startswith(("twist:", "constant:")):
        kind, value = spec.split(":", 1)
        try:
            u0 = (km.twisted_state(g, int(value)) if kind == "twist"
                  else np.full(g.n_vertices, float(value)))
        except ValueError as exc:
            raise ValueError(f"--init {spec!r}: {exc}") from None
    elif spec == "random":
        u0 = np.random.default_rng(cfg.seed).random(g.n_vertices)
    elif os.path.exists(spec):
        try:
            u0 = ser.read_field_csv(spec)
        except ValueError as exc:
            raise ValueError(f"--init {exc}") from exc
    else:
        raise ValueError(f"cannot interpret --init {spec!r}")
    try:
        return g.check_field(u0)
    except ValueError as exc:
        raise ValueError(f"--init {spec!r}: {exc}") from None


def cmd_flow(cfg: RunConfig):
    g = build_graph(cfg.fractal, cfg.level)
    u0 = _initial_field(cfg, g)
    report = km.integrate_to_equilibrium(
        g, u0, km.FlowConfig(cfg.max_time, cfg.tol))
    paths = [
        ser.write_json(_path(cfg, "equilibrium.json"),
                       report.to_json_dict()),
        ser.write_field_csv(_path(cfg, "equilibrium.csv"), report.field),
    ]
    if cfg.traj:
        paths.append(ser.write_rows_csv(
            _path(cfg, "trajectory.csv"),
            ("time", "energy", "residual"), report.trajectory))
    return paths


def _verify_row(args):
    """The ``verify.json`` row of one level, and its equilibrium's
    degree."""
    cfg, n = args
    g, phases, e_lift, report = _twist_report(cfg, level=n)
    j_harm = km.km_energy(g, phases)
    d_n = float(km.circle_distance(report.field, phases).max())
    solved = report.fallback is None
    return {
        "level": n,
        "lift_energy": e_lift,
        "km_energy_harmonic_map": j_harm,
        "km_energy_equilibrium": report.energy if solved else None,
        "gap": abs(j_harm - e_lift),
        "max_deviation": d_n if solved else None,
        "hessian_min_eig": report.hessian_min_eig,
        "converged": report.converged,
        "method": report.method,
        "fallback": report.fallback,
        "degree_found": (None if report.degree is None
                         else report.degree.to_json_dict()),
    }, report.degree


def _map_jobs(fn, jobs, n_jobs):
    """``[fn(j) for j in jobs]``, in order, on ``n_jobs`` worker processes,
    no more than there are jobs, when that is more than one."""
    workers = min(n_jobs, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, jobs))
    return [fn(j) for j in jobs]


def cmd_verify(cfg: RunConfig):
    results = _map_jobs(_verify_row, [(cfg, n) for n in cfg.levels], cfg.jobs)
    rows = [row for row, _ in results]
    gaps = [r["gap"] for r in rows]
    exponent = None
    if len(rows) >= 2 and all(gp > 0 for gp in gaps):
        exponent = float(np.polyfit(cfg.levels, np.log(gaps), 1)[0])
    table = {
        "fractal": cfg.fractal,
        "degree": cfg.degree.to_json_dict(),
        "rows": rows,
        "gap_decay_exponent": exponent,
    }
    columns = ("level", "lift_energy", "km_energy_harmonic_map",
               "km_energy_equilibrium", "gap", "max_deviation")
    paths = [
        ser.write_json(_path(cfg, "verify.json"), table),
        ser.write_rows_csv(_path(cfg, "verify.csv"), columns,
                           [[r[c] for c in columns] for r in rows]),
    ]
    for row, found in results:
        _require_equilibrium(cfg, paths, row["level"], row["fallback"], found)
    return paths


def _sweep_job(args):
    cfg, n, (spec, degree), seed = args
    cfg = replace(cfg, degree=degree)
    _, _, _, report = _twist_report(cfg, level=n, perturb_seed=seed)
    d = report.to_json_dict()
    d.update({"level": n, "degree_requested": cfg.degree.to_json_dict(),
              "seed": seed})
    d["degree_found"] = d.pop("degree")
    del d["time"]
    return (n, spec, seed), d


def cmd_sweep(cfg: RunConfig):
    jobs = [(cfg, n, spec, seed) for n in cfg.levels
            for spec in cfg.degrees for seed in cfg.seeds]
    results = _map_jobs(_sweep_job, jobs, cfg.jobs)
    results.sort(key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]))
    summary = [d for _, d in results]
    return [ser.write_json(_path(cfg, "sweep.json"), {"jobs": summary})]


# -- argument handling ----------------------------------------------------


_COMMANDS = {
    "build-graph": (cmd_build_graph, "write the graph as JSON"),
    "harmonic": (cmd_harmonic, "solve the Dirichlet problem"),
    "covering": (cmd_covering, "constrained lift for a degree"),
    "twist": (cmd_twist, "harmonic map, flow, verify"),
    "flow": (cmd_flow, "integrate from a given initial field"),
    "verify": (cmd_verify, "energy-gap table across levels"),
    "sweep": (cmd_sweep, "twist runs over levels/degrees/seeds"),
}


def _degree_value(spec, alphabet, flag) -> DegreeVector:
    if isinstance(spec, dict):  # {"eps": 1, "13": 2} from a --config file
        spec = ",".join(f"{word}:{v}" for word, v in spec.items())
    try:
        return DegreeVector.parse(str(spec), alphabet)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _boundary_value(spec, _, flag) -> list:
    # the flag's text, or a --config list of numbers (a bool is no number)
    if isinstance(spec, list) and all(type(v) in (int, float) for v in spec):
        return [float(v) for v in spec]
    if isinstance(spec, str):
        try:
            return [float(v) for v in spec.split(",")]
        except ValueError:
            pass
    raise ValueError(f"{flag} {spec!r} is neither comma-separated "
                     f"numbers nor a list of numbers")


def _degree_list(spec, alphabet, flag) -> list:
    # the flag's text or a --config list of specs, as (spec, degree) pairs
    if isinstance(spec, str):
        specs = [s for s in spec.split(";") if s]
    elif isinstance(spec, list) and all(isinstance(s, str) for s in spec):
        specs = spec
    else:
        raise ValueError(f"{flag} {spec!r} is neither semicolon-separated "
                         f"degree specs nor a list of them")
    if not specs:
        raise ValueError(f"{flag} {spec!r} names no degree")
    return [(s, _degree_value(s, alphabet, flag)) for s in specs]


def _range_value(spec, _, flag) -> tuple:
    # the flag's text, lo:hi or one int, or a --config int (a bool is no int)
    if type(spec) is int:
        return (spec,)
    if isinstance(spec, str):
        lo, _, hi = spec.partition(":")
        try:
            lo, hi = int(lo), int(hi or lo)
        except ValueError:
            pass
        else:
            if hi < lo:
                raise ValueError(
                    f"{flag} {spec!r} is an empty range: {hi} < {lo}")
            return tuple(range(lo, hi + 1))
    raise ValueError(f"{flag} {spec!r} is neither a range lo:hi nor an int")


def _flag(commands, parse=None, **argparse_kw):
    return commands, argparse_kw, parse


_ALL = tuple(_COMMANDS)

# One row per flag, keyed by its RunConfig field (--max-time is max_time):
# the subcommands that take it, its argparse keywords, and the parser
# (given the alphabet and flag name) of a value that arrives as flag text
# or as --config JSON alike.  Every flag defaults to None: defaults live
# in RunConfig, so that a --config file is only overridden by flags the
# user actually passed.
_FLAGS = {
    "fractal": _flag(_ALL, choices=tuple(FRACTALS)),
    "level": _flag(("build-graph", "harmonic", "covering", "twist", "flow"),
                   type=int),
    "config": _flag(_ALL, help="JSON run file; flags override it"),
    "out": _flag(_ALL),
    "boundary": _flag(("harmonic",), _boundary_value,
                      help="comma-separated corner values"),
    "method": _flag(("harmonic",), choices=("extension", "linear-solve")),
    "degree": _flag(("covering", "twist", "verify"), _degree_value),
    "degrees": _flag(("sweep",), _degree_list,
                     help="semicolon-separated degree specs (default 1)"),
    "init": _flag(("flow",), help="csv path | twist:q | constant:c | random"),
    "seed": _flag(("flow",), type=int, help="seed of --init random"),
    "levels": _flag(("verify", "sweep"), _range_value, help="range lo:hi"),
    "seeds": _flag(("sweep",), _range_value,
                   help="range lo:hi or single (default 0)"),
    "perturb": _flag(("sweep",), type=float),
    "jobs": _flag(("verify", "sweep"), type=int),
    "tol": _flag(("twist", "flow", "verify", "sweep"), type=float),
    "max_time": _flag(("flow", "sweep"), type=float),
    "svg": _flag(("harmonic", "twist"), action="store_true", default=None),
    "traj": _flag(("flow",), action="store_true", default=None,
                  help="append time, energy, residual snapshots to CSV"),
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="fractalsync",
        description="Kuramoto equilibria and harmonic maps on the "
                    "Sierpinski gasket and the ring")
    sub = p.add_subparsers(dest="mode", required=True)
    for mode, (_, help_) in _COMMANDS.items():
        # no flag by its prefix: sweep's --seeds must not answer to --seed
        sp = sub.add_parser(mode, help=help_, allow_abbrev=False)
        for key, (modes, argparse_kw, _) in _FLAGS.items():
            if mode in modes:
                sp.add_argument("--" + key.replace("_", "-"), **argparse_kw)
    return p


_MODE_DEFAULTS = {
    "verify": {"levels": "3:6"},
    "sweep": {"levels": "3:4", "degrees": "1", "seeds": "0"},
}


def _config_value(path, key, value):
    """``key``'s value in the --config file ``path``, read as its flag
    reads text: a switch takes only a JSON boolean, and a flag with an
    argparse ``type`` converts the value's text with it."""
    argparse_kw = _FLAGS[key][1]
    if argparse_kw.get("action") == "store_true":
        if isinstance(value, bool):
            return value
        kind = "boolean (true or false)"
    elif "type" in argparse_kw:
        try:
            return argparse_kw["type"](str(value))
        except ValueError:
            kind = argparse_kw["type"].__name__
    else:
        return value
    raise ValueError(f"--config {path}: {key} {value!r} is not a valid {kind}")


def _config_from_args(args) -> RunConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            given = json.load(fh)
        # a key that is no flag of this subcommand would go unread
        unread = sorted(set(given) - (set(vars(args)) - {"mode", "config"}))
        if unread:
            raise ValueError(f"--config {args.config}: {args.mode} does not "
                             f"read {', '.join(unread)}")
        # null stands for the default, as if the key were left out
        data.update({key: _config_value(args.config, key, val)
                     for key, val in given.items() if val is not None})
    # a flag that was given beats the --config file
    data.update({key: val for key, val in vars(args).items()
                 if val is not None and key != "config"})
    init = data.get("init", RunConfig.init)
    if "seed" in data and init != "random":
        raise ValueError(f"--seed is read only by --init random, "
                         f"not by --init {init!r}")
    user_keys = set(data)
    data = {**_MODE_DEFAULTS.get(args.mode, {}), **data}
    # an unknown fractal parses as the default, and RunConfig refuses it
    fractal = data.get("fractal", RunConfig.fractal)
    alphabet = FRACTALS[fractal if fractal in tuple(FRACTALS)
                        else RunConfig.fractal].alphabet
    for key, (_, _, parse) in _FLAGS.items():
        if parse and key in data:
            data[key] = parse(data[key], alphabet, "--" + key.replace("_", "-"))
    perturb = data.get("perturb", RunConfig.perturb)
    for key in ("seeds", "max_time"):  # unperturbed sweep jobs run Newton
        if args.mode == "sweep" and key in user_keys and perturb == 0:
            raise ValueError(f"--{key.replace('_', '-')} is read only by a "
                             f"positive --perturb, not by --perturb {perturb!r}")
    return RunConfig(**data)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        paths = _COMMANDS[args.mode][0](cfg)
        manifest = ser.write_manifest(cfg.out, args.mode, paths)
        for pth in paths + [manifest]:
            print(pth)
        return 0
    except Exception as exc:  # single-line machine-parseable failure
        msg = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print(f"error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
