"""One benchmark process: a fresh interpreter that sets up, then runs.

    python3 bench/child.py setup --workload W [--small]
    python3 bench/child.py run --workload W --seed N --seconds S
                               [--trace] [--passes-max K] [--small]

Set-up imports ``fractalsync.cli`` and cold-builds, through
``graphs.build_graph``, every (fractal, level) the workload touches.
``run`` then calls ``fractalsync.cli.main(argv)`` in process for each
command of the workload, cycling through the list: at least once each,
then while the next command is expected to finish within ``--seconds``.
Each call is timed alone (wall and process CPU), and its outputs are
checked afterwards, outside the timed interval.  With ``--trace`` the
layers are traced from before set-up, and the spans are written to
``--spans`` at the end.

Prints one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

import spec
import workloads
from tracer import Tracer


def _equilibrium_hook(counters, report, args):
    steps = report.steps
    counters["kuramoto.equilibria"] += 1
    counters["kuramoto.converged"] += bool(report.converged)
    counters["kuramoto.stable"] += report.stability == "stable"
    counters["kuramoto.flow_steps"] += steps
    counters["kuramoto.step_halvings"] += report.halvings
    counters["kuramoto.edge_rhs_evals"] += 4 * steps * args[0].n_edges


def _written_hook(counters, path, args):
    counters["serialize.bytes_written"] += os.path.getsize(path)


def _graph_hook():
    seen = set()  # graphs are cached per process, so each is built once

    def hook(counters, g, args):
        if id(g) not in seen:
            seen.add(id(g))
            counters["graphs.vertices_built"] += g.n_vertices
    return hook


def make_tracer():
    hooks = {"kuramoto.integrate_to_equilibrium": _equilibrium_hook,
             "graphs.build_graph": _graph_hook()}
    for name in ("write_json", "write_field_csv", "write_rows_csv",
                 "write_manifest"):
        hooks[f"serialize.{name}"] = _written_hook
    return Tracer("fractalsync", spec.LAYERS, spec.STAGES, hooks)


def _run_command(main, argv):
    """Call the CLI once; return (exit code, wall s, CPU s)."""
    sink = io.StringIO()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, time.perf_counter() - w0, time.process_time() - c0


def run(args, commands, main):
    wall = [[] for _ in commands]
    cpu = [[] for _ in commands]
    problems, state = [], {}
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        i = k % len(commands)
        if k >= len(commands) and (
                k >= len(commands) * args.passes_max
                or time.perf_counter() - start + wall[i][-1] > args.seconds):
            break
        out = os.path.join(args.out, f"c{k}")
        argv = commands[i] + ["--out", out]
        rc, w, c = _run_command(main, argv)
        found = (workloads.check(commands[i], out, state) if rc == 0
                 else [f"exit code {rc}"])
        attempted += 1
        if found:
            failed += 1
            problems += [f"{' '.join(commands[i])}: {p}" for p in found]
        wall[i].append(w)
        cpu[i].append(c)
        shutil.rmtree(out, ignore_errors=True)
        k += 1
    return {"wall": wall, "cpu": cpu, "attempted": attempted,
            "failed": failed, "problems": problems[:20]}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--passes-max", type=int, default=4)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--small", action="store_true")
    p.add_argument("--src", default="src", help="directory holding fractalsync")
    p.add_argument("--out", default=os.path.join(".bench_out", "artifacts"))
    p.add_argument("--spans", help="where the traced run writes its spans")
    args = p.parse_args()

    commands, graphs = workloads.WORKLOADS[args.workload](args.seed, args.small)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import fractalsync.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"fractalsync was imported from {cli.__file__}, not {src}")
    tracer = None
    main = cli.main
    if args.trace:
        tracer = make_tracer()
        tracer.install()
        main = tracer.wrap("cli", "cli.main", cli.main, always=True)
    graphs_module = sys.modules["fractalsync.graphs"]
    for kind, level in graphs:
        graphs_module.build_graph(kind, level)
    result = {"setup_s": time.perf_counter() - t0}

    if args.mode == "run":
        result.update(run(args, commands, main))
        result["commands"] = commands
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"origin": t0, "spans": tracer.spans}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
