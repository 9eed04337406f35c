"""Benchmark of the fractalsync pipeline, run from the repository root.

    python3 bench/run.py --workload converge --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --trace both   # every metric, every workload
    python3 bench/run.py --write-spec                  # regenerate BENCHMARK.json

Each measurement runs in fresh child interpreters (``bench/child.py``)
that drive ``fractalsync.cli.main`` in process, single-process and
sequential (``--jobs 1``), in a closed loop.  ``--trace 0`` reports the
end-to-end metrics: set-up is the median of several fresh-interpreter
set-ups, and run and CPU time are sums over the workload's commands of
each command's median.  ``--trace 1`` runs the command list once
untraced and once traced and reports the per-layer metrics.  Outputs are
checked against the paper's identities; a nonzero exit or a failed check
is a failed operation.  See ``bench/METRICS.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(samples, environment, load average) goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT = ".bench_out"
SETUP_SAMPLES = 3          # fresh set-ups per run, the run child's included
DEADLINE_S = 170.0         # a run must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    for var in BLAS_VARS:  # single-threaded unless the caller says otherwise
        env.setdefault(var, "1")
    env.pop("PYTHONPATH", None)
    return env


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _git_commit():
    git = ".git"
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist):
    try:
        return version(dist)
    except PackageNotFoundError:
        return None


def environment(env):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": {var: env.get(var) for var in BLAS_VARS},
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


class Runner:
    """Starts child interpreters against one deadline and logs the load."""

    def __init__(self, args):
        self.args = args
        self.env = _child_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.loadavg = []

    def child(self, mode, *extra):
        cmd = [sys.executable, CHILD, mode, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--src", self.args.src, *extra]
        if self.args.small:
            cmd.append("--small")
        before = _loadavg()
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout, env=self.env)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {mode} exceeded the deadline") from None
        self.loadavg.append({"child": mode, "before": before, "after": _loadavg()})
        if proc.returncode != 0:
            raise BenchError(f"child {mode} exited with {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _command_sum(samples):
    return sum(statistics.median(s) for s in samples)


def measure_end_to_end(runner):
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    r = runner.child("run", "--seconds", str(runner.args.seconds))
    setups.append(r["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": _command_sum(r["wall"]),
        "cpu_s": _command_sum(r["cpu"]),
        "peak_rss_mb": r["peak_rss_mb"],
        "pass_frac": (r["attempted"] - r["failed"]) / r["attempted"],
    }
    extra = {"failed_frac": r["failed"] / r["attempted"]}
    record = {"setup_samples": setups, "wall": r["wall"], "cpu": r["cpu"],
              "commands": r["commands"], "problems": r["problems"]}
    return metrics, extra, r["attempted"], r["failed"], record


def _layer_metrics(trace):
    layer_self = trace["layer_self_s"]
    layer_calls = trace["layer_calls"]
    func_self = trace["func_self_s"]
    counters = trace["counters"]
    metrics = {}
    for layer in spec.LAYERS + ("cli",):
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        metrics[f"{layer}.calls"] = layer_calls.get(layer, 0)
    for stage in spec.STAGES:
        metrics[f"{stage}.self_s"] = func_self.get(stage, 0.0)
    for name in ("serialize.bytes_written", "graphs.vertices_built",
                 "kuramoto.flow_steps", "kuramoto.step_halvings",
                 "kuramoto.edge_rhs_evals", "kuramoto.equilibria"):
        metrics[name] = counters.get(name, 0)
    evals = metrics["kuramoto.edge_rhs_evals"]
    flow_s = metrics["kuramoto.integrate_to_equilibrium.self_s"]
    metrics["kuramoto.ns_per_edge_eval"] = 1e9 * flow_s / evals if evals else 0.0
    n_eq = metrics["kuramoto.equilibria"]
    for ratio, count in (("converged_ratio", "converged"), ("stable_ratio", "stable")):
        metrics[f"kuramoto.{ratio}"] = (
            counters.get(f"kuramoto.{count}", 0) / n_eq if n_eq else 0.0)
    return metrics


def measure_per_layer(runner):
    plain = runner.child("run", "--passes-max", "1")
    spans = os.path.join(OUT, "results",
                         f"spans-{runner.args.workload}-seed{runner.args.seed}.json")
    traced = runner.child("run", "--passes-max", "1", "--trace", "--spans", spans)
    metrics = _layer_metrics(traced["trace"])
    untraced_run_s = _command_sum(plain["wall"])
    traced_run_s = _command_sum(traced["wall"])
    metrics["trace.overhead_s"] = traced_run_s - untraced_run_s
    extra = {"run_s.untraced": untraced_run_s, "run_s.traced": traced_run_s,
             "setup_s.traced": traced["setup_s"]}
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    record = {"wall": [plain["wall"], traced["wall"]], "spans_file": spans,
              "wrapped": traced["trace"]["wrapped"],
              "problems": plain["problems"] + traced["problems"]}
    return metrics, extra, attempted, failed, record


def _unit(name):
    for metric, unit, *_ in spec.END_TO_END + spec.PER_LAYER:
        if metric == name:
            return unit
    return "ratio" if name == "failed_frac" else "s"


def measure(args, trace):
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    runner = Runner(args)
    env = environment(runner.env)
    measure_fn = measure_per_layer if trace else measure_end_to_end
    metrics, extra, attempted, failed, record = measure_fn(runner)
    for name, value in {**metrics, **extra}.items():
        print(f"{args.workload:9s} {name:44s} {value:14.6g} {_unit(name)}")
    for problem in record["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    record.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": trace, "small": args.small,
                   "environment": env, "loadavg": runner.loadavg,
                   "metrics": metrics, "extra": extra,
                   "attempted": attempted, "failed": failed})
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload:9s} seed={args.seed} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"commit={env['git_commit']} record={path}")
    return {name: {"value": value, "unit": _unit(name)}
            for name, value in metrics.items()}, attempted, failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", default="0", choices=("0", "1", "both"))
    p.add_argument("--small", action="store_true",
                   help="levels <= 4, for the benchmark's self-test")
    p.add_argument("--src", default="src", help="directory holding fractalsync")
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)

    if args.write_spec:
        with open("BENCHMARK.json", "w") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isfile(os.path.join(args.src, "fractalsync", "cli.py")):
        print(f"error: no fractalsync package under {args.src!r}; run from the "
              "repository root", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]
    results, attempted, failed = {}, 0, 0
    try:
        for name in names:
            for trace in modes:
                args.workload = name
                metrics, a, f = measure(args, trace)
                attempted += a
                failed += f
                prefix = "" if len(names) * len(modes) == 1 else f"{name}/"
                results.update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
