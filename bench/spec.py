"""What the benchmark measures: workloads, metrics and traced stages.

``BENCHMARK.json`` at the repository root is generated from this file by
``python3 bench/run.py --write-spec``; ``bench/METRICS.md`` documents
each metric's layer and the end-to-end metric it should move.
"""

from __future__ import annotations

from workloads import WHY, WORKLOADS

RUN_SECONDS = 20

# Layer modules, traced by wrapping their public functions.  ``cli`` is the
# entry point and is not wrapped: its self time is the run time no layer
# span covers.  ``structures`` is the independent cross-check route that
# no CLI path runs, so it is deliberately left out.
LAYERS = ("graphs", "dirichlet", "winding", "covering", "kuramoto",
          "serialize", "svg")

# Functions that get a span on every call, even from inside their own layer.
STAGES = (
    "graphs.build_graph",
    "dirichlet.solve_dirichlet", "dirichlet.extend_harmonic_once",
    "dirichlet.dirichlet_energy",
    "winding.degree",
    "covering.covering_domain", "covering.minimize_constrained",
    "covering.extend_lift", "covering.neumann_check",
    "kuramoto.integrate_to_equilibrium", "kuramoto.hessian_stability",
    "serialize.write_json", "serialize.write_field_csv",
    "svg.render_field_svg",
)

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("pass_frac", "ratio", "higher", 0.01),
)

# (name, unit, better)
PER_LAYER = (
    tuple((f"{layer}.{what}", unit, "lower")
          for layer in LAYERS + ("cli",)
          for what, unit in (("self_s", "s"), ("calls", "count")))
    + tuple((f"{stage}.self_s", "s", "lower") for stage in STAGES)
    + (
        ("serialize.bytes_written", "bytes", "lower"),
        ("graphs.vertices_built", "count", "lower"),
        ("kuramoto.flow_steps", "count", "lower"),
        ("kuramoto.step_halvings", "count", "lower"),
        ("kuramoto.edge_rhs_evals", "count", "lower"),
        ("kuramoto.ns_per_edge_eval", "ns", "lower"),
        ("kuramoto.equilibria", "count", "higher"),
        ("kuramoto.converged_ratio", "ratio", "higher"),
        ("kuramoto.stable_ratio", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    )
)


def benchmark_json():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
