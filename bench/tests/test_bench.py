"""Shape-only self-test of the benchmark, at levels <= 4, with no timing gate.

    python3 -m pytest bench/tests -q        # from the repository root
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)

import spec  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(cwd, *args, src=os.path.join(ROOT, "src")):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--seed", "3",
         "--seconds", "0", "--small", "--src", src, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_generated_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_every_metric_is_documented():
    with open(os.path.join(BENCH, "METRICS.md")) as fh:
        text = fh.read()
    for name, *_ in spec.END_TO_END + spec.PER_LAYER:
        assert f"`{name}`" in text, name


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted(workload, trace, tmp_path):
    out = _result(_bench(tmp_path, "--workload", workload, "--trace", trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = spec.END_TO_END if trace == "0" else spec.PER_LAYER
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        name: unit for name, unit, *_ in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    proc = _bench(tmp_path, "--workload", "deep", src="src")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _rename(src_dir, old, new):
    pattern = re.compile(rf"\b{old}\b")
    for name in os.listdir(src_dir):
        if name.endswith(".py"):
            path = os.path.join(src_dir, name)
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(pattern.sub(new, text))


def test_trace_follows_public_functions_as_modules_change(tmp_path):
    """A layer that loses a stage and gains a public function still has
    its time attributed, and every metric is still emitted."""
    pkg = tmp_path / "src" / "fractalsync"
    shutil.copytree(os.path.join(ROOT, "src", "fractalsync"), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (pkg / "dirichlet.py").read_text()
    lost = next(name for name in re.findall(r"^def ([a-z]\w*)\(", source, re.M)
                if f"dirichlet.{name}" in spec.STAGES and name != "solve_dirichlet")
    gained = next(name for name in re.findall(r"^def _([a-z]\w*)\(", source, re.M)
                  if not re.search(rf"\b{name}\b", source))
    _rename(pkg, lost, "_" + lost)
    _rename(pkg, "_" + gained, gained)

    out = _result(_bench(tmp_path, "--workload", "deep", "--trace", "1",
                         src=str(tmp_path / "src")))
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    assert set(metrics) == {name for name, *_ in spec.PER_LAYER}
    assert metrics[f"dirichlet.{lost}.self_s"] == 0.0
    assert metrics["dirichlet.self_s"] >= metrics["dirichlet.solve_dirichlet.self_s"] > 0
    with open(tmp_path / ".bench_out" / "results" / "deep-seed3-trace1.json") as fh:
        wrapped = json.load(fh)["wrapped"]
    assert f"dirichlet.{gained}" in wrapped
    assert f"dirichlet.{lost}" not in wrapped


def test_tracer_rebinds_imported_names_and_splits_self_time(tmp_path, monkeypatch):
    pkg = tmp_path / "toy"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "low.py").write_text(
        "def helper():\n    return 1\n\n"
        "def work():\n    return helper() + 1\n")
    (pkg / "high.py").write_text(
        "from .low import work\n\n"
        "def run():\n    return work()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    from toy import high

    tracer = Tracer("toy", ("low", "high"))
    tracer.install()
    assert high.run() == 2
    summary = tracer.summary()
    assert set(summary["wrapped"]) == {"low.helper", "low.work", "high.run"}
    # helper is called from inside its own layer, so it opens no span
    assert [s[0] for s in tracer.spans] == ["high.run", "low.work"]
    assert summary["layer_calls"] == {"high": 1, "low": 1}
    total = tracer.spans[0][4] - tracer.spans[0][3]
    assert sum(summary["layer_self_s"].values()) == pytest.approx(total)
    for name in list(sys.modules):
        if name == "toy" or name.startswith("toy."):
            del sys.modules[name]
