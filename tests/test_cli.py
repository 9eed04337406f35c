import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (STRUCTURE_JSON, reference_dumps_json,
                      reference_render_field_svg, reference_write_field_csv)
from fractalsync import (DegreeVector, build_graph, build_sg_graph,
                         circle_harmonic_map, dirichlet_energy, neumann_check,
                         solve_dirichlet, solve_equilibrium)
from fractalsync import kuramoto as km
from fractalsync.cli import (_FLAGS, RunConfig, _build_parser,
                             _config_from_args, main)
from fractalsync.serialize import (dumps_json, read_field_csv, sha256_of,
                                   write_field_csv)


def run(args):
    return main(args)


def test_json_floats_roundtrip(tmp_path):
    obj = {"a": 0.1 + 0.2, "b": [1 / 3, 2.0 ** -52], "c": {"d": 5 / 12}}
    text = dumps_json(obj)
    back = json.loads(text)
    assert back["a"] == obj["a"]
    assert back["b"] == obj["b"]
    assert back["c"]["d"] == obj["c"]["d"]
    assert "0.33333333333333331" in text  # 17 significant digits


def test_field_csv_roundtrip(tmp_path):
    vals = np.array([0.1, 1 / 3, -5 / 7, 2.0 ** -40])
    path = tmp_path / "f.csv"
    write_field_csv(path, vals)
    np.testing.assert_array_equal(read_field_csv(path), vals)


def test_build_graph_cmd(tmp_path):
    out = tmp_path / "g"
    assert run(["build-graph", "--fractal", "sg", "--level", "2",
                "--out", str(out)]) == 0
    data = json.loads((out / "graph_sg_2.json").read_text())
    assert data["level"] == 2
    assert len(data["itinerary"]) == len(data["x"]) == len(data["y"]) == 15
    manifest = json.loads((out / "manifest.json").read_text())
    assert {e["path"] for e in manifest["artifacts"]} == {
        "graph_sg_2.json", "structure.json"}
    meta = json.loads((out / "structure.json").read_text())
    assert meta["weights"] == [0.6, 0.6, 0.6]


def test_harmonic_cmd_energy_one(tmp_path):
    out = tmp_path / "h"
    assert run(["harmonic", "--fractal", "sg", "--level", "4",
                "--boundary", "0,0,1", "--svg", "--out", str(out)]) == 0
    rep = json.loads((out / "energy.json").read_text())
    assert abs(rep["energy"] - 1.0) < 1e-12
    f = read_field_csv(out / "solution.csv")
    assert len(f) == 123
    assert (out / "solution.svg").exists()


def test_harmonic_cmd_zero_boundary(tmp_path):
    out = tmp_path / "h0"
    assert run(["harmonic", "--level", "3", "--boundary", "0,0,0",
                "--out", str(out)]) == 0
    assert np.abs(read_field_csv(out / "solution.csv")).max() == 0.0


def test_harmonic_cmd_ring_pin(tmp_path):
    out = tmp_path / "hr"
    assert run(["harmonic", "--fractal", "ring", "--level", "4",
                "--boundary", "0.25", "--out", str(out)]) == 0
    f = read_field_csv(out / "solution.csv")
    np.testing.assert_allclose(f, 0.25)


def test_covering_cmd(tmp_path):
    out = tmp_path / "c"
    assert run(["covering", "--level", "3", "--degree", "1",
                "--out", str(out)]) == 0
    lift = json.loads((out / "lift.json").read_text())
    assert abs(lift["energy"] - 5 / 12) < 1e-12
    neu = json.loads((out / "neumann.json").read_text())
    assert all(abs(v) < 1e-9 for v in neu.values())
    dom = json.loads((out / "domain.json").read_text())
    assert dom["cuts"][0]["jump"] == 1


def test_covering_of_another_class_fails(tmp_path, capsys):
    # at level 3 the map for eps:1,13:2 winds once on loop 133 instead
    assert run(["covering", "--level", "3", "--degree", "eps:1,13:2",
                "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err.strip()
    assert err == ("error: DegreeMismatchError: the harmonic map on the "
                   "level-3 sg graph has degree eps:1,133:1, not the "
                   "requested eps:1,13:2")


def test_twist_that_leaves_its_class_fails(tmp_path, capsys):
    # Newton refuses the level-4 map (of the right class), and no flow
    # stands in, whose end would leave the class (1:-1): the artifacts,
    # of the map itself, are written and the run fails
    out = tmp_path / "t"
    assert run(["twist", "--level", "4", "--degree", "eps:1,13:2",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == ("error: NotAnEquilibriumError: Newton refused the level-4 "
                   "harmonic map: pinned Hessian not positive definite")
    rep = json.loads((out / "equilibrium.json").read_text())
    assert rep["degree_requested"] == rep["degree"] == {"eps": 1, "13": 2}
    assert rep["method"] == "newton" and rep["converged"] is False
    assert rep["fallback"] == "pinned Hessian not positive definite"
    assert rep["steps"] == rep["newton_steps"] == 0
    assert rep["stability"] is None
    assert rep["max_circle_distance_to_harmonic_map"] == 0.0
    listed = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert [a["path"] for a in listed] == ["equilibrium.csv", "equilibrium.json"]


@pytest.mark.parametrize("sign", [1, -1])
def test_verify_with_rows_of_another_class_fails(tmp_path, capsys, sign):
    # below the onset of 1:2 (and of its mirror 1:-2) Newton refuses the
    # map at levels 3 and 4; no flow stands in, whose end class rounding
    # would decide (a symmetric saddle's stable manifold), so a refused
    # row has no equilibrium to measure, and the run fails at the first
    # one after writing its artifacts.  Both signs are refused alike
    out = tmp_path / "v"
    assert run(["verify", "--degree", f"1:{2 * sign}", "--levels", "3:6",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == ("error: NotAnEquilibriumError: Newton refused the level-3 "
                   "harmonic map: pinned Hessian not positive definite")
    rows = json.loads((out / "verify.json").read_text())["rows"]
    assert [r["degree_found"] for r in rows] == [{"1": 2 * sign}] * 4
    assert [r["method"] for r in rows] == ["newton"] * 4
    assert [r["converged"] for r in rows] == [False, False, True, True]
    assert [r["fallback"] for r in rows] == (
        ["pinned Hessian not positive definite"] * 2 + [None] * 2)
    for r in rows:
        measured = r["fallback"] is None
        assert (r["km_energy_equilibrium"] is not None) == measured
        assert (r["max_deviation"] is not None) == measured
        assert (r["hessian_min_eig"] is not None) == measured
    csv_rows = (out / "verify.csv").read_text().splitlines()[1:]
    assert [line.endswith(",") for line in csv_rows] == [True, True, False, False]
    if sign == -1:   # the mirror pair is refused at the same levels alike
        mirror = tmp_path / "mirror"
        assert run(["verify", "--degree", "1:2", "--levels", "3:6",
                    "--out", str(mirror)]) == 1
        mirrored = json.loads((mirror / "verify.json").read_text())["rows"]
        keys = ("level", "method", "fallback", "converged")
        assert ([[r[k] for k in keys] for r in rows]
                == [[m[k] for k in keys] for m in mirrored])
        for r, m in zip(rows, mirrored):
            assert r["gap"] == pytest.approx(m["gap"], rel=1e-12)
    listed = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert [a["path"] for a in listed] == ["verify.csv", "verify.json"]


@pytest.mark.parametrize("found", [DegreeVector({(): 2}), None],
                         ids=["eps:2", "unresolved"])
@pytest.mark.parametrize("mode", ["twist", "verify"])
def test_equilibrium_of_another_class_fails_after_its_artifacts(
        tmp_path, capsys, monkeypatch, mode, found):
    # Newton keeps its start's class, so only a report whose degree is
    # replaced, by another class or by an unread one, reaches the guard
    solve = km.solve_equilibrium
    monkeypatch.setattr(km, "solve_equilibrium",
                        lambda *a: replace(solve(*a), degree=found))
    out = tmp_path / "o"
    argv = ["twist", "--level", "3"] if mode == "twist" else [
        "verify", "--levels", "3:4"]
    assert run(argv + ["--degree", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == (
        f"error: DegreeMismatchError: the level-3 equilibrium has degree "
        f"{'unresolved' if found is None else found}, not the requested eps:1")
    listed = json.loads((out / "manifest.json").read_text())["artifacts"]
    stem = "equilibrium" if mode == "twist" else "verify"
    assert [a["path"] for a in listed] == [f"{stem}.csv", f"{stem}.json"]
    assert all(sha256_of(out / a["path"]) == a["sha256"] for a in listed)
    written = json.loads((out / f"{stem}.json").read_text())
    found_json = None if found is None else found.to_json_dict()
    if mode == "twist":
        assert written["degree"] == found_json
        # no dense listing of a degree that was not read
        assert written.get("degree_dense") == (None if found is None else [2])
        assert ("degree:" in captured.out) == (found is not None)
    else:
        assert [r["degree_found"] for r in written["rows"]] == [found_json] * 2


@pytest.mark.parametrize("argv,message", [
    (["verify", "--degree", "1", "--levels", "10:13"],
     "sg level must be in [0, 12], got 13"),
    (["sweep", "--levels", "3:13"], "sg level must be in [0, 12], got 13"),
    (["twist", "--level", "13"], "sg level must be in [0, 12], got 13"),
    (["verify", "--fractal", "ring", "--levels", "0:3"],
     "ring level must be in [1, 20], got 0"),
])
def test_levels_out_of_range_fail_before_any_level_runs(tmp_path, capsys,
                                                        monkeypatch, argv,
                                                        message):
    from fractalsync import cli

    calls = []
    monkeypatch.setattr(cli, "_twist_report",
                        lambda *a, **kw: calls.append(a))
    out = tmp_path / "bad"
    start = time.perf_counter()
    assert run(argv + ["--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.strip() == f"error: ValueError: {message}"
    assert calls == []
    assert not out.exists()


def test_twist_cmd_and_determinism(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    args = ["twist", "--level", "3", "--degree", "1", "--svg"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    rep = json.loads((out1 / "equilibrium.json").read_text())
    assert rep["converged"] is True
    assert rep["stability"] == "stable"
    assert rep["degree"] == rep["degree_requested"] == {"eps": 1}
    # identical config -> byte-identical artifacts
    for name in ("equilibrium.json", "equilibrium.csv", "equilibrium.svg"):
        assert sha256_of(out1 / name) == sha256_of(out2 / name)
    # without --svg no SVG is written, and the other artifacts are the same
    out3 = tmp_path / "t3"
    assert run(args[:-1] + ["--out", str(out3)]) == 0
    assert not (out3 / "equilibrium.svg").exists()
    listed = json.loads((out3 / "manifest.json").read_text())["artifacts"]
    assert [a["path"] for a in listed] == ["equilibrium.csv", "equilibrium.json"]
    for name in ("equilibrium.json", "equilibrium.csv"):
        assert sha256_of(out1 / name) == sha256_of(out3 / name)


def test_twist_has_no_pin_option(tmp_path):
    # Newton pins vertex 0; the stable/saddle verdict does not depend on it
    with pytest.raises(SystemExit):
        run(["twist", "--level", "2", "--degree", "1", "--pin", "3",
             "--out", str(tmp_path / "p")])


def test_sweep_perturbed_runs_flow_unperturbed_runs_newton(tmp_path):
    import fractalsync as fs
    from conftest import rk4_reference
    jobs = {}
    for perturb, seeds in (("0", []), ("0.1", ["--seeds", "4:4"])):
        out = tmp_path / f"s{perturb}"
        assert run(["sweep", "--levels", "3:3", "--degrees", "1", "--perturb",
                    perturb, "--out", str(out)] + seeds) == 0
        jobs[perturb], = json.loads((out / "sweep.json").read_text())["jobs"]
    assert jobs["0"]["method"] == "newton" and jobs["0"]["fallback"] is None
    assert jobs["0"]["steps"] == 0 and jobs["0"]["newton_steps"] > 0
    # a perturbed start is left to the flow, which may leave its class;
    # Newton only polishes the tail once the flow has settled
    g = fs.build_sg_graph(3)
    phases, _ = fs.circle_harmonic_map(g, fs.DegreeVector({(): 1}))
    rng = np.random.default_rng(4)
    u0 = fs.wrap_phases(phases + rng.uniform(-0.1, 0.1, g.n_vertices))
    cfg = fs.FlowConfig()
    rep = fs.integrate_to_equilibrium(g, u0, cfg)
    job = jobs["0.1"]
    assert job["method"] == "flow+newton" and job["fallback"] is None
    assert job["method"] == rep.method
    assert (job["steps"], job["newton_steps"]) == (rep.steps, rep.newton_steps)
    assert job["energy"] == rep.energy
    assert job["hessian_min_eig"] == rep.hessian_min_eig
    ref = rk4_reference(g, u0, cfg)
    assert 0 < rep.newton_steps and rep.steps < ref.steps
    assert fs.circle_distance(rep.field, ref.field).max() < 1e-8
    assert rep.hessian_min_eig == pytest.approx(ref.hessian_min_eig, rel=1e-9)
    assert job["degree_found"] == ref.degree.to_json_dict() == {"eps": 1}
    assert job["stability"] == ref.stability == "stable"


def test_flow_cmd_trajectory_ends_with_newton_finish(tmp_path, monkeypatch):
    from conftest import spy_handoff
    events = spy_handoff(monkeypatch)
    out = tmp_path / "fr"
    assert run(["flow", "--fractal", "ring", "--level", "4", "--init",
                "random", "--seed", "2", "--traj", "--out", str(out)]) == 0
    rep = json.loads((out / "equilibrium.json").read_text())
    assert rep["method"] == "flow+newton" and rep["newton_steps"] > 0
    rows = [[float(v) for v in line.split(",")] for line in
            (out / "trajectory.csv").read_text().strip().splitlines()[1:]]
    # one row per accepted block, then the polished point at the same time
    assert len(rows) == rep["steps"] // 25 + 2
    assert rows[-1][0] == rows[-2][0] == rep["time"]
    # Newton runs once, at the first block in a cell; the first block below
    # the wall energy of its end hands off, whatever its residual (here
    # above 1e-3), and Newton only lowers the energy
    assert [ev[0] for ev in events] == ["newton", "wall"]
    (_, start, cell, newton_end), (_, wall) = events
    assert cell is not None and newton_end[2] == rep["newton_steps"]
    first = [tuple(r[1:]) for r in rows].index(start)
    assert all(e >= wall for _, e, _ in rows[first:-2])
    assert rows[-1][1] <= rows[-2][1] < wall
    assert rows[-2][2] >= 1e-3
    assert rows[-1][2] == rep["residual"] < 1e-10


def test_twist_above_equilibrium_tol_classifies_the_certified_end(tmp_path):
    # Newton stops once the residual is below --tol and certifies the
    # field it reports; that factor classifies it, as at the default tol
    reps = []
    for tol in ("1e-5", "1e-10"):
        out = tmp_path / tol
        assert run(["twist", "--level", "6", "--degree", "1", "--tol", tol,
                    "--out", str(out)]) == 0
        reps.append(json.loads((out / "equilibrium.json").read_text()))
    loose, tight = reps
    assert loose["method"] == "newton"
    assert km.EQUILIBRIUM_TOL <= loose["residual"] < 1e-5
    assert loose["stability"] == tight["stability"] == "stable"
    assert loose["hessian_min_eig"] == pytest.approx(tight["hessian_min_eig"],
                                                     rel=1e-6)


def test_twist_zero_degree(tmp_path):
    out = tmp_path / "t0"
    assert run(["twist", "--level", "2", "--degree", "0",
                "--out", str(out)]) == 0
    rep = json.loads((out / "equilibrium.json").read_text())
    assert rep["energy"] == 0.0


def test_flow_cmd_with_trajectory(tmp_path):
    out = tmp_path / "f"
    assert run(["flow", "--fractal", "ring", "--level", "4",
                "--init", "twist:1", "--traj", "--out", str(out)]) == 0
    rep = json.loads((out / "equilibrium.json").read_text())
    assert rep["converged"] is True
    assert rep["degree"] == {"eps": 1}
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "time,energy,residual"


def test_flow_cmd_from_csv(tmp_path):
    out = tmp_path / "fc"
    init = tmp_path / "init.csv"
    write_field_csv(init, np.full(8, 0.625))
    assert run(["flow", "--fractal", "ring", "--level", "3",
                "--init", str(init), "--out", str(out)]) == 0
    rep = json.loads((out / "equilibrium.json").read_text())
    assert rep["energy"] == 0.0


@pytest.mark.parametrize("rows,message", [
    ("0,0.1\n0,0.2\n", "id 0 appears twice"),
    ("0,0.1\n2,0.2\n", "id 2 outside 0..1"),
    ("1,0.1\n0,nan\n", "id 0 has the non-finite value nan"),
    ("0,inf\n1,0.2\n", "id 0 has the non-finite value inf"),
])
def test_read_field_csv_rejects_bad_ids_and_values(tmp_path, rows, message):
    path = tmp_path / "f.csv"
    path.write_text("id,value\n" + rows)
    with pytest.raises(ValueError, match=message):
        read_field_csv(path)


def test_read_field_csv_accepts_any_id_order(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("id,value\n2,0.3\n0,0.1\n1,0.2\n")
    np.testing.assert_array_equal(read_field_csv(path), [0.1, 0.2, 0.3])


def _init_csv(tmp_path, values):
    path = tmp_path / "init.csv"
    path.write_text("id,value\n" + "".join(
        f"{k},{v}\n" for k, v in enumerate(values)))
    return str(path)


def _raw_csv(tmp_path, text):
    path = tmp_path / "init.csv"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("init,message", [
    ("constant:nan", "--init 'constant:nan': field value nan at vertex 0 "
                     "is not finite"),
    ("constant:-inf", "field value -inf at vertex 0 is not finite"),
    (lambda p: _init_csv(p, [0.1, 0.2, "nan", 0.4] * 2),
     "init.csv: id 2 has the non-finite value nan"),
    (lambda p: _init_csv(p, [0.0] * 7),
     "field shape (7,) does not match graph with 8 vertices"),
    (lambda p: _raw_csv(p, ""),
     "init.csv: line 1: empty file, expected a header"),
    (lambda p: _raw_csv(p, "id,value\n0\n"),
     "init.csv: line 2: expected id,value, got '0'"),
    (lambda p: _raw_csv(p, "id,value\n0,0.1\n0,1,2\n"),
     "init.csv: line 3: expected id,value, got '0,1,2'"),
])
def test_flow_init_checked_where_it_enters(tmp_path, capsys, init, message):
    if callable(init):
        init = init(tmp_path)
    assert run(["flow", "--fractal", "ring", "--level", "3", "--init", init,
                "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ValueError: --init ")
    assert message in err
    assert "\n" not in err


def test_verify_cmd_ring_closed_form(tmp_path):
    out = tmp_path / "v"
    assert run(["verify", "--fractal", "ring", "--degree", "1",
                "--levels", "3:6", "--out", str(out)]) == 0
    table = json.loads((out / "verify.json").read_text())
    for row in table["rows"]:
        n = row["level"]
        closed = 0.5 - 2.0 ** (2 * n) * (1 - np.cos(2 * np.pi * 2.0 ** -n)) / (4 * np.pi ** 2)
        assert abs(row["gap"] - closed) < 1e-12
    assert table["gap_decay_exponent"] == pytest.approx(-2 * np.log(2), rel=0.05)


def test_verify_cmd_zero_degree_gaps_zero(tmp_path):
    out = tmp_path / "v0"
    assert run(["verify", "--degree", "0", "--levels", "2:3",
                "--out", str(out)]) == 0
    table = json.loads((out / "verify.json").read_text())
    assert all(row["gap"] == 0.0 for row in table["rows"])


def test_sweep_cmd(tmp_path):
    out = tmp_path / "s"
    assert run(["sweep", "--levels", "2:3", "--degrees", "1",
                "--seeds", "0:1", "--perturb", "0.02",
                "--out", str(out)]) == 0
    table = json.loads((out / "sweep.json").read_text())
    assert len(table["jobs"]) == 4
    assert all(job["converged"] for job in table["jobs"])
    assert all(job["degree_found"] == {"eps": 1} for job in table["jobs"])


def test_cli_error_single_line(tmp_path, capsys):
    assert run(["harmonic", "--level", "3", "--boundary", "bogus",
                "--out", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ")
    assert "\n" not in err


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--seeds", "4:2"], "--seeds '4:2' is an empty range"),
    (["verify", "--levels", "5:3"], "--levels '5:3' is an empty range"),
    (["sweep", "--perturb", "-0.1"], "--perturb must be non-negative"),
    (["flow", "--fractal", "ring", "--level", "3", "--init", "twist:1.5"],
     "--init 'twist:1.5': invalid literal for int() with base 10: '1.5'"),
    (["flow", "--tol", "-1"], "--tol must be positive"),
    (["flow", "--max-time", "0"], "--max-time must be positive"),
    (["verify", "--jobs", "0"], "--jobs must be at least 1"),
    (["sweep", "--degrees", ";"], "--degrees ';' names no degree"),
    (["sweep", "--degrees", ""], "--degrees '' names no degree"),
    (["flow", "--fractal", "ring", "--level", "3", "--init", "twist:1",
      "--seed", "5"], "--seed is read only by --init random, not by "
                      "--init 'twist:1'"),
    (["covering", "--level", "4", "--degree", "eps:1,eps:2"],
     "degree 'eps:1,eps:2' repeats word eps"),
    (["covering", "--level", "4", "--degree", "eps:1,:2"],
     "degree 'eps:1,:2' repeats word eps"),
    (["flow", "--fractal", "ring", "--level", "3", "--init", "constant:abc"],
     "--init 'constant:abc': could not convert string to float: 'abc'"),
    (["flow", "--level", "3", "--init", "twist:1"],
     "--init 'twist:1': twisted states live on the ring"),
    (["sweep", "--levels", "3:3", "--max-time", "5"],
     "--max-time is read only by a positive --perturb, not by --perturb 0.0"),
])
def test_numeric_inputs_checked_where_they_enter(tmp_path, capsys, argv, message):
    out = tmp_path / "bad"
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ValueError: ") and message in err
    assert "\n" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--levels", "3:3", "--degrees", "1;1,x"],
     "--degrees: degree '1,x': entry 'x' has no integer value"),
    (["sweep", "--levels", "3:3", "--degrees", "1;13:a"],
     "--degrees: degree '13:a': entry '13:a' has no integer value"),
    (["covering", "--level", "4", "--degree", "1,x"],
     "--degree: degree '1,x': entry 'x' has no integer value"),
    (["covering", "--level", "4", "--degree", "13:a"],
     "--degree: degree '13:a': entry '13:a' has no integer value"),
    (["covering", "--level", "4", "--degree", "1:2:3"],
     "--degree: degree '1:2:3': entry '1:2:3' has no integer value"),
    (["covering", "--level", "4", "--degree", "a:1"],
     "--degree: word 'a' uses symbols outside (1, 2, 3)"),
])
def test_bad_degree_spec_names_its_flag_before_any_job(tmp_path, capsys,
                                                       monkeypatch, argv,
                                                       message):
    from fractalsync import cli

    calls = []
    monkeypatch.setattr(cli, "_twist_report",
                        lambda *a, **kw: calls.append(a))
    out = tmp_path / "bad"
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == f"error: ValueError: {message}"
    # the good "1" of a sweep never runs: every spec is parsed where it enters
    assert calls == []
    assert not out.exists()


def test_ring_degree_of_positive_order_fails_one_line(tmp_path, capsys):
    out = tmp_path / "bad"
    assert run(["covering", "--fractal", "ring", "--level", "4", "--degree",
                "1:1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == (
        "error: ValueError: ring degrees live on the single full cycle")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_boundary_checked_where_it_enters(tmp_path, capsys, value):
    out = tmp_path / "o"
    assert run(["harmonic", "--level", "3", "--boundary", f"0,0,{value}",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == (f"error: ValueError: boundary value {float(value)!r} at "
                   f"vertex {build_sg_graph(3).boundary_ids[2]} is not finite")
    # the error is raised before any artifact, so --out is never made
    assert not out.exists()


def test_cli_config_file(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({
        "fractal": "sg", "level": 3, "degree": "1", "out": str(tmp_path / "o")}))
    assert run(["twist", "--config", str(cfgfile)]) == 0
    rep = json.loads((tmp_path / "o" / "equilibrium.json").read_text())
    assert rep["degree"] == {"eps": 1}


@pytest.mark.parametrize("argv, key", [
    (["twist", "--level", "3", "--degree", "1"], "seed"),
    (["twist", "--level", "3", "--degree", "1"], "perturb"),
    (["verify", "--degree", "1", "--levels", "2:2"], "init"),
    (["harmonic", "--level", "2", "--boundary", "0,0,1"], "degree"),
])
def test_config_key_the_subcommand_does_not_read_rejected(tmp_path, capsys,
                                                          argv, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: 1, "fractal": "sg"}))
    out = tmp_path / "o"
    assert run(argv + ["--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == (f"error: ValueError: --config {path}: {argv[0]} does not "
                   f"read {key}")
    assert not out.exists()


@pytest.mark.parametrize("given, problem", [
    ({"level": "three"}, "level 'three' is not a valid int"),
    ({"level": 3.5}, "level 3.5 is not a valid int"),
    ({"tol": True}, "tol True is not a valid float"),
    ({"svg": "no"}, "svg 'no' is not a valid boolean (true or false)"),
    ({"svg": 1}, "svg 1 is not a valid boolean (true or false)"),
])
def test_config_value_checked_as_its_flag(tmp_path, capsys, given, problem):
    # a --config value passes the checks its flag's text would: a string
    # level used to fail later on with a TypeError naming no key, and a
    # non-empty string turned --svg on
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"degree": "1", **given}))
    out = tmp_path / "o"
    assert run(["twist", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"error: ValueError: --config {path}: {problem}"
    assert not out.exists()


@pytest.mark.parametrize("boundary", [
    {"5": 0, "6": 0, "7": 1},  # read as its keys, the boundary (5, 6, 7)
    [False, False, True],      # read as 0, 0, 1
    [0, 0, "1"], [0, 0, None], 1])
def test_config_boundary_is_text_or_a_list_of_numbers(tmp_path, capsys,
                                                      boundary):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"boundary": boundary, "level": 2}))
    out = tmp_path / "o"
    assert run(["harmonic", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == (f"error: ValueError: --boundary {boundary!r} is neither "
                   f"comma-separated numbers nor a list of numbers")
    assert not out.exists()


@pytest.mark.parametrize("mode, given, problem", [
    # read through str(), these failed on int() of "['1'" and "[3, 4]"
    ("verify", {"levels": [3, 4]},
     "--levels [3, 4] is neither a range lo:hi nor an int"),
    ("verify", {"levels": True}, "--levels True is neither a range lo:hi "
                                 "nor an int"),
    ("verify", {"levels": 3.0}, "--levels 3.0 is neither a range lo:hi "
                                "nor an int"),
    ("verify", {"levels": "3:x"}, "--levels '3:x' is neither a range lo:hi "
                                  "nor an int"),
    ("sweep", {"seeds": [0, 1]}, "--seeds [0, 1] is neither a range lo:hi "
                                 "nor an int"),
    ("sweep", {"degrees": [1, 2]}, "--degrees [1, 2] is neither "
     "semicolon-separated degree specs nor a list of them"),
    ("sweep", {"degrees": ["1", {"eps": 2}]}, "--degrees ['1', {'eps': 2}] "
     "is neither semicolon-separated degree specs nor a list of them"),
    ("sweep", {"degrees": {"eps": 1}}, "--degrees {'eps': 1} is neither "
     "semicolon-separated degree specs nor a list of them"),
    ("sweep", {"degrees": []}, "--degrees [] names no degree"),
])
def test_config_ranges_and_degree_lists_name_their_flag(tmp_path, capsys, mode,
                                                       given, problem):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(given))
    out = tmp_path / "o"
    assert run([mode, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == f"error: ValueError: {problem}"
    assert not out.exists()


def test_config_degree_list_runs_as_its_text(tmp_path):
    # the sweep that used to fail on int() of "['1'"
    outs = []
    for i, degrees in enumerate((["1", "2,0,0"], "1;2,0,0")):
        path = tmp_path / f"run{i}.json"
        path.write_text(json.dumps({"degrees": degrees, "levels": "3:3"}))
        outs.append(tmp_path / f"o{i}")
        assert run(["sweep", "--config", str(path), "--out",
                    str(outs[-1])]) == 0
    sweeps = [(out / "sweep.json").read_text() for out in outs]
    assert sweeps[0] == sweeps[1]


def test_config_value_converted_as_its_flag(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"level": "3", "tol": "1e-5",
                                "max_time": 5, "traj": True}))
    cfg = _config_from_args(_build_parser().parse_args(
        ["flow", "--config", str(path)]))
    assert (cfg.level, cfg.tol, cfg.max_time, cfg.traj) == (
        3, 1e-5, 5.0, True)
    assert type(cfg.level) is int and type(cfg.max_time) is float


@pytest.mark.parametrize("mode", ["twist", "verify"])
def test_config_null_means_the_default(tmp_path, mode):
    # a null value is read as if its key were left out, for a typed flag, a
    # switch and an untyped flag alike
    path = tmp_path / "run.json"
    keys = {"twist": ("level", "tol", "svg", "out"),
            "verify": ("levels", "tol", "out")}[mode]
    path.write_text(json.dumps(dict.fromkeys(keys)))
    parser = _build_parser()
    cfg = _config_from_args(parser.parse_args([mode, "--config", str(path)]))
    assert cfg == _config_from_args(parser.parse_args([mode]))
    assert cfg.tol == RunConfig.tol and cfg.out == "out"


@pytest.mark.parametrize("mode, key, in_file, flag, from_file, from_flag", [
    ("twist", "degree", {"eps": 2}, ["--degree", "0,1,0,0"],
     DegreeVector({(): 2}), DegreeVector({(1,): 1})),
    ("twist", "degree", "1", ["--degree", ""], DegreeVector({(): 1}),
     DegreeVector()),
    ("harmonic", "boundary", [0, 0, 1], ["--boundary", "1,2.5,3"],
     [0.0, 0.0, 1.0], [1.0, 2.5, 3.0]),
    ("verify", "levels", "3:5", ["--levels", "2:3"], (3, 4, 5), (2, 3)),
    ("sweep", "seeds", "0:2", ["--seeds", "7"], (0, 1, 2), (7,)),
    ("sweep", "degrees", "1;2,0,0", ["--degrees", "1,1,1,1"],
     [("1", DegreeVector({(): 1})), ("2,0,0", DegreeVector({(): 2}))],
     [("1,1,1,1", DegreeVector.parse("1,1,1,1"))]),
    ("sweep", "degrees", "1;2,0,0", ["--degrees", "1;"],
     [("1", DegreeVector({(): 1})), ("2,0,0", DegreeVector({(): 2}))],
     [("1", DegreeVector({(): 1}))]),
    ("harmonic", "boundary", "0,0.5,1", ["--boundary", "2"],
     [0.0, 0.5, 1.0], [2.0]),
])
def test_config_flag_beats_file(tmp_path, mode, key, in_file, flag,
                                from_file, from_flag):
    path = tmp_path / "run.json"
    # --seeds is read only by a perturbed sweep
    extra = {"perturb": 0.1} if key == "seeds" else {}
    path.write_text(json.dumps({key: in_file, **extra}))
    parser = _build_parser()
    base = [mode, "--config", str(path)]
    assert getattr(_config_from_args(parser.parse_args(base)), key) == from_file
    assert getattr(_config_from_args(parser.parse_args(base + flag)),
                   key) == from_flag


@pytest.mark.parametrize("mode", ["build-graph", "harmonic", "covering",
                                  "twist", "verify", "sweep"])
def test_seed_rejected_where_nothing_reads_it(mode):
    # only flow (--init random) reads --seed; sweep takes --seeds
    with pytest.raises(SystemExit) as info:
        _build_parser().parse_args([mode, "--seed", "1"])
    assert info.value.code == 2


@pytest.mark.parametrize("in_file, flags", [
    ({"init": "constant:0.5", "seed": 5}, []),
    ({"seed": 5}, ["--init", "constant:0.5"]),
    ({"init": "constant:0.5"}, ["--seed", "5"]),
])
def test_seed_without_init_random_rejected(tmp_path, capsys, in_file, flags):
    # --seed seeds only --init random; with any other init it would be
    # parsed and then ignored, wherever either of the two comes from
    path = tmp_path / "run.json"
    path.write_text(json.dumps(in_file))
    out = tmp_path / "o"
    assert run(["flow", "--fractal", "ring", "--level", "3", "--config",
                str(path), "--out", str(out)] + flags) == 1
    err = capsys.readouterr().err.strip()
    assert err == ("error: ValueError: --seed is read only by --init random, "
                   "not by --init 'constant:0.5'")
    assert not out.exists()


def test_seed_with_init_random_accepted():
    parser = _build_parser()
    for argv in (["flow", "--seed", "5"],
                 ["flow", "--seed", "5", "--init", "random"]):
        cfg = _config_from_args(parser.parse_args(argv))
        assert (cfg.init, cfg.seed) == ("random", 5)


# every flag each subcommand offers; a --config file may use exactly these
# keys (``max_time`` for ``--max-time``)
CLI_SURFACE = {
    "build-graph": "--config --fractal --level --out",
    "harmonic": "--boundary --config --fractal --level --method --out --svg",
    "covering": "--config --degree --fractal --level --out",
    "twist": "--config --degree --fractal --level --out --svg --tol",
    "flow": "--config --fractal --init --level --max-time --out --seed "
            "--tol --traj",
    "verify": "--config --degree --fractal --jobs --levels --out --tol",
    "sweep": "--config --degrees --fractal --jobs --levels --max-time --out "
             "--perturb --seeds --tol",
}


def _config_key(flag):
    return flag[2:].replace("-", "_")


@pytest.mark.parametrize("mode", sorted(CLI_SURFACE))
def test_cli_surface_is_pinned(tmp_path, mode):
    parser = _build_parser()
    sub, = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(CLI_SURFACE)
    offered = {o for a in sub.choices[mode]._actions for o in a.option_strings}
    assert offered - {"-h", "--help"} == set(CLI_SURFACE[mode].split())
    # every key that is no flag of this subcommand is refused in --config
    keys = {_config_key(f) for flags in CLI_SURFACE.values()
            for f in flags.split()}
    outside = keys - {_config_key(f) for f in CLI_SURFACE[mode].split()}
    path = tmp_path / "run.json"
    for key in sorted(outside | {"mode", "config", "max-time", "bogus"}):
        path.write_text(json.dumps({key: 1}))
        args = parser.parse_args([mode, "--config", str(path)])
        with pytest.raises(ValueError, match=f"{mode} does not read {key}$"):
            _config_from_args(args)


@pytest.mark.parametrize("mode", ["twist", "flow", "verify", "sweep"])
def test_step_is_no_setting(tmp_path, capsys, mode):
    # the RK4 step is always kuramoto.default_step: --step is a usage
    # error, and a --config file that sets it is refused
    parser = _build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([mode, "--step", "0.01"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --step 0.01" in capsys.readouterr().err
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"step": 0.01}))
    with pytest.raises(ValueError, match=f"{mode} does not read step$"):
        _config_from_args(parser.parse_args([mode, "--config", str(path)]))


def test_every_setting_is_a_flag():
    # a RunConfig field with no flag is a setting no run can change, and a
    # flag with no field a value no run reads
    assert ({f.name for f in fields(RunConfig)} - {"mode"}
            == set(_FLAGS) - {"config"})


def test_sweep_without_seeds_runs_seed(tmp_path):
    for seeds, expected in (([], [0]),
                            (["--seeds", "3", "--perturb", "0.01"], [3])):
        out = tmp_path / str(expected[0])
        assert run(["sweep", "--levels", "3:3", "--out", str(out)] + seeds) == 0
        jobs = json.loads((out / "sweep.json").read_text())["jobs"]
        assert [job["seed"] for job in jobs] == expected


@pytest.mark.parametrize("in_file, flags", [
    ({}, ["--seeds", "0:2"]),
    ({}, ["--seeds", "0:2", "--perturb", "0"]),
    ({"seeds": "0:2"}, []),
    ({"seeds": 1, "perturb": 0}, []),
    ({"perturb": 0.0}, ["--seeds", "1"]),
])
def test_seeds_without_perturb_rejected(tmp_path, capsys, in_file, flags):
    # an unperturbed sweep starts every job at the harmonic map, so --seeds
    # would be parsed and then ignored, wherever it comes from
    path = tmp_path / "run.json"
    path.write_text(json.dumps(in_file))
    out = tmp_path / "o"
    assert run(["sweep", "--levels", "3:3", "--config", str(path),
                "--out", str(out)] + flags) == 1
    assert capsys.readouterr().err.strip() == (
        "error: ValueError: --seeds is read only by a positive --perturb, "
        "not by --perturb 0.0")
    assert not out.exists()


def test_cli_unresolved_winding_errors(tmp_path):
    # level too coarse for the requested degree: actionable failure
    assert run(["covering", "--level", "1", "--degree", "0,1,0,0",
                "--out", str(tmp_path / "uw")]) == 1


def test_verify_cmd_sg_gap_matches_library(tmp_path):
    out = tmp_path / "vsg"
    assert run(["verify", "--degree", "1", "--levels", "2:4",
                "--out", str(out)]) == 0
    import fractalsync as fs
    from fractalsync import km_energy
    table = json.loads((out / "verify.json").read_text())
    for row in table["rows"]:
        assert row["method"] == "newton" and row["fallback"] is None
        assert row["degree_found"] == {"eps": 1}
        g = fs.build_sg_graph(row["level"])
        phases, lift = fs.circle_harmonic_map(g, fs.DegreeVector({(): 1}))
        gap = lift.energy() - km_energy(g, phases)
        assert abs(row["gap"] - gap) < 1e-14
    # fitted exponent reported and consistent with the rows
    gaps = [row["gap"] for row in table["rows"]]
    ns = [row["level"] for row in table["rows"]]
    slope = float(np.polyfit(ns, np.log(gaps), 1)[0])
    assert table["gap_decay_exponent"] == pytest.approx(slope, rel=1e-12)


def test_sweep_parallel_matches_serial(tmp_path):
    args = ["sweep", "--levels", "2:2", "--degrees", "1;2", "--seeds", "0:1",
            "--perturb", "0.01"]
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run(args + ["--jobs", "1", "--out", str(out1)]) == 0
    assert run(args + ["--jobs", "2", "--out", str(out2)]) == 0
    assert (out1 / "sweep.json").read_bytes() == (out2 / "sweep.json").read_bytes()


def test_jobs_start_no_more_workers_than_jobs(tmp_path, monkeypatch):
    # a pool forks all of its workers at once, so --jobs is capped at the
    # number of rows; the fake pool runs the rows here and starts nothing
    import concurrent.futures
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    for levels, expected in (("3:4", [2]), ("3:3", [])):
        pools.clear()
        assert run(["verify", "--levels", levels, "--jobs", "5000",
                    "--out", str(tmp_path / levels.replace(":", "_"))]) == 0
        assert pools == expected


# -- every artifact of a command against the byte oracles ---------------------


def _assert_artifacts(out, mode, oracles, tmp_path):
    """Each artifact of a ``mode`` run under ``out`` (manifest included)
    against its oracle: the text ``reference_dumps_json`` gives for an
    object, or a file that a conftest reference writer wrote."""
    names = {e["path"] for e in json.loads((out / "manifest.json").read_text())[
        "artifacts"]}
    assert names == set(oracles)
    for name, oracle in oracles.items():
        if callable(oracle):
            oracle = oracle(tmp_path / f"oracle_{name}").read_bytes()
        else:
            oracle = oracle.encode()
        assert (out / name).read_bytes() == oracle, name
    manifest = {"command": mode, "artifacts": [
        {"path": name, "sha256": sha256_of(out / name)} for name in sorted(names)]}
    assert (out / "manifest.json").read_text() == reference_dumps_json(manifest)


@pytest.mark.parametrize("method", ["extension", "linear-solve"])
def test_harmonic_cmd_artifacts_match_oracles(tmp_path, method):
    out = tmp_path / "out"
    assert run(["harmonic", "--level", "4", "--boundary", "0,0.25,1",
                "--method", method, "--svg", "--out", str(out)]) == 0
    g = build_graph("sg", 4)
    f = solve_dirichlet(g, [0.0, 0.25, 1.0], method=method)
    energy = dirichlet_energy(g, f).to_json_dict()
    _assert_artifacts(out, "harmonic", {
        "solution.csv": lambda p: reference_write_field_csv(p, f),
        "solution.json": reference_dumps_json({"values": f}),
        # stdlib json writes the per-cell map as a dict
        "energy.json": reference_dumps_json(dict(
            energy, per_cell=dict(energy["per_cell"]))),
        "solution.svg": lambda p: reference_render_field_svg(g, f, p, mode="real"),
    }, tmp_path)


def test_covering_cmd_artifacts_match_oracles(tmp_path):
    out = tmp_path / "out"
    assert run(["covering", "--level", "4", "--degree", "1,1,1,1",
                "--out", str(out)]) == 0
    g = build_graph("sg", 4)
    _, lift = circle_harmonic_map(g, DegreeVector.parse("1,1,1,1", g.fractal.alphabet))
    _assert_artifacts(out, "covering", {
        "domain.json": reference_dumps_json(lift.domain.to_json_dict()),
        "lift.csv": lambda p: reference_write_field_csv(p, lift.values),
        "lift.json": reference_dumps_json({"level": 4, "energy": lift.energy(),
                                           "values": lift.values}),
        "neumann.json": reference_dumps_json(
            {str(k): v for k, v in neumann_check(lift).items()}),
    }, tmp_path)


@pytest.mark.parametrize("fractal, level, degree", [("sg", 3, "1,1,1,1"),
                                                    ("ring", 5, "2")])
def test_twist_cmd_artifacts_match_oracles(tmp_path, fractal, level, degree):
    out = tmp_path / "out"
    assert run(["twist", "--fractal", fractal, "--level", str(level),
                "--degree", degree, "--svg", "--out", str(out)]) == 0
    g = build_graph(fractal, level)
    omega = DegreeVector.parse(degree, g.fractal.alphabet)
    phases, lift = circle_harmonic_map(g, omega)
    report = solve_equilibrium(g, phases, km.FlowConfig())
    assert report.degree == omega
    equilibrium = dict(
        report.to_json_dict(), degree_requested=omega.to_json_dict(),
        lift_energy=lift.energy(),
        max_circle_distance_to_harmonic_map=float(
            km.circle_distance(report.field, phases).max()),
        degree_dense=omega.to_dense(omega.max_order, g.fractal.alphabet))
    _assert_artifacts(out, "twist", {
        "equilibrium.json": reference_dumps_json(equilibrium),
        "equilibrium.csv": lambda p: reference_write_field_csv(p, report.field),
        "equilibrium.svg": lambda p: reference_render_field_svg(
            g, report.field, p, mode="phase"),
    }, tmp_path)


@pytest.mark.parametrize("fractal", ["sg", "ring"])
def test_build_graph_cmd_artifacts_match_oracles(tmp_path, fractal):
    out = tmp_path / "out"
    assert run(["build-graph", "--fractal", fractal, "--level", "3",
                "--out", str(out)]) == 0
    graph = build_graph(fractal, 3).to_json_dict()
    _assert_artifacts(out, "build-graph", {
        # stdlib json writes the cell map as a dict
        f"graph_{fractal}_3.json": reference_dumps_json(
            dict(graph, cells=dict(graph["cells"]))),
        "structure.json": reference_dumps_json(STRUCTURE_JSON[fractal]),
    }, tmp_path)


# every function of the generic structures route, on both fractals
_STRUCTURES_CALLS = """
import numpy as np
from fractalsync import DegreeVector
from fractalsync.graphs import RING, SG
from fractalsync.structures import (
    compatibility_residual, conductance, energy_value,
    extension_by_minimization, generic_harmonic_map,
    self_similarity_residual, structure_json)
for fractal, degree in ((SG, {(): 1, (2,): -1}), (RING, {(): 2})):
    u2 = np.linspace(0.0, 1.0, fractal.build(2).n_vertices)
    u3, _ = extension_by_minimization(fractal, 3, u2)
    assert compatibility_residual(fractal, 3, u2) < 1e-12
    assert self_similarity_residual(fractal, 3, u3) < 1e-12
    assert energy_value(fractal, 3, u3) > 0.0
    assert conductance(fractal, 3) == 1.0 / fractal.r / fractal.r / fractal.r
    assert structure_json(fractal)["name"] == fractal.name
    generic_harmonic_map(fractal, 4, DegreeVector(degree))
"""


def _run_without_scipy(tmp_path, commands, calls):
    """Run ``commands`` through ``main``, one after another, and then the
    Python ``calls``, in a fresh interpreter in which every scipy import
    fails."""
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from fractalsync.cli import main\n"
              f"for i, args in enumerate({commands!r}):\n"
              "    assert main(args + ['--out', f'o{i}']) == 0, args\n"
              + calls)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_equilibrium_pipeline_runs_without_scipy(tmp_path):
    # every subcommand, both harmonic methods and every function of the
    # generic structures route run with scipy blocked: numpy alone
    _run_without_scipy(tmp_path, [
        ["verify", "--levels", "3:5"],
        ["sweep", "--perturb", "0.1"],
        ["flow", "--fractal", "ring", "--init", "random"],
        ["flow", "--fractal", "ring", "--level", "6", "--init", "twist:17"],
        ["twist"],
        ["covering", "--degree", "1"],
        ["harmonic", "--boundary", "0,0,1", "--svg"],
        ["harmonic", "--boundary", "0,0,1", "--method", "linear-solve"],
        ["harmonic", "--fractal", "ring", "--boundary", "0.25",
         "--method", "linear-solve"],
        ["build-graph"],
        ["build-graph", "--fractal", "ring"],
    ], _STRUCTURES_CALLS)
