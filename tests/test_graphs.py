import dataclasses
import json
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractalsync import (DegreeVector, build_graph, build_ring_graph,
                         build_sg_graph, dirichlet_energy, km_energy, km_rhs,
                         laplacian, normal_derivative, restrict)
from fractalsync.covering import seed_domain
from fractalsync.graphs import FRACTALS, RING, SG, _refine
from fractalsync.serialize import dumps_json
from conftest import (Itinerary, apply_word, canonical_itinerary,
                      enumerate_gasket, extend_harmonic_once, hessian_matrix,
                      laplacian_matrix, reference_cells, reference_graph,
                      reference_id_of, reference_itinerary, ring1_one_edge,
                      trace_loop)


def test_level0_is_complete_triangle():
    g = build_sg_graph(0)
    assert g.n_vertices == 3
    assert g.n_edges == 3
    assert len(reference_cells(g)) == 1
    assert set(g.boundary_ids) == {0, 1, 2}


@pytest.mark.parametrize("n,nv,ne,nc", [(1, 6, 9, 3), (2, 15, 27, 9)])
def test_small_levels_match_enumeration_oracle(n, nv, ne, nc):
    coords, cells, edges = enumerate_gasket(n)
    assert (len(coords), len(edges), len(cells)) == (nv, ne, nc)
    g = build_sg_graph(n)
    assert g.n_vertices == nv
    assert g.n_edges == ne
    assert len(reference_cells(g)) == nc


@pytest.mark.parametrize("n", range(0, 9))
def test_vertex_count_matches_independent_enumeration(n):
    coords, _, edges = enumerate_gasket(n)
    g = build_sg_graph(n)
    assert g.n_vertices == len(coords)
    assert g.n_vertices == (3 ** (n + 1) + 3) // 2
    assert g.n_edges == len(edges) == 3 ** (n + 1)


@pytest.mark.parametrize("fractal", FRACTALS.values(), ids=lambda f: f.name)
def test_vertex_and_edge_counts_at_every_level(fractal):
    # (3**(n+1) + 3)/2 vertices and 3**(n+1) edges on the gasket, 2**n of
    # each on the ring; built unmemoised, so no large level is held
    counts = {"sg": lambda n: ((3 ** (n + 1) + 3) // 2, 3 ** (n + 1)),
              "ring": lambda n: (2 ** n, 2 ** n)}[fractal.name]
    for n in fractal.levels:
        g = _refine.__wrapped__(fractal, n)
        assert (g.n_vertices, g.n_edges) == counts(n), n


def test_every_route_to_a_graph_shares_one_object():
    # the CLI, covering and structures all reach Fractal.build: one graph
    # per (fractal, level) in a process
    omega = DegreeVector.parse("1,1,1,1")
    for n in (1, 2, 3):
        assert (build_graph("sg", n) is FRACTALS["sg"].build(n)
                is build_sg_graph(n))
        assert build_graph("ring", n) is build_ring_graph(n)
    seed = seed_domain(build_sg_graph(4), omega)
    assert seed.base is build_graph("sg", omega.max_order + 1)


def test_vertex_order_level1():
    # lexicographic itinerary order: v1, x=v(1~2), z=v(1~3), v2, y=v(2~3), v3
    g = build_sg_graph(1)
    assert [str(reference_itinerary(g, i)) for i in range(6)] == [
        "~1", "1~2", "1~3", "~2", "2~3", "~3"]
    np.testing.assert_allclose(
        g.coords,
        [[0, 0], [0.25, np.sqrt(3) / 4], [0.5, 0], [0.5, np.sqrt(3) / 2],
         [0.75, np.sqrt(3) / 4], [1, 0]], atol=1e-15)


def test_degrees_interior4_boundary2():
    g = build_sg_graph(3)
    deg = np.zeros(g.n_vertices, dtype=int)
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    for v in range(g.n_vertices):
        assert deg[v] == (2 if v in g.boundary_ids else 4)


def test_every_interior_vertex_has_two_names():
    g = build_sg_graph(3)
    n = g.level
    from itertools import product
    names = {}
    for w in product((1, 2, 3), repeat=n):
        for i in (1, 2, 3):
            raw = w + (i,) * 1
            it = canonical_itinerary(w, i)
            names.setdefault(it, set()).add((w, i))
    for it, raw in names.items():
        count = len(raw)
        if it.word == ():
            assert count == 1  # boundary vertices have one name
        else:
            assert count == 2


def test_edge_length_is_2_to_minus_n():
    for n in (1, 2, 4):
        g = build_sg_graph(n)
        d = np.linalg.norm(g.coords[g.edges[:, 0]] - g.coords[g.edges[:, 1]], axis=1)
        np.testing.assert_allclose(d, 2.0 ** -n, rtol=1e-12)


def test_edges_unique_and_irreflexive():
    g = build_sg_graph(4)
    assert all(a != b for a, b in g.edges)
    seen = {frozenset((int(a), int(b))) for a, b in g.edges}
    assert len(seen) == g.n_edges


def test_every_edge_in_exactly_one_cell():
    g = build_sg_graph(3)
    cover = {}
    for w, (a, b, c) in reference_cells(g).items():
        for e in ((a, b), (b, c), (c, a)):
            cover.setdefault(frozenset(e), []).append(w)
    assert all(len(ws) == 1 for ws in cover.values())


def test_cell_vertices_level0_and_level1():
    g0 = build_sg_graph(0)
    assert reference_cells(g0)[()] == (0, 1, 2)
    g1 = build_sg_graph(1)
    ids = reference_cells(g1)[(1,)]
    expected = [apply_word((1,), corner) for corner in
                [[0, 0], [0.5, np.sqrt(3) / 2], [1, 0]]]
    np.testing.assert_allclose(g1.coords[list(ids)], expected, atol=1e-15)


def test_cell_vertices_composed_homothety():
    g = build_sg_graph(2)
    ids = reference_cells(g)[(3, 2)]
    expected = [apply_word((3, 2), corner) for corner in
                [[0, 0], [0.5, np.sqrt(3) / 2], [1, 0]]]
    np.testing.assert_allclose(g.coords[list(ids)], expected, atol=1e-15)


def test_level_guard():
    with pytest.raises(ValueError):
        build_sg_graph(13)
    with pytest.raises(ValueError):
        build_sg_graph(-1)
    with pytest.raises(ValueError):
        build_ring_graph(0)
    with pytest.raises(ValueError):
        build_ring_graph(21)


def test_restrict_identity_and_linear_field():
    g2 = build_sg_graph(2)
    f = g2.coords[:, 0].copy()
    np.testing.assert_array_equal(restrict(g2, 2, f), f)
    g1 = build_sg_graph(1)
    np.testing.assert_allclose(restrict(g2, 1, f), g1.coords[:, 0], atol=1e-15)
    const = np.full(g2.n_vertices, 0.7)
    np.testing.assert_array_equal(restrict(g2, 0, const), [0.7] * 3)


def test_restrict_rejects_finer_target():
    g = build_sg_graph(2)
    with pytest.raises(ValueError):
        restrict(g, 3, np.zeros(g.n_vertices))


def test_nesting_vm_in_vn():
    g5 = build_sg_graph(5)
    for m in (0, 2, 4):
        gm = build_sg_graph(m)
        idx = g5.restriction_to(m)
        np.testing.assert_allclose(g5.coords[idx], gm.coords, atol=1e-15)
        # restrict after extend-by-inclusion is the identity on level-m fields
        f = np.arange(gm.n_vertices, dtype=float)
        fine = np.zeros(g5.n_vertices)
        fine[idx] = f
        np.testing.assert_array_equal(restrict(g5, m, fine), f)


def test_connected():
    from scipy.sparse import coo_matrix, csgraph
    for builder, n in ((build_sg_graph, 4), (build_ring_graph, 4)):
        g = builder(n)
        A = coo_matrix((np.ones(g.n_edges), (g.edges[:, 0], g.edges[:, 1])),
                       shape=(g.n_vertices,) * 2)
        assert csgraph.connected_components(A, directed=False,
                                            return_labels=False) == 1


def test_ring_basics():
    g = build_ring_graph(3)
    assert g.n_vertices == 8
    assert g.n_edges == 8
    deg = np.bincount(g.edges.ravel(), minlength=8)
    assert (deg == 2).all()
    g2 = build_ring_graph(2)
    np.testing.assert_array_equal(g2.coords[:, 0], [0, 0.25, 0.5, 0.75])
    assert g2.conductance == 4.0


def test_ring_level1_multiplicity():
    # i + 1 and i - 1 mod 2 coincide: the two cells give two parallel
    # edges, each vertex of degree 2 as at every other level
    g = build_ring_graph(1)
    assert g.n_vertices == 2
    assert g.cell_corners.tolist() == [[0, 1], [1, 0]]
    assert g.edges.tolist() == [[0, 1], [1, 0]]
    assert np.bincount(g.edges.ravel()).tolist() == [2, 2]


@settings(max_examples=200, deadline=None)
@given(u=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2))
def test_ring_level1_matches_one_edge_oracle(u):
    # the parallel edges give the old one edge of weight 2c bit for bit,
    # except where an energy term is subnormal: there c x + c x and 2c x
    # can round apart
    g = build_ring_graph(1)
    want = ring1_one_edge(u, g.conductance)
    got = {
        "km_energy": km_energy(g, u),
        "km_rhs": km_rhs(g, u),
        "hessian_matrix": hessian_matrix(g, u).toarray(),
        "laplacian_matrix": laplacian_matrix(g).toarray(),
        "laplacian": laplacian(g, u),
        "dirichlet_energy": dirichlet_energy(g, u).energy,
        "normal_derivative": normal_derivative(g, u, 0),
    }
    assert got.keys() == want.keys()
    subnormal = 0.0 < abs(u[1] - u[0]) < 1e-150
    for name, value in got.items():
        if subnormal:
            np.testing.assert_allclose(value, want[name], rtol=1e-15,
                                       atol=1e-300, err_msg=name)
        else:
            assert (np.asarray(value).tobytes()
                    == np.asarray(want[name]).tobytes()), name


@pytest.mark.parametrize("kind,levels", [("sg", range(9)),
                                         ("ring", range(1, 13))])
def test_edges_are_cell_sides(kind, levels):
    for n in levels:
        g = build_graph(kind, n)
        np.testing.assert_array_equal(g.edges, g.fractal.cell_edges(g.cell_corners))


@pytest.mark.parametrize("kind,n", [("sg", n) for n in range(13)]
                         + [("ring", n) for n in range(1, 21)])
def test_refinement_matches_digit_loop_reference(kind, n):
    # built unmemoised, so the large levels are not held for the session
    g, want = _refine.__wrapped__(FRACTALS[kind], n), reference_graph(kind, n)
    for name in ("keys", "birth", "cell_corners", "edges", "coords"):
        value = getattr(g, name)
        assert value.dtype == want[name].dtype, name
        assert value.shape == want[name].shape, name
        assert value.tobytes() == want[name].tobytes(), name
    assert g.boundary_ids == want["boundary_ids"]
    assert g.conductance == want["conductance"]


@pytest.mark.parametrize("kind,n", [("sg", 1), ("sg", 5), ("ring", 1),
                                    ("ring", 7)])
def test_midpoint_keys_spell_their_side(kind, n):
    # the midpoint of side (a, b), a < b, of level-(n-1) cell w is named
    # w a b~b: its key's last two symbols are k*min + max of the side
    g = build_graph(kind, n)
    k = g.cell_corners.shape[1]
    a, b = np.sort(g.fractal.sides, axis=1).T
    assert (k * a + b).tolist() == {3: [1, 5, 2], 2: [1]}[k]
    nodes = g.fractal.cell_nodes(g.cell_corners)
    w = np.arange(len(nodes))[:, None]
    np.testing.assert_array_equal(g.keys[nodes[:, k:]], k * k * w + k * a + b)
    # and they are exactly the vertices new at level n
    new = np.setdiff1d(np.arange(g.n_vertices), g.restriction_to(n - 1))
    np.testing.assert_array_equal(np.sort(nodes[:, k:], axis=None), new)


def test_build_graph_refuses_an_unknown_fractal():
    with pytest.raises(ValueError, match="unknown fractal .*'sg3'"):
        build_graph("sg3", 2)


@pytest.mark.parametrize("fractal", FRACTALS.values(), ids=lambda f: f.name)
def test_fractal_tables_are_read_only(fractal):
    # every graph and layer reads the record's tables: none may write them,
    # and building a graph (uncached, so it runs) leaves their flags alone
    tables = {name: v for name, v in vars(fractal).items()
              if isinstance(v, np.ndarray)}
    assert set(tables) == {"sides", "child_corners", "extension", "points",
                           "base_corners"}
    for arr in tables.values():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
    flags = {name: arr.flags.writeable for name, arr in tables.items()}
    for n in fractal.levels[:3]:
        assert _refine.__wrapped__(fractal, n).fractal is fractal
    assert {name: arr.flags.writeable for name, arr in tables.items()} == flags


def test_a_record_whose_sides_are_not_one_path_is_refused():
    # the K4 cell (the tetrahedral gasket's) has every corner of odd
    # degree, so no ordering of its sides is one path
    k4 = np.array([[0, 1], [1, 2], [2, 0], [0, 3], [1, 3], [2, 3]])
    for name, sides in (("sg", SG.sides[[0, 2, 1]]), ("k4", k4)):
        with pytest.raises(ValueError, match=f"^{name} sides are not one path"):
            dataclasses.replace(SG, name=name, sides=sides)
    for fractal in (SG, RING):
        assert dataclasses.replace(fractal).build(2).n_edges == fractal.build(2).n_edges


def _closed_cells(g):
    """Per level m, whether each level-m cell's side path starts and ends
    at one vertex id: the corner-id test ``degree`` made per cell before
    the record held the loop rule.  Corner a of cell w is corner a of
    child wa, row k w + a one level down."""
    k = g.cell_corners.shape[1]
    a, b = g.fractal.sides[0, 0], g.fractal.sides[-1, 1]
    first, last = g.cell_corners[:, a], g.cell_corners[:, b]
    closed = [first == last]
    for _ in range(g.level):
        first, last = first[a::k], last[b::k]
        closed.insert(0, first == last)
    return closed


@pytest.mark.parametrize("fractal, levels", [(SG, range(0, 11)),
                                             (RING, range(1, 15))],
                         ids=["sg", "ring"])
def test_loops_at_matches_the_per_cell_corner_closure(fractal, levels):
    for n in levels:
        closed = _closed_cells(fractal.build(n))
        assert len(closed) == n + 1
        for m, cells in enumerate(closed):
            assert (cells == fractal.loops_at(m)).all(), (n, m)


def test_ring_restrict():
    g4 = build_ring_graph(4)
    f = np.arange(16, dtype=float)
    np.testing.assert_array_equal(restrict(g4, 2, f), [0, 4, 8, 12])


def test_graph_json_schema():
    g = build_sg_graph(1)
    d = g.to_json_dict()
    assert set(d) == {"kind", "level", "conductance", "itinerary", "x", "y",
                      "boundary", "cells"}
    assert d["itinerary"] == ["~1", "1~2", "1~3", "~2", "2~3", "~3"]
    assert (d["x"][0], d["y"][0], d["x"][3]) == (0.0, 0.0, 0.5)
    assert d["boundary"] == [0, 3, 5]
    assert d["cells"][0].tolist() == [0, 1, 2]


@given(word=st.lists(st.sampled_from((1, 2, 3)), max_size=6),
       tail=st.sampled_from((1, 2, 3)))
def test_canonical_itinerary_properties(word, tail):
    it = canonical_itinerary(tuple(word), tail)
    # canonical words never end in the tail, and end below it
    if it.word:
        assert it.word[-1] != it.tail
        assert it.word[-1] < it.tail
    # canonicalisation is idempotent
    assert canonical_itinerary(it.word, it.tail) == it
    # both raw names of a shared vertex canonicalise identically
    if it.word:
        u, last = it.word[:-1], it.word[-1]
        other = canonical_itinerary(u + (it.tail,), last)
        assert other == it


def test_canonical_names_same_point():
    # v(1~3) and v(3~1) are the same midpoint of the bottom edge
    a = canonical_itinerary((1,), 3)
    b = canonical_itinerary((3,), 1)
    assert a == b == Itinerary((1,), 3)


# -- the level-1 tables ---------------------------------------------------------


def _exact_trace(fractal):
    """Gauss-Jordan on [M | -B] of the unit-weight level-1 network, built
    from the record's ``sides`` and ``child_corners`` in fractions: returns
    -M^-1 B (a row per midpoint), the Schur complement C - B^T M^-1 B on
    the corners, and the unit Laplacian of one cell's ``sides``."""
    def unit_laplacian(pairs, size):
        lap = [[Fraction(0)] * size for _ in range(size)]
        for i, j in pairs:
            lap[i][i] += 1
            lap[j][j] += 1
            lap[i][j] -= 1
            lap[j][i] -= 1
        return lap

    k = fractal.child_corners.shape[1]
    local = fractal.child_corners.tolist()
    size = max(map(max, local)) + 1
    lap = unit_laplacian([(kid[a], kid[b]) for kid in local
                          for a, b in fractal.sides.tolist()], size)
    mids = range(k, size)
    aug = [[lap[i][j] for j in mids] + [-lap[i][c] for c in range(k)]
           for i in mids]
    for p in range(len(aug)):
        aug[p] = [v / aug[p][p] for v in aug[p]]   # M is positive definite
        for r in range(len(aug)):
            if r != p:
                aug[r] = [v - aug[r][p] * w for v, w in zip(aug[r], aug[p])]
    x = [row[len(aug):] for row in aug]
    schur = [[lap[a][b] + sum(lap[a][m] * x[i][b] for i, m in enumerate(mids))
              for b in range(k)] for a in range(k)]
    return x, schur, unit_laplacian(fractal.sides.tolist(), k)


@pytest.mark.parametrize("fractal", FRACTALS.values(), ids=lambda f: f.name)
def test_level1_tables_are_the_exact_trace(fractal):
    x, schur, cell = _exact_trace(fractal)
    assert ([[float(v) for v in row] for row in x]
            == fractal.extension.tolist())
    a, b = fractal.sides[0]
    r = -schur[a][b]
    assert float(r) == fractal.r
    # the trace is r times one cell's own network: every side weighs r
    assert schur == [[r * v for v in row] for row in cell]
    # a fractal added to the registry adds its exact weight here
    assert r == {"sg": Fraction(3, 5), "ring": Fraction(1, 2)}[fractal.name]
    # built unmemoised, so the level-12 gasket is not held for the session
    for n in fractal.levels:
        assert _refine.__wrapped__(fractal, n).conductance == float(1 / r) ** n


# -- the array hierarchy against the scalar itinerary oracle ---------------

def _builder_id(value):
    # both builders are bound methods named "build": name each as the
    # package exports it
    return {build_sg_graph: "build_sg_graph",
            build_ring_graph: "build_ring_graph"}.get(value)


@pytest.mark.parametrize("n", range(0, 7))
def test_cell_corner_itineraries_match_oracle(n):
    g = build_sg_graph(n)
    for w, corners in reference_cells(g).items():
        for i, v in zip((1, 2, 3), corners):
            assert reference_itinerary(g, v) == canonical_itinerary(w, i)


@pytest.mark.parametrize("build,n", [(build_sg_graph, n) for n in range(0, 10)]
                         + [(build_ring_graph, n) for n in range(1, 13)],
                         ids=_builder_id)
def test_json_itineraries_match_key_decode_oracle(build, n):
    # the written columns, read back: names as the oracle spells them, the
    # coordinates bit for bit, and V0 as the names with an empty word
    g = build(n)
    d = json.loads(dumps_json(g.to_json_dict()))
    names = [str(reference_itinerary(g, v)) for v in range(g.n_vertices)]
    assert d["itinerary"] == names
    np.testing.assert_array_equal(np.column_stack((d["x"], d["y"])), g.coords)
    assert d["boundary"] == [v for v, s in enumerate(names) if s[0] == "~"]
    # the cells are the corner table: row c the corners of the cell whose
    # word spells c, and their sides the edges the JSON does not repeat
    corners = np.array(d["cells"])
    np.testing.assert_array_equal(corners, g.cell_corners)
    for c, (word, ref) in enumerate(reference_cells(g).items()):
        assert g.pack_word(word) == c and d["cells"][c] == list(ref)
    np.testing.assert_array_equal(g.fractal.cell_edges(corners), g.edges)


@pytest.mark.parametrize("build,n", [(build_sg_graph, n) for n in range(0, 6)]
                         + [(build_ring_graph, n) for n in range(1, 8)],
                         ids=_builder_id)
def test_cell_map_reads_back_every_word(build, n):
    # energy.json's per_cell, written and read back, addressed by cell word
    # as the graph JSON's cells are: row pack_word(w) is the energy of the
    # sides of w's corners
    g = build(n)
    f = np.random.default_rng(n).standard_normal(g.n_vertices)
    per_cell = json.loads(dumps_json(dirichlet_energy(g, f).to_json_dict()))["per_cell"]
    assert len(per_cell) == g.fractal.num_maps ** n
    for word, corners in reference_cells(g).items():
        d = f[g.fractal.cell_edges(np.array([corners]))] @ [-1.0, 1.0]
        assert per_cell[g.pack_word(word)] == pytest.approx(
            g.conductance * (d @ d) / 2.0, rel=1e-12)


@pytest.mark.parametrize("build,n", [(build_sg_graph, n) for n in range(0, 7)]
                         + [(build_ring_graph, n) for n in range(1, 7)],
                         ids=_builder_id)
def test_keys_increase_and_ids_round_trip(build, n):
    g = build(n)
    assert g.keys.shape == (g.n_vertices,)
    assert (np.diff(g.keys) > 0).all()
    for v in range(g.n_vertices):
        assert reference_id_of(g, reference_itinerary(g, v)) == v


def test_id_of_rejects_names_that_are_not_vertices():
    g = build_sg_graph(2)
    for it in (Itinerary((3,), 1),         # the non-canonical name of 1~3
               Itinerary((1, 1), 1),       # trailing tail symbol
               Itinerary((1, 2, 1), 3),    # finer than level 2
               Itinerary((4,), 1)):        # symbol outside the alphabet
        with pytest.raises(KeyError):
            reference_id_of(g, it)
    ring = build_ring_graph(3)
    assert reference_id_of(ring, Itinerary((), 0)) == 0
    with pytest.raises(KeyError):
        reference_id_of(ring, Itinerary((), 1))  # vertex 0's other name


@pytest.mark.parametrize("m", range(0, 6))
def test_child_tables_match_itinerary_lookup(m):
    g_m, g_next = build_sg_graph(m), build_sg_graph(m + 1)
    nodes = g_next.fractal.cell_nodes(g_next.cell_corners)
    corners, mids = nodes[:, :3], nodes[:, 3:]
    assert corners.shape == mids.shape == (len(g_m.cell_corners), 3)
    for k, w in enumerate(sorted(reference_cells(g_m))):
        assert corners[k].tolist() == [
            reference_id_of(g_next, canonical_itinerary(w, i))
            for i in (1, 2, 3)]
        assert mids[k].tolist() == [
            reference_id_of(g_next, canonical_itinerary(w + (a,), b))
            for a, b in ((1, 2), (2, 3), (3, 1))]


@pytest.mark.parametrize("build,n", [(build_sg_graph, n) for n in range(0, 7)]
                         + [(build_ring_graph, n) for n in range(1, 7)],
                         ids=_builder_id)
def test_restriction_matches_itinerary_lookup(build, n):
    g = build(n)
    for m in range(g.fractal.levels[0], n + 1):
        g_m = build(m)
        assert g.restriction_to(m).tolist() == [
            reference_id_of(g, reference_itinerary(g_m, v))
            for v in range(g_m.n_vertices)]


def _loop_by_lookup(g, word):
    ids = []
    for a, b in ((1, 2), (2, 3), (3, 1)):
        for digits in product((a, b), repeat=g.level - len(word)):
            ids.append(reference_id_of(
                g, canonical_itinerary(word + digits, a)))
    return ids + ids[:1]


@pytest.mark.parametrize("n", range(0, 7))
def test_trace_loop_matches_itinerary_lookup(n):
    g = build_sg_graph(n)
    for ell in range(min(n, 2) + 1):
        for word in product((1, 2, 3), repeat=ell):
            assert trace_loop(g, word).vertex_cycle.tolist() == \
                _loop_by_lookup(g, word)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_restrict_after_extend_is_identity(m, seed):
    g = build_sg_graph(m)
    f = np.random.default_rng(seed).standard_normal(g.n_vertices)
    g_next, f_next = extend_harmonic_once(g, f)
    np.testing.assert_array_equal(restrict(g_next, m, f_next), f)


def test_restriction_rejects_negative_level():
    with pytest.raises(ValueError):
        build_sg_graph(2).restriction_to(-1)
