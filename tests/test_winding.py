from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractalsync import (DegreeVector, UnresolvedWindingError, build_graph,
                         build_ring_graph, build_sg_graph, circle_harmonic_map,
                         degree, twisted_state, wrap_phases)
from conftest import lift_along_loop, loop_basis, loop_winding


# -- loop basis --------------------------------------------------------------

def test_outer_loop_on_level1():
    g = build_sg_graph(1)
    loops = loop_basis(g, 0)
    assert len(loops) == 1
    cyc = loops[0].vertex_cycle
    assert cyc[0] == cyc[-1]
    assert len(cyc) == 7  # 6 boundary-cycle vertices plus closure
    # starts at the leftmost vertex and runs clockwise: v1, x, v2, y, v3, z
    assert cyc.tolist() == [0, 1, 3, 4, 5, 2, 0]


def test_loop_counts():
    g = build_sg_graph(2)
    assert len(loop_basis(g, 1)) == 4
    assert len(loop_basis(g, 2)) == 13


def test_loop_order_is_length_then_lex():
    g = build_sg_graph(2)
    words = [lp.word for lp in loop_basis(g, 2)]
    assert words[:5] == [(), (1,), (2,), (3,), (1, 1)]
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_loop_vertices_adjacent_and_on_boundary():
    g = build_sg_graph(3)
    edge_set = {frozenset((int(a), int(b))) for a, b in g.edges}
    for lp in loop_basis(g, 1):
        cyc = lp.vertex_cycle
        assert cyc[0] == cyc[-1]
        for a, b in zip(cyc[:-1], cyc[1:]):
            assert frozenset((int(a), int(b))) in edge_set
        # start vertex is the leftmost (smallest x, then smallest y)
        pts = g.coords[cyc[:-1]]
        start = g.coords[cyc[0]]
        best = min((p[0], p[1]) for p in pts)
        assert (start[0], start[1]) == best


def test_loop_order_guard():
    g = build_sg_graph(2)
    with pytest.raises(ValueError):
        loop_basis(g, 3)


def test_ring_loop():
    g = build_ring_graph(3)
    (lp,) = loop_basis(g, 0)
    assert lp.vertex_cycle.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 0]


# -- lifts ---------------------------------------------------------------

def test_constant_field_constant_lift():
    g = build_sg_graph(2)
    lp = loop_basis(g, 0)[0]
    lift = lift_along_loop(np.full(g.n_vertices, 0.25), lp)
    np.testing.assert_array_equal(lift, 0.25)


def test_ring_twist_lift_ends_at_q():
    for n, qs in ((4, (1, -2, 7)), (6, (5, -16))):
        g = build_ring_graph(n)
        (lp,) = loop_basis(g, 0)
        for q in qs:
            assert abs(q) < 2 ** (n - 1)
            lift = lift_along_loop(twisted_state(g, q), lp)
            assert lift[-1] - lift[0] == pytest.approx(q, abs=1e-12)


def test_sg_harmonic_map_lift_ends_at_1():
    g = build_sg_graph(3)
    phases, _ = circle_harmonic_map(g, DegreeVector({(): 1}))
    lp = loop_basis(g, 0)[0]
    lift = lift_along_loop(phases, lp)
    assert lift[-1] - lift[0] == pytest.approx(1.0, abs=1e-12)
    # the lift projects back onto the field pointwise
    np.testing.assert_allclose(wrap_phases(lift), phases[lp.vertex_cycle],
                               atol=1e-12)


def test_unresolved_winding_names_edge():
    g = build_ring_graph(2)
    u = twisted_state(g, 2)  # steps of exactly half a turn
    (lp,) = loop_basis(g, 0)
    with pytest.raises(UnresolvedWindingError) as exc:
        lift_along_loop(u, lp)
    assert exc.value.edge in {(0, 1), (1, 2), (2, 3), (3, 0)}


# -- degree ---------------------------------------------------------------

def test_degree_constant_zero_vector():
    g = build_sg_graph(2)
    d = degree(np.zeros(g.n_vertices), g)
    assert d == DegreeVector()
    assert not d
    assert d.max_order == -1


def test_degree_of_unit_and_mixed_twists():
    g = build_sg_graph(4)
    ph_a, _ = circle_harmonic_map(g, DegreeVector({(): 1}))
    assert degree(ph_a, g) == DegreeVector({(): 1})
    ph_b, _ = circle_harmonic_map(
        g, DegreeVector({(): 1, (1,): 1, (2,): 1, (3,): 1}))
    assert degree(ph_b, g) == DegreeVector(
        {(): 1, (1,): 1, (2,): 1, (3,): 1})


def _traced_degree(f, g):
    """Full-order degree loop by loop: the trace_loop/loop_winding oracle."""
    loops = loop_basis(g, g.level if g.fractal.name == "sg" else 0)
    return DegreeVector({lp.word: loop_winding(f, lp) for lp in loops})


@pytest.mark.parametrize("kind, levels", [("sg", range(0, 6)),
                                          ("ring", range(1, 7))])
def test_degree_equals_traced_loops(kind, levels):
    rng = np.random.default_rng(6)
    unresolved = 0
    finest = -1
    for n in levels:
        g = build_graph(kind, n)
        edges = {frozenset(e) for e in g.edges.tolist()}
        for t in range(40):
            if t % 4 == 3:  # dyadic phases: some steps are exact half turns
                q = int(rng.choice([2, 4, 8]))
                f = rng.integers(0, q, g.n_vertices) / q
            elif t % 4 == 2 and kind == "ring":
                f = twisted_state(g, int(rng.integers(-g.n_vertices, g.n_vertices)))
            elif t % 2:
                f = rng.random(g.n_vertices)
            else:
                f = wrap_phases(np.cumsum(rng.uniform(-0.3, 0.3, g.n_vertices)))
            try:
                want = _traced_degree(f, g)
            except UnresolvedWindingError:
                unresolved += 1
                with pytest.raises(UnresolvedWindingError) as exc:
                    degree(f, g)
                a, b = exc.value.edge
                assert frozenset((a, b)) in edges
                step = f[b] - f[a]
                assert abs(step - np.round(step)) >= 0.5
                continue
            got = degree(f, g)
            assert got == want
            finest = max(finest, got.max_order)
    assert unresolved > 0
    assert finest == (max(levels) if kind == "sg" else 0)


@pytest.mark.parametrize("n", [12, 16, 20])
def test_deep_ring_twist_degree(n):
    # the ring's winding is reduced side by side, one level up at a time,
    # to its one loop, the level-0 cell
    g = build_ring_graph(n)
    for q in (1, -1, g.n_vertices // 4 - 1):
        assert degree(twisted_state(g, q), g) == DegreeVector({(): q})


_ORDER_2_LOOPS = [w for ell in range(3) for w in product((1, 2, 3), repeat=ell)]


@settings(max_examples=40, deadline=None)
@given(entries=st.dictionaries(st.sampled_from(_ORDER_2_LOOPS),
                               st.sampled_from([-2, -1, 1, 2]), max_size=4))
def test_degree_round_trip_through_harmonic_map(entries):
    # three levels below the finest twisted loop resolve the map; two do
    # not always (finer loops then really wind)
    omega = DegreeVector(entries)
    g = build_sg_graph(max(omega.max_order, 0) + 3)
    phases, _ = circle_harmonic_map(g, omega)
    assert degree(phases, g) == omega


def test_degree_mismatched_field_rejected():
    g = build_sg_graph(2)
    with pytest.raises(ValueError):
        degree(np.zeros(4), g)


def test_loop_reversal_negates_winding():
    g = build_ring_graph(4)
    (lp,) = loop_basis(g, 0)
    u = twisted_state(g, 3)
    assert loop_winding(u, lp) == 3
    assert loop_winding(u, lp.reversed()) == -3


@settings(max_examples=20, deadline=None)
@given(shift=st.floats(0.0, 1.0, allow_nan=False))
def test_degree_invariant_under_global_phase_shift(shift):
    g = build_sg_graph(3)
    phases, _ = circle_harmonic_map(g, DegreeVector({(): 1}))
    shifted = wrap_phases(phases + shift)
    assert degree(shifted, g) == degree(phases, g)


def test_degree_robust_under_small_perturbations():
    g = build_sg_graph(5)
    phases, _ = circle_harmonic_map(g, DegreeVector({(): 1}))
    # slack along the basis loops must exceed 0.25 for the guarantee
    worst = 0.0
    for lp in loop_basis(g, 1):
        steps = np.abs(np.diff(lift_along_loop(phases, lp)))
        worst = max(worst, steps.max())
    assert 0.5 - worst > 0.25
    rng = np.random.default_rng(99)
    base = degree(phases, g)
    for _ in range(10):
        noisy = wrap_phases(phases + rng.uniform(-0.1, 0.1, g.n_vertices))
        assert degree(noisy, g) == base


# -- degree vector plumbing ---------------------------------------------------

def test_degree_vector_dense_and_sparse_parse():
    assert DegreeVector.parse("1,0,0") == DegreeVector({(): 1})
    assert DegreeVector.parse("1,1,1,1") == DegreeVector(
        {(): 1, (1,): 1, (2,): 1, (3,): 1})
    assert DegreeVector.parse("eps:1,13:2") == DegreeVector(
        {(): 1, (1, 3): 2})
    assert DegreeVector.parse("") == DegreeVector()
    # a repeated word is refused, not read as its last value; "" is eps
    for text, word in (("eps:1,eps:2", "eps"), ("eps:1,:2", "eps"),
                       ("13:1,2:0,13:1", "13")):
        with pytest.raises(ValueError,
                           match=f"degree '{text}' repeats word {word}$"):
            DegreeVector.parse(text)


def test_degree_vector_dense_roundtrip():
    d = DegreeVector({(): 1, (2,): -3})
    assert d.to_dense() == [1, 0, -3, 0]
    assert DegreeVector.from_dense(d.to_dense()) == d
    assert d.to_json_dict() == {"eps": 1, "2": -3}
    assert d.max_order == 1
