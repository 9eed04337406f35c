import json
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cg_reference, reference_cut_vertices, reference_extend_lift
from fractalsync import (ConstraintViolationError, DegreeMismatchError,
                         DegreeVector, LiftField, build_graph,
                         build_ring_graph, build_sg_graph, circle_harmonic_map,
                         covering_domain, degree, extend_lift, km_energy,
                         minimize_constrained, neumann_check, project_to_circle,
                         restrict, select_cut_vertices, solve_equilibrium)
from fractalsync.covering import seed_domain
from fractalsync.serialize import dumps_json
from fractalsync.winding import word_str

OMEGA1 = DegreeVector({(): 1})


# -- cut selection ----------------------------------------------------------

def test_outer_cut_is_bottom_midpoint():
    g = build_sg_graph(1)
    (cut,) = select_cut_vertices(g, OMEGA1)
    # z = K_3 cap K_1 = midpoint of v1 v3, names v(1~3) / v(3~1)
    np.testing.assert_allclose(g.coords[cut.cut_vertex], [0.5, 0.0], atol=1e-15)
    # the plus copy is corner v1 of cell 3 (3~1), the minus copy keeps 1~3
    assert (cut.plus_cell, cut.plus_corner) == (2, 0)
    assert cut.cut_vertex == g.cell_corners[0, 2]
    assert cut.jump == 1


def test_zero_degree_no_cuts():
    g = build_sg_graph(2)
    assert select_cut_vertices(g, DegreeVector()) == []


def test_cut_pattern_outer_plus_order1_loops():
    # outer loop cut plus one cut per level-1 loop, all distinct, each on
    # its own loop but off every coarser loop
    g = build_sg_graph(2)
    omega = DegreeVector({(): 1, (1,): 1, (2,): 1, (3,): 1})
    cuts = select_cut_vertices(g, omega)
    assert len(cuts) == 4
    assert len({c.cut_vertex for c in cuts}) == 4
    for c in cuts[1:]:
        x, y = g.coords[c.cut_vertex]
        assert y > 1e-9  # the three deeper cuts sit strictly inside
    # deterministic choice: rerunning gives identical picks
    again = select_cut_vertices(g, omega)
    assert [c.cut_vertex for c in again] == [c.cut_vertex for c in cuts]


@pytest.mark.parametrize("g,omega", [
    (build_sg_graph(4), DegreeVector.parse("1,1,1,1")),
    (build_sg_graph(4), DegreeVector.parse("eps:2,13:-1,222:1")),
    (build_ring_graph(3), DegreeVector({(): 2})),
])
def test_cut_table_remaps_one_corner_per_cut(g, omega):
    dom = covering_domain(g, omega)
    changed = np.argwhere(dom.cell_corners != g.cell_corners)
    assert len(changed) == len(dom.cuts)
    for cut in dom.cuts:
        cell, corner = cut.plus_cell, cut.plus_corner
        assert [cell, corner] in changed.tolist()
        assert g.cell_corners[cell, corner] == cut.cut_vertex
        assert dom.cell_corners[cell, corner] == cut.plus_id
    assert dom.n_edges == len(g.cell_corners) * (3 if g.fractal.name == "sg" else 1)


def _single_loops(n):
    for ell in range(n):
        for word in product((1, 2, 3), repeat=ell):
            yield DegreeVector({word: 1})


@pytest.mark.parametrize("n", range(1, 7))
def test_cut_rule_matches_itinerary_scan(n):
    g = build_sg_graph(n)
    omegas = list(_single_loops(n))
    if n == 4:
        omegas += [DegreeVector.parse("1,1,1,1"),
                   DegreeVector.parse("eps:2,13:-1,222:1")]
    for omega in omegas:
        cuts = select_cut_vertices(g, omega)
        assert [(c.word, c.cut_vertex, c.plus_cell, c.plus_corner)
                for c in cuts] == reference_cut_vertices(g, omega)
        assert [c.jump for c in cuts] == [
            omega.entries[c.word] for c in cuts]
        assert [c.plus_id for c in cuts] == list(
            range(g.n_vertices, g.n_vertices + len(cuts)))


def test_cut_level_guard():
    g = build_sg_graph(1)
    omega = DegreeVector({(1,): 1})
    with pytest.raises(ValueError):
        select_cut_vertices(g, omega)
    with pytest.raises(ValueError, match="graph level 1 too coarse"):
        circle_harmonic_map(g, omega)


def test_cut_graph_shape():
    g = build_sg_graph(3)
    dom = covering_domain(g, OMEGA1)
    assert dom.n_vertices == g.n_vertices + 1
    assert dom.n_edges == g.n_edges
    # the split vertex keeps two edges on each side
    counts = np.bincount(dom.edges.ravel(), minlength=dom.n_vertices)
    assert counts[dom.cuts[0].cut_vertex] == 2
    assert counts[dom.cuts[0].plus_id] == 2


@pytest.mark.parametrize("fractal,n,spec", [
    ("sg", n, spec) for n in range(2, 9) for spec in ("1", "1,1,1,1", "2,0,0")
] + [("ring", n, spec) for n in range(3, 11) for spec in ("1", "3")])
def test_domain_json_rebuilds_the_domain_from_the_graph(fractal, n, spec):
    # domain.json holds the cuts and no edges: the graph's corner table
    # with each plus copy written in, and the graph's jumps, are the domain
    g = build_graph(fractal, n)
    dom = covering_domain(g, DegreeVector.parse(spec, g.fractal.alphabet))
    d = json.loads(dumps_json(dom.to_json_dict()))
    assert set(d) == {"kind", "level", "n_vertices", "pinned", "degree", "cuts"}
    corners = g.cell_corners.copy()
    rep = np.arange(d["n_vertices"])
    offset = np.zeros(d["n_vertices"])
    for cut in d["cuts"]:
        assert corners[cut["plus_cell"], cut["plus_corner"]] == cut["cut_vertex"]
        corners[cut["plus_cell"], cut["plus_corner"]] = cut["plus_id"]
        rep[cut["plus_id"]], offset[cut["plus_id"]] = cut["cut_vertex"], cut["jump"]
    np.testing.assert_array_equal(corners, dom.cell_corners)
    np.testing.assert_array_equal(g.fractal.cell_edges(corners), dom.edges)
    np.testing.assert_array_equal(rep, dom.rep)
    np.testing.assert_array_equal(offset, dom.offset)
    assert [c["word"] for c in d["cuts"]] == [word_str(c.word) for c in dom.cuts]


# -- constrained minimisation -----------------------------------------------

def test_level1_minimizer_paper_values():
    g = build_sg_graph(1)
    dom = covering_domain(g, OMEGA1)
    lift = minimize_constrained(dom)
    # order (v1, x, z-, v2, y, v3, z+): ramp in sixths with a unit jump
    np.testing.assert_allclose(
        lift.values, [0, 1 / 6, -1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6],
        atol=1e-12)
    assert lift.energy() == pytest.approx(5 / 12, rel=1e-12)


def test_minimizer_zero_degree_is_zero():
    g = build_sg_graph(2)
    dom = covering_domain(g, DegreeVector())
    lift = minimize_constrained(dom)
    np.testing.assert_allclose(lift.values, 0.0, atol=1e-14)


def test_minimizer_linear_in_jump():
    g = build_sg_graph(1)
    l1 = minimize_constrained(covering_domain(g, OMEGA1))
    l2 = minimize_constrained(covering_domain(g, DegreeVector({(): 2})))
    np.testing.assert_allclose(l2.values, 2 * l1.values, atol=1e-12)


def test_minimizer_solver_paths_agree():
    g = build_sg_graph(4)
    omega = DegreeVector({(): 1, (2,): -1})
    dom = covering_domain(g, omega)
    fd = minimize_constrained(dom)
    fc = cg_reference(dom)
    assert np.abs(fd.values - fc.values).max() < 1e-10


_LOOPS = [w for ell in range(3) for w in product((1, 2, 3), repeat=ell)]


@st.composite
def _cut_domains(draw):
    # gasket degrees of order 0-2 at every level that holds their cuts, up
    # to 6, the zero degree down to level 0, and ring windings at 1-10
    if draw(st.booleans()):
        n = draw(st.integers(1, 10))
        return build_ring_graph(n), DegreeVector(
            {(): draw(st.integers(-2 ** n, 2 ** n))})
    omega = DegreeVector(draw(st.dictionaries(
        st.sampled_from(_LOOPS), st.sampled_from((-2, -1, 1, 2)), max_size=3)))
    return build_sg_graph(draw(st.integers(omega.max_order + 1, 6))), omega


@settings(max_examples=40, deadline=None)
@given(case=_cut_domains())
@example(case=(build_sg_graph(0), DegreeVector()))
@example(case=(build_ring_graph(1), DegreeVector({(): 3})))
@example(case=(build_sg_graph(6), DegreeVector.parse("1,1,1,1")))
@example(case=(build_sg_graph(5), DegreeVector.parse("13:-1,3:2,33:-2")))
def test_minimizer_matches_conjugate_gradients(case):
    # the oracle refines its CG answer once, so it is at rounding level
    dom = covering_domain(*case)
    got, want = minimize_constrained(dom).values, cg_reference(dom).values
    assert got[dom.pinned] == 0.0
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= 1e-12 * scale


def _exact_minimizer(dom):
    """The constrained minimiser in exact rationals: the normal equations
    of the energy over the base vertices other than the pin, with each
    plus copy replaced by its minus copy plus the jump, by Gauss-Jordan
    elimination."""
    n = dom.base.n_vertices
    rep = list(range(dom.n_vertices))
    jump = [Fraction(0)] * dom.n_vertices
    for c in dom.cuts:
        rep[c.plus_id], jump[c.plus_id] = c.cut_vertex, Fraction(c.jump)
    A = [[Fraction(0)] * (n + 1) for _ in range(n)]   # [L | r]
    for a, b in dom.edges.tolist():
        i, j, d = rep[a], rep[b], jump[b] - jump[a]
        A[i][i] += 1
        A[j][j] += 1
        A[i][j] -= 1
        A[j][i] -= 1
        A[i][n] += d
        A[j][n] -= d
    free = [v for v in range(n) if v != dom.pinned]
    M = [[A[r][c] for c in free] + [A[r][n]] for r in free]
    for col in range(len(free)):
        piv = next(r for r in range(col, len(free)) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        M[col] = [x / M[col][col] for x in M[col]]
        for r in range(len(free)):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    x = [Fraction(0)] * n
    for r, v in enumerate(free):
        x[v] = M[r][-1]
    return [x[rep[v]] + jump[v] for v in range(dom.n_vertices)]


@pytest.mark.parametrize("g,omega", [
    (build_sg_graph(n), omega) for n in (1, 2, 3)
    for omega in (OMEGA1, DegreeVector({(): -3}),
                  DegreeVector.parse("1,1,1,1"), DegreeVector.parse("2,-1,0"))
    if n > omega.max_order
] + [(build_sg_graph(3), DegreeVector.parse("eps:1,13:-2,22:1")),
     (build_ring_graph(1), DegreeVector({(): 3})),
     (build_ring_graph(3), DegreeVector({(): -5}))])
def test_minimizer_matches_the_exact_rational_minimizer(g, omega):
    # within 16 units in the last place of the largest value (the direct
    # solve it replaced was within 9.7, this one within 5)
    dom = covering_domain(g, omega)
    exact = _exact_minimizer(dom)
    got = minimize_constrained(dom).values
    ulp = np.spacing(max(abs(float(x)) for x in exact))
    err = max(abs(Fraction(float(a)) - b) for a, b in zip(got, exact))
    assert err <= 16 * ulp, float(err / ulp)


def test_minimizer_interior_laplace_equation():
    g = build_sg_graph(3)
    dom = covering_domain(g, OMEGA1)
    lift = minimize_constrained(dom)
    i, j = dom.edges[:, 0], dom.edges[:, 1]
    d = (lift.values[j] - lift.values[i]) * dom.conductance
    flux = np.bincount(i, d, dom.n_vertices) - np.bincount(j, d, dom.n_vertices)
    skip = {dom.pinned, dom.cuts[0].cut_vertex, dom.cuts[0].plus_id}
    interior = [v for v in range(dom.n_vertices) if v not in skip]
    assert np.abs(flux[interior]).max() < 1e-10
    # combined stationarity across the cut pair
    assert abs(flux[dom.cuts[0].cut_vertex] + flux[dom.cuts[0].plus_id]) < 1e-10


def test_jump_and_pin_exact():
    g = build_sg_graph(3)
    omega = DegreeVector({(): 3, (1,): -2})
    dom = covering_domain(g, omega)
    lift = minimize_constrained(dom)
    assert lift.values[dom.pinned] == 0.0
    for c in dom.cuts:
        assert lift.values[c.plus_id] - lift.values[c.cut_vertex] == c.jump


# -- extension ----------------------------------------------------------------

def test_extension_preserves_energy_and_nests():
    g5 = build_sg_graph(5)
    lift1 = minimize_constrained(covering_domain(build_sg_graph(1), OMEGA1))
    e1 = lift1.energy()
    lift5 = extend_lift(lift1, 5)
    assert lift5.level == 5
    assert lift5.energy() == pytest.approx(e1, rel=1e-12)
    # nesting: restriction of the level-5 extension to V_2 equals the
    # level-2 extension
    lift2 = extend_lift(lift1, 2)
    base5 = lift5.values[:g5.n_vertices]
    np.testing.assert_allclose(
        restrict(g5, 2, base5),
        lift2.values[:lift2.domain.base.n_vertices], atol=1e-12)


def test_extension_agrees_with_direct_minimization():
    g = build_sg_graph(4)
    seed = minimize_constrained(covering_domain(build_sg_graph(1), OMEGA1))
    via_ext = extend_lift(seed, 4)
    direct = minimize_constrained(covering_domain(g, OMEGA1))
    assert np.abs(via_ext.values - direct.values).max() < 1e-10
    with pytest.raises(ValueError, match="cannot extend a level-4 lift"):
        extend_lift(via_ext, 3)


@settings(max_examples=30, deadline=None)
@given(entries=st.dictionaries(st.sampled_from([(), (1,), (2,), (3,)]),
                               st.sampled_from((-2, -1, 1, 2)),
                               min_size=1, max_size=3),
       extra=st.integers(0, 6))
def test_extend_lift_matches_per_level_oracle(entries, extra):
    omega = DegreeVector(entries)
    seed = minimize_constrained(seed_domain(build_sg_graph(7), omega))
    n = min(seed.level + extra, 7)
    got, want = extend_lift(seed, n), reference_extend_lift(seed, n)
    np.testing.assert_array_equal(got.domain.cell_corners,
                                  want.domain.cell_corners)
    assert got.values.tobytes() == want.values.tobytes()


def test_extension_constant_for_zero_degree():
    lift = LiftField(domain=covering_domain(build_sg_graph(1), DegreeVector()),
                     values=np.full(6, 0.0))
    out = extend_lift(lift, 3)
    assert out.domain.n_vertices == build_sg_graph(3).n_vertices
    np.testing.assert_allclose(out.values, 0.0)


# -- projection ----------------------------------------------------------------

def test_project_level1_phases():
    g = build_sg_graph(1)
    dom = covering_domain(g, OMEGA1)
    phases = project_to_circle(minimize_constrained(dom))
    np.testing.assert_allclose(
        phases, [0, 1 / 6, 5 / 6, 2 / 6, 3 / 6, 4 / 6], atol=1e-12)


def test_project_zero_lift():
    g = build_sg_graph(2)
    dom = covering_domain(g, DegreeVector())
    phases = project_to_circle(LiftField(dom, np.zeros(dom.n_vertices)))
    np.testing.assert_array_equal(phases, 0.0)


def test_project_rejects_broken_constraints():
    g = build_sg_graph(1)
    dom = covering_domain(g, OMEGA1)
    lift = minimize_constrained(dom)
    bad = lift.values.copy()
    bad[dom.cuts[0].plus_id] += 0.3
    with pytest.raises(ConstraintViolationError):
        project_to_circle(LiftField(dom, bad))


def test_degree_roundtrip_various():
    for omega in (OMEGA1, DegreeVector({(): 2}), DegreeVector({(): -1}),
                  DegreeVector({(): 1, (2,): 1}),
                  DegreeVector({(): 1, (1,): 1, (2,): 1, (3,): 1})):
        n = max(omega.max_order, 0) + 2
        g = build_sg_graph(n)
        phases, _ = circle_harmonic_map(g, omega)
        assert degree(phases, g) == omega


# -- natural boundary conditions ------------------------------------------------

def test_neumann_zero_degree():
    g = build_sg_graph(2)
    dom = covering_domain(g, DegreeVector())
    lift = minimize_constrained(dom)
    for v, val in neumann_check(lift).items():
        assert abs(val) < 1e-12


def test_neumann_vanishing_across_levels():
    for m in (1, 2, 3, 4, 5):
        g = build_sg_graph(m)
        dom = covering_domain(g, OMEGA1)
        lift = minimize_constrained(dom)
        vals = neumann_check(lift)
        v1, v2, v3 = g.boundary_ids
        assert abs(vals[v2]) < 1e-10  # stationarity at free corners
        assert abs(vals[v3]) < 1e-10
        assert abs(vals[v1]) < 1e-9   # divergence identity at the pin


def test_neumann_direct_flux_at_pin_matches():
    g = build_sg_graph(4)
    dom = covering_domain(g, OMEGA1)
    lift = minimize_constrained(dom)
    i, j = dom.edges[:, 0], dom.edges[:, 1]
    d = (lift.values[j] - lift.values[i]) * dom.conductance
    flux = np.bincount(i, d, dom.n_vertices) - np.bincount(j, d, dom.n_vertices)
    assert abs(flux[dom.pinned]) < 1e-10
    assert abs(neumann_check(lift)[dom.pinned]) < 1e-9


# -- ring covering -----------------------------------------------------------

def test_ring_covering_reproduces_twist():
    g = build_ring_graph(4)
    phases, lift = circle_harmonic_map(g, DegreeVector({(): 3}))
    np.testing.assert_array_equal(lift.values[:-1], 3 * np.arange(16) / 16)
    assert lift.values[-1] == 3.0
    assert degree(phases, g) == DegreeVector({(): 3})


def test_ring_degree_of_positive_order_is_refused():
    # the ring's one loop is its level-0 cell: no finer ring cell closes
    g = build_ring_graph(4)
    for spec in ("1:1", "eps:1,0:-2", "10:3"):
        with pytest.raises(ValueError,
                           match="ring degrees live on the single full cycle"):
            select_cut_vertices(g, DegreeVector.parse(spec, (0, 1)))


@pytest.mark.parametrize("n", range(3, 9))
def test_ring_lift_is_exact_twisted_state(n):
    # the midpoint rule from the level-1 minimiser keeps every value dyadic
    N = 2 ** n
    g = build_ring_graph(n)
    for q in sorted({1, N // 4 - 1, -1, 1 - N // 4}):
        phases, lift = circle_harmonic_map(g, DegreeVector({(): q}))
        assert lift.values.tobytes() == (q * np.arange(N + 1) / 2 ** n).tobytes()
        assert neumann_check(lift) == {0: 0.0}
        rep = solve_equilibrium(g, phases)
        assert rep.residual == 0.0
        assert rep.stability == "stable"


@pytest.mark.parametrize("fractal, level, spec, found", [
    ("sg", 3, "eps:1,13:2", "eps:1,133:1"),
    ("sg", 1, "2,0,0", "eps:2,1:1,2:1,3:1"),
    ("sg", 2, "eps:1,1:-1,3:2", "eps:1,1:-1,3:2,31:1,32:1,33:1"),
    ("ring", 2, "3", "eps:-1"),
])
def test_harmonic_map_of_another_class_raises(fractal, level, spec, found):
    # the lift's steps reach a half turn, so its projection winds otherwise
    omega = DegreeVector.parse(spec)
    with pytest.raises(DegreeMismatchError) as info:
        circle_harmonic_map(build_graph(fractal, level), omega)
    assert info.value.requested == omega
    assert info.value.found == DegreeVector.parse(found)
    assert f"degree {found}, not the requested {omega}" in str(info.value)


def _permutation_sign(sigma):
    return (-1) ** sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1:])


@pytest.mark.parametrize("n", range(3, 6))
@pytest.mark.parametrize("spec", ["1", "1,1,1,1", "eps:1,1:1", "2,0,0",
                                  "eps:1,12:-1,3:1"])
def test_gasket_symmetries_carry_each_class_to_its_image(n, spec):
    # corner permutation sigma is the affine map taking v_i to v_sigma(i):
    # it takes cell w to the cell of w's symbols permuted, keeps each
    # loop's clockwise orientation as a rotation and reverses it as a
    # reflection, so the transported map of omega is the map of
    # sigma omega = {sigma(w): sign(sigma) omega_w}, up to a global rotation
    g = build_sg_graph(n)
    omega = DegreeVector.parse(spec)
    phases, _ = circle_harmonic_map(g, omega)
    corners = np.hstack([g.fractal.points, np.ones((3, 1))])
    at = {xy: v for v, xy in enumerate(map(tuple, np.round(g.coords, 9).tolist()))}
    symbols = g.fractal.alphabet
    for sigma in permutations(range(3)):
        affine = np.linalg.solve(corners, g.fractal.points[list(sigma)])
        moved = np.round(np.hstack([g.coords, np.ones((g.n_vertices, 1))]) @ affine, 9)
        image = np.array([at[xy] for xy in map(tuple, moved.tolist())])
        assert np.array_equal(np.sort(image), np.arange(g.n_vertices))
        transported = np.empty_like(phases)
        transported[image] = phases
        want = DegreeVector({
            tuple(symbols[sigma[symbols.index(s)]] for s in w):
                _permutation_sign(sigma) * v
            for w, v in omega.entries.items()})
        assert degree(transported, g) == want
        h, _ = circle_harmonic_map(g, want)
        shift = transported - h
        shift -= shift[0]
        assert np.abs(shift - np.rint(shift)).max() <= 1e-13
        assert km_energy(g, transported) == pytest.approx(km_energy(g, h),
                                                          rel=0, abs=1e-13)
