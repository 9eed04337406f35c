import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (STRUCTURE_JSON, extend_harmonic_once, laplacian_matrix,
                      mmd_solve_free)
from fractalsync import (ConjugateGradientError, DegreeVector,
                         build_ring_graph, build_sg_graph, circle_distance,
                         circle_harmonic_map, covering_domain,
                         dirichlet_energy, generic_harmonic_map,
                         integrate_to_equilibrium, solve_dirichlet,
                         twisted_state)
from fractalsync import structures
from fractalsync.graphs import RING, SG
from fractalsync.structures import (_solve_free, compatibility_residual,
                                    conductance, energy_value,
                                    extension_by_minimization,
                                    self_similarity_residual, structure_json)


def test_structure_metadata():
    assert structure_json(SG) == STRUCTURE_JSON["sg"]
    assert structure_json(RING) == STRUCTURE_JSON["ring"]
    assert conductance(SG, 3) == pytest.approx((5 / 3) ** 3, rel=1e-15)
    assert conductance(RING, 5) == 32.0


def _generic_flow(fractal, level, omega):
    # the generic map, then the fast-path flow to equilibrium
    phases, _ = generic_harmonic_map(fractal, level, omega)
    return integrate_to_equilibrium(fractal.build(level), phases)


def test_generic_energy_matches_specialised():
    rng = np.random.default_rng(0)
    for fractal, builder, levels in ((SG, build_sg_graph, (1, 3)),
                                     (RING, build_ring_graph, (1, 4))):
        for n in levels:
            g = builder(n)
            for _ in range(50):
                u = rng.standard_normal(g.n_vertices)
                assert energy_value(fractal, n, u) == pytest.approx(
                    dirichlet_energy(g, u).energy, rel=1e-12, abs=1e-12)


def test_self_similarity_identity():
    rng = np.random.default_rng(1)
    g3 = build_sg_graph(3)
    # smooth test field: restriction of a quadratic in the coordinates
    x, y = g3.coords[:, 0], g3.coords[:, 1]
    u = x * x - 0.4 * x * y + 0.25 * y
    assert self_similarity_residual(SG, 3, u) < 1e-12
    for _ in range(5):
        u = rng.standard_normal(g3.n_vertices)
        assert self_similarity_residual(SG, 3, u) < 1e-10 * max(
            1.0, energy_value(SG, 3, u))
    g4 = build_ring_graph(4)
    lin = g4.coords[:, 0].copy()
    assert self_similarity_residual(RING, 4, lin) < 1e-12


def test_compatibility_minimum_equals_coarse_energy():
    rng = np.random.default_rng(2)
    for n in (1, 2, 4):
        g_coarse = build_sg_graph(n - 1)
        u = rng.standard_normal(g_coarse.n_vertices)
        assert compatibility_residual(SG, n, u) < 1e-12 * max(
            1.0, energy_value(SG, n - 1, u))


def test_generic_extension_reproduces_15_25_rule():
    rng = np.random.default_rng(3)
    for n in (1, 3):
        g_coarse = build_sg_graph(n - 1)
        u = rng.standard_normal(g_coarse.n_vertices)
        vals, _ = extension_by_minimization(SG, n, u)
        _, rule = extend_harmonic_once(g_coarse, u)
        assert np.abs(vals - rule).max() < 1e-12


def test_generic_extension_ring_is_midpoint_rule():
    rng = np.random.default_rng(4)
    u = rng.standard_normal(4)
    vals, _ = extension_by_minimization(RING, 3, u)
    g3 = build_ring_graph(3)
    inj = g3.restriction_to(2)
    np.testing.assert_allclose(vals[inj], u, atol=1e-14)
    mids = np.setdiff1d(np.arange(8), inj)
    for m in mids:
        neighbours = vals[(m - 1) % 8], vals[(m + 1) % 8]
        assert vals[m] == pytest.approx(sum(neighbours) / 2, rel=1e-12)


def test_generic_harmonic_map_matches_covering_pipeline():
    omega = DegreeVector({(): 1})
    g = build_sg_graph(4)
    spec_phases, spec_lift = circle_harmonic_map(g, omega)
    gen_phases, gen_lift = generic_harmonic_map(SG, 4, omega)
    assert np.abs(gen_lift.values - spec_lift.values).max() < 1e-10
    assert circle_distance(gen_phases, spec_phases).max() < 1e-10
    # a zero degree: zero phases, and a zero lift on an uncut domain
    for fractal, level in ((SG, 3), (RING, 4)):
        phases, lift = generic_harmonic_map(fractal, level, DegreeVector({}))
        g = fractal.build(level)
        assert phases.tolist() == [0.0] * g.n_vertices
        assert not lift.domain.cuts and lift.domain.n_vertices == g.n_vertices
        assert lift.values.tolist() == [0.0] * g.n_vertices


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from([(), (1,), (2,), (3,)]),
                       st.sampled_from([-2, -1, 1, 2]), max_size=3))
def test_generic_and_fast_routes_agree_sg(entries):
    omega = DegreeVector(entries)
    n = omega.max_order + 3
    _, fast = circle_harmonic_map(build_sg_graph(n), omega)
    _, generic = generic_harmonic_map(SG, n, omega)
    assert generic.domain.n_vertices == fast.domain.n_vertices
    assert np.abs(generic.values - fast.values).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(-(2 ** n // 4) + 1, 2 ** n // 4 - 1))))
def test_generic_and_fast_routes_agree_ring(case):
    # the generic route extends from level 1 by constrained minimisation,
    # the fast one minimises at the graph level
    n, q = case
    omega = DegreeVector({(): q} if q else {})
    _, fast = circle_harmonic_map(build_ring_graph(n), omega)
    _, generic = generic_harmonic_map(RING, n, omega)
    assert generic.domain.n_vertices == fast.domain.n_vertices
    assert np.abs(generic.values - fast.values).max() < 1e-10


def test_generic_flow_ring_recovers_twist():
    rep = _generic_flow(RING, 5, DegreeVector({(): 2}))
    assert rep.converged
    assert rep.stability == "stable"
    assert rep.degree == DegreeVector({(): 2})
    assert circle_distance(rep.field, twisted_state(build_ring_graph(5), 2)).max() < 1e-10


def test_generic_flow_sg_matches_specialised():
    omega = DegreeVector({(): 1})
    rep_gen = _generic_flow(SG, 3, omega)
    g = build_sg_graph(3)
    phases, _ = circle_harmonic_map(g, omega)
    rep_spec = integrate_to_equilibrium(g, phases)
    assert rep_gen.converged and rep_spec.converged
    assert rep_gen.degree == rep_spec.degree == omega
    assert circle_distance(rep_gen.field, rep_spec.field).max() < 1e-10


def test_generic_flow_zero_degree_constant():
    rep = _generic_flow(SG, 2, DegreeVector())
    assert rep.converged
    assert rep.energy == 0.0
    assert rep.degree == DegreeVector()


def test_holder_exponent_diagnostic_generic():
    import math
    from fractalsync import holder_ratio
    beta = math.log(1 / SG.r) / (2 * math.log(2))  # log(5/3)/(2 log 2)
    ratios = []
    for n in (3, 5):
        g = build_sg_graph(n)
        f = solve_dirichlet(g, [0.1, 0.9, 0.4])
        ratios.append(holder_ratio(g, f, beta))
    assert ratios[1] <= 1.05 * ratios[0]


def test_ring_lift_holder_half_exponent_bounded():
    # harmonic lifts on the cut ring are linear ramps; their 1/2-Holder
    # ratio q * |x-y|**(1/2) stays bounded by q across levels
    from fractalsync import DegreeVector, covering_domain, minimize_constrained
    q = 3
    worst = []
    for n in (3, 5, 7):
        g = build_ring_graph(n)
        lift = minimize_constrained(covering_domain(g, DegreeVector({(): q})))
        x = np.concatenate([g.coords[:, 0], [1.0]])
        f = lift.values
        ratio = 0.0
        for a in range(len(x)):
            d = np.abs(x - x[a])
            mask = d > 0
            ratio = max(ratio, (np.abs(f - f[a])[mask] / np.sqrt(d[mask])).max())
        worst.append(ratio)
    assert max(worst) <= q + 1e-12
    assert worst[2] <= 1.05 * worst[0]


def _solve_free_against_oracle(g, free, rng):
    # random held values, the free ones zero; the CG answer against
    # SuperLU's, relative to the largest held value
    f = rng.uniform(-1.0, 1.0, g.n_vertices)
    f[free] = 0.0
    mask = np.zeros(g.n_vertices, dtype=bool)
    mask[free] = True
    oracle = f.copy()
    mmd_solve_free(laplacian_matrix(g), mask, oracle)
    _solve_free(g, free, f)
    return np.abs(f - oracle).max()


# each midpoint is a fixed convex combination of its cell's corners, and
# both solves reach it to a few rounding errors (measured worst 3.3e-16)
SOLVE_FREE_BOUND = 2e-15


def test_cg_solve_free_matches_superlu_on_midpoints():
    rng = np.random.default_rng(43)
    for fractal, levels in ((SG, range(1, 11)), (RING, range(2, 15))):
        for n in levels:
            g = fractal.build(n)
            free = np.flatnonzero(g.birth == n)
            assert _solve_free_against_oracle(g, free, rng) < SOLVE_FREE_BOUND


@pytest.mark.parametrize("spec", ["eps:1,1:2", "1,1,1,1", "2,0,0"])
def test_cg_solve_free_matches_superlu_on_cut_domains(spec):
    # the free set of each extension step of generic_harmonic_map
    rng = np.random.default_rng(44)
    omega = DegreeVector.parse(spec)
    for n in range(omega.max_order + 2, 9):
        dom = covering_domain(SG.build(n), omega)
        free = SG.cell_nodes(dom.cell_corners)[:, 3:].ravel()
        assert _solve_free_against_oracle(dom, free, rng) < SOLVE_FREE_BOUND


def test_cg_solve_free_with_nothing_free_holds_the_field():
    g = SG.build(3)
    f = np.linspace(0.0, 1.0, g.n_vertices)
    held = f.copy()
    _solve_free(g, np.array([], dtype=np.int64), f)
    assert np.array_equal(f, held)


def test_cg_solve_free_raises_at_its_step_cap(monkeypatch):
    # a gasket solve takes two steps at least; one is not enough
    monkeypatch.setattr(structures, "CG_MAX_STEPS", 1)
    u = np.random.default_rng(45).standard_normal(SG.build(2).n_vertices)
    with pytest.raises(ConjugateGradientError) as info:
        extension_by_minimization(SG, 3, u)
    assert info.value.steps == 1
    assert info.value.residual > structures.CG_TOLERANCE


# (function, level, field) with a field of the wrong length or with a
# non-finite value; the coarse level-2 gasket graph has 15 vertices
_BAD_FIELDS = [
    (energy_value, 2, np.arange(100.0)),
    (self_similarity_residual, 2, np.arange(50.0)),
    (extension_by_minimization, 3, [0.5]),
    (compatibility_residual, 3, np.arange(16.0)),
    (energy_value, 2, np.full(15, np.nan)),
    (self_similarity_residual, 2, np.r_[np.zeros(14), np.inf]),
    (extension_by_minimization, 3, np.r_[np.nan, np.zeros(14)]),
    (compatibility_residual, 3, np.r_[np.zeros(14), -np.inf]),
]


@pytest.mark.parametrize("function, level, u", _BAD_FIELDS)
def test_structures_check_fields_against_their_level(function, level, u):
    with pytest.raises(ValueError, match="field"):
        function(SG, level, u)
