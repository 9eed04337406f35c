import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import sparse
from scipy.sparse import linalg as spla

from fractalsync import (DegreeVector, EigensolverError, FlowConfig,
                         NotAnEquilibriumError, build_graph, build_ring_graph,
                         build_sg_graph, circle_distance, circle_harmonic_map,
                         degree, dirichlet_energy, half_twisted_state,
                         hessian_stability, integrate_to_equilibrium,
                         km_energy, km_rhs, solve_equilibrium, twisted_state,
                         wrap_phases)
from fractalsync import kuramoto as km
from fractalsync.dirichlet import _pinned_factor, extend_corners
from fractalsync.graphs import RING, SG, _refine
from conftest import (check_energy_handoff, hessian_matrix, hessian_weights,
                      laplacian_matrix, positive_definite_factor,
                      rk4_reference, spy_handoff)


# -- rhs and energy -----------------------------------------------------------

def test_rhs_constant_zero():
    g = build_sg_graph(3)
    np.testing.assert_array_equal(km_rhs(g, np.full(g.n_vertices, 0.4)), 0.0)


def test_rhs_ring_twist_exactly_zero():
    for n in (2, 5, 9):
        g = build_ring_graph(n)
        for q in range(-(2 ** (n - 2)), 2 ** (n - 2) + 1):
            assert np.abs(km_rhs(g, twisted_state(g, q))).max() == 0.0


def test_newton_step_energy_difference_matches_mpmath():
    # a Newton step from the level-9 harmonic map lowers the energy by
    # ~1.6e-10; written as 1 - cos(2 pi d), each edge term's rounding
    # summed to a 7.6e-4 relative error on that decrease
    import mpmath

    g = build_sg_graph(9)
    u, _ = circle_harmonic_map(g, DegreeVector({(): 1}))
    i, j, c = g.edges[:, 0], g.edges[:, 1], g.conductance
    step = np.zeros_like(u)
    factor = _pinned_factor(g, hessian_weights(g, u))
    step[1:] = factor.solve(km_rhs(g, u)[1:]) / km.TWO_PI
    cand = u + step

    def exact(x):
        two_pi = 2 * mpmath.pi
        terms = []
        for a, b in zip(x[i].tolist(), x[j].tolist()):
            d = mpmath.mpf(b) - mpmath.mpf(a)
            terms.append(c * (1 - mpmath.cos(two_pi * (d - mpmath.nint(d)))))
        return mpmath.fsum(terms) / two_pi ** 2

    with mpmath.workdps(30):
        want = float(exact(cand) - exact(u))
    assert want < 0
    fast = km._km_energy_fast(cand, i, j, c) - km._km_energy_fast(u, i, j, c)
    assert fast == pytest.approx(want, rel=1e-5, abs=0)
    public = km_energy(g, cand) - km_energy(g, u)
    assert public == pytest.approx(want, rel=1e-5, abs=0)


@pytest.mark.parametrize("fractal,levels", [(SG, range(3, 13)),
                                            (RING, range(2, 15))],
                         ids=["sg", "ring"])
def test_km_energy_within_its_rounding_bound_of_fsum(fractal, levels):
    # the pairwise sum of nonnegative terms errs by at most (log2 E + 25)
    # roundings relative (see _km_energy_fast), 15 to 39 ulps here; it
    # measured at most one ulp.  Built unmemoised: no large level is held
    rng = np.random.default_rng(7)
    for n in levels:
        g = _refine.__wrapped__(fractal, n)
        u = rng.random(g.n_vertices)
        terms = km._edge_energies(u, g.edges[:, 0], g.edges[:, 1],
                                  g.conductance)
        exact = math.fsum(terms.tolist())
        bound = (math.log2(g.n_edges) + 25) * 2.0 ** -53 * exact
        assert abs(km_energy(g, u) - exact) <= bound, n


def test_rhs_is_minus_2pi_grad_energy():
    rng = np.random.default_rng(0)
    for n in (3, 4):
        g = build_sg_graph(n)
        for _ in range(10):
            u = rng.random(g.n_vertices)
            rhs = km_rhs(g, u)
            eps = 1e-6
            scale = max(1.0, np.abs(rhs).max())
            worst = 0.0
            for i in range(g.n_vertices):
                up, um = u.copy(), u.copy()
                up[i] += eps
                um[i] -= eps
                fd = (km_energy(g, up) - km_energy(g, um)) / (2 * eps)
                worst = max(worst, abs(rhs[i] + 2 * np.pi * fd) / scale)
            assert worst < 1e-5


def test_energy_constant_zero_and_positive():
    g = build_sg_graph(2)
    assert km_energy(g, np.full(g.n_vertices, 0.9)) == 0.0
    rng = np.random.default_rng(1)
    assert km_energy(g, rng.random(g.n_vertices)) > 0.0


def test_ring_twist_energy_closed_form():
    for n in (3, 6, 10):
        g = build_ring_graph(n)
        for q in (1, 3):
            expect = 2.0 ** (2 * n) * (1 - np.cos(2 * np.pi * q * 2.0 ** -n)) / (4 * np.pi ** 2)
            assert km_energy(g, twisted_state(g, q)) == pytest.approx(
                expect, rel=1e-12)


def test_km_energy_below_lift_energy_and_gap_bounded():
    # cosine energy of the harmonic map sits below the lift energy, and the
    # gap obeys the (3/5)**n bound coming from the Holder estimate
    omega = DegreeVector({(): 1})
    gaps = {}
    for n in (2, 3, 4, 5):
        g = build_sg_graph(n)
        phases, lift = circle_harmonic_map(g, omega)
        j = km_energy(g, phases)
        e = lift.energy()
        assert j < e
        gaps[n] = e - j
    for n in (3, 4, 5):
        assert gaps[n] <= 0.6 * gaps[n - 1]


def test_translation_invariance():
    g = build_sg_graph(3)
    rng = np.random.default_rng(4)
    # quantised phases make the shifted sums exact, so equality is bitwise
    u = np.round(rng.random(g.n_vertices) * 2 ** 20) / 2 ** 20
    for c in (0.25, 1.0, 7.0 + 1 / 2 ** 10):
        np.testing.assert_array_equal(km_rhs(g, u + c), km_rhs(g, u))
        assert km_energy(g, u + c) == km_energy(g, u)
    shifted = wrap_phases(u + 0.3712)
    assert np.abs(km_rhs(g, shifted) - km_rhs(g, u)).max() < 1e-10 * g.conductance


def test_mismatch_rejected():
    g = build_sg_graph(2)
    with pytest.raises(ValueError):
        km_rhs(g, np.zeros(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [
    km_energy, km_rhs, integrate_to_equilibrium, solve_equilibrium,
    hessian_stability, lambda g, u: degree(u, g), dirichlet_energy])
def test_non_finite_field_rejected_naming_its_vertex(entry, bad):
    g = build_sg_graph(2)
    u = np.zeros(g.n_vertices)
    u[[5, 9]] = bad
    with pytest.raises(ValueError, match=f"field value {bad!r} at vertex 5 is not finite"):
        entry(g, u)


def test_half_twisted_state_needs_a_half_integer():
    g = build_ring_graph(3)
    for r in (0, 1, 2.0, 0.25, 1e300, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="r must be a half-integer"):
            half_twisted_state(g, r)
    with pytest.raises(ValueError, match="live on the ring"):
        half_twisted_state(build_sg_graph(1), 0.5)
    # ring 1's two vertices: r * i / (2**n - 2) would divide by 0
    with pytest.raises(ValueError, match="ring level 2 or more, not 1"):
        half_twisted_state(build_ring_graph(1), 0.5)


def test_twisted_state_needs_an_integer():
    g = build_ring_graph(3)
    for q in (2.5, 0.5, -1e-9, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^q is {q!r}, not an integer$"):
            twisted_state(g, q)
    assert twisted_state(g, np.int64(3)).tobytes() == twisted_state(g, 3).tobytes()
    with pytest.raises(ValueError, match="live on the ring"):
        twisted_state(build_sg_graph(1), 1)


# -- flow ---------------------------------------------------------------------

def test_flow_constant_converges_immediately():
    g = build_sg_graph(3)
    rep = integrate_to_equilibrium(g, np.full(g.n_vertices, 0.2))
    assert rep.converged
    assert rep.steps == 0
    assert rep.energy == 0.0
    assert rep.stability == "stable"
    assert rep.degree == DegreeVector()


def test_flow_from_harmonic_map_reaches_stable_equilibrium():
    omega = DegreeVector({(): 1})
    g = build_sg_graph(4)
    phases, _ = circle_harmonic_map(g, omega)
    rep = integrate_to_equilibrium(g, phases)
    assert rep.converged and rep.residual < 1e-10
    assert rep.stability == "stable"
    assert rep.degree == omega
    assert circle_distance(rep.field, phases).max() < 0.01


def test_flow_energy_decays_along_trajectory():
    g = build_sg_graph(3)
    rng = np.random.default_rng(8)
    u0 = wrap_phases(0.02 * rng.standard_normal(g.n_vertices))
    rep = integrate_to_equilibrium(g, u0)
    assert rep.converged
    energies = [e for _, e, _ in rep.trajectory]
    assert all(b <= a + 1e-13 for a, b in zip(energies, energies[1:]))


def test_flow_halves_unstable_step(monkeypatch):
    g = build_sg_graph(3)
    rng = np.random.default_rng(12)
    u0 = wrap_phases(0.05 * rng.standard_normal(g.n_vertices))
    # deliberately unstable derived step: the monitor must halve it, not
    # blow up
    big = 10.0 * (3.0 / 5.0) ** g.level
    monkeypatch.setattr(km, "default_step", lambda g, u: big)
    rep = integrate_to_equilibrium(g, u0, FlowConfig(max_time=100.0))
    assert rep.halvings > 0
    assert rep.converged


# -- the default step, read off the cell table --------------------------------

def _dense_top_eig(m):
    return float(np.linalg.eigvalsh(m.toarray())[-1])


@pytest.mark.parametrize("kind, n", [("sg", n) for n in range(6)]
                         + [("ring", n) for n in range(1, 8)])
def test_laplacian_bound_is_the_top_eigenvalue(kind, n):
    # k * (most cells at one vertex) bounds the unit Laplacian's spectrum,
    # and is its top eigenvalue except on the level-1 gasket (6 > 5.303)
    g = build_graph(kind, n)
    bound = km.laplacian_bound(g)
    top = _dense_top_eig(laplacian_matrix(g) / g.conductance)
    assert top <= bound * (1 + 1e-12)
    if (kind, n) == ("sg", 1):
        assert top == pytest.approx(5.302775637731995, rel=1e-12)
    else:
        assert top == pytest.approx(bound, rel=1e-12, abs=0)


@settings(max_examples=20, deadline=None)
@given(graph=st.sampled_from([("sg", n) for n in range(5)]
                             + [("ring", n) for n in range(1, 7)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hessian_spectrum_below_laplacian_bound(graph, seed):
    # the Hessian's weights c cos 2 pi d are at most c, so at any field its
    # top eigenvalue is at most c times the bound: the flow's Jacobian
    # -2 pi H has no eigenvalue below -2 pi c * laplacian_bound(g)
    g = build_graph(*graph)
    u = np.random.default_rng(seed).uniform(-2.0, 2.0, g.n_vertices)
    top = _dense_top_eig(hessian_matrix(g, u) / g.conductance)
    assert top <= km.laplacian_bound(g) * (1 + 1e-12)


@pytest.mark.parametrize("kind, n", [("sg", 0), ("sg", 3), ("sg", 7),
                                     ("ring", 1), ("ring", 6), ("ring", 10)])
def test_default_step_is_inside_rk4_stability(kind, n):
    g = build_graph(kind, n)
    rate = 2 * math.pi * g.conductance * km.laplacian_bound(g)
    inside = np.zeros(g.n_vertices)
    z = -km.default_step(g, inside) * rate
    assert z == pytest.approx(-km.RK4_REACH, rel=1e-15)
    # RK4's amplification at the stiffest rate: damped, inside [-2.785, 0]
    assert abs(_rk4_factor(z)) == pytest.approx(0.648, abs=1e-3)
    # an edge at a quarter turn leaves every cell: the step is then held to
    # where RK4's factor follows e^z on every mode
    outside = inside.copy()
    outside[g.edges[0, 1]] = 0.25
    z = -km.default_step(g, outside) * rate
    assert z == pytest.approx(-km.SLIP_REACH, rel=1e-15)
    assert all(abs(_rk4_factor(x) - math.exp(x)) < 2.5e-4
               for x in np.linspace(z, 0.0, 51))


def _rk4_factor(z):
    return 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24


def test_flow_steps_each_block_from_its_start_state():
    # a random ring start has edges past a quarter turn: the flow's first
    # block runs at the slip step, and it ends at the stability step
    g = build_ring_graph(6)
    u0 = np.random.default_rng(0).random(g.n_vertices)
    rep = integrate_to_equilibrium(g, u0)
    inside = km.default_step(g, rep.field)
    slip = inside * km.SLIP_REACH / km.RK4_REACH
    assert km.default_step(g, u0) == slip
    assert rep.trajectory[1][0] == km.CHECK_EVERY * slip
    assert rep.step_size == inside
    assert rep.halvings == 0


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_default_step_flow_matches_old_step_reference(n, seed):
    # the old step 0.2 * 4**-n sat ~0.55 * 2**n times below the ring's
    # stability limit; from these starts the derived step ends in the same
    # place
    g = build_ring_graph(n)
    u0 = np.random.default_rng(seed).random(g.n_vertices)
    _assert_flow_matches_old_step(g, u0, 0.2 * 4.0 ** -n)


@pytest.mark.parametrize("n, seed, q", [(4, 155, 1), (4, 184, 1), (5, 78, 0),
                                        (6, 907796, -2)])
def test_default_step_keeps_basin_boundary_starts(n, seed, q):
    # near a basin boundary the stability step alone sends these ring starts
    # to another twist (at ring 6, --init random --seed 907796 reached -1);
    # the slip step outside every cell keeps the old step's twist
    g = build_ring_graph(n)
    u0 = np.random.default_rng(seed).random(g.n_vertices)
    old = 0.2 * 4.0 ** -n
    inside = km.default_step(g, np.zeros(g.n_vertices))
    inside_only = rk4_reference(g, u0, step=inside)
    assert inside_only.degree != DegreeVector({(): q})
    rep = integrate_to_equilibrium(g, u0)
    ref = rk4_reference(g, u0, step=old)
    assert rep.degree == ref.degree == DegreeVector({(): q})
    assert rep.stability == ref.stability == "stable"
    assert rep.halvings == 0
    assert circle_distance(rep.field, ref.field).max() < 1e-8


def test_default_step_gasket_flow_matches_old_step_reference():
    # the old gasket step 0.2 * (3/5)**n was past the stability limit, so
    # its reference halves twice; the derived step halves never
    g = build_sg_graph(4)
    phases, _ = circle_harmonic_map(g, DegreeVector.parse("1,1,1,1", (1, 2, 3)))
    rng = np.random.default_rng(5)
    u0 = wrap_phases(phases + rng.uniform(-0.1, 0.1, g.n_vertices))
    _, ref = _assert_flow_matches_old_step(g, u0, 0.2 * (3.0 / 5.0) ** 4)
    assert ref.halvings == 2


def _assert_flow_matches_old_step(g, u0, old_step):
    rep = integrate_to_equilibrium(g, u0)
    ref = rk4_reference(g, u0, step=old_step)
    inside = km.default_step(g, rep.field)
    assert rep.halvings == 0
    assert rep.step_size in (inside, inside * km.SLIP_REACH / km.RK4_REACH)
    assert rep.converged and ref.converged
    assert rep.degree == ref.degree
    assert rep.stability == ref.stability
    assert circle_distance(rep.field, ref.field).max() < 1e-8
    return rep, ref


def test_flow_nonconvergence_reported_not_raised():
    g = build_sg_graph(3)
    rng = np.random.default_rng(3)
    u0 = wrap_phases(0.1 * rng.standard_normal(g.n_vertices))
    rep = integrate_to_equilibrium(g, u0, FlowConfig(max_time=1e-4))
    assert not rep.converged
    assert rep.residual >= 1e-10


def test_half_twisted_is_equilibrium_but_saddle():
    g = build_ring_graph(3)
    u = half_twisted_state(g, 0.5)
    assert np.abs(km_rhs(g, u)).max() < 1e-12
    rep = integrate_to_equilibrium(g, u, FlowConfig(max_time=1.0))
    assert rep.residual < 1e-10
    assert rep.stability == "saddle"


def test_unresolved_degree_is_reported():
    g = build_ring_graph(3)
    rep = integrate_to_equilibrium(g, twisted_state(g, 4))  # half-turn steps
    assert rep.degree is None
    assert rep.to_json_dict()["degree_error"].startswith("unresolved winding on edge")
    rep = integrate_to_equilibrium(g, twisted_state(g, 1))
    assert rep.degree == DegreeVector({(): 1})
    assert rep.to_json_dict()["degree_error"] is None


def test_report_json_is_every_field_but_the_arrays():
    g = build_ring_graph(4)
    rep = integrate_to_equilibrium(g, twisted_state(g, 1))
    d = rep.to_json_dict()
    assert set(d) == ({f.name for f in dataclasses.fields(rep)}
                      - {"field", "trajectory"})
    # the keys equilibrium.json and sweep.json have always written
    assert set(d) == {"residual", "energy", "hessian_min_eig", "stability",
                      "degree", "degree_error", "steps", "time", "step_size",
                      "converged", "halvings", "method", "fallback",
                      "newton_steps"}
    assert d["degree"] == {"eps": 1}


# -- Newton finish of the flow (plain RK4 is the oracle) ---------------------------

@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(("sg", "ring")), n=st.integers(3, 5),
       spec=st.sampled_from(("0", "1", "1,1,1,1", "2,0,0")),
       amp=st.floats(0.0, 0.25), seed=st.integers(0, 2 ** 32 - 1),
       method=st.just(None))
@example(kind="sg", n=5, spec="2,0,0", amp=0.25, seed=1, method="flow+newton")
@example(kind="sg", n=3, spec="1,1,1,1", amp=0.25, seed=16, method="flow+newton")
@example(kind="sg", n=3, spec="1,1,1,1", amp=0.1, seed=0, method="flow+newton")
@example(kind="sg", n=3, spec="1,1,1,1", amp=0.1, seed=1, method="flow+newton")
@example(kind="ring", n=5, spec="0", amp=0.0, seed=1, method="flow+newton")
@example(kind="ring", n=5, spec="0", amp=0.0, seed=0, method="flow+newton")
@example(kind="sg", n=5, spec="0", amp=0.25, seed=1, method="flow+newton")
def test_finished_flow_matches_rk4_reference(kind, n, spec, amp, seed, method):
    # perturbed gasket starts and random ring starts: the flow picks the
    # equilibrium, and the Newton finish lands on the one plain RK4 reaches;
    # ``method`` is how an example is known to end (ring-5 seed 0 ends
    # twisted, q = -2; the gasket-3 ``1,1,1,1`` equilibrium lies 1.1e-7
    # below its wall energy, so its flows hand off late, but by energy)
    rng = np.random.default_rng(seed)
    if kind == "ring":
        g = build_ring_graph(n)
        u0 = rng.random(g.n_vertices)
    else:
        g = build_sg_graph(n)
        phases, _ = circle_harmonic_map(g, DegreeVector.parse(spec, (1, 2, 3)))
        u0 = wrap_phases(phases + rng.uniform(-amp, amp, g.n_vertices))
    cfg = FlowConfig()
    with pytest.MonkeyPatch.context() as mp:
        events = spy_handoff(mp)
        rep = integrate_to_equilibrium(g, u0, cfg)
    ref = rk4_reference(g, u0, cfg)
    assert circle_distance(rep.field, ref.field).max() < 1e-8
    assert rep.degree == ref.degree
    assert rep.stability == ref.stability
    assert rep.converged == ref.converged
    assert rep.method == ("flow+newton" if rep.newton_steps else "flow")
    assert rep.steps <= ref.steps
    if rep.method == "flow+newton":
        # the first block below the wall energy of its cell's Newton end,
        # which is the reported end, in that cell
        check_energy_handoff(rep, events)
        d_end = km._wrapped_diff(rep.field, g.edges[:, 0], g.edges[:, 1])
        assert np.abs(d_end).max() < 0.25
    if method is not None:
        assert rep.method == method


def test_flow_does_not_hand_off_at_a_saddle(monkeypatch):
    # next to the half-twisted saddle the residual is tiny, but an edge is
    # at a quarter turn or more, so no block lies in a cell and Newton
    # never runs: the flow stays on RK4.  The derived step is pinned below
    # its default so that the first block ends before the saddle's
    # unstable mode grows
    attempts = []
    newton = km._newton

    def counted(g, u, cfg):
        out = newton(g, u, cfg)
        attempts.append(out)
        return out

    monkeypatch.setattr(km, "_newton", counted)
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        g = build_ring_graph(n)
        u0 = wrap_phases(half_twisted_state(g, 0.5)
                         + 1e-9 * rng.standard_normal(g.n_vertices))
        step = 0.2 * 4.0 ** -n
        monkeypatch.setattr(km, "default_step", lambda g, u: step)
        cfg = FlowConfig(max_time=0.05)
        attempts.clear()
        rep = integrate_to_equilibrium(g, u0, cfg)
        ref = rk4_reference(g, u0, cfg, step=step)
        assert attempts == []
        assert rep.method == "flow" and rep.newton_steps == 0
        np.testing.assert_array_equal(rep.field, ref.field)
        assert rep.to_json_dict() == ref.to_json_dict()


def test_newton_holds_one_factor_at_a_time(monkeypatch):
    # each iterate's factor is dropped once its step is solved, so no
    # earlier factor of the run is alive while Newton factors the next
    # iterate, nor while it factors the end it classifies
    made = []

    def factor(g, w, shift=0.0):
        assert [ref for ref in made if ref() is not None] == []
        out = _pinned_factor(g, w, shift)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(km, "_pinned_factor", factor)
    g = build_sg_graph(5)
    phases, _ = circle_harmonic_map(g, DegreeVector({(): 1}))
    u0 = wrap_phases(phases + np.random.default_rng(3).uniform(
        -0.02, 0.02, g.n_vertices))
    rep = solve_equilibrium(g, u0)
    assert rep.fallback is None and rep.newton_steps >= 2
    assert len(made) == rep.newton_steps + 1


@pytest.mark.parametrize("first", ["fails", "ends outside the cell"])
def test_energy_handoff_has_one_attempt(monkeypatch, first):
    # after a spoiled Newton run, Newton never runs again in that cell:
    # the flow ends on plain RK4
    newton = km._newton
    runs = []

    def first_spoiled(g, u, cfg):
        out = newton(g, u, cfg)
        runs.append(out)
        if len(runs) > 1:
            return out
        if first == "fails":
            return "forced"
        return (twist,) + out[1:]

    # the q = 1 twisted state in place of Newton's end: a critical point
    # in a cell of its own, below its own wall energy, but outside the
    # block state's cell
    g = build_ring_graph(5)
    twist = np.arange(g.n_vertices) / g.n_vertices
    assert km.cell_wall_energy(g, twist) > km_energy(g, twist)
    monkeypatch.setattr(km, "_newton", first_spoiled)
    events = spy_handoff(monkeypatch)
    u0 = np.random.default_rng(1).random(g.n_vertices)
    rep = integrate_to_equilibrium(g, u0)
    # the spoiled run sets no wall energy, so the flow never hands off
    assert [ev[0] for ev in events] == ["newton"]
    assert events[0][2] is not None
    assert rep.method == "flow" and rep.newton_steps == 0 and rep.converged
    ref = rk4_reference(g, u0)
    np.testing.assert_array_equal(rep.field, ref.field)
    assert rep.to_json_dict() == ref.to_json_dict()


def test_energy_rule_waits_for_the_time_budget(monkeypatch):
    # one block overruns max_time and ends in a cell below its wall energy:
    # the rule stands in for the rest of the flow, which the budget does
    # not allow, so Newton does not run
    events = spy_handoff(monkeypatch)
    g = build_sg_graph(3)
    u0 = wrap_phases(0.1 * np.random.default_rng(3).standard_normal(g.n_vertices))
    rep = integrate_to_equilibrium(g, u0, FlowConfig(max_time=1e-4))
    (_, e_start, _), (t, e_block, _) = rep.trajectory
    assert not events
    assert rep.method == "flow" and not rep.converged
    assert np.abs(km._wrapped_diff(u0, g.edges[:, 0], g.edges[:, 1])).max() >= 0.25
    star = solve_equilibrium(g, rep.field).field
    assert t > 1e-4 and e_block < km.cell_wall_energy(g, star)
    # with the default budget the same block hands off, on one Newton run
    events.clear()
    rep = integrate_to_equilibrium(g, u0)
    assert rep.method == "flow+newton" and rep.steps == 25
    assert [ev[0] for ev in events] == ["newton", "wall"]
    assert check_energy_handoff(rep, events) is events[0]


@pytest.mark.parametrize("n, spec", [(n, spec) for n in (4, 5, 6)
                                     for spec in ("2,0,0", "1,1,1,1", "0,1,1,1")])
def test_every_gasket_class_hands_off_by_energy_at_its_first_cell(monkeypatch, n, spec):
    # the wall energy is anchored at Newton's end, so classes whose
    # equilibrium energy is far above one edge's c / (4 pi^2) still hand
    # off at their first block in a cell, on one Newton run
    g = build_sg_graph(n)
    omega = DegreeVector.parse(spec, (1, 2, 3))
    phases, _ = circle_harmonic_map(g, omega)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        u0 = wrap_phases(phases + rng.uniform(-0.1, 0.1, g.n_vertices))
        with pytest.MonkeyPatch.context() as mp:
            events = spy_handoff(mp)
            rep = integrate_to_equilibrium(g, u0)
        assert rep.method == "flow+newton" and rep.steps <= 50, (n, spec, seed)
        assert [ev[0] for ev in events] == ["newton", "wall"]
        check_energy_handoff(rep, events)
        assert rep.degree == omega and rep.stability == "stable"


# -- the wall energy behind the flow's energy handoff ------------------------------

def _lemma_graph(kind, n):
    return build_ring_graph(n) if kind == "ring" else build_sg_graph(n)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(("sg", "ring")), n=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scalar_conductance_matches_array_weights(kind, n, seed):
    # the kernels take the level's one conductance; an array of it per
    # edge gives the same bits
    g = _lemma_graph(kind, n)
    u = np.random.default_rng(seed).uniform(-2.0, 2.0, g.n_vertices)
    i, j, c = g.edges[:, 0], g.edges[:, 1], g.conductance
    w = np.full(g.n_edges, c)
    nv = g.n_vertices
    assert (km._edge_sine_sum(u, i, j, c, nv).tobytes()
            == km._edge_sine_sum(u, i, j, w, nv).tobytes())
    assert (km._edge_energies(u, i, j, c).tobytes()
            == km._edge_energies(u, i, j, w).tobytes())


def _f_mp(x):
    import mpmath
    return mpmath.sin(mpmath.pi * x) ** 2 / (2 * mpmath.pi ** 2)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-0.25, 0.25), y=st.floats(-0.25, 0.25))
@example(x=0.25, y=0.25 - 2.0 ** -55)
@example(x=-0.25, y=-0.25 + 1e-12)
@example(x=0.25, y=0.25 - 0.1 / (2 * math.pi))     # t = 0.1, where the forms meet
@example(x=-0.25, y=0.0)
@example(x=0.25, y=0.25)
def test_bregman_floor_bounds_each_edge_energy(x, y):
    # f(x) - f(y) - f'(y)(x - y) >= q(y)(x - y)^2 on the closed cell, in
    # 100-digit arithmetic (both sides cancel to ~1e-48 at y next to 1/4);
    # the float q is that q to 1e-12 relative, and never negative, also
    # where its closed form would cancel
    import mpmath
    q = float(km._bregman_floor(np.array([y]))[0])
    with mpmath.workdps(100):
        X, Y = mpmath.mpf(x), mpmath.mpf(y)
        breg = _f_mp(X) - _f_mp(Y) - mpmath.sin(2 * mpmath.pi * Y) / (2 * mpmath.pi) * (X - Y)
        t = 2 * mpmath.pi * (mpmath.mpf(1) / 4 - abs(Y))
        q_exact = (mpmath.sin(t) - t * mpmath.cos(t)) / t ** 2 if t else mpmath.mpf(0)
        assert q_exact * (X - Y) ** 2 <= breg + mpmath.mpf(10) ** -90
        assert abs(q - q_exact) <= 1e-12 * q_exact
    assert q >= 0.0


_WALL_CLASSES = {"sg": ("0", "1", "-1", "2", "2,0,0", "1,1,1,1"),
                 "ring": ("0", "1", "-1", "2", "-3")}


def _cell_equilibrium(g, spec):
    """The equilibrium of ``spec``'s class, Newton's from its harmonic
    map, or the flow's end from that map where Newton refuses it (a ring
    twist at or past a quarter turn, a gasket class below its onset)."""
    if g.fractal.name == "ring":
        start = twisted_state(g, int(spec))
    else:
        start = circle_harmonic_map(g, DegreeVector.parse(spec, (1, 2, 3)))[0]
    rep = solve_equilibrium(g, start)
    if rep.fallback is not None:
        rep = integrate_to_equilibrium(g, start)
    return rep.field


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(("sg", "ring")), n=st.integers(3, 5),
       pick=st.integers(0, 5), amp=st.floats(0.0, 0.2),
       anchor_amp=st.sampled_from((0.0, 1e-6, 1e-3)), descent=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(kind="sg", n=3, pick=0, amp=5e-324, anchor_amp=0.0, descent=True,
         seed=0)   # a subnormal descent direction from the constant field
def test_cell_wall_energy_bounds_the_energy_on_the_walls(kind, n, pick, amp, anchor_amp,
                                                         descent, seed):
    # from a point u of the cell of the class's equilibrium u*, go straight
    # along a random direction v, or down the gradient: the lift
    # differences d + s (v_j - v_i) first reach a quarter turn at s*, on a
    # wall of the cell, and the energy there is at least W(a), for a = u*
    # or a point near it (the residual term covers a non-critical anchor)
    g = _lemma_graph(kind, n)
    classes = _WALL_CLASSES[kind]
    star = _cell_equilibrium(g, classes[pick % len(classes)])
    i, j, c = g.edges[:, 0], g.edges[:, 1], g.conductance
    assume(km.cell_wall_energy(g, star) > -math.inf)
    # the equilibrium lies below the walls of its own cell
    assert km._km_energy_fast(star, i, j, c) < km.cell_wall_energy(g, star)
    rng = np.random.default_rng(seed)
    anchor = star + rng.uniform(-anchor_amp, anchor_amp, g.n_vertices)
    wall = km.cell_wall_energy(g, anchor)
    u = star + rng.uniform(-amp, amp, g.n_vertices)
    lift = star[j] - star[i]
    d = u[j] - u[i] - np.round(lift)
    assume(np.abs(d).max() < 0.25)
    assume(np.abs(anchor[j] - anchor[i] - np.round(lift)).max() < 0.25)
    v = km_rhs(g, u) if descent else rng.standard_normal(g.n_vertices)
    dv = v[j] - v[i]
    moving = dv != 0.0
    assume(moving.any())   # no descent from a critical point
    with np.errstate(over="ignore"):
        s = np.min((0.25 * np.sign(dv[moving]) - d[moving]) / dv[moving])
    assume(np.isfinite(s))
    at_wall = d + s * dv
    assert np.abs(np.abs(at_wall).max() - 0.25) < 1e-12
    assert km._km_energy_fast(u + s * v, i, j, c) >= wall
    # inside the quarter-turn cell the pinned Hessian is a Laplacian with
    # positive weights, and the factor certifies it
    assert _pinned_factor(g, hessian_weights(g, u)) is not None


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(("sg", "ring")), n=st.integers(2, 4),
       pick=st.integers(0, 5), amp=st.floats(0.0, 0.05),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cell_wall_energy_matches_its_formula_edge_by_edge(kind, n, pick, amp, seed):
    # W = E(u) + c min_e a_e^2 (q_e + 1 / sum_{e' != e} 1 / q_e')
    #     - ||rhs(u)||_1 2**(n - 1) / (2 pi), lowered by 1e-9 relative,
    # with the row sums taken edge by edge
    g = _lemma_graph(kind, n)
    classes = _WALL_CLASSES[kind]
    star = _cell_equilibrium(g, classes[pick % len(classes)])
    u = star + np.random.default_rng(seed).uniform(-amp, amp, g.n_vertices)
    i, j, c = g.edges[:, 0], g.edges[:, 1], g.conductance
    d = km._wrapped_diff(u, i, j)
    assume(np.abs(d).max() < 0.25)
    q = [float(km._bregman_floor(np.array([x]))[0]) for x in d]
    width = 3 if kind == "sg" else g.n_edges
    rise = math.inf
    for e in range(g.n_edges):
        row = range(e - e % width, e - e % width + width)
        path = 1.0 / sum(1.0 / q[f] for f in row if f != e)
        rise = min(rise, (0.25 - abs(d[e])) ** 2 * (q[e] + path))
    slack = float(np.abs(km_rhs(g, u)).sum()) * 2.0 ** (n - 1) / km.TWO_PI
    want = (1.0 - 1e-9) * (km_energy(g, u) + c * rise - slack)
    assert km.cell_wall_energy(g, u) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_every_vertex_is_within_two_to_the_level_edges_of_vertex_0():
    # the bound on |v - v_0| behind the residual term of cell_wall_energy
    from scipy.sparse.csgraph import shortest_path

    for kind, levels in (("sg", range(0, 8)), ("ring", range(1, 11))):
        for n in levels:
            g = _lemma_graph(kind, n)
            adj = sparse.coo_matrix((np.ones(g.n_edges), (g.edges[:, 0], g.edges[:, 1])),
                                    shape=(g.n_vertices,) * 2)
            hops = shortest_path(adj, directed=False, unweighted=True, indices=0)
            assert hops.max() <= 2 ** n, (kind, n)


@pytest.mark.parametrize("kind, n, specs", [("sg", 2, ("1",)),
                                            ("ring", 3, ("0", "1", "-1"))])
def test_cell_wall_energy_below_the_least_energy_on_each_wall_face(kind, n, specs):
    # the energy minimised numerically on the face d_e = +-1/4 of every
    # edge e of the closed cell of each class's equilibrium, with vertex 0
    # held fixed; E is convex there (every weight cos 2 pi d >= 0).  Some
    # gasket faces pin a whole hole boundary at a quarter turn, so the
    # solver must take degenerate faces (trust-constr does; SLSQP stopped
    # up to 0.06 above the minimum on others)
    from scipy.optimize import LinearConstraint, minimize

    g = _lemma_graph(kind, n)
    i, j, c = g.edges[:, 0], g.edges[:, 1], g.conductance
    incidence = np.zeros((g.n_edges, g.n_vertices))
    incidence[np.arange(g.n_edges), j] = 1.0
    incidence[np.arange(g.n_edges), i] = -1.0
    for spec in specs:
        star = _cell_equilibrium(g, spec)
        wall = km.cell_wall_energy(g, star)
        # lift differences d = incidence[:, 1:] @ x + offset, x = star[1:] + ...
        offset = incidence[:, 0] * star[0] - np.round(star[j] - star[i])

        def full(x):
            return np.concatenate(([star[0]], x))

        least = math.inf
        for e in range(g.n_edges):
            for side in (-0.25, 0.25):
                lo, hi = -0.25 - offset, 0.25 - offset
                lo[e] = hi[e] = side - offset[e]
                res = minimize(
                    lambda x: km._km_energy_fast(full(x), i, j, c), star[1:],
                    jac=lambda x: -km_rhs(g, full(x))[1:] / km.TWO_PI,
                    hess=lambda x: hessian_matrix(g, full(x))[1:, 1:].toarray(),
                    method="trust-constr",
                    constraints=[LinearConstraint(incidence[:, 1:], lo, hi)],
                    options={"gtol": 1e-8, "xtol": 1e-10})
                assert res.success and res.constr_violation < 1e-7, (spec, e, side)
                least = min(least, res.fun)
        assert km._km_energy_fast(star, i, j, c) < wall <= least, spec


def test_wall_energy_clears_each_gasket_class_at_levels_5_and_6():
    # W(u*) - E(u*) for degrees 0, 1, 2,0,0, 1,1,1,1 and 0,1,1,1: 0.49,
    # 0.35, 0.23, 0.19, 0.13 at level 5 and 0.41-0.81 at level 6, so a
    # flow a little above its equilibrium already certifies it
    for n, least in ((5, 0.12), (6, 0.4)):
        g = build_sg_graph(n)
        for spec in ("0", "1", "2,0,0", "1,1,1,1", "0,1,1,1"):
            star = _cell_equilibrium(g, spec)
            assert km.cell_wall_energy(g, star) - km_energy(g, star) > least, (n, spec)


def test_ring_wall_energy_certifies_every_quarter_turn_twist_not_saddles():
    # a critical point below its wall energy is the minimum of its convex
    # cell: the half-twisted saddles never are, while every twisted state
    # with edges under a quarter turn (|q| < N / 4) is
    for n in (3, 4, 5):
        g = build_ring_graph(n)
        for r in np.arange(0.5, g.n_vertices / 2, 1.0):
            u = half_twisted_state(g, r)
            if hessian_stability(g, u)[1] == "saddle":
                assert km_energy(g, u) >= km.cell_wall_energy(g, u), (n, r)
        assert hessian_stability(g, half_twisted_state(g, 0.5))[1] == "saddle"
        for q in range(-g.n_vertices // 2, g.n_vertices // 2 + 1):
            u = twisted_state(g, q)
            wall = km.cell_wall_energy(g, u)
            assert (km_energy(g, u) < wall) == (4 * abs(q) < g.n_vertices), (n, q)
            if km_energy(g, u) < wall:
                assert hessian_stability(g, u)[1] == "stable", (n, q)


# -- Newton solve (plain RK4 is the oracle) ----------------------------------------

@pytest.mark.parametrize("omega", [DegreeVector({(): 1}),
                                   DegreeVector({(): 1, (1,): 1, (2,): 1, (3,): 1})])
def test_newton_matches_flow_pointwise(omega):
    for n in (3, 4, 5, 6):
        g = build_sg_graph(n)
        phases, _ = circle_harmonic_map(g, omega)
        rep = solve_equilibrium(g, phases)
        ref = rk4_reference(g, phases)
        assert rep.method == "newton" and rep.fallback is None
        assert rep.converged and rep.residual < 1e-10
        assert rep.stability == "stable" and rep.degree == omega
        assert circle_distance(rep.field, ref.field).max() < 1e-8
        assert rep.hessian_min_eig == pytest.approx(ref.hessian_min_eig, rel=1e-9)


@settings(max_examples=6, deadline=None)
@given(n=st.sampled_from((4, 5)),
       spec=st.sampled_from(("0", "1", "1,1,1,1", "2,0,0")),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=4, spec="2,0,0", seed=52)   # unguarded steps change this degree
@example(n=4, spec="1,1,1,1", seed=2)  # Newton refuses these two starts
@example(n=4, spec="2,0,0", seed=2)
def test_newton_from_perturbed_start_keeps_degree_and_matches_flow(n, spec, seed):
    g = build_sg_graph(n)
    omega = DegreeVector.parse(spec, (1, 2, 3))
    phases, _ = circle_harmonic_map(g, omega)
    rng = np.random.default_rng(seed)
    u0 = wrap_phases(phases + rng.uniform(-0.1, 0.1, g.n_vertices))
    cfg = FlowConfig()
    rep = solve_equilibrium(g, u0, cfg)
    if rep.fallback is not None:
        # Newton refused the start (at n = 4, for an indefinite Hessian in
        # 49 of 800 seeds): the report is of the start itself
        assert rep.fallback in ("pinned Hessian not positive definite",
                                f"line search step below {km.NEWTON_MIN_STEP:g}",
                                f"no convergence in {km.NEWTON_MAX_ITERS} Newton steps")
        assert rep.method == "newton" and not rep.converged
        assert rep.steps == rep.newton_steps == rep.halvings == 0
        np.testing.assert_array_equal(rep.field, u0)
        assert rep.residual == np.abs(km_rhs(g, u0)).max() >= cfg.tol
        assert rep.energy == km_energy(g, u0)
        assert rep.stability is None and rep.hessian_min_eig is None
        assert rep.degree == degree(u0, g)
        return
    ref = rk4_reference(g, u0, cfg)
    assert rep.converged and rep.stability == "stable"
    assert rep.degree == degree(u0, g)
    assert circle_distance(rep.field, ref.field).max() < 1e-8


def test_uncertified_start_is_reported_without_a_flow(monkeypatch):
    def no_flow(*args):
        raise AssertionError("solve_equilibrium ran the flow")

    monkeypatch.setattr(km, "integrate_to_equilibrium", no_flow)
    ring = build_ring_graph(5)
    g = build_sg_graph(3)
    rng = np.random.default_rng(2)
    # saddles (Hessian indefinite) and a random start far from equilibrium;
    # the report is of the wrapped start, classified as any other end
    for graph, u0, stability in (
            (ring, half_twisted_state(ring, 0.5), "saddle"),
            (ring, twisted_state(ring, 9), "saddle"),
            (g, rng.random(g.n_vertices), None)):
        rep = solve_equilibrium(graph, u0)
        assert rep.method == "newton"
        assert rep.fallback == "pinned Hessian not positive definite"
        np.testing.assert_array_equal(rep.field, wrap_phases(u0))
        assert rep.residual == np.abs(km_rhs(graph, rep.field)).max()
        assert rep.converged == (rep.residual < FlowConfig().tol)
        assert (rep.steps, rep.time, rep.step_size, rep.halvings,
                rep.newton_steps) == (0, 0.0, 0.0, 0, 0)
        assert rep.stability == stability and rep.trajectory is None
        assert rep.degree == degree(rep.field, graph)


def test_newton_keeps_stable_ring_twists():
    g = build_ring_graph(5)
    for q in (0, 1, 7):   # stable below the quarter turn q = 8
        u0 = twisted_state(g, q)
        rep = solve_equilibrium(g, u0)
        assert rep.method == "newton" and rep.steps == rep.newton_steps == 0
        assert rep.stability == "stable"
        assert rep.degree == DegreeVector({(): q} if q else {})
        assert circle_distance(rep.field, u0).max() < 1e-12


# -- minimisation ----------------------------------------------------------------

def test_minimize_near_constant_reaches_zero():
    g = build_sg_graph(3)
    rng = np.random.default_rng(6)
    u0 = wrap_phases(0.01 * rng.standard_normal(g.n_vertices))
    rep = solve_equilibrium(g, u0, FlowConfig(tol=1e-10))
    assert rep.method == "newton" and rep.converged
    assert rep.energy < 1e-16
    assert rep.stability == "stable"
    # the eigenvalue is taken on the subspace with vertex 0 held fixed
    assert (rep.hessian_min_eig, rep.stability) == hessian_stability(
        g, rep.field)


# -- stability ---------------------------------------------------------------------

def test_hessian_constant_equals_pinned_laplacian():
    g = build_sg_graph(3)
    u = np.full(g.n_vertices, 0.1)
    eig, verdict = hessian_stability(g, u)
    L = laplacian_matrix(g).toarray()[1:, 1:]
    assert verdict == "stable"
    assert eig == pytest.approx(np.linalg.eigvalsh(L)[0], rel=1e-9)


def test_hessian_is_cosine_weighted_laplacian():
    g = build_ring_graph(3)
    u = twisted_state(g, 1)
    H = hessian_matrix(g, u).toarray()
    w = g.conductance * np.cos(2 * np.pi / 8)
    assert H[0, 1] == pytest.approx(-w, rel=1e-12)
    assert H[0, 0] == pytest.approx(2 * w, rel=1e-12)


def test_ring_stability_boundary():
    for n in (4, 5, 6):
        g = build_ring_graph(n)
        for q in range(0, 2 ** (n - 1) + 1):
            eig, verdict = hessian_stability(g, twisted_state(g, q))
            if q < 2 ** n / 4:
                assert verdict == "stable", (n, q)
            elif q > 2 ** n / 4:
                assert verdict != "stable", (n, q)
            else:
                assert verdict == "degenerate", (n, q)


class _CountedFactors:
    """``_pinned_factor``, counting its calls."""

    def __init__(self):
        self.factor, self.calls = km._pinned_factor, 0

    def __call__(self, *args):
        self.calls += 1
        return self.factor(*args)


def _check_bisection(g, u):
    # the uncertified route's eigenvalue against dense eigvalsh, in at most
    # 53 factorisations
    H = hessian_matrix(g, u).toarray()[1:, 1:]
    eigs = np.linalg.eigvalsh(H)
    counted = _CountedFactors()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km, "_pinned_factor", counted)
        eig, verdict = km._classify(g, u, None)
    assert counted.calls <= 53
    assert abs(eig - eigs[0]) <= 1e-14 * np.abs(eigs).max(), (eig, eigs[0])
    return verdict


def test_half_twisted_saddles():
    for n in range(3, 11):
        g = build_ring_graph(n)
        u = half_twisted_state(g, 0.5)
        assert hessian_stability(g, u)[1] == "saddle", n
        assert _check_bisection(g, u) == "saddle", n


@settings(max_examples=40, deadline=None)
@given(graph=st.one_of(st.tuples(st.just("sg"), st.integers(0, 5)),
                       st.tuples(st.just("ring"), st.integers(1, 8))),
       seed=st.integers(0, 2 ** 32 - 1))
# a shifted last block passes Cholesky there, and np.linalg.inv finds it
# singular
@example(graph=("sg", 0), seed=80)
def test_uncertified_min_eig_matches_eigvalsh(graph, seed):
    g = build_graph(*graph)
    u = np.random.default_rng(seed).uniform(0.0, 1.0, g.n_vertices)
    assume(_pinned_factor(g, hessian_weights(g, u)) is None)
    _check_bisection(g, u)


def test_hessian_requires_equilibrium():
    g = build_sg_graph(2)
    rng = np.random.default_rng(5)
    with pytest.raises(NotAnEquilibriumError):
        hessian_stability(g, rng.random(g.n_vertices))


def test_hessian_factor_path_matches_dense():
    # level 6 has 1094 free vertices: the certified sparse path runs, and the
    # dense solve is still affordable as the reference
    g = build_sg_graph(6)
    phases, _ = circle_harmonic_map(g, DegreeVector({(): 1}))
    rep = solve_equilibrium(g, phases)
    H = hessian_matrix(g, rep.field).toarray()[1:, 1:]
    assert rep.method == "newton" and rep.stability == "stable"
    assert rep.hessian_min_eig == pytest.approx(np.linalg.eigvalsh(H)[0],
                                                rel=1e-10)


def _newton_ends():
    """Newton from the map at gasket levels 3-7 (degrees 1 and 1,1,1,1),
    a ring flow and a gasket ``2,0,0`` flow, each certified at its first
    block in a cell: (graph, solve, method) triples."""
    for spec in ("1", "1,1,1,1"):
        for n in range(3, 8):
            g = build_sg_graph(n)
            phases, _ = circle_harmonic_map(g, DegreeVector.parse(spec, (1, 2, 3)))
            yield g, lambda g=g, phases=phases: solve_equilibrium(g, phases), "newton"
    ring = build_ring_graph(6)
    u0 = wrap_phases(twisted_state(ring, 3)
                     + np.random.default_rng(4).uniform(-0.1, 0.1, ring.n_vertices))
    yield ring, lambda: integrate_to_equilibrium(ring, u0), "flow+newton"
    g = build_sg_graph(5)
    phases, _ = circle_harmonic_map(g, DegreeVector({(): 2}))
    v0 = wrap_phases(phases + np.random.default_rng(1).uniform(-0.1, 0.1, g.n_vertices))
    yield g, lambda: integrate_to_equilibrium(g, v0), "flow+newton"


def test_newton_end_factors_once_per_step(monkeypatch):
    # each Newton step factors its iterate, and one more factor certifies
    # and classifies the reported field: no second factor of the same
    # Hessian.  A flow certified at its first block in a cell runs Newton
    # once, so its report's newton_steps count every factor it made
    calls = []
    factor = km._pinned_factor

    def counted(g, w):
        calls.append(g.level)
        return factor(g, w)

    monkeypatch.setattr(km, "_pinned_factor", counted)
    events = spy_handoff(monkeypatch)
    for g, solve, method in _newton_ends():
        calls.clear()
        events.clear()
        rep = solve()
        assert rep.method == method and rep.fallback is None
        assert rep.stability == "stable"
        assert len(calls) == rep.newton_steps + 1, (g.fractal.name, g.level)
        assert len([ev for ev in events if ev[0] == "newton"]) == 1
        if method == "flow+newton":
            assert rep.steps == 25
            check_energy_handoff(rep, events)


def test_hessian_min_eig_bitwise_reproducible_level7():
    g = build_sg_graph(7)
    phases, _ = circle_harmonic_map(g, DegreeVector({(): 1}))
    first = solve_equilibrium(g, phases)
    second = solve_equilibrium(g, phases)
    assert first.stability == "stable"
    assert first.hessian_min_eig == second.hessian_min_eig
    # Newton's last factor classifies exactly what hessian_stability does
    for g, solve, _ in _newton_ends():
        rep = solve()
        assert hessian_stability(g, rep.field) == (rep.hessian_min_eig,
                                                   rep.stability)


def test_small_unresolved_lanczos_is_typed(monkeypatch):
    # a certified stable end whose Lanczos basis runs out unresolved raises
    # also below the size the dense fallback once covered
    g = build_sg_graph(4)
    phases, _ = circle_harmonic_map(g, DegreeVector({(): 1}))
    field = solve_equilibrium(g, phases).field
    monkeypatch.setattr(km, "LANCZOS_BASIS", 1)
    with pytest.raises(EigensolverError, match="122-vertex"):
        hessian_stability(g, field)


def test_large_unresolved_lanczos_is_typed(monkeypatch):
    # the same on a certified stable ring twist with 4,095 free vertices
    g = build_ring_graph(12)
    monkeypatch.setattr(km, "LANCZOS_BASIS", 1)
    with pytest.raises(EigensolverError, match="4095-vertex"):
        hessian_stability(g, twisted_state(g, 1))


# -- the pinned Hessian's cell factor and Lanczos basis ----------------------------

def test_cell_elimination_is_the_trace_onto_each_coarser_level():
    # with uniform weights, eliminating each cell's midpoints hands every
    # parent side the next-coarser conductance, (3/5) c on the gasket and
    # c / 2 on the ring: each level's midpoint block is that level's
    # conductance times the unit block (the gasket's midpoints have four
    # sides each and form a triangle, the ring's has two), and -M^-1 B is
    # the extension rule of extend_corners, 1/5-2/5 or the midpoint mean
    unit = {3: 5.0 * np.eye(3) - 1.0, 2: np.array([[2.0]])}
    for g in ([build_sg_graph(n) for n in range(8)]
              + [build_ring_graph(n) for n in range(1, 11)]):
        k = g.cell_corners.shape[1]
        rule = g.fractal.cell_nodes(
            extend_corners(g.fractal, np.eye(k)))[:, k:].T
        factor = _pinned_factor(g, np.full(g.n_edges, g.conductance))
        assert len(factor.levels) == g.level
        for m, (_, step) in zip(range(g.level, 0, -1), factor.levels):
            # step is [-M^-1 B | M^-1]
            c = g.fractal.build(m).conductance
            np.testing.assert_allclose(step[:, :, k:] * c, np.broadcast_to(
                np.linalg.inv(unit[k]), step[:, :, k:].shape), rtol=1e-13, atol=0)
            np.testing.assert_allclose(step[:, :, :k], np.broadcast_to(
                rule, step[:, :, :k].shape), rtol=1e-13, atol=0)
        # the level-0 triangle has conductance 1; the ring has no free corner
        want = np.linalg.inv([[2.0, -1.0], [-1.0, 2.0]]) if k == 3 else np.zeros((0, 0))
        np.testing.assert_allclose(factor.last, want, rtol=1e-13, atol=0)


_FACTOR_GRAPHS = st.one_of(st.tuples(st.just("sg"), st.integers(0, 7)),
                           st.tuples(st.just("ring"), st.integers(1, 10)))


@settings(max_examples=40, deadline=None)
@given(graph=_FACTOR_GRAPHS, quarter=st.booleans(),
       eps=st.sampled_from((0.0, 1e-17, 1e-12, 1e-6, 0.02, 0.1, 0.5)),
       seed=st.integers(0, 2 ** 32 - 1),
       shift=st.sampled_from((None, -1.0, -1e-3, -1e-6, 1e-6, 1e-3, 1.0)))
@example(graph=("ring", 1), quarter=False, eps=0.5, seed=3, shift=None)   # parallel edges
@example(graph=("ring", 1), quarter=True, eps=1e-12, seed=0, shift=None)
@example(graph=("sg", 0), quarter=True, eps=0.0, seed=1, shift=None)
@example(graph=("sg", 7), quarter=False, eps=0.02, seed=0, shift=None)
@example(graph=("ring", 10), quarter=False, eps=0.02, seed=0, shift=None)
@example(graph=("sg", 4), quarter=False, eps=0.5, seed=2, shift=None)     # indefinite
@example(graph=("sg", 4), quarter=False, eps=0.5, seed=2, shift=-1e-6)
@example(graph=("ring", 10), quarter=False, eps=0.02, seed=0, shift=1e-6)
def test_cell_factor_certifies_as_eigvalsh_and_solves_as_superlu(graph, quarter, eps, seed,
                                                                 shift):
    # the factor of H - sigma I exists exactly when sigma is below the
    # least eigenvalue of the pinned Hessian H, outside a band of rounding
    # about it, and then solves as SuperLU does, to within the
    # conditioning; sigma is 0 (shift None) or lambda_min plus shift times
    # the spectral radius.  With quarter, every edge difference is a
    # multiple of a quarter turn plus at most eps, so weights c cos 2 pi d
    # nearly vanish or are -c
    g = build_graph(*graph)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-eps, eps, g.n_vertices)
    if quarter:
        u += rng.integers(0, 4, g.n_vertices) / 4
    H = hessian_matrix(g, u)[1:, 1:]
    eigs = np.linalg.eigvalsh(H.toarray())
    band = 1e-9 * np.abs(eigs).max()
    sigma = 0.0 if shift is None else eigs[0] + shift * np.abs(eigs).max()
    factor = _pinned_factor(g, hessian_weights(g, u), sigma)
    eigs = eigs - sigma
    if abs(eigs[0]) > band:
        assert (factor is not None) == (eigs[0] > 0), eigs[0]
    if factor is not None and eigs[0] > band:
        lu = positive_definite_factor(
            (H - sigma * sparse.identity(len(eigs))).tocsc())
        assert lu is not None
        b = rng.standard_normal(len(eigs))
        want = lu.solve(b)
        scale = 1e-14 * eigs[-1] / eigs[0] * np.abs(want).max()
        np.testing.assert_allclose(factor.solve(b), want, rtol=0, atol=scale)


def test_ring_twist_min_eig_matches_its_closed_form():
    # pinned at vertex 0, the ring is a path held at both ends, with the
    # one weight w = c cos(2 pi q / N) and the path's eigenvalues
    # 4 sin^2(pi j / 2N), j = 1..N-1: lambda_min = w 4 sin^2(pi / 2N) for
    # w > 0, certified, and w (2 + 2 cos(pi / N)) for w < 0, by bisection
    for n in range(2, 15):
        g = build_ring_graph(n)
        N = g.n_vertices
        for q in sorted({0, 1, N // 8, N // 4 - 1}):
            if 4 * q >= N:
                continue
            eig, verdict = hessian_stability(g, twisted_state(g, q))
            want = (g.conductance * math.cos(km.TWO_PI * q / N)
                    * 4.0 * math.sin(math.pi / (2 * N)) ** 2)
            assert verdict == "stable"
            assert eig == pytest.approx(want, rel=1e-14, abs=0), (n, q)
        for q in sorted({N // 4 + 1, 3 * N // 8, N // 2}):
            if 4 * q <= N:
                continue
            eig, verdict = hessian_stability(g, twisted_state(g, q))
            want = (g.conductance * math.cos(km.TWO_PI * q / N)
                    * (2.0 + 2.0 * math.cos(math.pi / N)))
            assert verdict == "saddle"
            assert eig == pytest.approx(want, rel=1e-12, abs=0), (n, q)


def test_cell_factor_stores_at_most_six_floats_per_free_vertex():
    # M^-1 and M^-1 B per parent cell: 18 floats for the gasket's three
    # midpoints, 3 for the ring's one, and the last 2 x 2 block
    rng = np.random.default_rng(0)
    for g, bound in ([(build_sg_graph(n), 6.0) for n in range(10)]
                     + [(build_ring_graph(n), 3.0) for n in range(1, 13)]):
        u = rng.uniform(-0.05, 0.05, g.n_vertices)
        factor = _pinned_factor(g, hessian_weights(g, u))
        floats = factor.last.size + sum(step.size for _, step in factor.levels)
        assert floats / (g.n_vertices - 1) <= bound, (g.fractal.name, g.level)


class _CountedSolves:
    def __init__(self, factor):
        self.factor, self.calls = factor, 0

    def solve(self, b):
        self.calls += 1
        return self.factor.solve(b)


def _basis_cases():
    for spec in ("1", "1,1,1,1"):
        for n in range(3, 9):
            g = build_sg_graph(n)
            phases, _ = circle_harmonic_map(g, DegreeVector.parse(spec, (1, 2, 3)))
            yield g, solve_equilibrium(g, phases).field
    for n in range(4, 11):
        g = build_ring_graph(n)
        for q in sorted({0, 1, 2 ** n // 8, 2 ** n // 4 - 1}):
            yield g, twisted_state(g, q)


def test_gap_sized_lanczos_basis_takes_ten_solves():
    # lambda_2 / lambda_1 is about 8 on the gasket and 4 on the ring, so
    # the Lanczos resolves lambda_min in at most 9 solves, far inside
    # LANCZOS_BASIS vectors, and matches ARPACK's shift-invert eigsh with
    # a 20-vector basis, the independent check, to 1e-12
    for g, u in _basis_cases():
        factor = _pinned_factor(g, hessian_weights(g, u))
        counted = _CountedSolves(factor)
        eig, verdict = km._classify(g, u, counted)
        assert verdict == "stable" and counted.calls <= 10, (g, counted.calls)
        n = g.n_vertices - 1
        op = spla.LinearOperator((n, n), matvec=factor.solve, dtype=float)
        wide = spla.eigsh(op, k=1, sigma=0.0, which="LM", OPinv=op,
                          v0=np.ones(n), ncv=20, return_eigenvectors=False)[0]
        assert eig == pytest.approx(wide, rel=1e-12, abs=0)


def test_lanczos_basis_fits_the_smallest_graphs():
    # the basis stops at n vectors, where it spans the space: gasket level 0
    # has 2 free vertices and ring level 2 has 3, and both still classify
    # on the certified factor
    for g in (build_sg_graph(0), build_ring_graph(2)):
        u = np.zeros(g.n_vertices)
        counted = _CountedSolves(
            _pinned_factor(g, hessian_weights(g, u)))
        eig, verdict = km._classify(g, u, counted)
        assert counted.calls > 0 and verdict == "stable"
        L = laplacian_matrix(g).toarray()[1:, 1:]
        assert eig == pytest.approx(np.linalg.eigvalsh(L)[0], rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
@example(0.7, 0.0)
@example(-0.3, 0.0)
def test_circle_distance_is_the_exact_distance_of_the_difference(a, b):
    # the distance of the rounded difference d = a - b to the nearest
    # integer, in exact arithmetic, is a float, and circle_distance gives it
    from fractions import Fraction
    d = Fraction(a - b)
    assert Fraction(float(circle_distance(a, b))) == abs(d - round(d))
