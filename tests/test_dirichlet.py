import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (extend_harmonic_once, laplacian_matrix, mmd_solve_free,
                      positive_definite_factor, reference_birth,
                      reference_holder_ratio, reference_solve_dirichlet,
                      reference_square, sg_midpoints, weighted_laplacian)
from fractalsync import (DegreeVector, UncertifiedFactorError, build_graph,
                         build_ring_graph, build_sg_graph, covering_domain,
                         dirichlet_energy, holder_ratio, laplacian,
                         minimize_constrained, normal_derivative, restrict,
                         solve_dirichlet)
from fractalsync import dirichlet
from fractalsync.dirichlet import _pinned_factor

BETA = math.log(5 / 3) / (2 * math.log(2))


# -- energy ---------------------------------------------------------------

def test_energy_level0_by_hand():
    g = build_sg_graph(0)
    rep = dirichlet_energy(g, [0.0, 0.0, 1.0])
    assert rep.energy == pytest.approx(1.0, abs=1e-15)


def test_energy_constant_zero():
    g = build_sg_graph(3)
    assert dirichlet_energy(g, np.full(g.n_vertices, 3.7)).energy == 0.0


def test_energy_per_cell_sums_to_total():
    g = build_sg_graph(7)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.n_vertices)
    rep = dirichlet_energy(g, f)
    assert rep.energy >= 0.0
    assert rep.energy == pytest.approx(math.fsum(rep.per_cell), rel=1e-12)
    # per_cell is an array in cell order, bit-equal to the scalar sum over
    # each cell's edges; row c of the JSON column is the cell whose word
    # spells c
    expected = [g.conductance * ((f[b] - f[a]) ** 2 + (f[c] - f[b]) ** 2
                                 + (f[a] - f[c]) ** 2) / 2.0
                for a, b, c in g.cell_corners]
    assert rep.per_cell.tolist() == expected
    k = g.pack_word((3, 1, 2, 2, 1, 1, 3))
    assert rep.to_json_dict()["per_cell"][k] == expected[k]


# squared differences stay finite below 1e150; the subnormal band and
# signed zeros are where a squaring shortcut would slip
_special_values = st.one_of(
    st.floats(-1e150, 1e150), st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.booleans(),
       special=st.lists(_special_values, max_size=30))
def test_energy_squares_keep_python_pow_bits(seed, ring, special):
    # random mantissas from 1e-320 to 1e140: d * d and pow differ in the
    # last bit on about one square in a thousand, so every draw tells
    g = build_ring_graph(11) if ring else build_sg_graph(5)
    rng = np.random.default_rng(seed)
    f = (rng.standard_normal(g.n_vertices)
         * 10.0 ** rng.integers(-320, 140, g.n_vertices))
    f[rng.choice(g.n_vertices, len(special), replace=False)] = special
    d = f[g.edges[:, 1]] - f[g.edges[:, 0]]
    sides = reference_square(d).reshape(len(g.cell_corners), -1)
    expected = g.conductance * sides.sum(axis=1) / 2.0
    rep = dirichlet_energy(g, f)
    assert rep.per_cell.tobytes() == expected.tobytes()
    assert rep.energy == math.fsum(expected.tolist())


def test_ring_twisted_lift_energy():
    # lift u(v_i) = q i 2**-n on the cut ring has energy q**2/2; on the
    # closed ring the same as an open path computed per cell
    from fractalsync import DegreeVector, covering_domain, minimize_constrained
    g = build_ring_graph(5)
    for q in (1, 2, -3):
        dom = covering_domain(g, DegreeVector({(): q}))
        lift = minimize_constrained(dom)
        assert lift.energy() == pytest.approx(q * q / 2.0, rel=1e-12)


def test_energy_mismatch_error():
    g = build_sg_graph(2)
    with pytest.raises(ValueError):
        dirichlet_energy(g, np.zeros(7))


# -- laplacian ------------------------------------------------------------

def test_laplacian_constant_is_zero():
    g = build_sg_graph(2)
    np.testing.assert_array_equal(laplacian(g, np.ones(g.n_vertices)), 0.0)


def test_laplacian_zero_at_interior_of_harmonic():
    g = build_sg_graph(1)
    f = solve_dirichlet(g, [0, 0, 1])
    lap = laplacian(g, f)
    interior = [v for v in range(g.n_vertices) if v not in g.boundary_ids]
    assert np.abs(lap[interior]).max() < 1e-14


def test_laplacian_linear_on_ring_interior():
    # second difference of a linear ramp vanishes away from the wrap edge
    g = build_ring_graph(4)
    f = 0.25 * g.coords[:, 0]
    lap = laplacian(g, f)
    assert np.abs(lap[2:-2]).max() < 1e-12


# -- 1/5-2/5 rule ----------------------------------------------------------

def test_extension_golden_columns():
    assert sg_midpoints(1.0, 0.0, 0.0) == (0.4, 0.2, 0.4)
    assert sg_midpoints(0.0, 0.0, 1.0) == (0.2, 0.4, 0.4)
    assert sg_midpoints(1.0, 1.0, 1.0) == (1.0, 1.0, 1.0)


def test_extension_preserves_energy_exactly():
    g = build_sg_graph(0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = rng.standard_normal(3)
        e0 = dirichlet_energy(g, f).energy
        gg, ff = g, f
        for _ in range(5):
            gg, ff = extend_harmonic_once(gg, ff)
            assert dirichlet_energy(gg, ff).energy == pytest.approx(e0, rel=1e-12)


def test_extension_contracts_quartic_edge_sum_by_99_625():
    # the only S3-invariant quartic in a cell's edge differences is the
    # square of its energy form, so the three child cells carry exactly
    # 99/625 of the parent's quartic sum; criterion 8a's gap rate
    # (5/3) * (99/625) rests on this constant
    def quartic(a, b, c):
        return (a - b) ** 4 + (b - c) ** 4 + (c - a) ** 4

    rng = np.random.default_rng(99)
    for _ in range(10):
        a, b, c = rng.standard_normal(3)
        x, y, z = sg_midpoints(a, b, c)
        children = quartic(a, x, z) + quartic(x, b, y) + quartic(z, y, c)
        assert children / quartic(a, b, c) == pytest.approx(99 / 625, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(0, 7),
       phi=st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False)] * 3))
def test_extension_solve_matches_vertex_form_oracle(m, phi):
    g = build_sg_graph(m)
    got = solve_dirichlet(g, phi)
    assert got.tobytes() == reference_solve_dirichlet(g, phi).tobytes()


def test_ring_extension_is_midpoint_rule():
    g = build_ring_graph(3)
    f = np.random.default_rng(5).standard_normal(g.n_vertices)
    g_next, f_next = extend_harmonic_once(g, f)
    assert g_next.level == 4
    np.testing.assert_array_equal(f_next[::2], f)
    np.testing.assert_array_equal(f_next[1::2], 0.5 * (f + np.roll(f, -1)))
    assert dirichlet_energy(g_next, f_next).energy == pytest.approx(
        dirichlet_energy(g, f).energy, rel=1e-12)


# -- dirichlet solve --------------------------------------------------------

def test_solve_level1_known_values():
    g = build_sg_graph(1)
    f = solve_dirichlet(g, [0, 0, 1])
    # interior (x, z, y) per vertex order; x=1/5, z=2/5, y=2/5
    np.testing.assert_allclose(f, [0, 0.2, 0.4, 0, 0.4, 1], atol=1e-15)


def test_solve_constant_boundary():
    g = build_sg_graph(3)
    f = solve_dirichlet(g, [0.3, 0.3, 0.3])
    np.testing.assert_allclose(f, 0.3, atol=1e-14)


def test_solve_methods_agree():
    rng = np.random.default_rng(11)
    for kind, n in [("sg", n) for n in (0, 1, 3, 5, 10)] + [
            ("ring", n) for n in (1, 2, 5, 12)]:
        g = build_graph(kind, n)
        phi = rng.standard_normal(len(g.boundary_ids))
        fe = solve_dirichlet(g, phi, method="extension")
        fl = solve_dirichlet(g, phi, method="linear-solve")
        assert np.abs(fe - fl).max() < 1e-13, (kind, n)


def test_solve_energy_equals_level0():
    for n in (2, 5, 8):
        g = build_sg_graph(n)
        f = solve_dirichlet(g, [0, 0, 1])
        assert dirichlet_energy(g, f).energy == pytest.approx(1.0, rel=1e-12)


def test_solve_interior_residual():
    g = build_sg_graph(5)
    f = solve_dirichlet(g, [0.2, -1.0, 0.5])
    lap = laplacian(g, f)
    interior = np.setdiff1d(np.arange(g.n_vertices), g.boundary_ids)
    assert np.abs(lap[interior]).max() < 1e-10


def test_solve_ring_pin_only():
    g = build_ring_graph(4)
    f = solve_dirichlet(g, {0: 0.8})
    np.testing.assert_allclose(f, 0.8)


def test_bad_boundary_rejected():
    g = build_sg_graph(2)
    with pytest.raises(ValueError):
        solve_dirichlet(g, [0, 1])
    with pytest.raises(ValueError):
        solve_dirichlet(g, {0: 1.0, 1: 2.0, 2: 3.0})  # 1, 2 are interior


@pytest.mark.parametrize("method", ["extension", "linear-solve"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_boundary_rejected(method, value):
    g = build_sg_graph(3)
    v = g.boundary_ids[2]
    with pytest.raises(ValueError, match=f"boundary value {value!r} at "
                                         f"vertex {v} is not finite"):
        solve_dirichlet(g, [0, 0, value], method=method)
    ring = build_ring_graph(3)
    with pytest.raises(ValueError, match="at vertex 0 is not finite"):
        solve_dirichlet(ring, {0: value}, method=method)


# -- the linear solve on the cell factor ---------------------------------------

def test_uncertified_factor_raises_naming_the_graph(monkeypatch):
    # never a fallback to another route, nor an AttributeError on None
    monkeypatch.setattr(dirichlet, "_pinned_factor", lambda *args: None)
    g = build_sg_graph(3)
    with pytest.raises(UncertifiedFactorError,
                       match=r"FractalGraph\('sg', level=3, "):
        solve_dirichlet(g, [0, 0, 1], method="linear-solve")
    ring = build_ring_graph(4)
    dom = covering_domain(ring, DegreeVector.parse("1", ring.fractal.alphabet))
    with pytest.raises(UncertifiedFactorError) as err:
        minimize_constrained(dom)
    assert err.value.graph is ring and repr(ring) in str(err.value)


@pytest.mark.parametrize("kind, n", [("sg", n) for n in range(9)]
                         + [("ring", n) for n in (1, 2, 3, 6, 11)])
def test_elimination_order_is_the_interior_finest_born_first(kind, n):
    # the cell factor's levels, finest first, each eliminate exactly the
    # midpoints born at their level, once each, below corners born before
    # them, and the last level's corners are V0: so the linear solve's
    # back-substitution, coarsest first, writes every interior vertex
    # once, from values already written
    g = build_graph(kind, n)
    factor = dirichlet._laplacian_factor(g)
    k = factor.k
    # births from the keys, the factor's own source being the cell table
    born = reference_birth(g.keys, g.fractal.num_maps, g.level)
    assert len(factor.levels) == n
    for m, (nodes, _) in zip(range(n, 0, -1), factor.levels):
        assert np.array_equal(np.sort(nodes[:, k:], axis=None),
                              np.flatnonzero(born == m))
        assert born[nodes[:, :k]].max() < m
    if n:
        corners = factor.levels[-1][0][:, :k]
        assert sorted(set(corners.ravel().tolist())) == sorted(g.boundary_ids)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8),
       phi=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
@example(n=8, phi=[0.0, 0.0, 1.0])
def test_linear_solve_matches_minimum_degree_oracle(n, phi):
    g = build_sg_graph(n)
    free = np.ones(g.n_vertices, dtype=bool)
    free[list(g.boundary_ids)] = False
    oracle = np.zeros(g.n_vertices)
    oracle[list(g.boundary_ids)] = phi
    mmd_solve_free(laplacian_matrix(g), free, oracle)
    f = solve_dirichlet(g, phi, method="linear-solve")
    assert np.abs(f - oracle).max() <= 1e-12


# -- the pinned cell factor ---------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(graph=st.one_of(st.tuples(st.just("sg"), st.integers(0, 6)),
                       st.tuples(st.just("ring"), st.integers(1, 10))),
       spread=st.sampled_from((1.0, 10.0, 1e3, 1e6)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(graph=("ring", 1), spread=1e3, seed=0)   # parallel edges
@example(graph=("sg", 0), spread=10.0, seed=1)
@example(graph=("sg", 6), spread=1e6, seed=2)
def test_pinned_factor_at_positive_weights_solves_as_superlu(graph, spread, seed):
    # positive weights, log-uniform within a factor spread of the
    # conductance, keep the pinned Laplacian of a connected graph positive
    # definite: the factor certifies it and solves as SuperLU does, to
    # within the conditioning
    g = build_graph(*graph)
    rng = np.random.default_rng(seed)
    w = g.conductance * spread ** rng.uniform(-1.0, 1.0, g.n_edges)
    L = weighted_laplacian(g.edges, w, g.n_vertices)[1:, 1:]
    factor = _pinned_factor(g, w)
    assert factor is not None
    lu = positive_definite_factor(L.tocsc())
    assert lu is not None
    eigs = np.linalg.eigvalsh(L.toarray())
    b = rng.standard_normal(len(eigs))
    want = lu.solve(b)
    scale = 1e-14 * eigs[-1] / eigs[0] * np.abs(want).max()
    np.testing.assert_allclose(factor.solve(b), want, rtol=0, atol=scale)


# Sylvester's criterion and LAPACK's Cholesky may disagree on a block whose
# least eigenvalue is within BLOCK_BAND of 0, relative to its largest; a
# certified inverse is within BLOCK_RTOL times its condition number of
# np.linalg.inv, relative to the largest entry (measured: 1.7 eps)
BLOCK_BAND = 1e-13
BLOCK_RTOL = 8 * np.finfo(float).eps


def _lapack_inverse(m):
    """The LAPACK route the closed form replaced: Cholesky certifies the
    stack of blocks, ``np.linalg.inv`` inverts it."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.inv(m)


def _assert_block_inverse_as_lapack(m):
    # one verdict for the stack, as the factor takes it
    eig = np.linalg.eigvalsh(m)
    scale = np.abs(eig).max(axis=-1)
    least = (eig[..., 0] / scale).min()
    got, want = dirichlet._sylvester_inverse(m), _lapack_inverse(m)
    if abs(least) > BLOCK_BAND:
        assert (got is None) == (want is None) == (least < 0)
    if got is not None and want is not None:
        cond = scale / eig[..., 0]
        err = (np.abs(got - want).max(axis=(-2, -1))
               / np.abs(want).max(axis=(-2, -1)))
        assert np.all(err <= BLOCK_RTOL * cond)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("kind", ["definite", "near-singular", "indefinite"])
def test_block_inverse_matches_lapack_on_random_blocks(size, kind):
    # each block Q diag(lam) Q^T at a random scale; near-singular blocks
    # have a least eigenvalue of either sign from 1e-15 to 1e-8 of the
    # largest, inside the band and outside it
    rng = np.random.default_rng([size, len(kind)])
    for _ in range(300):
        q = np.linalg.qr(rng.standard_normal((size, size)))[0]
        lam = rng.uniform(0.5, 2.0, size) * 10.0 ** rng.uniform(-5, 5)
        if kind == "near-singular":
            lam[0] = (lam.max() * 10.0 ** rng.uniform(-15, -8)
                      * rng.choice([-1.0, 1.0]))
        elif kind == "indefinite":
            lam[0] = -lam[0]
        _assert_block_inverse_as_lapack(((q * lam) @ q.T)[None])


@pytest.mark.parametrize("kind, n", [("sg", n) for n in range(1, 9)]
                         + [("ring", n) for n in range(1, 13)])
def test_block_inverse_matches_lapack_on_the_factors_blocks(kind, n,
                                                             monkeypatch):
    # every stack the factor inverts, of the Laplacian, of a Hessian at a
    # random field (indefinite blocks) and of the Laplacian shifted past
    # its least eigenvalue
    g = build_graph(kind, n)
    seen = []
    inverse = dirichlet._sylvester_inverse

    def recorded(m):
        seen.append(m.copy())
        return inverse(m)

    monkeypatch.setattr(dirichlet, "_sylvester_inverse", recorded)
    rng = np.random.default_rng(n)
    unit = np.full(g.n_edges, g.conductance)
    for w, shift in ((unit, 0.0), (unit, g.conductance),
                     (unit * np.cos(rng.uniform(0.0, 2.0, g.n_edges)), 0.0)):
        _pinned_factor(g, w, shift)
    monkeypatch.undo()
    assert seen
    for m in seen:
        if m.size:
            _assert_block_inverse_as_lapack(m)


def test_block_inverse_sizes():
    # the empty block (the ring's last) is its own inverse; blocks larger
    # than 3 x 3 have no closed form here, and no LAPACK fallback
    assert dirichlet._sylvester_inverse(np.zeros((0, 0))).shape == (0, 0)
    with pytest.raises(ValueError, match="no closed-form inverse of 4 x 4"):
        dirichlet._sylvester_inverse(np.eye(4)[None])
    nan = np.eye(3)
    nan[1, 1] = np.nan
    assert dirichlet._sylvester_inverse(nan[None]) is None


def test_pinned_factor_calls_no_linalg_routine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in dir(np.linalg):
        if not name.startswith("_") and callable(getattr(np.linalg, name)) \
                and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    for g in ([build_sg_graph(n) for n in range(5)]
              + [build_ring_graph(n) for n in range(1, 7)]):
        unit = np.full(g.n_edges, g.conductance)
        assert _pinned_factor(g, unit) is not None
        assert _pinned_factor(g, unit, -g.conductance) is not None
        assert _pinned_factor(g, -unit) is None


def _factor_bytes(factor):
    """Every array of a factor as bytes, or None for no factor."""
    if factor is None:
        return None
    return ([(nodes.tobytes(), step.tobytes()) for nodes, step in factor.levels],
            factor.free.tobytes(), factor.last.tobytes())


@pytest.mark.parametrize("kind, n", [("sg", n) for n in range(1, 9)]
                         + [("ring", n) for n in range(3, 13)])
def test_row_blocks_change_no_bit_of_the_factor(kind, n, monkeypatch):
    # row blocks of 1, 2 and 7 parent cells against one block per level:
    # the Laplacian and a Hessian, unshifted and shifted (the mass path),
    # and a Hessian whose one uncertified parent cell is the finest
    # level's last, past the first row block whenever the level has more
    # parents than a block
    g = build_graph(kind, n)
    parents = len(g.cell_corners) // g.fractal.num_maps
    c = g.conductance
    d = np.random.default_rng(n).uniform(-0.2, 0.2, g.n_edges)
    hessian = c * np.cos(2.0 * np.pi * d)
    d[-g.n_edges // parents:] = 0.45   # that cell's weights below 0
    spoiled = c * np.cos(2.0 * np.pi * d)
    unit = np.full(g.n_edges, c)
    cases = [(unit, 0.0), (unit, -c), (hessian, 0.0), (hessian, -0.5 * c),
             (spoiled, 0.0), (spoiled, -c)]
    monkeypatch.setattr(dirichlet, "FACTOR_BLOCK_CELLS", parents + 1)
    want = [_factor_bytes(_pinned_factor(g, w, shift)) for w, shift in cases]
    assert None not in want[:4] and want[4:] == [None, None]
    for block in (1, 2, 7):
        monkeypatch.setattr(dirichlet, "FACTOR_BLOCK_CELLS", block)
        assert [_factor_bytes(_pinned_factor(g, w, shift))
                for w, shift in cases] == want, block


def test_pinned_factor_memory_is_what_it_keeps_plus_a_few_blocks(monkeypatch):
    # 81 blocks at gasket 9's finest level.  Beside what the factor keeps
    # and a block's transients, a level holds the next level's weights and
    # masses, a sixth of its step each; whole levels at once peaked at 3.0
    # (unshifted) and 3.4 (shifted) times the kept bytes here
    monkeypatch.setattr(dirichlet, "FACTOR_BLOCK_CELLS", 81)
    block = 81 * 6 * 6 * 8   # one block's 6 x 6 parent-cell matrices
    g = build_sg_graph(9)
    unit = np.full(g.n_edges, g.conductance)
    for shift in (0.0, -g.conductance):
        tracemalloc.start()
        try:
            factor = _pinned_factor(g, unit, shift)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = (sum(nodes.nbytes + step.nbytes for nodes, step in factor.levels)
                + factor.free.nbytes + factor.last.nbytes)
        assert peak <= kept + kept // 4 + 4 * block, (shift, peak, kept)


def test_minimality_against_random_perturbations():
    g = build_sg_graph(4)
    f = solve_dirichlet(g, [0, 0, 1])
    e = dirichlet_energy(g, f).energy
    interior = np.setdiff1d(np.arange(g.n_vertices), g.boundary_ids)
    rng = np.random.default_rng(5)
    for _ in range(200):
        pert = f.copy()
        pert[interior] += rng.standard_normal(interior.size) * 0.1
        assert dirichlet_energy(g, pert).energy >= e - 1e-12


def test_maximum_principle():
    rng = np.random.default_rng(13)
    g = build_sg_graph(5)
    for _ in range(5):
        phi = rng.standard_normal(3)
        f = solve_dirichlet(g, phi)
        assert f.max() <= phi.max() + 1e-12
        assert f.min() >= phi.min() - 1e-12


# -- normal derivative -------------------------------------------------------

def test_normal_derivative_by_hand():
    g0 = build_sg_graph(0)
    f0 = np.array([0.0, 0.0, 1.0])
    assert normal_derivative(g0, f0, 0) == pytest.approx(1.0, abs=1e-15)
    g1 = build_sg_graph(1)
    f1 = solve_dirichlet(g1, [0, 0, 1])
    # (5/3) * (1/5 + 2/5) = 1: constant across levels for harmonic fields
    assert normal_derivative(g1, f1, 0) == pytest.approx(1.0, abs=1e-14)


def test_normal_derivative_constant_field():
    g = build_sg_graph(2)
    for v in g.boundary_ids:
        assert normal_derivative(g, np.full(g.n_vertices, 2.2), v) == 0.0


def test_normal_derivative_interior_rejected():
    g = build_sg_graph(1)
    with pytest.raises(ValueError):
        normal_derivative(g, np.zeros(6), 1)


def test_non_integral_ids_refused_not_truncated():
    # V0 of the level-3 gasket is 0, 22, 41: truncation would read 22.5
    # and 22.7 as vertex 22
    g = build_sg_graph(3)
    with pytest.raises(ValueError, match=r"^boundary key is 22\.5, not an integer$"):
        dirichlet.as_boundary_data(g, {0: 0, 22.5: 1, 41: 2})
    with pytest.raises(ValueError, match=r"^vertex is 22\.7, not an integer$"):
        normal_derivative(g, np.zeros(g.n_vertices), 22.7)
    # a whole number of another type is that id
    assert dirichlet.as_boundary_data(g, {0.0: 0, np.int64(22): 1, 41: 2}) == {
        0: 0.0, 22: 1.0, 41: 2.0}
    f = solve_dirichlet(g, [0, 1, 2])
    assert normal_derivative(g, f, 22.0) == normal_derivative(g, f, 22)


def test_normal_derivative_constancy_across_levels():
    rng = np.random.default_rng(2)
    phi = rng.standard_normal(3)
    base = None
    for m in range(0, 6):
        g = build_sg_graph(m)
        f = solve_dirichlet(g, phi)
        vals = [normal_derivative(g, f, v) for v in g.boundary_ids]
        if base is None:
            base = vals
        else:
            np.testing.assert_allclose(vals, base, atol=1e-10)


# -- monotonicity and Holder -------------------------------------------------

def test_energy_monotone_for_restrictions():
    g8 = build_sg_graph(8)
    x, y = g8.coords[:, 0], g8.coords[:, 1]
    f = x * x + 0.3 * x * y - 0.5 * y  # fixed smooth test field
    prev = -np.inf
    for m in range(0, 9):
        e = dirichlet_energy(build_sg_graph(m), restrict(g8, m, f)).energy
        assert e >= prev - 1e-12
        prev = e


def test_holder_ratio_default_beta_is_the_fractals():
    # beta = log(1/r) / (2 log 2): 1/2 on the ring, where r = 1/2
    ring = build_ring_graph(6)
    f = solve_dirichlet(ring, [0.0]) + np.sin(2 * np.pi * ring.coords[:, 0])
    assert holder_ratio(ring, f) == holder_ratio(ring, f, 0.5)
    assert holder_ratio(ring, f) != holder_ratio(ring, f, BETA)
    g = build_sg_graph(4)
    f = solve_dirichlet(g, [0, 0, 1])
    assert holder_ratio(g, f) == holder_ratio(g, f, BETA)


@pytest.mark.parametrize("graph", [("sg", n) for n in range(7)]
                         + [("ring", n) for n in range(1, 13)])
def test_holder_ratio_upper_triangle_matches_full_square(graph, monkeypatch):
    # the blocks meet only the columns from their first row on; the pairs
    # left out are mirror images, bitwise equal, so the maximum is the
    # same float as over the full square
    g = build_graph(*graph)
    rng = np.random.default_rng(g.n_vertices)
    fields = [rng.standard_normal(g.n_vertices),
              solve_dirichlet(g, rng.standard_normal(len(g.boundary_ids)))]
    want = [(reference_holder_ratio(g, f), reference_holder_ratio(g, f, BETA))
            for f in fields]
    # the default budget, then blocks of 7 rows: many blocks at every level
    for entries in (dirichlet.HOLDER_BLOCK_ENTRIES, 7 * g.n_vertices):
        monkeypatch.setattr(dirichlet, "HOLDER_BLOCK_ENTRIES", entries)
        for f, (plain, beta) in zip(fields, want):
            assert holder_ratio(g, f) == plain
            assert holder_ratio(g, f, BETA) == beta


def test_holder_ratio_memory_is_bounded_by_its_block_budget():
    # each block's temporaries hold about HOLDER_BLOCK_ENTRIES floats (8
    # MiB), seven of them at once; 512-row blocks peaked at 261 MiB here
    g = build_sg_graph(8)
    f = solve_dirichlet(g, [0.0, 0.0, 1.0])
    tracemalloc.start()
    try:
        holder_ratio(g, f, BETA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * dirichlet.HOLDER_BLOCK_ENTRIES


def test_holder_ratio_bounded_across_levels():
    ratios = {}
    for n in (2, 3, 4, 5, 6):
        g = build_sg_graph(n)
        f = solve_dirichlet(g, [0, 0, 1])
        ratios[n] = holder_ratio(g, f, BETA)
    assert ratios[6] <= 1.05 * ratios[4]
    # nested vertex sets make the ratio non-decreasing; boundedness is the claim
    assert max(ratios.values()) <= 1.05 * ratios[2] + 1e-12
