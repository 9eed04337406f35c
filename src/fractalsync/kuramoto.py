"""Kuramoto dynamics, energy, equilibria, and stability on fractal graphs.

The model is the gradient flow of the cosine coupling energy: each vertex
moves by the conductance-weighted sum of sines of neighbour phase
differences.  Integration works on real representatives (lifts), so no
branch cuts appear in the dynamics; phases are wrapped to [0, 1) only on
output and for winding computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dirichlet import _pinned_factor
from .errors import (EigensolverError, NotAnEquilibriumError,
                     UnresolvedWindingError, as_integer)
from .graphs import FractalGraph
from .winding import DegreeVector, _wrapped_diff, degree, wrap_phases

TWO_PI = 2.0 * math.pi
LANCZOS_BASIS = 20   # most Lanczos vectors before giving up, see _lanczos_min_eig
STABILITY_BAND = 1e-9
CHECK_EVERY = 25     # RK4 steps per block of the flow's energy monitor
RK4_REACH = 2.5      # h times the flow's stiffest rate, inside a cell
SLIP_REACH = 0.5     # the same while an edge is at a quarter turn or more
MAX_HALVINGS = 45    # step halvings before the flow gives up
NEWTON_MAX_ITERS = 50
NEWTON_MIN_STEP = 1e-8
ARMIJO = 1e-4
EQUILIBRIUM_TOL = 1e-8  # residual below which a field is classified


def circle_distance(a, b) -> np.ndarray:
    # the nearest-integer representative, as _wrapped_diff reduces, is
    # exact; 1 - (d mod 1) would round
    d = np.asarray(a) - np.asarray(b)
    return np.abs(d - np.rint(d))


def _edge_sine_sum(u, i, j, c, n):
    # unchecked: the flow calls this four times per RK4 step
    s = np.sin(TWO_PI * _wrapped_diff(u, i, j)) * c
    return np.bincount(i, s, n) - np.bincount(j, s, n)


def km_rhs(g: FractalGraph, u) -> np.ndarray:
    """Right-hand side: c_n * sum_j sin(2 pi (u_j - u_i)) per vertex."""
    u = g.check_field(u)
    i, j = g.edges.T
    return _edge_sine_sum(u, i, j, g.conductance, g.n_vertices)


def km_energy(g: FractalGraph, u) -> float:
    """Cosine coupling energy, a sum over the cells' sides, with relative
    rounding error at most (log2 n_edges + 25) 2**-53, see
    :func:`_km_energy_fast`."""
    u = g.check_field(u)
    i, j = g.edges.T
    return _km_energy_fast(u, i, j, g.conductance)


def _edge_energies(u, i, j, c):
    # c (1 - cos 2 pi d) / (4 pi^2) as 2 sin^2: the cosine form cancels at
    # small d, and from level 11 on hides the decrease Newton needs
    return c * np.sin(math.pi * _wrapped_diff(u, i, j)) ** 2 / (2.0 * math.pi ** 2)


def _km_energy_fast(u, i, j, c):
    """The energy of unchecked ``u``: nonnegative terms, so relative error
    at most m 2**-53, m the most roundings a term passes through (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, 4.2).  Pairwise
    ``np.sum`` halves down to blocks of at most 128 terms (a rounding per
    halving), each summed in eight running sums (at most 15), joined in 3
    and followed by at most 7 leftovers: m <= log2 n_edges + 25, and under
    6e-15 at gasket level 13 (4,782,969 edges, m <= 48).  The same bound
    holds for :func:`cell_wall_energy`'s ``np.sum`` of |rhs(u)|, one
    nonnegative term a vertex (2,391,486 at gasket level 13, m <= 47)."""
    return float(np.sum(_edge_energies(u, i, j, c)))


def laplacian_bound(g: FractalGraph) -> float:
    """``k * (most cells at one vertex)``: at least the top eigenvalue of
    the unit Laplacian, the sum of the cells' K_k Laplacians (each of top
    eigenvalue k).  6 on the gasket and 4 on the ring, equal to it at
    every level but gasket level 1."""
    k = g.cell_corners.shape[1]
    return float(k * np.bincount(g.cell_corners.ravel()).max())


def default_step(g: FractalGraph, u) -> float:
    """The flow's RK4 step from ``u``: ``reach / (2 pi c laplacian_bound(g))``.

    The flow's Jacobian is -2 pi c L_w with weights w = cos 2 pi d <= 1, so
    x^T L_w x <= x^T L x and no eigenvalue is below -2 pi c
    ``laplacian_bound(g)``.  Reach ``RK4_REACH`` puts that one at -2.5,
    inside RK4's real stability interval [-2.785, 0], where |R(-2.5)| =
    0.65 still damps it.  That bounds stability, not accuracy, so it is
    the reach only inside a cell Omega_k (every wrapped difference of
    ``u`` under a quarter turn, see :func:`cell_wall_energy`): there every
    weight is positive, two flows there do not move apart, and the class
    cannot change.  Outside every cell some weight is not positive, the flow
    can slip an edge past a half turn, and RK4's error can decide whether
    it does; there the reach is ``SLIP_REACH``, where RK4's factor per step
    is within 2.4e-4 of e^z on every mode.
    """
    reach = RK4_REACH
    if not np.abs(_wrapped_diff(u, *g.edges.T)).max() < 0.25:
        reach = SLIP_REACH
    return reach / (TWO_PI * g.conductance * laplacian_bound(g))


def _bregman_floor(y) -> np.ndarray:
    """``q(y) = (sin t - t cos t) / t^2`` at ``t = 2 pi (1/4 - |y|)``.

    With f(x) = sin^2(pi x) / (2 pi^2), one edge's energy per unit
    conductance, f(x) - f(y) - f'(y) (x - y) >= q(y) (x - y)^2 for x, y
    in [-1/4, 1/4]: the left side is the integral of f'' = cos 2 pi s
    against (x - s) ds from y to x, f'' is even and falls with |s|, so the
    least ratio is at the far wall x = sign(y) / 4, where it is q(y).
    Below t = 0.1 the closed form cancels; there q is its Taylor series
    t/3 - t^3/30 + t^5/840 - t^7/45360, cut after a negative term of an
    alternating series with falling terms, so still a lower bound.
    """
    t = TWO_PI * (0.25 - np.abs(y))
    t2 = t * t
    series = t * (1.0 / 3.0 - t2 * (1.0 / 30.0 - t2 * (1.0 / 840.0 - t2 / 45360.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = (np.sin(t) - t * np.cos(t)) / t2
    return np.where(t < 0.1, series, closed)


def cell_wall_energy(g: FractalGraph, u) -> float:
    """``W``: the least energy on the walls of the cell of a critical ``u``.

    ``u`` is meant to be Newton's end.  If every wrapped edge difference
    d*_e of ``u`` is under a quarter turn, its cell is Omega_k =
    {|u_j - u_i - k_e| < 1/4} in the lift, with k_e = u_j - u_i - d*_e;
    otherwise the result is -inf.  A point of the closed cell has lift
    differences d = d* + delta, delta_e = v_j - v_i for v the difference
    of the two lifts, so with :func:`_bregman_floor` q_e = q(d*_e),

      E(u + v) - E(u) >= <grad E(u), v> + c sum_e q_e delta_e^2.

    On the wall |d_e| = 1/4 of edge e, |delta_e| >= a_e = 1/4 - |d*_e|.
    Each of the gasket's level-n cells and the whole ring is a cycle
    (edges run cell by cell from each corner to the next, so they are the
    rows of the edge list, traversed forwards), and delta sums to 0 along
    it; by Cauchy-Schwarz the other edges e' of e's row then add at least
    delta_e^2 / sum 1 / q_e'.  So the quadratic term is at least
    c a_e^2 C_e, with C_e = q_e + (sum_e' 1 / q_e')^-1.  The linear term
    is -<rhs(u), v> / (2 pi), and rhs sums to 0, so v may be taken with
    v_0 = 0; every vertex is at most 2**level edges from vertex 0 on the
    gasket and the ring, and each |delta_e| <= 1/2, so |v| <= 2**(level
    - 1) and the linear term is at least -||rhs(u)||_1 2**(level - 1) /
    (2 pi).  Hence every wall point has energy at least

      W = E(u) + c min_e a_e^2 C_e - ||rhs(u)||_1 2**(level - 1) / (2 pi),

    lowered by 1e-9 relative as a rounding margin, far above the rounding
    error of E(u) and of ||rhs(u)||_1: both are pairwise ``np.sum`` of
    nonnegative terms, under 6e-15 relative up to gasket level 13 (see
    :func:`_km_energy_fast`).
    """
    i, j = g.edges.T
    c = g.conductance
    d = _wrapped_diff(u, i, j)
    if not np.abs(d).max() < 0.25:
        return -math.inf
    q = _bregman_floor(d)   # > 0 in the open cell
    # a row is one cell where the record says the level's cells are loops
    # (Fractal.loops_at), and the whole edge list, the ring's cycle, if not
    loops = g.fractal.loops_at(g.level)
    inv = 1.0 / q.reshape(-1, len(g.fractal.sides) if loops else g.n_edges)
    # sum of 1/q over the rest of each edge's row, with no cancellation
    rest = np.zeros_like(inv)
    rest[:, 1:] += np.cumsum(inv[:, :-1], axis=1)
    rest[:, :-1] += np.cumsum(inv[:, :0:-1], axis=1)[:, ::-1]
    a = 0.25 - np.abs(d)
    rise = float(np.min(a * a * (q + 1.0 / rest.ravel())))
    slack = float(np.sum(np.abs(_edge_sine_sum(u, i, j, c, g.n_vertices))))
    bound = (_km_energy_fast(u, i, j, c) + c * rise
             - slack * 2.0 ** (g.level - 1) / TWO_PI)
    return (1.0 - 1e-9) * bound


@dataclass
class FlowConfig:
    """The flow's time budget and the residual tolerance, Newton's only
    setting.  The RK4 step is always :func:`default_step`."""

    max_time: float = 400.0
    tol: float = 1e-10


@dataclass
class EquilibriumReport:
    """Converged (or final) state of a flow or Newton run.

    ``method`` says what ran: ``"flow"`` (RK4 only), ``"flow+newton"``
    (RK4 until it settled, then the Newton finish) or ``"newton"``.
    ``steps``, ``time``, ``halvings`` and ``step_size`` describe the RK4
    part, and ``newton_steps`` counts Newton steps.  For ``"newton"`` no
    flow ran: ``steps`` and ``time`` are 0, and ``halvings`` and
    ``step_size`` are the line search's, or 0 for the wrapped start that
    Newton refused (``fallback`` says why).  ``degree`` is the full-order
    degree vector of ``field``, or None with ``degree_error`` saying why.
    ``hessian_min_eig`` and ``stability`` are set for every Newton end,
    from the factor that certified the reported field (also when
    ``cfg.tol`` is above ``EQUILIBRIUM_TOL``), and for any other end whose
    residual is below ``EQUILIBRIUM_TOL``.  ``trajectory`` holds the flow's
    ``(time, energy, residual)`` rows, one per accepted block (None when
    no flow ran); it is not part of :meth:`to_json_dict`.
    """

    field: np.ndarray
    residual: float
    energy: float
    hessian_min_eig: float | None
    stability: str | None
    degree: DegreeVector | None
    steps: int
    time: float
    step_size: float
    converged: bool
    halvings: int = 0
    method: str = "flow"            # "flow", "flow+newton" or "newton"
    fallback: str | None = None     # why Newton refused its start
    newton_steps: int = 0
    degree_error: str | None = None
    trajectory: list | None = None

    def to_json_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name not in ("field", "trajectory")}
        d["degree"] = None if self.degree is None else self.degree.to_json_dict()
        return d


def _finalize(g, u, residual, steps, t, h, converged, halvings,
              factor=None, **extra) -> EquilibriumReport:
    # factor: Newton's certified pinned factor at wrap_phases(u)
    phases = wrap_phases(u)
    energy = km_energy(g, phases)
    hess_eig = None
    verdict = None
    if factor is not None:
        hess_eig, verdict = _classify(g, phases, factor)
    elif residual < EQUILIBRIUM_TOL:
        hess_eig, verdict = hessian_stability(g, phases)
    deg = deg_error = None
    try:
        deg = degree(phases, g)
    except UnresolvedWindingError as exc:
        deg_error = str(exc)
    return EquilibriumReport(
        field=phases, residual=residual, energy=energy,
        hessian_min_eig=hess_eig, stability=verdict, degree=deg,
        steps=steps, time=t, step_size=h, converged=converged,
        halvings=halvings, degree_error=deg_error, **extra)


def integrate_to_equilibrium(g: FractalGraph, u0, cfg: FlowConfig | None = None) -> EquilibriumReport:
    """RK4 integration of the flow in fixed-step blocks, finished by Newton.

    The step is :func:`default_step` at the state each block starts from:
    RK4's stability bound inside a cell, a fifth of it while an edge is at
    a quarter turn or more.  The energy is monitored in blocks; if it ever
    increases the block is rewound and the step halved, the safety net
    should the derived step still be too large.
    Non-convergence within the time budget is reported in the
    ``converged`` flag, not raised.

    The flow decides where it comes to rest; Newton only finishes the
    approach, by one rule.  At the first accepted block whose state lies in
    a cell Omega_k = {|u_j - u_i - k_e| < 1/4} of the lift (every wrapped
    difference under a quarter turn), the damped Newton iteration of
    :func:`solve_equilibrium` runs once from the block state.  If its end
    u* lies in the same cell, ``W =`` :func:`cell_wall_energy` of u* is
    kept, and this block or any later one in the same cell hands off with
    u* as the end as soon as its energy is below ``W``, whatever its
    residual, with no further Newton run.  A block in another cell runs
    Newton once for that cell.  A flow the rule does not finish runs RK4
    to ``cfg.tol``.

    The rule keeps the flow's answer.  ``W`` bounds the energy from below
    on the walls of Omega_k.  The block state lies in Omega_k with energy
    below ``W``, and the gradient flow that RK4 follows never raises E, so
    it never reaches a wall and stays in Omega_k.  There the Hessian is a
    Laplacian with positive weights c cos 2 pi d, so E is strictly convex
    modulo rotation, and the flow's limit is the only critical point in
    Omega_k with the block state's mean phase: u*, which has that mean
    phase (the flow keeps it) and lies in Omega_k.  The rule stands in for
    the rest of the flow, so a block past ``cfg.max_time`` does not use it.

    Newton's first factor must certify the pinned Hessian positive
    definite, so saddle passages stay on RK4, and its step cap keeps the
    degree the flow has reached.  A finished run reports ``method ==
    "flow+newton"``, with ``steps``, ``time`` and ``halvings`` counting the
    RK4 part up to the handoff block and ``newton_steps`` the Newton run
    that gave its end, and is classified with Newton's last factor.  Its
    ``trajectory`` ends at the handoff with one more row for the polished
    point, at the handoff time.
    """
    cfg = cfg or FlowConfig()
    u = g.check_field(u0).copy()
    i, j = g.edges.T
    c = g.conductance
    n = g.n_vertices
    h = None   # the last block's step, once a block runs

    def rhs(x):
        return _edge_sine_sum(x, i, j, c, n)

    t = 0.0
    steps = 0
    halvings = 0
    cell = None   # (k, W, Newton's end) of the last cell Newton ran in
    res = float(np.abs(rhs(u)).max())
    energy = _km_energy_fast(u, i, j, c)
    rows = [(t, energy, res)]
    while res >= cfg.tol and t < cfg.max_time:
        u_block = u.copy()
        h = default_step(g, u) * 0.5 ** halvings
        for _ in range(CHECK_EVERY):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * h * k1)
            k3 = rhs(u + 0.5 * h * k2)
            k4 = rhs(u + h * k3)
            u += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        new_energy = _km_energy_fast(u, i, j, c)
        if new_energy > energy + 1e-13 * max(1.0, abs(energy)):
            # reject the block: the step is too large for stability
            u = u_block
            h *= 0.5
            halvings += 1
            if halvings > MAX_HALVINGS:
                break
            continue
        energy = new_energy
        steps += CHECK_EVERY
        t += CHECK_EVERY * h
        res = float(np.abs(rhs(u)).max())
        rows.append((t, energy, res))
        if res < cfg.tol:
            break
        lift = u[j] - u[i]
        k = np.round(lift)
        if t < cfg.max_time and np.abs(lift - k).max() < 0.25:
            if cell is None or not np.array_equal(k, cell[0]):
                cell = None   # its factor is not kept while Newton factors
                out = _newton(g, u, cfg)
                wall = -math.inf
                if (not isinstance(out, str)
                        and np.abs(out[0][j] - out[0][i] - k).max() < 0.25):
                    wall = cell_wall_energy(g, out[0])
                cell = (k, wall, out)
            if energy < cell[1]:
                u_end, res_end, newton_steps, _, _, factor = cell[2]
                rows.append((t, _km_energy_fast(u_end, i, j, c), res_end))
                return _finalize(g, u_end, res_end, steps, t, h, True, halvings,
                                 factor, method="flow+newton",
                                 newton_steps=newton_steps, trajectory=rows)
    if h is None:
        h = default_step(g, u)
    return _finalize(g, u, res, steps, t, h, res < cfg.tol, halvings,
                     trajectory=rows)


def _newton(g: FractalGraph, u, cfg: FlowConfig):
    """Damped Newton from ``u``, with vertex 0 held fixed.

    Returns ``(field, residual, newton_steps, step_size, halvings,
    factor)``, with the field shifted back to the mean phase of ``u`` and
    ``factor``: the pinned Hessian at that field, wrapped, factored by
    :func:`dirichlet._pinned_factor`, which certifies it positive definite
    and is exactly what the report classifies.  Or a string naming why the
    iteration failed.  See :func:`solve_equilibrium`.  One factor is alive
    at a time: each is dropped once its step is solved.
    """
    u_start = u
    u = u.copy()
    i, j = g.edges.T
    c = g.conductance
    n = g.n_vertices
    energy = _km_energy_fast(u, i, j, c)
    t = 0.0
    halvings = 0
    for iters in range(NEWTON_MAX_ITERS + 1):
        rhs = _edge_sine_sum(u, i, j, c, n)
        res = float(np.abs(rhs).max())
        if res < cfg.tol:
            break
        if iters == NEWTON_MAX_ITERS:
            return f"no convergence in {NEWTON_MAX_ITERS} Newton steps"
        factor = _pinned_factor(g, _hessian_weights(u, i, j, c))
        if factor is None:
            return "pinned Hessian not positive definite"
        # rhs = -2 pi grad E and H is the Hessian of E
        step = np.zeros_like(u)
        step[1:] = factor.solve(rhs[1:]) / TWO_PI
        del factor
        slope = -float(np.dot(rhs, step)) / TWO_PI
        d = _wrapped_diff(u, i, j)
        dd = step[j] - step[i]
        moving = dd != 0.0
        t = 1.0
        if moving.any():
            t = min(t, 0.9 * float(np.min(
                (0.5 - np.abs(d[moving])) / np.abs(dd[moving]))))
        # Armijo, widened by the rounding slack of the flow's energy monitor:
        # near the solution the decrease is below what the energy resolves
        slack = 1e-13 * max(1.0, abs(energy))
        while True:
            cand = u + t * step
            e_cand = _km_energy_fast(cand, i, j, c)
            if e_cand <= energy + ARMIJO * t * slope + slack:
                break
            t *= 0.5
            halvings += 1
            if t < NEWTON_MIN_STEP:
                return f"line search step below {NEWTON_MIN_STEP:g}"
        u, energy = cand, e_cand
    u += np.mean(u_start) - np.mean(u)
    factor = _pinned_factor(g, _hessian_weights(wrap_phases(u), i, j, c))
    if factor is None:
        return "pinned Hessian not positive definite"
    return u, res, iters, t, halvings, factor


def solve_equilibrium(g: FractalGraph, u0, cfg: FlowConfig | None = None) -> EquilibriumReport:
    """Damped Newton on the energy gradient, with vertex 0 held fixed.

    The pinned Hessian is factored at every iterate by
    :func:`dirichlet._pinned_factor`, which eliminates each cell's
    midpoints level by level, finest first, and certifies every block
    positive definite.
    Once the residual is below ``cfg.tol``, the field is shifted back to
    the start's mean phase and wrapped, and the pinned Hessian there is
    factored once more: Newton ends only where that factor certifies it
    positive definite, so it never returns a saddle, and the same factor
    classifies the result (``newton_steps + 1`` factorisations in all).
    Each step is capped so that no wrapped edge difference crosses a half
    turn: every loop winding, hence the start's degree vector, is kept.
    The energy line search is Armijo's, and also accepts a rise within
    rounding (the slack the flow's energy monitor allows).  The flow
    conserves the mean phase, so the shifted field matches the flow's
    equilibrium pointwise.  The report has ``method == "newton"`` and
    counts the iterations in ``newton_steps``.

    If a factor is not certified, the line search falls below
    ``NEWTON_MIN_STEP`` or ``NEWTON_MAX_ITERS`` steps pass, Newton refuses
    the start: the report is of the wrapped start, with ``fallback``
    naming the reason and ``converged`` whether its residual is below
    ``cfg.tol``.  No flow stands in: the step cap keeps Newton in the
    start's homotopy class, so it does not answer whether the flow from
    ``u0`` stays there, a question for :func:`integrate_to_equilibrium`.
    """
    cfg = cfg or FlowConfig()
    u0 = g.check_field(u0)
    out = _newton(g, u0, cfg)
    if isinstance(out, str):   # refused: the report of the wrapped start
        res = float(np.abs(km_rhs(g, wrap_phases(u0))).max())
        return _finalize(g, u0, res, 0, 0.0, 0.0, res < cfg.tol, 0,
                         method="newton", fallback=out)
    u, res, newton_steps, t, halvings, factor = out
    return _finalize(g, u, res, 0, 0.0, t, True, halvings, factor,
                     method="newton", newton_steps=newton_steps)


def _hessian_weights(u, i, j, c):
    return c * np.cos(TWO_PI * _wrapped_diff(u, i, j))


def hessian_stability(g: FractalGraph, u):
    """Smallest Hessian eigenvalue with vertex 0 held fixed, with verdict.

    For a field that no Newton run has factored (a flow-only end, or any
    given equilibrium): the residual must be below ``EQUILIBRIUM_TOL``,
    and the pinned Hessian is factored cell by cell as in
    :func:`solve_equilibrium` and classified by :func:`_classify`.  A
    Newton-ended report already carries this eigenvalue, bit for bit, from
    Newton's last factor.
    """
    u = g.check_field(u)
    res = float(np.abs(km_rhs(g, u)).max())
    if res >= EQUILIBRIUM_TOL:
        raise NotAnEquilibriumError(
            f"residual {res:.3e} >= {EQUILIBRIUM_TOL:g}; stability is "
            f"defined at equilibria")
    w = _hessian_weights(u, *g.edges.T, g.conductance)
    return _classify(g, u, _pinned_factor(g, w))


def _lanczos_min_eig(solve, n):
    """Smallest eigenvalue of a positive definite H from ``solve`` (H^-1).

    Lanczos on H^-1 (Paige, J. Inst. Math. Appl. 10, 1972), from the
    normalised ones vector, each new vector orthogonalised twice against
    the whole basis (classical Gram-Schmidt).  The top Ritz value theta of
    the tridiagonal T_k has the residual bound beta_k |s_k|, with s its
    eigenvector; once that is within a few ulps of theta, or the basis
    spans all n dimensions, 1 / theta is the eigenvalue.  If
    ``LANCZOS_BASIS`` vectors do not resolve it, :class:`EigensolverError`.
    """
    basis = [np.full(n, 1.0 / math.sqrt(n))]
    alpha, beta = [], []
    for k in range(1, min(n, LANCZOS_BASIS) + 1):
        w = solve(basis[-1])
        a = 0.0
        for _ in range(2):
            h = [float(q @ w) for q in basis]
            for c, q in zip(h, basis):
                w -= c * q
            a += h[-1]
        alpha.append(a)
        beta.append(math.sqrt(float(w @ w)))
        # eigh reads T_k's lower triangle only
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
        # 4e-16: about two ulps of theta
        if k == n or beta[-1] * abs(s[-1, -1]) <= 4e-16 * theta[-1]:
            return 1.0 / theta[-1]
        basis.append(w / beta[-1])
    raise EigensolverError(
        n, f"no Ritz value resolved in {LANCZOS_BASIS} Lanczos vectors")


def _classify(g, u, factor):
    """Smallest eigenvalue of the pinned Hessian H at ``u``, with verdict.

    ``factor`` is :func:`dirichlet._pinned_factor` of H, which certifies it
    positive definite, or None.  With a certificate,
    :func:`_lanczos_min_eig` runs on that factor's solve from a fixed start
    vector, so the eigenvalue is bitwise reproducible; lambda_2 / lambda_1
    is about 8 on the gasket and 4 on the ring, so it takes at most 9
    solves (ARPACK's shift-invert ``eigsh``, the tests' check, takes 10).
    Without one, each certified factor of H - sigma I proves sigma below
    lambda_min.  Gershgorin's sigma = -2 max_i sum_j |w_ij| must certify
    (else :class:`EigensolverError`; no route densifies), and 52 halvings
    of [sigma, 0] leave a bracket within 2^-52 of it, whose upper end is
    the eigenvalue: 53 factorisations.  Verdict is ``"stable"`` above the
    band of half-width ``STABILITY_BAND`` about 0, ``"saddle"`` below it,
    and ``"degenerate"`` inside it.
    """
    if factor is not None:
        eig = _lanczos_min_eig(factor.solve, g.n_vertices - 1)
    else:
        edges = g.edges
        w = _hessian_weights(u, *edges.T, g.conductance)
        lo = -2.0 * np.bincount(edges.ravel(), np.repeat(np.abs(w), 2)).max()
        if _pinned_factor(g, w, lo) is None:
            raise EigensolverError(
                g.n_vertices - 1, f"Gershgorin's bound {lo:.6g} did not certify")
        eig = 0.0   # [lo, eig] brackets lambda_min
        for _ in range(52):
            mid = 0.5 * (lo + eig)
            if _pinned_factor(g, w, mid) is None:
                eig = mid
            else:
                lo = mid
    eig = float(eig)
    if eig > STABILITY_BAND:
        verdict = "stable"
    elif eig < -STABILITY_BAND:
        verdict = "saddle"
    else:
        verdict = "degenerate"
    return eig, verdict


def twisted_state(g: FractalGraph, q: int) -> np.ndarray:
    """Ring state u(v_i) = q i 2**-n mod 1 of integer winding q."""
    if len(g.boundary_ids) != 1:   # the level-0 cell's ends are one vertex
        raise ValueError("twisted states live on the ring")
    q = as_integer(q, "q")
    return wrap_phases(q * np.arange(g.n_vertices) / g.n_vertices)


def half_twisted_state(g: FractalGraph, r: float) -> np.ndarray:
    """Ring saddle equilibrium with half-integer winding parameter ``r``.

    Vertex i carries r*i/(2**n - 2) for i = 1..2**n, with index 2**n
    falling on vertex 0, so n is at least 2.
    """
    if len(g.boundary_ids) != 1:
        raise ValueError("half-twisted states live on the ring")
    if g.level < 2:
        raise ValueError(
            f"half-twisted states need ring level 2 or more, not {g.level}")
    if not math.isfinite(2 * r) or float(2 * r) != int(2 * r) or int(2 * r) % 2 == 0:
        raise ValueError("r must be a half-integer")
    n = g.n_vertices
    idx = np.arange(n, dtype=float)
    idx[0] = n
    return wrap_phases(r * idx / (n - 2))
