import numpy as np
import pytest

V0 = np.array([[0.0, 0.0], [0.5, np.sqrt(3.0) / 2.0], [1.0, 0.0]])


def contraction(i, p):
    """F_i(p) = (p - v_i)/2 + v_i, independent of the package's machinery."""
    return (np.asarray(p, dtype=float) - V0[i - 1]) / 2.0 + V0[i - 1]


def apply_word(word, p):
    """F_w = F_{w1} o F_{w2} o ... o F_{wn} applied to a point."""
    p = np.asarray(p, dtype=float)
    for s in reversed(word):
        p = contraction(s, p)
    return p


def enumerate_gasket(n):
    """Brute-force oracle: cells, vertices (deduplicated by coordinates at
    1e-12) and edges of the level-n graph, with no itinerary machinery."""
    from itertools import product

    points = {}

    def pid(p):
        key = (round(p[0], 12), round(p[1], 12))
        return points.setdefault(key, len(points))

    cells = []
    edges = set()
    for w in product((1, 2, 3), repeat=n):
        ids = [pid(apply_word(w, V0[k])) for k in range(3)]
        cells.append(tuple(ids))
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edges.add(frozenset((ids[a], ids[b])))
    coords = np.zeros((len(points), 2))
    for (x, y), k in points.items():
        coords[k] = (x, y)
    return coords, cells, edges


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250810)


def rk4_reference(g, u0, cfg=None):
    """Plain fixed-step RK4 to ``cfg.tol``: the flow's loop and block energy
    monitor with no Newton finish, the oracle for every faster solver."""
    from fractalsync import FlowConfig, km_rhs
    from fractalsync.kuramoto import _finalize, _km_energy_fast, default_step

    cfg = cfg or FlowConfig()
    u = np.array(u0, dtype=float)
    i, j, w = g.edges[:, 0], g.edges[:, 1], g.edge_weights
    h = cfg.step if cfg.step is not None else default_step(g)
    t, steps, halvings = 0.0, 0, 0
    res = float(np.abs(km_rhs(g, u)).max())
    energy = _km_energy_fast(u, i, j, w)
    while res >= cfg.tol and t < cfg.max_time:
        block = u.copy()
        for _ in range(cfg.check_every):
            k1 = km_rhs(g, u)
            k2 = km_rhs(g, u + 0.5 * h * k1)
            k3 = km_rhs(g, u + 0.5 * h * k2)
            k4 = km_rhs(g, u + h * k3)
            u += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        new_energy = _km_energy_fast(u, i, j, w)
        if new_energy > energy + 1e-13 * max(1.0, abs(energy)):
            u, h, halvings = block, 0.5 * h, halvings + 1
            if halvings > cfg.max_halvings:
                break
            continue
        energy, steps, t = new_energy, steps + cfg.check_every, t + cfg.check_every * h
        res = float(np.abs(km_rhs(g, u)).max())
    return _finalize(g, u, res, steps, t, h, res < cfg.tol, halvings)
