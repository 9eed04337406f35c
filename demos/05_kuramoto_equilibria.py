"""Stable Kuramoto equilibria sit next to the harmonic maps.

Starting the phase-oscillator flow from a projected harmonic map, the
system settles at a nearby stable equilibrium with the same windings.
Twisted states play this role on the ring, with a clean stability
boundary at a quarter turn per step and saddle points between basins.
"""

import numpy as np

from fractalsync import (DegreeVector, build_ring_graph, build_sg_graph,
                         circle_distance, circle_harmonic_map,
                         half_twisted_state, hessian_stability,
                         integrate_to_equilibrium, km_energy, km_rhs,
                         twisted_state)
from fractalsync.svg import render_field_svg

omega = DegreeVector({(): 1})
for n in (3, 4, 5):
    g = build_sg_graph(n)
    phases, lift = circle_harmonic_map(g, omega)
    rep = integrate_to_equilibrium(g, phases)
    d = circle_distance(rep.field, phases).max()
    print(f"level {n}: residual {rep.residual:.1e}, {rep.stability}, "
          f"degree {rep.degree.to_dense(0)}, distance to harmonic map {d:.2e}")

g = build_sg_graph(5)
phases, _ = circle_harmonic_map(g, omega)
rep = integrate_to_equilibrium(g, phases)
render_field_svg(g, rep.field, "equilibrium_unit_winding.svg", mode="phase")
print("\nwrote equilibrium_unit_winding.svg (phase as hue)")

# ring stability boundary: cos(2 pi q / 2^n) changes sign at q = 2^n/4
ring = build_ring_graph(5)
print("\nring twisted states, n=5:")
for q in (1, 4, 7, 8, 9, 12):
    u = twisted_state(ring, q)
    eig, verdict = hessian_stability(ring, u)
    print(f"  q={q:2d}: rhs {np.abs(km_rhs(ring, u)).max():.1e}, "
          f"min Hessian eig {eig:+.3e}, {verdict}")

ht = half_twisted_state(build_ring_graph(4), 0.5)
eig, verdict = hessian_stability(build_ring_graph(4), ht)
print(f"\nhalf-twisted state (r=1/2, n=4): equilibrium with {verdict} "
      f"Hessian (min eig {eig:+.3f})")
print("its energy:", km_energy(build_ring_graph(4), ht))
