"""Circle-valued harmonic maps of prescribed degree via a cut domain.

Winding constraints cannot be imposed on single-valued real fields, so
one vertex per twisted loop is split in two and the prescribed integer
jump is imposed across the pair.  Minimising the energy under the jumps,
extending level by level, and reducing mod 1 yields a phase field with
exactly the requested windings and zero boundary flux.
"""

import numpy as np

from fractalsync import (DegreeVector, build_sg_graph, covering_domain, degree,
                         extend_lift, minimize_constrained, neumann_check,
                         project_to_circle)

omega = DegreeVector({(): 1})
g1 = build_sg_graph(1)
dom1 = covering_domain(g1, omega)
cut = dom1.cuts[0]
print("cut vertex for the outer loop:", cut.cut_vertex,
      "at", g1.coords[cut.cut_vertex], f"jump {cut.jump}")

lift1 = minimize_constrained(dom1)
print("level-1 minimiser (v1, x, z-, v2, y, v3, z+):")
print("  ", np.round(lift1.values, 6), " = (0, 1, -1, 2, 3, 4, 5)/6")
print("energy:", lift1.energy(), "= 5/12")

# extension never changes the energy, and the restriction of a finer
# minimiser is the coarser one
g5 = build_sg_graph(5)
lift5 = extend_lift(lift1, 5)
print("\nlevel-5 extension energy:", lift5.energy())

phases = project_to_circle(lift5)
print("degree of the projected field:", degree(phases, g5).to_dense(1))

flux = neumann_check(lift5)
print("boundary flux after projection:",
      {k: f"{v:.2e}" for k, v in flux.items()})

# several simultaneous twists need one cut per loop
mixed = DegreeVector({(): 1, (1,): -1, (3,): 2})
g4 = build_sg_graph(4)
dom4 = covering_domain(g4, mixed)
print(f"\ndegree {mixed!r}: {len(dom4.cuts)} cuts at vertices",
      [c.cut_vertex for c in dom4.cuts])
seed = minimize_constrained(covering_domain(build_sg_graph(2), mixed))
ph = project_to_circle(extend_lift(seed, 4))
print("achieved degree:", degree(ph, g4).to_dense(1))
